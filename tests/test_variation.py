"""Variation sums and the Cantor function oracle."""

import re

import numpy as np
import pytest
from conftest import variation_table

from fracpath.errors import InvalidParameterError, InvalidPhiError
from fracpath.partitions import Partition
from fracpath.paths import SampledPath
from fracpath.variation import (
    cantor_function,
    phi_variation_partial,
    pth_variation_partial,
)

# --------------------------------------------------------------------------- #
# cantor function reference values
# --------------------------------------------------------------------------- #


def test_cantor_function_exact_rationals():
    # endpoints and the plateau over the middle-third gap
    assert cantor_function(0.0) == 0.0
    assert cantor_function(1.0) == 1.0
    assert cantor_function(1 / 3) == 0.5
    assert cantor_function(0.5) == 0.5
    assert cantor_function(2 / 3) == 0.5
    assert cantor_function(1 / 9) == 0.25
    # ternary 0.020202... and 0.202020...: exact periodic float orbits
    assert cantor_function(0.25) == pytest.approx(1 / 3, abs=1e-15)
    assert cantor_function(0.75) == pytest.approx(2 / 3, abs=1e-15)


def test_cantor_function_vectorized_monotone():
    ts = np.linspace(0.0, 1.0, 2001)
    vals = cantor_function(ts)
    assert vals.shape == ts.shape
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.isscalar(cantor_function(0.3)) or np.ndim(cantor_function(0.3)) == 0


# --------------------------------------------------------------------------- #
# power-sum basics
# --------------------------------------------------------------------------- #


def _vee():
    return SampledPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.25]))


def test_pth_variation_hand_sum():
    path = _vee()
    part = Partition(path.times)
    assert pth_variation_partial(path, part, 1.0) == pytest.approx(1.75)
    assert pth_variation_partial(path, part, 2.0) == pytest.approx(1.0 + 0.75**2)
    with pytest.raises(InvalidParameterError):
        pth_variation_partial(path, part, 0.0)


def test_partial_time_clipping():
    path = _vee()
    part = Partition(path.times)
    # stopped at t=0.5 only the first increment contributes
    assert pth_variation_partial(path, part, 2.0, t=0.5) == pytest.approx(1.0)
    # t inside the last interval clips its increment
    v = pth_variation_partial(path, part, 2.0, t=0.75)
    assert v == pytest.approx(1.0 + (1.0 - path.value_at(0.75)) ** 2)
    with pytest.raises(InvalidParameterError):
        pth_variation_partial(path, part, 2.0, t=-0.1)


def test_variation_table_matches_loop(cantor8):
    path, part, _ = cantor8
    ts = np.array([0.0, 0.1, 1 / 3, 0.4, 0.5, 2 / 3, 0.8, 0.95, 1.0])
    table = variation_table(path, part, 2.5, ts)
    loop = np.array([pth_variation_partial(path, part, 2.5, t) for t in ts])
    assert np.allclose(table, loop, rtol=1e-12, atol=1e-15)
    # partial sums of a nonnegative summand are monotone in t
    assert np.all(np.diff(table) >= -1e-15)


def test_phi_variation_matches_power(cantor8):
    path, part, _ = cantor8
    p = 2.5
    a = phi_variation_partial(path, part, lambda x: x**p)
    b = pth_variation_partial(path, part, p)
    assert a == b
    with pytest.raises(InvalidPhiError):
        phi_variation_partial(path, part, lambda x: x - 1.0)


@pytest.mark.filterwarnings("error")  # refused with no numpy RuntimeWarning on the way
def test_pth_variation_overflow_names_the_power():
    # the p-th power overflows, not a gauge: a given gauge keeps its own message
    path = SampledPath(np.array([0.0, 1.0, 2.0]), np.array([0.0, 3e200, 1e200]))
    part = Partition(path.times)
    message = "|dS| at index 0 must keep |dS|^2.5 finite, got 3e+200"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        pth_variation_partial(path, part, 2.5)
    message = "phi(|dS|) at index 0 must be finite and nonnegative, got inf"
    with pytest.raises(InvalidPhiError, match=f"^{re.escape(message)}$"):
        phi_variation_partial(path, part, lambda x: x**2.5)
