"""The kink-graded quadrature rule against closed-form integrals."""

import math

import numpy as np
import pytest

from fracpath._quad import gauss_legendre, integrate_kinked
from fracpath.errors import InvalidParameterError, QuadratureError


@pytest.mark.parametrize("s", [-0.9, -0.5, 0.05, 0.5, 2.2])
def test_kink_at_zero(s):
    got = integrate_kinked(lambda t: np.abs(t) ** s, 0.0, 1.0, [(0.0, s)], 1e-12)
    assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-12)


@pytest.mark.parametrize("s", [-0.5, -0.3, 0.05, 0.5, 2.2])
def test_interior_kink(s):
    # integral_0^1 |t - k|^s dt = (k^(s+1) + (1-k)^(s+1)) / (s+1)
    k = 0.3
    want = (k ** (s + 1.0) + (1.0 - k) ** (s + 1.0)) / (s + 1.0)
    got = integrate_kinked(lambda t: np.abs(t - k) ** s, 0.0, 1.0, [(k, s)], 1e-12)
    assert got == pytest.approx(want, rel=1e-11)


def test_kink_beyond_an_end_grades_within_one_piece_length():
    # the singular point 1.2 sits 0.2 beyond [0, 1]: the end is graded toward it
    s = -0.6
    want = (1.2 ** (s + 1.0) - 0.2 ** (s + 1.0)) / (s + 1.0)
    got = integrate_kinked(lambda t: np.abs(t - 1.2) ** s, 0.0, 1.0, [(1.2, s)], 1e-12)
    assert got == pytest.approx(want, rel=1e-11)


def test_failure_names_the_kink():
    # |t - 0.7|^0.05 is undeclared, so the piece graded toward 0 cannot settle
    def g(t):
        return np.abs(t) ** 0.5 + np.abs(t - 0.7) ** 0.05

    with pytest.raises(QuadratureError, match=r"kink at 0 with exponent s = 0.5"):
        integrate_kinked(g, 0.0, 1.0, [(0.0, 0.5)], 1e-12)


def test_non_finite_panel_sum_raises():
    with pytest.raises(QuadratureError, match="panel sum is inf"):
        integrate_kinked(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0, [], 1e-9)


def test_non_integrable_kink_rejected():
    with pytest.raises(InvalidParameterError, match="not integrable"):
        integrate_kinked(lambda t: np.abs(t) ** -1.0, 0.0, 1.0, [(0.0, -1.0)], 1e-9)
    assert integrate_kinked(np.cos, 1.0, 1.0, [(0.0, -1.0)], 1e-9) == 0.0
    assert integrate_kinked(np.cos, 0.0, math.pi / 2, [], 1e-12) == pytest.approx(1.0, rel=1e-12)


def test_lazy_node_table_is_numpys_bit_for_bit():
    nodes, weights = gauss_legendre(32)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(32)
    assert np.array_equal(nodes.view(np.uint64), ref_nodes.view(np.uint64))
    assert np.array_equal(weights.view(np.uint64), ref_weights.view(np.uint64))
    assert gauss_legendre(32)[0] is nodes  # built once
    assert not nodes.flags.writeable and not weights.flags.writeable
