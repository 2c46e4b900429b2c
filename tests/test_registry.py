"""Named function constructors and the config-dict factories."""

import math
import tracemalloc

import numpy as np
import pytest

from fracpath.errors import InvalidConfigError, InvalidParameterError
from fracpath.registry import (
    abs_power,
    abs_power_series,
    exp_fn,
    make_fn,
    make_path,
    make_phi,
    make_time_fn,
    moving_abs_power,
    plus_power,
    polynomial,
    sin_affine,
)


def test_abs_power_derivatives():
    f = abs_power(2.5, k=0.3)
    x = np.array([-0.5, 0.3, 1.1])
    assert np.allclose(f.fn(x), np.abs(x - 0.3) ** 2.5)
    assert np.allclose(f.derivs[0](x), 2.5 * np.sign(x - 0.3) * np.abs(x - 0.3) ** 1.5)
    assert f.kinks == ((0.3, 2.5),)
    with pytest.raises(InvalidParameterError):
        abs_power(-1.0)


def closed_form(q: float, j: int, y: float, kind: str) -> float:
    """j-th derivative of |y|^q (kind "abs") or (y)_+^q (kind "plus") as a
    Python float: q (q-1) ... (q-j+1) |y|^(q-j), signed like y^j for "abs",
    and 0 at the kink."""
    if y == 0.0 or (kind == "plus" and y < 0.0):
        return 0.0
    coeff = math.prod(q - i for i in range(j))
    power = abs(y) ** (q - j)
    return coeff * (math.copysign(power, y) if kind == "abs" and j % 2 else power)


@pytest.mark.parametrize("q", (0.5, 1.5, 2.5, 3.2))
def test_kinked_power_derivatives_match_the_closed_form(q):
    k = 0.3
    xs = np.array([-0.9, -0.05, 0.3, 0.31, 1.7])
    for kind, f in (("abs", abs_power(q, k)), ("plus", plus_power(q, k))):
        for j in range(4):
            got = f.derivative(j).fn(xs)
            for x, value in zip(xs, got):
                want = closed_form(q, j, float(x) - k, kind)
                if want == 0.0:  # at the kink, and left of it for plus
                    assert value == 0.0, (kind, j, x)
                else:
                    assert value == pytest.approx(want, rel=1e-14), (kind, j, x)


def test_kinked_powers_refuse_non_finite_parameters():
    for bad in (math.nan, math.inf):
        for build in (abs_power, plus_power, abs_power_series, moving_abs_power):
            with pytest.raises(InvalidParameterError, match="q must be positive and finite"):
                build(bad)
        for build in (abs_power, plus_power):
            with pytest.raises(InvalidParameterError, match="k must be finite"):
                build(2.5, bad)


def test_plus_power_one_sided():
    f = plus_power(1.7)
    x = np.array([-2.0, -0.1, 0.4])
    got = f.fn(x)
    assert got[0] == 0.0 and got[1] == 0.0
    assert got[2] == pytest.approx(0.4**1.7)


def test_polynomial_matches_numpy():
    coeffs = [1.0, -2.0, 0.0, 3.0]
    f = polynomial(coeffs)
    x = np.linspace(-1.0, 1.0, 7)
    assert np.allclose(f.fn(x), np.polynomial.polynomial.polyval(x, coeffs))
    assert np.allclose(f.derivs[0](x), np.polynomial.polynomial.polyval(x, [-2.0, 0.0, 9.0]))


def test_sin_exp_basic():
    s = sin_affine(amp=2.0, freq=3.0, shift=0.5)
    assert float(s.fn(np.array(0.0))) == pytest.approx(2.0 * math.sin(0.5))
    e = exp_fn(rate=-1.0)
    assert float(e.derivs[0](np.array(0.0))) == pytest.approx(-1.0)


def test_abs_power_series_brute_sum():
    q, count = 0.5, 12
    f = abs_power_series(q, count)
    # independent oracle: canonical rationals by ascending denominator
    locs, den = [], 2
    while len(locs) < count:
        for num in range(1, den):
            if math.gcd(num, den) == 1:
                locs.append(num / den)
                if len(locs) == count:
                    break
        den += 1
    for x in (0.5, 0.8, 0.137):
        brute = sum((j + 1) ** -2.0 * abs(x - r) ** q for j, r in enumerate(locs))
        assert float(f.fn(np.array(x))) == pytest.approx(brute, rel=1e-14)
        for order in (1, 2, 3):
            brute = sum(
                (j + 1) ** -2.0 * closed_form(q, order, x - r, "abs") for j, r in enumerate(locs)
            )
            assert float(f.derivative(order).fn(np.array(x))) == pytest.approx(brute, rel=1e-12)
    assert len(f.kinks) == count


def test_abs_power_series_is_summed_in_bounded_memory():
    # 2**12 points by 1000 kinks are 129 MiB as one (point, kink) array; rows of
    # at most 2**18 values keep the peak small, and each point is still summed
    # along all its kinks at once, so every value is the one-array float
    q, count = 2.5, 1000
    f = abs_power_series(q, count)
    xs = np.linspace(-0.5, 1.5, 2**12).reshape(64, 64)
    tracemalloc.start()
    try:
        values, slopes = f.fn(xs), f.derivs[0](xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    w = np.arange(1, count + 1, dtype=float) ** -2.0
    y = xs[..., None] - np.array([loc for loc, _ in f.kinks])
    whole = np.sum(w * np.abs(y) ** q, axis=-1)
    assert values.shape == whole.shape and values.tobytes() == whole.tobytes()
    whole = q * np.sum(w * np.copysign(np.abs(y) ** (q - 1.0), y), axis=-1)
    assert slopes.shape == whole.shape and slopes.tobytes() == whole.tobytes()
    # a scalar point stays a scalar
    assert np.ndim(f.fn(0.25)) == 0 and f.fn(0.25) == f.fn(np.array([0.25]))[0]


# --------------------------------------------------------------------------- #
# config factories
# --------------------------------------------------------------------------- #


def test_make_fn_dispatch():
    f = make_fn({"name": "abs-power", "q": 2.25})
    assert float(f.fn(np.array(-1.0))) == 1.0
    g = make_fn({"name": "poly", "coeffs": [0.0, 1.0]})
    assert float(g.fn(np.array(0.7))) == 0.7
    with pytest.raises(InvalidConfigError):
        make_fn({"name": "sawtooth"})
    with pytest.raises(InvalidConfigError):
        make_fn({"q": 2.0})
    with pytest.raises(InvalidConfigError):
        make_fn({"name": "abs-power", "qq": 2.0})
    # time bundles do not fit a plain function slot, and say so
    with pytest.raises(InvalidConfigError, match="time-dependent"):
        make_fn({"name": "abs-power-moving", "q": 2.5})


def test_make_time_fn_dispatch():
    bundle = make_time_fn({"name": "abs-power-moving", "q": 2.5, "speed": 0.3})
    assert float(bundle.fn(np.array(0.0), np.array(0.5))) == pytest.approx(0.5**2.5)
    with pytest.raises(InvalidConfigError):
        make_time_fn({"name": "abs-power"})


def test_make_phi_and_path():
    spec = make_phi({"kind": "power", "p_phi": 1.25})
    assert spec.p_phi == 1.25
    with pytest.raises(InvalidConfigError):
        make_phi({"kind": "power", "bogus": 1.0})
    path = make_path({"kind": "cantor-distance", "p": 2.5})
    assert float(path(0.5)) == pytest.approx(2.0 ** (-1 / 2.5))
    with pytest.raises(InvalidConfigError):
        make_path({"p": 2.5})
