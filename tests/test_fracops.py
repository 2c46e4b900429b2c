"""Fractional integrals and derivatives against their closed-form rules."""

import math

import numpy as np
import pytest

from fracpath.errors import (
    InsufficientDerivativesError,
    InvalidParameterError,
    NoLimitError,
)
from fracpath.fracops import (
    FracOrder,
    caputo,
    caputo_power,
    frac_taylor_check,
    local_frac_derivative,
    power_rule,
    rl_integral,
)
from fracpath.registry import abs_power, abs_power_series, plus_power, polynomial, sin_affine
from fracpath.smooth import SmoothFn


def test_frac_order_split():
    o = FracOrder(2.5)
    assert o.m == 2
    assert o.alpha == 0.5
    with pytest.raises(InvalidParameterError):
        FracOrder(2.0)
    with pytest.raises(InvalidParameterError):
        FracOrder(-0.5)


def test_smoothfn_derivative_shifts_kinks():
    f = abs_power(2.5, 0.3)
    d2 = f.derivative(2)
    assert d2.kinks == ((0.3, 0.5),)
    assert d2.fn is f.derivs[1]
    assert d2.derivs == f.derivs[2:] and len(d2.derivs) == 1
    assert f.derivative(0) is f
    with pytest.raises(InsufficientDerivativesError):
        f.derivative(4)


# --------------------------------------------------------------------------- #
# Riemann-Liouville integral
# --------------------------------------------------------------------------- #


def test_rl_integral_of_one():
    alpha, a, x = 0.7, -0.2, 1.1
    want = (x - a) ** alpha / math.gamma(alpha + 1.0)
    assert rl_integral(lambda u: np.ones_like(u), alpha, a, x) == pytest.approx(want, rel=1e-9)


def test_rl_semigroup():
    # I^0.3 I^0.4 f = I^0.7 f for f = sin; the inner integral is itself
    # evaluated by quadrature at every outer node
    def inner(xs):
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        vals = np.array([rl_integral(np.sin, 0.4, 0.0, float(xi), rtol=1e-10) for xi in flat])
        return vals.reshape(xs.shape)

    lhs = rl_integral(inner, 0.3, 0.0, 0.7, rtol=1e-8)
    rhs = rl_integral(np.sin, 0.7, 0.0, 0.7, rtol=1e-11)
    assert lhs == pytest.approx(rhs, rel=1e-6)


# --------------------------------------------------------------------------- #
# Caputo derivative vs the power rule
# --------------------------------------------------------------------------- #


def test_power_rule_closed_form():
    q, p, k, x = 3.2, 0.7, 0.0, 1.3
    want = math.gamma(q + 1.0) / math.gamma(q - p + 1.0) * (x - k) ** (q - p)
    assert power_rule(q, FracOrder(p), k, x) == pytest.approx(want, rel=1e-14)


def test_caputo_square_order_half():
    # C^0.5 of x^2 from 0 is Gamma(3)/Gamma(2.5) x^1.5
    x = 0.8
    got = caputo(polynomial([0.0, 0.0, 1.0]), FracOrder(0.5), 0.0, x)
    want = 2.0 / math.gamma(2.5) * x**1.5
    assert got == pytest.approx(want, rel=1e-8)


def test_caputo_annihilates_constants():
    c = polynomial([3.7])
    for p in (0.5, 1.5, 2.5):
        assert abs(caputo(c, FracOrder(p), 0.0, 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "p,q,a,k,x,kind",
    [
        (0.6, 1.9, -0.3, -0.3, 0.9, "plus"),
        (0.6, 1.9, -0.3, 0.1, 0.9, "abs"),
        (1.4, 2.8, 0.0, 0.35, 1.2, "plus"),
        (1.4, 2.8, -0.2, 0.2, 1.0, "abs"),
        (2.3, 3.6, 0.1, 0.4, 1.1, "plus"),
        (2.3, 3.6, 0.0, 0.5, 1.3, "abs"),
        # exactly m derivatives supplied: the centered-difference branch
        (3.3, 4.5, 0.0, 0.2, 1.0, "plus"),
        (3.7, 5.2, 0.0, 0.2, 1.0, "abs"),
    ],
)
def test_caputo_matches_caputo_power(p, q, a, k, x, kind):
    order = FracOrder(p)
    fn = plus_power(q, k) if kind == "plus" else abs_power(q, k)
    direct = caputo(fn, order, a, x)
    closed = caputo_power(q, order, a, k, x, kind=kind)
    assert direct == pytest.approx(closed, rel=1e-7, abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_caputo_without_derivatives_matches_supplied(p):
    # a bare callable takes the centered-difference branch, sin_affine()
    # the integral of its supplied first derivative
    bare = caputo(np.sin, FracOrder(p), 0.0, 1.3)
    assert bare == pytest.approx(caputo(sin_affine(), FracOrder(p), 0.0, 1.3), rel=1e-9)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_caputo_difference_near_a_is_centered_on_x(p):
    # the step shrinks with x - a, so the difference stays centered on x
    def square(t):
        return t * t

    for x in (1e-9, 1e-6, 5e-6, 1.00001e-5, 2e-5, 1e-3, 1.0, 3.0):
        want = math.gamma(3.0) / math.gamma(3.0 - p) * x ** (2.0 - p)
        assert caputo(square, FracOrder(p), 0.0, x) == pytest.approx(want, rel=1e-8, abs=0), x
    assert caputo(square, FracOrder(p), 0.0, 1e-300) == 0.0  # the true value underflows
    # x - a too small for any step x can resolve
    for a, x in ((0.0, 5e-324), (0.0, 1e-320), (1.0, 1.0 + 2.0**-52)):
        with pytest.raises(InvalidParameterError, match="difference step at x - a = .* positive"):
            caputo(square, FracOrder(p), a, x)


def _sum_fn(f, g):
    """f + g with the derivatives summed and both kink lists kept."""
    return SmoothFn(
        fn=lambda x: f.fn(x) + g.fn(x),
        derivs=tuple((lambda x, df=df, dg=dg: df(x) + dg(x)) for df, dg in zip(f.derivs, g.derivs)),
        kinks=f.kinks + g.kinks,
    )


def _seeded_order(rng):
    p = rng.uniform(0.3, 2.7)
    return FracOrder(p if abs(p - round(p)) > 1e-3 else p + 0.01)


def test_caputo_matches_caputo_power_on_seeded_draws():
    # one kink at the base point or inside [a, x); every kink exponent from
    # q - m = 0.4 up is within reach of the graded panels
    rng = np.random.default_rng(7)
    for _ in range(200):
        order = _seeded_order(rng)
        q = order.m + rng.uniform(0.4, 2.5)
        a = rng.uniform(-0.5, 0.2)
        x = a + rng.uniform(0.3, 1.5)
        k = a if rng.random() < 0.3 else rng.uniform(a, x)
        kind = "abs" if rng.random() < 0.5 else "plus"
        fn = abs_power(q, k) if kind == "abs" else plus_power(q, k)
        closed = caputo_power(q, order, a, k, x, kind=kind)
        assert caputo(fn, order, a, x) == pytest.approx(closed, rel=1e-8, abs=1e-12)


def test_caputo_of_abs_power_series_settles():
    # twelve kinks of exponent q > m + 1 inside [0, x)
    rng = np.random.default_rng(0)
    for _ in range(38):
        order = _seeded_order(rng)
        q = rng.uniform(order.m + 1.2, order.m + 3.0)
        assert math.isfinite(caputo(abs_power_series(q), order, 0.0, rng.uniform(0.3, 1.0)))


def test_caputo_is_linear_across_a_kink():
    # a smooth part at the kink used to leave the panels unsettled
    f, g, order = abs_power(2.45, 0.3), sin_affine(), FracOrder(1.5)
    both = caputo(_sum_fn(f, g), order, 0.0, 1.0)
    assert both == pytest.approx(caputo(f, order, 0.0, 1.0) + caputo(g, order, 0.0, 1.0), rel=1e-12)


def test_caputo_power_validation():
    with pytest.raises(InvalidParameterError):
        caputo_power(0.8, FracOrder(1.5), 0.0, 0.2, 1.0)  # q <= m
    with pytest.raises(InvalidParameterError):
        caputo_power(2.5, FracOrder(1.5), 0.0, -0.1, 1.0)  # k < a
    with pytest.raises(InvalidParameterError):
        caputo_power(2.5, FracOrder(1.5), 0.0, 0.5, 0.5)  # x <= k
    with pytest.raises(InvalidParameterError):
        caputo_power(2.5, FracOrder(1.5), 0.0, 0.2, 1.0, kind="minus")


# --------------------------------------------------------------------------- #
# local (pointwise) fractional derivative
# --------------------------------------------------------------------------- #


def test_local_derivative_smooth_is_zero():
    for alpha in (0.3, 0.5, 0.8):
        assert abs(local_frac_derivative(np.sin, alpha, 0.0)) <= 1e-12


def test_local_derivative_pure_power():
    # |x|^p at 0 of order p recovers Gamma(p+1) on the nose
    for p in (0.5, 1.5, 2.5):
        got = local_frac_derivative(abs_power(p).fn, p, 0.0)
        assert got == pytest.approx(math.gamma(p + 1.0), rel=1e-12)
    # the left limit sees the same profile by symmetry
    got = local_frac_derivative(abs_power(0.5).fn, 0.5, 0.0, side=-1)
    assert got == pytest.approx(math.gamma(1.5), rel=1e-12)


def test_local_derivative_oscillator_has_no_limit():
    def wobble(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = x[pos] ** 0.5 * np.cos(np.pi * np.log2(x[pos]))
        return out

    with pytest.raises(NoLimitError):
        local_frac_derivative(wobble, 0.5, 0.0)


def test_local_derivative_validation():
    with pytest.raises(InvalidParameterError):
        local_frac_derivative(np.sin, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        local_frac_derivative(np.sin, -0.2, 0.0)
    with pytest.raises(InvalidParameterError):
        local_frac_derivative(np.sin, 0.5, 0.0, side=2)


# --------------------------------------------------------------------------- #
# fractional Taylor expansion order
# --------------------------------------------------------------------------- #


def test_frac_taylor_smooth_slopes():
    rep = frac_taylor_check(sin_affine(), FracOrder(2.5), 0.4)
    assert rep.coeff == 0.0
    assert rep.slope >= 2.8
    rep = frac_taylor_check(polynomial([0.0, 2.0, 0.0, 1.0]), FracOrder(2.5), 0.3)
    assert rep.slope >= 2.8


def test_frac_taylor_pure_power():
    rep = frac_taylor_check(abs_power(2.5), FracOrder(2.5), 0.0)
    assert rep.pure_power
    assert rep.max_resid <= 1e-12
    assert rep.coeff == pytest.approx(math.gamma(3.5), rel=1e-12)


def test_frac_taylor_needs_derivatives():
    with pytest.raises(InsufficientDerivativesError):
        frac_taylor_check(SmoothFn(fn=np.sin), FracOrder(2.5), 0.4)
