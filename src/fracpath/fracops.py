"""Fractional-order integrals, derivatives and Taylor-type diagnostics.

Orders are written p = m + alpha with integer part m and fractional part
alpha in (0, 1). Integral operators are computed by Gauss-Legendre panels
after a power substitution that absorbs the endpoint singularity of the
kernel; known algebraic kinks of the integrand are declared on the function
object and passed, as (point, exponent) pairs of the integrand in the
integration variable, to the one kink-graded rule ``_quad.integrate_kinked``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import integrate_kinked
from .errors import InvalidParameterError, QuadratureError, choice, real
from .smooth import SmoothFn, ratio_limit

__all__ = [
    "FracOrder",
    "rl_integral",
    "caputo",
    "caputo_power",
    "power_rule",
    "local_frac_derivative",
    "frac_taylor_check",
    "FracTaylorReport",
]

_FD_REL_STEP = 1e-5
# the dyadic ladder h_j = 2**-j, j = 4..20, of the pointwise limits
_LADDER = 2.0 ** -np.arange(4, 21, dtype=float)


@dataclass(frozen=True)
class FracOrder:
    """Non-integer order p > 0, split as p = m + alpha, alpha in (0, 1)."""

    p: float

    def __post_init__(self) -> None:
        real("order", self.p, lo=0)
        if abs(self.p - round(self.p)) < 1e-12:
            raise InvalidParameterError(f"order must be non-integer, got {self.p}")

    @property
    def m(self) -> int:
        return int(math.floor(self.p))

    @property
    def alpha(self) -> float:
        return self.p - self.m


def _as_smooth(fn) -> SmoothFn:
    return fn if isinstance(fn, SmoothFn) else SmoothFn(fn=fn)


@np.errstate(over="ignore")  # an overflow is a non-finite panel sum
def _integrate(g, hi: float, kinks, rtol: float, where: str) -> float:
    """``integrate_kinked`` of g on [0, hi], a failure naming ``where``."""
    try:
        return float(integrate_kinked(g, 0.0, hi, kinks, rtol))
    except QuadratureError as exc:
        raise QuadratureError(f"{where}: {exc}") from None


# --------------------------------------------------------------------------- #
# Riemann-Liouville integral
# --------------------------------------------------------------------------- #


def rl_integral(fn, alpha: float, a: float, x: float, rtol: float = 1e-9) -> float:
    """Fractional integral of order alpha in (0, 1):

        (1 / Gamma(alpha)) * integral_a^x (x - t)**(alpha - 1) f(t) dt.

    The kernel singularity at t = x is absorbed by the substitution
    u = (x - t)**alpha, after which Gauss-Legendre panels apply; declared
    kinks of f left of x keep their exponent at their image in u.
    """
    real("alpha", alpha, lo=0, hi=1)
    if not -math.inf < a <= x < math.inf:
        raise InvalidParameterError(f"need finite a <= x, got a={a!r}, x={x!r}")
    real("a", a), real("x", x), real("rtol", rtol, lo=0)
    if x == a:
        return 0.0
    sm = _as_smooth(fn)
    f = sm.fn
    inv_alpha = 1.0 / alpha

    def g(u, _):
        return f(x - np.maximum(u, 0.0) ** inv_alpha)

    kinks = [((x - k) ** alpha, q) for k, q in sm.kinks if k < x]
    where = f"order-{alpha} integral on [a, x] = [{a!r}, {x!r}]"
    return _integrate(g, (x - a) ** alpha, kinks, rtol, where) / math.gamma(alpha + 1.0)


# --------------------------------------------------------------------------- #
# Caputo derivative
# --------------------------------------------------------------------------- #


def caputo(fn, order: FracOrder, a: float, x: float, rtol: float = 1e-9) -> float:
    """Caputo derivative of non-integer order p = m + alpha on [a, x]: the
    (1 - alpha)-order Riemann-Liouville integral of f^(m+1),

        (1 / Gamma(1 - alpha)) * integral_a^x (x - t)**(-alpha) f^(m+1)(t) dt,

    when an (m+1)-th derivative is supplied; otherwise the centered
    difference in x of the (1 - alpha)-integral of f^(m) - f^(m)(a).
    Requires at least m supplied derivatives.

    Float64 floor of the first branch: a kink (loc, q) with q - m below
    about 0.3 (sometimes up to 0.4) raises QuadratureError: in the
    integration variable the kink sits at u_k = (x - loc)**(1 - alpha) != 0, and graded offsets
    v**(1/(q - m)) below eps * u_k are lost when added to u_k.
    """
    if not -math.inf < a <= x < math.inf:
        raise InvalidParameterError(f"need finite a <= x, got a={a!r}, x={x!r}")
    real("a", a), real("x", x), real("rtol", rtol, lo=0)
    if x == a:
        return 0.0
    fm = _as_smooth(fn).derivative(order.m)
    beta = 1.0 - order.alpha
    if fm.derivs:
        return rl_integral(fm.derivative(1), beta, a, x, rtol)
    fma = float(fm.fn(np.asarray(a, dtype=float)))
    centered = SmoothFn(fn=lambda t: fm.fn(t) - fma, kinks=fm.kinks)
    h = _FD_REL_STEP * max(1.0, abs(x))
    lo_x, hi_x = x - h, x + h
    if lo_x <= a:
        lo_x = a + (hi_x - a) * 0.5
    up = rl_integral(centered, beta, a, hi_x, rtol=min(rtol, 1e-11))
    dn = rl_integral(centered, beta, a, lo_x, rtol=min(rtol, 1e-11))
    return (up - dn) / (hi_x - lo_x)


def power_rule(q: float, order: FracOrder, k: float, x: float) -> float:
    """Reference value Gamma(q+1)/Gamma(q+1-p) * (x-k)**(q-p) for the Caputo
    derivative (base point k) of (t - k)**q, valid for q > m."""
    real("q", q, lo=order.m)
    if real("x", x) <= real("k", k):
        raise InvalidParameterError("need x > k")
    try:
        return math.gamma(q + 1.0) / math.gamma(q + 1.0 - order.p) * (x - k) ** (q - order.p)
    except OverflowError:
        raise InvalidParameterError(
            f"power rule overflows float64 at q = {q}, x - k = {x - k}"
        ) from None


def caputo_power(
    q: float,
    order: FracOrder,
    a: float,
    k: float,
    x: float,
    kind: str = "plus",
    rtol: float = 1e-9,
) -> float:
    """Caputo derivative, base point a, of a power function with kink at k.

    kind="plus": f(t) = (t - k)_+**q. The part left of k contributes nothing,
    and the [k, x] part reduces to a Beta integral, giving exactly the power
    rule value regardless of a.

    kind="abs": f(t) = |t - k|**q. The plus part as above; the [a, k] part is
    a one-dimensional integral whose integrand has exponent q - m - 1 at t = k,
    evaluated by the kink-graded Gauss-Legendre rule.

    Requires q > m and a <= k < x.
    """
    if not real("a", a) <= real("k", k) < real("x", x):
        raise InvalidParameterError("need a <= k < x")
    choice("kind", kind, ("plus", "abs"))
    real("rtol", rtol, lo=0)
    plus_part = power_rule(q, order, k, x)
    if kind == "plus" or a == k:
        return plus_part
    m, alpha = order.m, order.alpha
    real("q - m - 1", q - m - 1.0, lo=-1)  # the kink exponent, above -1 in float64
    coeff = math.gamma(q + 1.0) / math.gamma(q - m)
    sgn = (-1.0) ** (m + 1)

    # integral_a^k (x-t)^(-alpha) (k-t)^(q-m-1) dt, with s = k - t
    def g(s, _):
        return (x - k + s) ** (-alpha) * s ** (q - m - 1.0)

    left_integral = _integrate(g, k - a, [(0.0, q - m - 1.0)], rtol, f"[a, k] = [{a!r}, {k!r}]")
    left_part = sgn * coeff / math.gamma(1.0 - alpha) * left_integral
    return plus_part + left_part


# --------------------------------------------------------------------------- #
# pointwise (local) fractional derivative and Taylor diagnostics
# --------------------------------------------------------------------------- #


def local_frac_derivative(fn: Callable, alpha: float, at: float, side: int = 1) -> float:
    """Pointwise fractional derivative of non-integer order alpha:

        lim_{h -> 0+} Gamma(1 + alpha) * (f(at + side*h) - f(at)) / h**alpha

    evaluated on the dyadic ladder h = 2**-j, j = 4..20. Returns the limit
    when the tail stabilizes, exactly 0.0 when the ratios decay geometrically
    (the function is too smooth at the point to see order alpha), and raises
    NoLimitError otherwise (for instance under log-periodic oscillation).

    For alpha > 1 the plain increment ratio is used without subtracting lower
    Taylor terms, so the limit exists only where the derivatives of integer
    order below alpha vanish at the point (e.g. |x|**alpha at 0); anywhere
    else the ratios diverge and NoLimitError reports that honestly.
    """
    real("alpha", alpha, lo=0, integer=False)
    real("at", at)
    choice("side", side, (1, -1))
    f0 = float(fn(np.asarray(at, dtype=float)))
    vals = np.array([float(fn(np.asarray(at + side * h, dtype=float))) for h in _LADDER])
    ratios = math.gamma(1.0 + alpha) * (vals - f0) / _LADDER**alpha
    return ratio_limit(
        ratios, f"ratio sequence at {at!r} neither stabilizes nor decays (order {alpha})"
    )


@dataclass(frozen=True)
class FracTaylorReport:
    """Outcome of the fractional Taylor diagnostic at a point."""

    coeff: float
    slope: float
    max_resid: float
    pure_power: bool


def frac_taylor_check(fn, order: FracOrder, a: float) -> FracTaylorReport:
    """Expand f at a to integer order m, extract the order-p coefficient, and
    measure how fast the remainder after removing it vanishes.

    Steps: (1) r_j = Gamma(p+1) * (f(a+h_j) - T_m(h_j)) / h_j**p on the dyadic
    ladder h_j = 2**-j, j = 4..20, with the gaps f(a+h_j) - T_m(h_j) from
    ``follmer.taylor_remainder``; the ratio-limit rules give the coefficient
    (exactly 0.0 for functions smoother than order p). (2) the residual after subtracting
    coeff * h**p / Gamma(p+1) is fit in log-log over the reliable window; its
    slope must exceed p for the expansion to be meaningful. A residual at
    rounding level reports pure_power=True with infinite slope.
    """
    from .follmer import taylor_remainder

    real("a", a)
    sm = _as_smooth(fn)
    p, hs = order.p, _LADDER
    xs = a + hs
    fa = float(sm.fn(np.asarray(a, dtype=float)))
    fvals = np.asarray(sm.fn(xs), dtype=float)
    diffs = taylor_remainder(sm, a, xs, order.m, gap=fvals - fa)
    gp1 = math.gamma(p + 1.0)
    # pointwise cancellation floor: the gap f(a+h) - T_m(h) is a difference
    # of quantities of this magnitude (T_m read back as f(a+h) - gap), so
    # below ~100 eps of it the ratios are rounding noise and must not enter
    # the limit classification
    cancel_scale = np.abs(fvals) + np.abs(fvals - diffs) + abs(fa)
    noise = 1e2 * np.finfo(float).eps * cancel_scale
    reliable = np.abs(diffs) > noise
    ratios = gp1 * diffs / hs**p
    coeff = ratio_limit(
        ratios[reliable] if reliable.sum() >= 4 else ratios, f"no order-{p} coefficient at {a!r}"
    )

    resid = diffs - coeff * hs**p / gp1
    scale = max(1.0, abs(fa), float(np.max(np.abs(fvals))))
    max_resid = float(np.max(np.abs(resid)) / scale)
    if max_resid <= 1e-12:
        return FracTaylorReport(
            coeff=coeff, slope=math.inf, max_resid=max_resid, pure_power=True
        )
    # fit |resid| ~ h^slope over points safely above rounding noise,
    # preferring the smallest usable h (nearest the base point)
    usable = reliable & (np.abs(resid) > noise)
    idx = np.nonzero(usable)[0]
    if idx.size < 3:
        return FracTaylorReport(
            coeff=coeff, slope=math.nan, max_resid=max_resid, pure_power=False
        )
    pick = idx[-min(8, idx.size):]
    lx = np.log2(hs[pick])
    ly = np.log2(np.abs(resid[pick]))
    slope = float(np.polyfit(lx, ly, 1)[0])
    return FracTaylorReport(coeff=coeff, slope=slope, max_resid=max_resid, pure_power=False)
