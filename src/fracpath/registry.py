"""Named constructors for test functions, gauges and paths.

Every constructor returns plain bundle objects from the sibling modules; the
``make_*`` helpers map JSON-style config dicts onto them and are what the
command line uses. Derivatives of kinked powers follow the symmetric
convention at the kink itself: where the one-sided limits disagree or
diverge, the value 0 is returned (increments that sit exactly on a kink have
zero length in every construction used here, so the convention never leaks
into sums).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import FracpathError, InvalidConfigError, choice, real
from .paths import (
    MAX_KNOTS,
    AnalyticPath,
    GaussianPathSpec,
    SampledPath,
    cantor_bump_knots,
    cantor_bump_path,
    cantor_distance_path,
    fbm_path,
    takagi_path,
)
from .smooth import SmoothFn

# the bundle and gauge types load with the constructors that build them, so
# a command that never builds one never imports follmer or isometry
if TYPE_CHECKING:
    from .follmer import TensorFunctionBundle, TimeFunctionBundle
    from .isometry import PhiSpec

__all__ = [
    "abs_power",
    "plus_power",
    "sin_affine",
    "exp_fn",
    "polynomial",
    "abs_power_series",
    "moving_abs_power",
    "product_bundle",
    "FN_REGISTRY",
    "TIME_FN_REGISTRY",
    "make_fn",
    "make_time_fn",
    "make_phi",
    "make_path",
]


def _power_rule(q: float, kind: str) -> list[tuple[float, Callable]]:
    """(c_j, g_j) for j = 0..3 with j-th derivative c_j * g_j(x, k) of
    |x - k|^q (kind "abs") or of (x - k)_+^q (kind "plus"):
    c_j = q (q-1) ... (q-j+1), and g_j(x, k) is |x - k|^(q-j), signed like
    (x - k)^j for "abs" and zero for x < k for "plus"; g_j(k, k) = 0 by the
    convention of the module docstring."""
    real("q", q, lo=0)
    plus, rule, c = kind == "plus", [], 1.0
    for j in range(4):

        def g(x, k, e=q - j, signed=not plus and j % 2 == 1):
            y = np.asarray(x, dtype=float) - k
            out = np.zeros_like(y)
            on = y > 0.0 if plus else y != 0.0
            out[on] = np.abs(y[on]) ** e
            return np.copysign(out, y, out=out) if signed else out

        rule.append((c, g))
        c *= q - j
    real("q (q - 1) (q - 2)", rule[-1][0])  # the third derivative's factor
    return rule


def _single_kink(q: float, k: float, kind: str) -> SmoothFn:
    (_, g0), *rule = _power_rule(q, kind)
    real("k", k)
    # c_0 = 1: f is g_0's own buffer, with no scaling pass
    derivs = tuple((lambda x, c=c, g=g: c * g(x, k)) for c, g in rule)
    return SmoothFn(fn=lambda x: g0(x, k), derivs=derivs, kinks=((k, q),), name=f"{kind}-power({q})")


def abs_power(q: float, k: float = 0.0) -> SmoothFn:
    """f(x) = |x - k|^q with three derivatives and the kink declared."""
    return _single_kink(q, k, "abs")


def plus_power(q: float, k: float = 0.0) -> SmoothFn:
    """f(x) = (x - k)_+^q, zero left of the kink."""
    return _single_kink(q, k, "plus")


def _factors(scale: float, base: float, what: str) -> list[float]:
    """The derivative factors scale * base**j, j = 0..3, each refused as ``what`` past float64."""
    try:
        return [real(what, scale * base**j) for j in range(4)]
    except OverflowError:  # where float * reads inf, float ** raises
        return [real(what, math.inf)]


def sin_affine(amp: float = 1.0, freq: float = 1.0, shift: float = 0.0) -> SmoothFn:
    real("shift", shift)
    _, c1, c2, c3 = _factors(real("amp", amp), real("freq", freq), "amp * freq**j (j <= 3)")

    def wave(trig: Callable, coeff: float) -> Callable:
        def dj(x):
            # one buffer per call: the phase, then trig(phase) and its scaling in place
            out = np.array(x, dtype=float)
            out *= freq
            out += shift
            trig(out, out=out)
            out *= coeff
            return out[()]  # a 0-d input gives a scalar, as np.sin does

        return dj

    return SmoothFn(
        fn=wave(np.sin, amp),
        derivs=(wave(np.cos, c1), wave(np.sin, -c2), wave(np.cos, -c3)),
        name="sin-affine",
    )


def exp_fn(rate: float = 1.0) -> SmoothFn:
    def make(c: float) -> Callable:
        def dj(x):
            return c * np.exp(rate * np.asarray(x, dtype=float))

        return dj

    fn, *derivs = (make(c) for c in _factors(1, real("rate", rate), "rate**j (j <= 3)"))
    return SmoothFn(fn=fn, derivs=tuple(derivs), name="exp")


def polynomial(coeffs) -> SmoothFn:
    """Polynomial with ascending coefficients (constant first). Each coefficient, and
    each coefficient of the first three derivatives as numpy forms them (k * c_k per
    step), must be a finite float64 number, else ``coeffs`` is refused."""
    coeffs = cs = [float(real("coeffs", c)) for c in coeffs]
    for j in (1, 2, 3):
        cs = [real(f"coeffs (derivative {j})", k * c) for k, c in enumerate(cs[1:], 1)]
    poly = np.polynomial.Polynomial(coeffs)
    ds = tuple(poly.deriv(j) for j in (1, 2, 3))

    def wrap(g):
        return lambda x: g(np.asarray(x, dtype=float))

    return SmoothFn(fn=wrap(poly), derivs=tuple(wrap(g) for g in ds), name="poly")


def _canonical_rationals(count: int) -> np.ndarray:
    """First ``count`` reduced fractions in (0, 1), denominators ascending,
    numerators ascending within each denominator."""
    out: list[float] = []
    den = 2
    while len(out) < count:
        for num in range(1, den):
            if math.gcd(num, den) == 1:
                out.append(num / den)
                if len(out) == count:
                    break
        den += 1
    return np.array(out)


def abs_power_series(q: float, count: int = 12) -> SmoothFn:
    """f(x) = sum_j (j+1)^-2 |x - r_j|^q over the first ``count`` canonical
    rationals r_j in (0, 1); a function kinked on a spreading set while still
    summable enough for order-q behaviour at each kink."""
    (_, g0), *rule = _power_rule(q, "abs")
    count = real("count", count, lo=1, hi=MAX_KNOTS, open=False, integer=True)
    locs = _canonical_rationals(count)
    w = (np.arange(1, count + 1, dtype=float)) ** -2.0

    def total(g, x):
        return np.sum(w * g(np.asarray(x, dtype=float)[..., None], locs), axis=-1)

    derivs = tuple((lambda x, c=c, g=g: c * total(g, x)) for c, g in rule)
    kinks = tuple((float(loc), q) for loc in locs)
    name = f"abs-power-series({q},{count})"
    return SmoothFn(fn=lambda x: total(g0, x), derivs=derivs, kinks=kinks, name=name)


# --------------------------------------------------------------------------- #
# time-dependent and multi-component bundles
# --------------------------------------------------------------------------- #


def moving_abs_power(q: float, speed: float = 1.0) -> TimeFunctionBundle:
    """f(t, x) = |x - speed * t|^q, a kink sliding through the value range."""
    from .follmer import TimeFunctionBundle

    (_, g0), (c1, g1), (c2, g2), _ = _power_rule(q, "abs")
    real("-speed * q", -real("speed", speed) * c1)  # the time derivative's factor

    def kink(t):
        return speed * np.asarray(t, dtype=float)

    return TimeFunctionBundle(
        fn=lambda t, x: g0(x, kink(t)),
        dt=lambda t, x: -speed * c1 * g1(x, kink(t)),
        dx=(lambda t, x: c1 * g1(x, kink(t)), lambda t, x: c2 * g2(x, kink(t))),
        name=f"moving-abs-power({q})",
    )


def product_bundle() -> TensorFunctionBundle:
    """f(x, y) = x * y on R^2."""
    from .follmer import TensorFunctionBundle

    def f(v):
        v = np.asarray(v, dtype=float)
        return v[..., 0] * v[..., 1]

    def grad(v):
        v = np.asarray(v, dtype=float)
        return np.stack([v[..., 1], v[..., 0]], axis=-1)

    def hess(v):
        v = np.asarray(v, dtype=float)
        h = np.zeros(v.shape[:-1] + (2, 2))
        h[..., 0, 1] = 1.0
        h[..., 1, 0] = 1.0
        return h

    return TensorFunctionBundle(fn=f, grad=grad, hess=hess, name="product")


# --------------------------------------------------------------------------- #
# config-dict entry points
# --------------------------------------------------------------------------- #


FN_REGISTRY: dict[str, Callable[..., SmoothFn]] = {
    "abs-power": abs_power,
    "plus-power": plus_power,
    "sin": sin_affine,
    "exp": exp_fn,
    "polynomial": polynomial,
    "poly": polynomial,
    "abs-power-series": abs_power_series,
}

TIME_FN_REGISTRY: dict[str, Callable[..., TimeFunctionBundle]] = {
    "abs-power-moving": moving_abs_power,
}


def _build(cfg, key: str, table: dict, what: str):
    """``table[cfg[key]]`` called with the rest of ``cfg`` as keyword
    arguments; a missing key, an unknown entry or bad arguments raise
    InvalidConfigError."""
    if not isinstance(cfg, dict) or key not in cfg:
        raise InvalidConfigError(f"{what} config needs a {key!r} key")
    args = dict(cfg)
    name = choice(f"{what} {key}", args.pop(key), table, error=InvalidConfigError)
    try:
        return table[name](**args)
    except FracpathError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"bad arguments for {what} {name!r}: {exc}") from None


def make_fn(cfg: dict) -> SmoothFn:
    name = cfg.get("name") if isinstance(cfg, dict) else None
    if isinstance(name, str) and name in TIME_FN_REGISTRY:
        raise InvalidConfigError(
            f"{name!r} is a time-dependent bundle; it only fits the"
            " time-aware checks, not a plain function slot"
        )
    return _build(cfg, "name", FN_REGISTRY, "function")


def make_time_fn(cfg: dict) -> TimeFunctionBundle:
    return _build(cfg, "name", TIME_FN_REGISTRY, "time-dependent function")


def make_phi(cfg: dict) -> PhiSpec:
    from .isometry import PhiSpec

    if not isinstance(cfg, dict):
        raise InvalidConfigError("gauge config must be an object")
    cfg = dict(cfg)
    kind = cfg.pop("kind", "power")
    try:
        return PhiSpec(kind=kind, **cfg)
    except TypeError as exc:
        raise InvalidConfigError(f"bad gauge config: {exc}") from None


def make_path(cfg: dict) -> AnalyticPath | SampledPath:
    # built per call, so the names resolve to whatever the module holds then
    # (a profiler's wrappers included), as a plain call would
    paths = {
        "cantor-distance": cantor_distance_path,
        "cantor-bump": cantor_bump_path,
        "cantor-bump-knots": cantor_bump_knots,
        "takagi": takagi_path,
        "fbm": lambda **kw: fbm_path(GaussianPathSpec(**kw)),
    }
    return _build(cfg, "kind", paths, "path")
