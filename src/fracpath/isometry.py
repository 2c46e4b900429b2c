"""phi-variation gauges, their conjugate weights and the transform isometry.

A gauge phi generalizes x -> x**p; its index p_phi is the power of regular
variation at 0 and its conjugate weight is phi_hat(a) = lim phi(a b)/phi(b)
as b -> 0+. For a C^1 transform F = f(S) of a path with nonzero
phi-variation, the stage sums

    LHS_n = sum phi(|dF_i|)    vs    RHS_n = sum phi_hat(|f'(S_i)|) phi(|dS_i|)

approach each other; the check reports their ratio along a partition
sequence, guarded by an admissibility gate on the path's Holder exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (AdmissibilityError, InvalidParameterError, InvalidPhiError, choice, entries,
                     real)
from .partitions import Partition, badic, partition_values
from .paths import SampledPath
from .smooth import SmoothFn, ratio_limit

__all__ = [
    "PhiSpec",
    "phi_hat",
    "phi_hat_numeric",
    "admissibility_threshold",
    "isometry_check",
    "IsometryReport",
    "generalized_minkowski_check",
    "MinkowskiReport",
    "phi_inverse",
    "holder_exponent",
]


@dataclass(frozen=True)
class PhiSpec:
    """Increasing gauge on [0, domain_hi) with phi(0) = 0.

    kind="power":          phi(x) = x**p_phi, valid everywhere.
    kind="log-modulated":  phi(x) = x**p_phi * (-log x)**(-log_power),
                           increasing on all of (0, 1); exp(-log_power /
                           p_phi) is a domain bound (domain_hi), not a peak.
    kind="custom":         any callable; p_phi is the caller's claim about
                           its index.
    """

    kind: str = "power"
    p_phi: float = 2.0
    log_power: float = 0.0
    custom_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        choice("kind", self.kind, ("power", "log-modulated", "custom"), error=InvalidPhiError)
        real("p_phi", self.p_phi, lo=0, error=InvalidPhiError)
        lo = 0 if self.kind == "log-modulated" else None  # log_power > 0 for a log-modulated gauge
        real(f"log_power of a {self.kind} gauge", self.log_power, lo=lo, error=InvalidPhiError)
        if self.kind == "custom" and not callable(self.custom_fn):
            raise InvalidPhiError(f"custom gauges need a callable, got {self.custom_fn!r}")
        if self.kind != "custom" and self.custom_fn is not None:
            raise InvalidPhiError(f"custom_fn needs kind 'custom', got kind {self.kind!r}")

    @property
    def domain_hi(self) -> float:
        if self.kind == "log-modulated":
            return math.exp(-self.log_power / self.p_phi)
        return math.inf

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ok = x >= 0.0  # NaN fails both comparisons
        ok &= x < self.domain_hi
        rule = "be finite and nonnegative"
        if self.kind == "log-modulated":
            rule = f"lie in [0, exp(-log_power / p_phi)) = [0, {self.domain_hi!r}); rescale first"
        return self._formula(entries("gauge input x", x, ok, rule, error=InvalidPhiError))

    def _formula(self, x: np.ndarray) -> np.ndarray:
        """The gauge on inputs known to lie in [0, domain_hi), unchecked."""
        if self.kind == "power":
            return x**self.p_phi
        if self.kind == "custom":
            out = np.asarray(self.custom_fn(x), dtype=float)
            ok = (out >= 0.0) & (out < math.inf)  # NaN fails both comparisons
            return entries("custom_fn(x)", out, ok, "be finite and nonnegative",
                           error=InvalidPhiError)
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = x[pos] ** self.p_phi * (-np.log(x[pos])) ** (-self.log_power)
        return out


def phi_hat(spec: PhiSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Conjugate weight phi_hat(a) = lim_{b->0+} phi(a b) / phi(b).

    For the power and log-modulated kinds the slowly varying factor drops out
    and the limit is |a|**p_phi in closed form; custom gauges get the numeric
    limit pointwise.
    """
    if spec.kind in ("power", "log-modulated"):
        p = spec.p_phi

        def closed(a):
            return np.abs(np.asarray(a, dtype=float)) ** p

        return closed

    def numeric(a):
        a = np.asarray(a, dtype=float)
        flat = np.atleast_1d(a).ravel()
        vals = np.array([phi_hat_numeric(spec, float(ai)) for ai in flat])
        return vals.reshape(np.atleast_1d(a).shape) if a.ndim else float(vals[0])

    return numeric


def phi_hat_numeric(spec: PhiSpec, a: float) -> float:
    """Numeric conjugate weight at one point, by the dyadic ratio ladder
    phi(a * 2^-j) / phi(2^-j), j = 8..26, with the stabilize/decay/no-limit
    rules of ``smooth.ratio_limit``."""
    if real("a", a, lo=0, open=False, error=InvalidPhiError) == 0.0:
        return 0.0
    bs = 2.0 ** -np.arange(8, 27, dtype=float)
    cap = spec.domain_hi
    bs = bs[(bs < cap) & (a * bs < cap)]  # both arguments inside the gauge domain
    real(f"the count of ladder points b with b, a b below the cap exp(-log_power / p_phi) ="
         f" {cap!r} at a = {a!r}", bs.size, lo=5, open=False, error=InvalidPhiError)
    with np.errstate(over="ignore", invalid="ignore"):  # a ratio past float64 settles nowhere
        ratios = spec(a * bs) / spec(bs)
        return ratio_limit(ratios, f"conjugate weight ratio does not settle at a = {a!r}")


def admissibility_threshold(p_phi: float) -> float:
    """Smallest Holder exponent of the driving path for which the transform
    isometry is meaningful: (sqrt(1 + 4/p_phi) - 1) / 2."""
    real("p_phi", p_phi, lo=0)
    return 2.0 / (p_phi + math.sqrt(p_phi) * math.sqrt(p_phi + 4.0))  # 4 / p_phi may overflow


@dataclass(frozen=True)
class IsometryReport:
    levels: tuple[int, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    ratios: tuple[float, ...]

    @property
    def final_gap(self) -> float:
        return abs(self.ratios[-1] - 1.0)


def isometry_check(
    spec: PhiSpec,
    fn: SmoothFn,
    path: SampledPath,
    partitions: Sequence[Partition],
    holder_alpha: float,
) -> IsometryReport:
    """Compare stage sums of phi(|dF|) for F = f(S) against the weighted sums
    phi_hat(|f'(S)|) phi(|dS|) along a partition sequence.

    ``holder_alpha`` is the (estimated or known) Holder exponent of the path;
    it must clear admissibility_threshold(p_phi), otherwise the comparison
    has no limit to converge to and the check refuses to run. A stage sum
    that is not finite is refused by name: an overflowed side has no ratio.
    """
    df = fn.derivative(1).fn
    gate = admissibility_threshold(spec.p_phi)
    real(f"holder_alpha past the admissibility gate at p_phi = {spec.p_phi}",
         real("holder_alpha", holder_alpha), lo=gate, error=AdmissibilityError)
    hat = phi_hat(spec)
    levels: list[int] = []
    lhs_list: list[float] = []
    rhs_list: list[float] = []
    ratios: list[float] = []
    for part in partitions:
        _, s_vals = partition_values(path, part)
        with np.errstate(all="ignore"):  # a sum that is not finite is refused by real
            f_vals = fn.fn(s_vals)
            ds = np.abs(np.diff(s_vals))
            dfv, dfs = np.abs(np.diff(f_vals)), np.abs(df(s_vals[:-1]))
            for name, v in (("|dF|", dfv), ("|f'(S)|", dfs)):  # before the gauge reads them
                entries(name, v, np.isfinite(v), "be finite")
            lhs = float(np.sum(spec(dfv)))
            rhs = float(np.sum(hat(dfs) * spec(ds)))
        where = f"on a partition of {part.n_intervals} increments"
        lhs = real(f"the sum of phi(|dF|) {where}", lhs)
        rhs = real(f"the sum of phi_hat(|f'(S)|) phi(|dS|) {where}", rhs)
        if lhs == rhs == 0.0:  # x**300 reads 0 for x < 0.08, so both sums can underflow
            raise InvalidPhiError(
                f"both phi-sums are 0 at p_phi = {spec.p_phi} on the stage of"
                f" {part.n_intervals} increments: their ratio is undefined"
            )
        levels.append(part.n_intervals)
        lhs_list.append(lhs)
        rhs_list.append(rhs)
        ratios.append(lhs / rhs if rhs != 0.0 else math.inf)
    return IsometryReport(
        levels=tuple(levels),
        lhs=tuple(lhs_list),
        rhs=tuple(rhs_list),
        ratios=tuple(ratios),
    )


# --------------------------------------------------------------------------- #
# generalized triangle inequality
# --------------------------------------------------------------------------- #


@np.errstate(over="ignore")  # a gauge value past float64 reads inf, above any finite y
def phi_inverse(spec: PhiSpec, y: float) -> float:
    """Inverse of the gauge on its increasing branch; raises when y exceeds
    the gauge's reachable range. Returns the float just past the root:
    phi(x) >= y > phi(prevfloat(x)), phi as ``spec._formula``. A 64-fold grid
    bisection over the bits of positive floats finds it, so a plateau (x^2
    reads 5e-324 on ~2^50 floats) costs at most 11 grids of 65 values; for the
    power and log-modulated kinds the first grid is the 65 floats around
    Newton's root."""
    if real("gauge value y", y, lo=0, open=False, error=InvalidPhiError) == 0.0:
        return 0.0
    cap = spec.domain_hi
    if math.isfinite(cap):
        hi = cap * (1.0 - 1e-12)
        real(f"gauge value y of a gauge capped at x < {cap!r}", y, lo=0,
             hi=float(spec._formula(np.asarray(hi))), open=False, error=InvalidPhiError)
    else:  # doubling from 1 reaches the same power of 2 as from 2**k with phi(2**k) < y
        k = math.log2(y) / spec.p_phi - 1.0 if spec.kind == "power" else 0.0
        hi = 2.0 ** math.floor(min(max(k, 0.0), 996.0))  # 2**997 is past 1e300, refused below
        while float(spec._formula(np.asarray(hi))) < y:
            hi *= 2.0
            if hi > 1e300:
                raise InvalidPhiError(f"no x below 1e300 brackets the gauge inverse of y = {y!r}")
    lo, top = 0, int(np.float64(hi).view(np.int64))  # as float bits: phi(lo) < y <= phi(top)
    mid, stride = top // 2, max(top // 64, 1)
    if spec.kind != "custom":
        mid, stride = int(np.float64(math.exp(_log_root(spec, y, hi))).view(np.int64)), 1
    while top - lo > 1:
        bits = np.clip(mid + stride * np.arange(-32, 33), lo + 1, top - 1)
        i = int(spec._formula(bits.view(np.float64)).searchsorted(y))
        lo, top = int(bits[i - 1]) if i else lo, int(bits[i]) if i < bits.size else top
        mid, stride = (lo + top) // 2, max((top - lo) // 64, 1)
    return float(np.int64(top).view(np.float64))


def _log_root(spec: PhiSpec, y: float, hi: float) -> float:
    """Root u = log x of F(u) = log phi(e^u) - log y = p_phi u - log_power log(-u) - log y for a
    closed-form gauge with phi(hi) >= y > 0, by Newton (F' = p_phi - log_power / u > 0, as u < 0
    where log_power > 0), bisecting its bracket where a step would leave it."""
    p, ly = spec.p_phi, math.log(y)
    lp = spec.log_power if spec.kind == "log-modulated" else 0.0
    ua, ub = math.log(5e-324), math.log(hi)
    u = min(max(ly / p, ua), ub)
    for _ in range(100):
        f = p * u - ly - (lp * math.log(-u) if lp else 0.0)
        ua, ub = (u, ub) if f < 0.0 else (ua, u)
        newton = u - f / (p - lp / u if lp else p)
        u, last = (newton if ua <= newton <= ub else 0.5 * (ua + ub)), u
        if abs(u - last) <= 1e-12 * max(1.0, abs(u)):
            break
    return u


@dataclass(frozen=True)
class MinkowskiReport:
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-12)


@np.errstate(over="ignore")  # a phi-sum past float64 is refused by phi_inverse, as its y
def generalized_minkowski_check(spec: PhiSpec, a: np.ndarray, b: np.ndarray) -> MinkowskiReport:
    """Triangle inequality in the gauge's variation scale:

        phi^-1(sum phi(a_k + b_k)) <= phi^-1(sum phi(a_k)) + phi^-1(sum phi(b_k))

    for componentwise nonnegative vectors. Returns both sides; the report's
    ``ok`` allows rounding slack only.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidParameterError(f"a and b must be 1-d of one length, got {a.shape}, {b.shape}")
    for name, v in (("a", a), ("b", b)):  # NaN fails both comparisons
        entries(name, v, (v >= 0.0) & (v < math.inf), "be finite and nonnegative")
    lhs = phi_inverse(spec, float(np.sum(spec(a + b))))
    rhs = phi_inverse(spec, float(np.sum(spec(a)))) + phi_inverse(spec, float(np.sum(spec(b))))
    return MinkowskiReport(lhs=lhs, rhs=rhs)


# --------------------------------------------------------------------------- #
# Holder exponent estimate
# --------------------------------------------------------------------------- #


def holder_exponent(path: SampledPath) -> float:
    """Slope estimate of the path's Holder exponent: largest increments over
    the dyadic grids of levels j = 4..10 shrink like 2**(-alpha j); fit
    log2(max increment) against j."""
    js = np.arange(4, 11, dtype=float)
    logs = []
    for j in js:
        _, vals = partition_values(path, badic(path.horizon, int(j)))
        m = real(f"the largest increment at level j = {j:g}", np.max(np.abs(np.diff(vals))), lo=0)
        logs.append(math.log(m) / math.log(2))
    return -float(np.polyfit(js, np.array(logs), 1)[0])
