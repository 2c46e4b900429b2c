"""Pathwise change-of-variable checks of Taylor order m = floor(p).

The central identity is finite-stage and exact: along any partition,

    f(S(t)) - f(S(0)) = L^n + sum_i G(S(t_i), S(t_{i+1})) |dS_i|^p

where L^n compensates increments with Taylor terms of orders 1..m and G is
the normalized order-m remainder kernel. What converges (or fails to) as the
partition sequence refines is the split between the two right-hand terms,
and that is what the check routines report.

Variants cover time dependence f(t, x), several driving components, and
functionals of the whole path prefix (with vertical bumps and horizontal
flat extensions of a piecewise-constant prefix). Every variant feeds its
order-j directional terms D^j f(left)[dS^j] to the one Taylor engine,
``_taylor_terms``, and takes m from ``taylor_order``; the scalar,
time-dependent and multi-component checks also split in one place,
``_split``, one row of sums per row of increments: ``ito_check_blocks`` sums
a chunk of stacked rows in one pass, and ``ito_check`` is its one-row case.
Every report also carries the p-th variation sum_i |dS_i|^p: its terms are
the weights the kernel sum forms, so the one pass gives it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InsufficientDerivativesError,
    InvalidBundleError,
    InvalidParameterError,
    KernelSingularError,
    choice,
    real,
)
from .partitions import Partition, block_sum, osc, partition_values
from .paths import SampledPath
from .smooth import SmoothFn

__all__ = [
    "taylor_order",
    "taylor_remainder",
    "remainder_kernel",
    "circle_points",
    "kernel_profile",
    "ito_check",
    "ito_check_blocks",
    "ItoReport",
    "TimeFunctionBundle",
    "ito_check_time",
    "TensorFunctionBundle",
    "ito_check_multi",
    "PrefixFamily",
    "PathPrefix",
    "FunctionalBundle",
    "ito_check_functional",
    "young_bound_check",
    "YoungReport",
]


def taylor_order(p: float) -> int:
    """Taylor order m = floor(p) of the order-p identity; p must be finite
    and exceed 1."""
    return int(math.floor(real("p", p, lo=1)))


def _require_derivs(count: int, m: int, noun: str = "derivatives") -> None:
    if count < m:
        raise InsufficientDerivativesError(f"need {m} {noun} for order floor(p) = {m}, got {count}")


# --------------------------------------------------------------------------- #
# the Taylor engine, compensated sums and the scalar check
# --------------------------------------------------------------------------- #


def _taylor_terms(terms: Iterable[np.ndarray], gap: np.ndarray) -> tuple[float, np.ndarray]:
    """The one order-m Taylor loop behind every check.

    ``terms`` yields, for j = 1..m, the order-j directional derivative
    D^j f(left)[dS^j] per increment, not yet divided by j!, as a fresh
    array the loop may overwrite; ``gap`` starts as f(right) - f(left) and is
    updated in place. Returns the compensated sums along the last axis (per
    row, each bit for bit its row's ``np.sum``) and the Taylor gaps. Each
    order is summed before it is divided by j! and leaves the gaps as term /
    j!, one order at a time; the reported numbers rest on that order. Each
    term is freed before the next one is drawn.
    """
    comp, fact, j = 0.0, 1.0, 0
    for term in terms:  # no enumerate: its reused result tuple would keep the last term alive
        j += 1
        fact *= j
        comp += np.add.reduce(term, axis=-1) / fact
        term /= fact
        gap -= term
        del term  # free it before the next derivative is evaluated
    return comp, gap


def _power_terms(derivs: Sequence[Callable], inc: np.ndarray, *at: np.ndarray) -> Iterator:
    """f^(j)(at) * inc**j for each f^(j) in ``derivs``, the power kept as a
    running product; each derivative is evaluated only when its term is
    drawn, and no reference to it outlives the term."""
    power = np.ones_like(inc)
    for d in derivs:
        power *= inc
        yield d(*at) * power


def _kernel_sum(gap: np.ndarray, size: np.ndarray, p: float) -> tuple[np.ndarray, ...]:
    """(sums of G |dS|^p, counts of increments left out, sums of |dS|^p) per
    row of the 2-D ``gap`` and ``size``: G = gap / |dS|^p is multiplied back by
    |dS|^p, so the identity residual measures the rounding honestly; a
    subnormal G would lose the gap's bits, so there the gap stands. Increments
    whose |dS|^p is 0 (zero or underflowing) have no finite G: their row sums
    the rest alone. The |dS|^p sums take every increment, the p-th variation
    bit for bit as ``variation.phi_sums`` sums it."""
    size **= p
    variation = np.add.reduce(size, axis=-1)
    keep = size != 0.0
    n_zero = keep.shape[-1] - np.count_nonzero(keep, axis=-1)
    kernel = gap / size
    np.multiply(kernel, size, out=gap, where=np.abs(kernel) >= np.finfo(float).tiny)
    sums = np.add.reduce(gap, axis=-1)
    for r in np.flatnonzero(n_zero):
        sums[r] = np.add.reduce(gap[r, keep[r]])
    return sums, n_zero, variation


def taylor_remainder(
    fn: SmoothFn, left: np.ndarray, right: np.ndarray, m: int, gap: np.ndarray | None = None
) -> np.ndarray:
    """f(right) - sum_{k=0..m} f^(k)(left) (right-left)^k / k!, vectorized;
    the Taylor-difference form of |right - left|^p G(left, right). A caller
    that has f(right) - f(left) already passes it as ``gap`` (overwritten)."""
    _require_derivs(len(fn.derivs), real("m", m, lo=0, open=False, integer=True))
    if gap is None:
        gap = fn.fn(right) - fn.fn(left)
    return _taylor_terms(_power_terms(fn.derivs[:m], right - left, left), gap)[1]


def _refuse_non_finite(values: np.ndarray, xs: np.ndarray, ys: np.ndarray, why: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        pair = f"({float(xs[bad[0]])!r}, {float(ys[bad[0]])!r})"
        raise InvalidParameterError(f"kernel at (a, b) = {pair} is not a finite number: {why}")


def remainder_kernel(fn: SmoothFn, p: float, a, b, method: str = "integral"):
    """Normalized Taylor remainder kernel of order m = floor(p), per entry
    of the broadcast ``a`` and ``b`` (a float for scalars):

        G(a, b) = (f(b) - sum_{k=0..m} f^(k)(a) (b-a)^k / k!) / |b-a|^p
                = integral_a^b (f^(m)(x) - f^(m)(a)) (b-x)^(m-1) dx / ((m-1)! |b-a|^p).

    method="taylor" is the vectorized Taylor difference; method="integral"
    is one batch of the kink-graded Gauss-Legendre rule to rtol 1e-12 at the
    kinks of ``fn.derivative(m)`` (an undeclared kink leaves the panels
    unsettled and raises QuadratureError). Both divide by one norm
    |b - a|^p, a numpy array power, taken as 1 on the diagonal.

    At a == b the kernel is 0 when f is smoother than order p there, and has
    no finite value when a sits on a kink of exponent <= p. A NaN or infinite
    entry, a norm that overflows and such a diagonal entry (KernelSingularError)
    are refused before any work, then the first entry whose quadrature or Taylor
    value fails raises; each error names its pair or point.
    """
    m = taylor_order(p)
    _require_derivs(len(fn.derivs), m)
    choice("method", method, ("taylor", "integral"))
    a, b = (real(name, v) if np.isscalar(v) else v for name, v in (("a", a), ("b", b)))
    shape = np.broadcast(a, b).shape
    xs, ys = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (a, b))
    _refuse_non_finite(np.maximum(np.abs(xs), np.abs(ys)), xs, ys, "a and b must be finite")
    diagonal = xs == ys
    with np.errstate(over="ignore"):
        norm = np.abs(ys - xs) ** p
    norm[diagonal] = 1.0
    _refuse_non_finite(norm, xs, ys, f"|b - a|^{p!r} overflows")
    # a point's first listed kink of exponent <= p names the divergence
    poles = {loc: expo for loc, expo in reversed(fn.kinks) if expo <= p}
    singular = xs[diagonal & np.isin(xs, list(poles))]
    if singular.size:
        x = float(singular[0])
        raise KernelSingularError(
            f"kernel diverges on the diagonal at {x!r} (kink exponent {poles[x]})"
        )
    if method == "taylor":
        with np.errstate(all="ignore"):
            val = taylor_remainder(fn, xs, ys, m) / norm
        _refuse_non_finite(val, xs, ys, "the Taylor remainder is not finite")
    else:
        from ._quad import integrate_kinked

        fm = fn.derivative(m)
        fma = fm.fn(xs)

        def integrand(t, i):
            return (fm.fn(t) - fma[i]) * (ys[i] - t) ** (m - 1)

        val = integrate_kinked(integrand, np.minimum(xs, ys), np.maximum(xs, ys), fm.kinks, 1e-12)
        val = np.where(xs > ys, -val, val) / (math.factorial(m - 1) * norm)
    return val.reshape(shape) if shape else float(val[0])


def circle_points(thetas) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) = (cos theta, sin theta), snapped where rounding would show: a
    coordinate below 4e-16 becomes 0 (cos(pi/2) rounds to 6.1e-17, which a
    fractional-power derivative at 0 amplifies to ~1e-4), and a point with
    |b - a| < 4e-16 becomes diagonal, b = a (cos and sin of pi/4 round 1 ulp
    apart, and the Taylor form divides by that ulp to the power p)."""
    thetas = np.asarray(thetas, dtype=float)
    a, b = (np.where(np.abs(v) < 4e-16, 0.0, v) for v in (np.cos(thetas), np.sin(thetas)))
    return a, np.where(np.abs(b - a) < 4e-16, a, b)


def kernel_profile(fn: SmoothFn, p: float, thetas: np.ndarray, method: str = "taylor") -> np.ndarray:
    """G(cos theta, sin theta), the kernel restricted to the unit circle: one
    ``remainder_kernel`` call in the given form on ``circle_points(thetas)``."""
    return remainder_kernel(fn, p, *circle_points(thetas), method=method)


@dataclass(frozen=True)
class ItoReport:
    """Terms of one finite-stage change-of-variable identity, with the p-th
    variation sum_i |dS_i|^p whose terms weight the kernel sum."""

    value_change: float
    compensated: float
    kernel_sum: float
    n_increments: int
    n_zero_increments: int  # increments with |dS|^p == 0, outside the kernel sum
    variation: float
    time_integral: float = 0.0
    time_quadrature_gap: float = 0.0

    @property
    def identity_residual(self) -> float:
        """value change minus every reconstructed term; rounding-level by
        construction, anything larger flags an implementation bug."""
        return self.value_change - self.time_integral - self.compensated - self.kernel_sum

    @property
    def follmer_residual(self) -> float:
        """value change minus the compensated (and time) parts; the quantity
        whose limit behaviour along partition sequences is of interest."""
        return self.value_change - self.time_integral - self.compensated


def _report(*terms, **time_parts) -> ItoReport:
    """The ItoReport of ``terms``, each refused by name unless finite."""
    report = ItoReport(*terms, **time_parts)
    for name, value in vars(report).items():
        if not math.isfinite(value):  # the message is formed only for a term to refuse
            where = f"on a partition of {report.n_increments} increments"
            real(f"the {name.replace('_', ' ')} {where}", value)
    return report


def _split(value_change, gap, terms, inc: np.ndarray, p: float, norm=None) -> tuple:
    """Split ``value_change`` into the compensated sums of ``terms`` and the
    kernel sums of the Taylor gaps left over, one per row of the 2-D ``gap``,
    |dS| formed only then, as ``norm(inc)`` or as |inc| in inc's buffer:
    (value change, compensated, kernel sum, increments, increments left out,
    sum of |dS|^p), the ``ItoReport`` fields in order."""
    comp, gap = _taylor_terms(terms, gap)
    size = np.abs(inc, out=inc) if norm is None else norm(inc)
    kernel_sum, n_zero, variation = _kernel_sum(gap, size, p)
    return value_change, comp, kernel_sum, np.full(len(gap), gap.shape[-1]), n_zero, variation


def ito_check(
    fn: SmoothFn,
    path: SampledPath,
    partition: Partition,
    p: float,
    t: float | None = None,
) -> ItoReport:
    """Evaluate the order-m identity for f(S) along one partition.

    f is evaluated once on the partition values and each derivative once on
    the left endpoints. The kernel sum goes through the normalized kernel G
    (divide by |dS|^p, multiply back), so the reported identity residual
    honestly measures the rounding accumulated over all increments instead
    of being zero by algebra; see ``_kernel_sum``. The one-row case of
    ``ito_check_blocks``.
    """
    _require_derivs(len(fn.derivs), taylor_order(p))
    return ito_check_blocks(fn, [((1,), partition_values(path, partition, t)[1][None])], p)


@np.errstate(all="ignore")  # a term that is not finite is refused by _report
def ito_check_blocks(fn: SmoothFn, blocks, p: float) -> ItoReport:
    """``ito_check`` along weighted rows of path values (``partitions.block_sum``):
    one pass of the Taylor engine per chunk, each row's terms bit for bit its
    ``ito_check`` alone, each additive term summed over the rows."""
    m = taylor_order(p)
    _require_derivs(len(fn.derivs), m)

    def rows(vals):
        inc = np.diff(vals)
        f_vals = fn.fn(vals)
        lhs, gap = f_vals[:, -1] - f_vals[:, 0], np.diff(f_vals)
        del f_vals
        return _split(lhs, gap, _power_terms(fn.derivs[:m], inc, vals[:, :-1]), inc, p)

    return _report(*block_sum(blocks, rows))


# --------------------------------------------------------------------------- #
# time-dependent and multi-component variants
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TimeFunctionBundle:
    """f(t, x) with its time derivative and space derivatives, all callables
    vectorized over numpy arrays in both arguments."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dt: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dx: tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], ...]
    name: str = ""


@np.errstate(all="ignore")  # a term that is not finite is refused by _report
def ito_check_time(
    bundle: TimeFunctionBundle,
    path: SampledPath,
    partition: Partition,
    p: float,
    t: float | None = None,
) -> ItoReport:
    """Identity for f(t, S(t)): per interval the change splits into a time
    difference at the right-endpoint value and a space difference at the
    left-endpoint time. The time part is also integrated (fixed 4-point
    Gauss rule on each interval) and the gap between the exact differences
    and the quadrature is reported separately.
    """
    from ._quad import gauss_legendre

    m = taylor_order(p)
    _require_derivs(len(bundle.dx), m, "space derivatives")
    times, vals = partition_values(path, partition, t)
    t_l, t_r = times[:-1], times[1:]
    s_l, s_r = vals[:-1], vals[1:]
    inc = s_r - s_l
    f_knots = bundle.fn(times, vals)
    f_cross = bundle.fn(t_l, s_r)

    # time part: exact differences, frozen at the right-endpoint value
    time_exact = float(np.sum(f_knots[1:] - f_cross))
    half = 0.5 * (t_r - t_l)
    mid = 0.5 * (t_r + t_l)
    time_gl = 0.0
    for node, weight in zip(*gauss_legendre(4)):
        time_gl += float(np.sum(weight * half * bundle.dt(mid + node * half, s_r)))

    # space part at the left-endpoint time, as one row
    terms = _power_terms(bundle.dx[:m], inc, t_l, s_l)
    row = _split(f_knots[-1] - f_knots[0], (f_cross - f_knots[:-1])[None], terms, inc[None], p)
    time_parts = {"time_integral": time_exact, "time_quadrature_gap": abs(time_exact - time_gl)}
    return _report(*(np.asarray(x).item() for x in row), **time_parts)


@dataclass(frozen=True)
class TensorFunctionBundle:
    """f on R^d with gradient and (optionally) Hessian; ``fn`` maps (..., d)
    arrays to (...,), ``grad`` to (..., d), ``hess`` to (..., d, d)."""

    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""


@np.errstate(all="ignore")  # a term that is not finite is refused by _report
def ito_check_multi(
    bundle: TensorFunctionBundle,
    paths: Sequence[SampledPath],
    partition: Partition,
    p: float,
    t: float | None = None,
) -> ItoReport:
    """Identity for f(S^1, ..., S^d) along a shared partition; increment
    magnitudes use the euclidean norm. Taylor order m = floor(p) must be 1
    or 2 (a Hessian is required for m = 2)."""
    m = taylor_order(p)
    _require_derivs(1 + (bundle.hess is not None), m, "derivatives (gradient, Hessian)")
    base = paths[0].times
    for other in paths[1:]:
        if not np.array_equal(other.times, base):
            raise InvalidParameterError("component paths must share their time grid")
    vals = np.stack([partition_values(q, partition, t)[1] for q in paths], axis=1)  # (N+1, d)
    left = vals[:-1]
    inc = np.diff(vals, axis=0)  # (N, d)
    lhs = float(bundle.fn(vals[-1:]).item() - bundle.fn(vals[:1]).item())

    def terms():  # gradient, then Hessian contraction along each increment
        yield np.einsum("nd,nd->n", bundle.grad(left), inc)
        if m == 2:
            yield np.einsum("nd,nde,ne->n", inc, bundle.hess(left), inc)

    gap = (bundle.fn(vals[1:]) - bundle.fn(left))[None]
    row = _split(lhs, gap, terms(), inc, p, lambda d: np.sqrt(np.einsum("nd,nd->n", d, d))[None])
    return _report(*(np.asarray(x).item() for x in row))


# --------------------------------------------------------------------------- #
# functionals of path prefixes
# --------------------------------------------------------------------------- #


class PrefixFamily:
    """Shared storage for all prefixes of one discretized path.

    Each prefix freezes the path right of its last sample: the
    piecewise-constant approximation the functional calculus expands along.
    Cumulative integrals are precomputed so every prefix exposes O(1)
    evaluations.
    """

    def __init__(self, path: SampledPath, partition: Partition):
        self.times, self.values = partition_values(path, partition)
        self.cum = np.concatenate([[0.0], np.cumsum(self.values[:-1] * np.diff(self.times))])

    def prefix(self, j: int, bump: float = 0.0, extend_to: float | None = None) -> "PathPrefix":
        if not 0 <= j < self.times.size:
            raise InvalidParameterError(f"prefix index {j} out of range")
        if extend_to is not None and extend_to < self.times[j]:
            raise InvalidParameterError("extension must not go backwards")
        return PathPrefix(self, j, bump, extend_to)


@dataclass(frozen=True)
class PathPrefix:
    """The path seen up to sample j, optionally with its endpoint value
    bumped and/or extended flat to a later time."""

    family: PrefixFamily
    j: int
    bump: float = 0.0
    extend_to: float | None = None

    @property
    def end_time(self) -> float:
        if self.extend_to is not None:
            return self.extend_to
        return float(self.family.times[self.j])

    @property
    def current(self) -> float:
        return float(self.family.values[self.j]) + self.bump

    def integral(self) -> float:
        """integral of the prefix over [0, end_time]; the flat extension
        carries the (possibly bumped) endpoint value."""
        base = float(self.family.cum[self.j])
        if self.extend_to is not None:
            base += (self.extend_to - float(self.family.times[self.j])) * self.current
        return base


@dataclass(frozen=True)
class FunctionalBundle:
    """A path functional with optional analytic vertical derivatives.

    ``evaluate`` maps a PathPrefix to a float. ``vertical`` holds the first
    and (optionally) second derivative with respect to a bump of the endpoint
    value; missing entries fall back to centered differences with a step tied
    to the partition's oscillation.
    """

    evaluate: Callable[[PathPrefix], float]
    vertical: tuple[Callable[[PathPrefix], float], ...] = ()
    name: str = ""


def _vertical(bundle: FunctionalBundle, order: int, pre: PathPrefix, step: float) -> float:
    """Order-1 or order-2 derivative of the functional in a bump of the
    endpoint of ``pre``: the bundle's own when it has one, else a centered
    difference with ``step``."""
    if len(bundle.vertical) >= order:
        return bundle.vertical[order - 1](pre)
    fam, F = pre.family, bundle.evaluate
    up = F(fam.prefix(pre.j, pre.bump + step, pre.extend_to))
    dn = F(fam.prefix(pre.j, pre.bump - step, pre.extend_to))
    if order == 1:
        return (up - dn) / (2.0 * step)
    return (up - 2.0 * F(pre) + dn) / step**2


@np.errstate(all="ignore")  # a term that is not finite is refused by _report
def ito_check_functional(
    bundle: FunctionalBundle,
    path: SampledPath,
    partition: Partition,
    p: float,
    fd_step: float | None = None,
) -> ItoReport:
    """Identity for a functional of the path prefix along one partition.

    Per interval the prefix first extends flat (horizontal difference, taken
    exactly as a difference of evaluations) and then jumps at the right
    endpoint (vertical difference, expanded to Taylor order m = floor(p) in
    the bump size). Missing vertical derivatives are replaced by centered
    differences with step ``fd_step`` (default: half the oscillation of the
    path along the partition, or 1e-6 where its m-th power is 0). The
    kernel sum is the plain sum of the vertical Taylor gaps: a functional's
    gap need not vanish at a zero increment, so none is left out. The p-th
    variation is the path's own, sum_i |dS_i|^p.
    """
    from .variation import phi_sums

    m = taylor_order(p)
    if m > 2:
        raise InvalidBundleError(f"functional checks support m = floor(p) in {{1, 2}}, got p={p!r}")
    if fd_step is None:
        fd_step = 0.5 * osc(path, partition)
        if math.prod((fd_step,) * m) == 0.0:  # nothing to difference over, or too small to square
            fd_step = 1e-6
    # the order-m difference divides by fd_step**m, which must be a positive float
    if not 0.0 < fd_step < math.inf or not 0.0 < math.prod((fd_step,) * m) < math.inf:
        raise InvalidParameterError(f"fd_step {fd_step!r} is no usable step for order {m}")
    real("fd_step", fd_step)
    fam = PrefixFamily(path, partition)
    n = fam.times.size - 1
    F = bundle.evaluate
    f_knots = np.array([F(fam.prefix(i)) for i in range(n + 1)])
    extended = [fam.prefix(i, 0.0, float(fam.times[i + 1])) for i in range(n)]
    f_ext = np.array([F(pre) for pre in extended])
    ds = np.diff(fam.values)
    terms = (
        np.array([_vertical(bundle, j, pre, fd_step) for pre in extended]) * ds**j
        for j in range(1, m + 1)
    )
    comp, gap = _taylor_terms(terms, f_knots[1:] - f_ext)
    lhs, horizontal = float(f_knots[-1] - f_knots[0]), float(np.sum(f_ext - f_knots[:-1]))
    variation = float(phi_sums(fam.values, p))
    return _report(lhs, float(comp), float(np.sum(gap)), n, 0, variation, time_integral=horizontal)


# --------------------------------------------------------------------------- #
# Young product bound for mixed-variation sums
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class YoungReport:
    p: float
    alphas: tuple[float, ...]
    levels: tuple[int, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    all_ok: bool

    @property
    def margins(self) -> tuple[float, ...]:
        return tuple(r - l for l, r in zip(self.lhs, self.rhs))


@np.errstate(all="ignore")  # a side that is not finite is refused by real
def young_bound_check(
    paths: Sequence[SampledPath],
    alphas: Sequence[float],
    partitions: Sequence[Partition],
) -> YoungReport:
    """Check, level by level, the Young product bound on mixed increments:

        sum_j prod_i |dS^i_j|^(alpha_i)
            <= sum_j sum_eps |sum_i eps_i (alpha_i / p) dS^i_j|^p

    with p = sum(alphas) and eps running over the sign patterns in
    {-1,+1}^d modulo a global flip (so d=1 is an exact equality). Each side
    is a finite sum, so the report is pure arithmetic per level; a side that
    is not finite is refused by name, since an overflowed bound proves nothing.
    """
    alphas = tuple(alphas)
    if not alphas or len(alphas) != len(paths):
        raise InvalidParameterError("need one exponent per path component")
    try:
        alphas = tuple(float(real("alphas", a, lo=0)) for a in alphas)
    except InvalidParameterError:
        raise InvalidParameterError(f"alphas must be positive and finite, got {alphas}") from None
    p = float(sum(alphas))
    d = len(paths)
    # fix the first sign to +1: a pattern and its negation give the same term
    patterns = [
        np.array((1.0,) + tuple(b * 2.0 - 1.0 for b in bits), dtype=float)
        for bits in np.ndindex(*(2,) * (d - 1))
    ]
    weights = np.array(alphas, dtype=float) / p
    levels: list[int] = []
    lhs_list: list[float] = []
    rhs_list: list[float] = []
    all_ok = True
    for part in partitions:
        dv = np.stack([np.diff(partition_values(sp, part)[1]) for sp in paths], axis=1)
        lhs = float(np.sum(np.prod(np.abs(dv) ** np.array(alphas), axis=1)))
        rhs = 0.0
        for eps in patterns:
            rhs += float(np.sum(np.abs(dv @ (eps * weights)) ** p))
        where = f"on a partition of {part.n_intervals} increments"
        lhs, rhs = real(f"the product sum {where}", lhs), real(f"the Young bound {where}", rhs)
        if lhs > rhs * (1.0 + 1e-12) + 1e-15:
            all_ok = False
        levels.append(part.n_intervals)
        lhs_list.append(lhs)
        rhs_list.append(rhs)
    return YoungReport(
        p=p,
        alphas=alphas,
        levels=tuple(levels),
        lhs=tuple(lhs_list),
        rhs=tuple(rhs_list),
        all_ok=all_ok,
    )
