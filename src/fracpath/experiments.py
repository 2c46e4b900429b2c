"""Reproducible end-to-end experiments shared by the CLI and the tests.

Each driver assembles paths, partitions and check routines from the other
modules and reports plain dataclasses of numbers; nothing here draws or
caches state, so identical inputs give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import real
from .follmer import (
    ItoReport,
    ito_check,
    ito_check_blocks,
    kernel_profile,
)
from .partitions import (
    MAX_KNOTS,
    Partition,
    badic,
    cantor_blocks,
    check_stop_times,
)
from .paths import TERNARY_UNDERFLOW, GaussianPathSpec, bump_count, fbm_path
from .registry import abs_power
from .smooth import SmoothFn
from .variation import cantor_function, pth_variation_partial

__all__ = [
    "CantorStage",
    "cantor_stage",
    "cantor_profile",
    "cantor_sweep",
    "cantor_compensated_formula",
    "cantor_function_gap",
    "BumpReport",
    "bump_decomposition",
    "bump_limit_value",
    "FbmVariationReport",
    "fbm_variation_experiment",
    "gaussian_abs_moment",
    "FbmItoReport",
    "fbm_ito_experiment",
]


# --------------------------------------------------------------------------- #
# Cantor-distance path along its exact crossing grids
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CantorStage:
    """All stage-n quantities for the Cantor-distance path, exponent p."""

    n: int
    k_n: int
    total_variation: float
    lower_bound: float
    upper_bound: float
    compensated: float
    compensated_formula: float
    kernel_sum: float
    identity_residual: float
    n_increments: int


def cantor_compensated_formula(p: float, n: int, k_n: int) -> float:
    """Closed form of the order-2 compensated sum for f(x) = |x|^p along the
    stage-n crossing grid: every removed interval contributes a first-order
    telescope plus an arithmetic second-order ladder, and levels add up to

        -n p / (2 k_n)
        + (n p (p-1) / 4) (2 sum_{k<=k_n} k^(p-2) - k_n^(p-2)) / k_n^p.
    """
    real("p", p, lo=1, hi=4)  # the p of cantor_stage
    real("n", n, lo=1, hi=TERNARY_UNDERFLOW - 1, open=False, integer=True)
    ks = np.arange(1, real("k_n", k_n, lo=1, hi=MAX_KNOTS, open=False, integer=True) + 1.0)
    ladder = 2.0 * float(np.sum(ks ** (p - 2.0))) - float(k_n) ** (p - 2.0)
    first = -n * p / (2.0 * k_n)
    second = n * p * (p - 1.0) / 4.0 * ladder / float(k_n) ** p
    return first + second


def cantor_stage(p: float, n: int, rounding: str = "floor") -> CantorStage:
    """Stage-n numbers for the Cantor-distance path along its crossing grid,
    summed over the level rows of ``cantor_blocks`` in one engine pass, which
    gives the total variation with the identity's terms: only the order of
    summation differs from sums over the materialized grid, cost grows with
    n * k_n instead of 2**n * k_n, and memory is bounded by the row chunks."""
    real("p", p, lo=1, hi=4)  # abs_power supplies three derivatives
    k_n, blocks = cantor_blocks(p, n, rounding)
    report = ito_check_blocks(abs_power(p), blocks, p)
    lower = 1.0
    upper = (1.0 - n ** (1.0 / (1.0 - p))) ** (1.0 - p) if k_n > 1 else math.inf
    return CantorStage(
        n=n,
        k_n=k_n,
        total_variation=report.variation,
        lower_bound=lower,
        upper_bound=upper,
        compensated=report.compensated,
        compensated_formula=cantor_compensated_formula(p, n, k_n),
        kernel_sum=report.kernel_sum,
        identity_residual=report.identity_residual,
        n_increments=report.n_increments,
    )


def cantor_sweep(p: float, ns, rounding: str = "floor") -> list[CantorStage]:
    return [cantor_stage(p, n, rounding) for n in ns]


def cantor_profile(p: float, n: int, ts, rounding: str = "floor") -> np.ndarray:
    """Stage-n partial p-th variation of the Cantor-distance path along its
    crossing grid at each query time: the cumulative |dS|^p sums over the
    grid that ``cantor_blocks`` describes, plus the fragment of the interval
    holding t, without building its 2**n blocks; query times are checked as
    ``pth_variation_partial`` checks its stop time.

    One pass over the levels walks the ternary digits of every t, keeping
    ``lo``, the left end of the retained interval that holds t, and ``b``,
    that interval's index (the number of level-i gaps left of it). Level i
    adds ``b`` full blocks plus, when t has passed the gap's left end
    ``lo + 3**-i``, the block's partial variation at the offset into the
    gap. Memory is O(len(ts)) per level. ``b`` is a float, since 2**82
    overflows int64.
    """
    ts = np.asarray(ts, dtype=float)
    check_stop_times(ts)
    _, blocks = cantor_blocks(p, n, rounding)
    out = np.zeros_like(ts)
    lo = np.zeros_like(ts)
    b = np.zeros_like(ts)
    for i, scale in enumerate(blocks.scales, start=1):
        third = 3.0 ** (-i)
        gap_lo = lo + third
        # level i's row on its own knots: cumulative |dS|^p, at the offsets into the gap
        grid, vals = third * blocks.fracs, scale * blocks.pattern
        csum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(vals)) ** p)])
        at = np.minimum(np.maximum(ts - gap_lo, 0.0), grid[-1])
        idx = np.searchsorted(grid, at, side="right") - 1
        frag = np.abs(np.interp(at, grid, vals) - vals[idx]) ** p
        frag[idx == grid.size - 1] = 0.0
        partial, full = csum[idx] + frag, csum[-1]
        right = ts >= gap_lo
        out += b * full + np.where(right, partial, 0.0)
        b = np.where(right, 2.0 * b + 1.0, 2.0 * b)
        # the gap's right end, summed as paths.cantor_gap_lefts sums it
        lo = np.where(right, lo + 2.0 * third, lo)
    return out


def cantor_function_gap(p: float, n: int, ts, rounding: str = "floor") -> float:
    """Largest gap between the stage-n partial p-th variation profile of the
    Cantor-distance path and the Cantor function, over the query times."""
    ts = np.asarray(ts, dtype=float)
    return float(np.max(np.abs(cantor_profile(p, n, ts, rounding) - cantor_function(ts))))


# --------------------------------------------------------------------------- #
# bump path via its per-bump decomposition
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BumpReport:
    """Stage-n numbers for the bump path with f(x) = |x|^p along value-step
    partitions of spacing 2^-n, aggregated over the self-similar bump
    classes (level i has 2^(i-1) * bump_count(p, i) identical bumps of
    height 2^-i, each crossing 2^(n-i) value steps up and down)."""

    p: float
    n: int
    delta: float
    compensated: float
    kernel_sum: float
    n_increments: int
    atom_weights: np.ndarray = field(repr=False)
    atom_weights_limit: np.ndarray = field(repr=False)  # closed-form limit weights
    up_angles: np.ndarray = field(repr=False)  # rising atoms, atan2(k + 1, k)
    down_angles: np.ndarray = field(repr=False)  # falling atoms, atan2(k, k + 1)
    g_up: np.ndarray = field(repr=False)  # |x|^p kernel on the up angles
    g_down: np.ndarray = field(repr=False)  # and on the down angles
    kernel_from_atoms: float = 0.0
    kernel_from_limit: float = 0.0

    @property
    def mass(self) -> float:
        return 2.0 * float(np.sum(self.atom_weights))


def bump_decomposition(p: float, n: int) -> BumpReport:
    """Exact stage-n sums for the bump path without materializing the
    partition (the full grid at depth 14 has billions of points; the
    decomposition needs about 2^n arithmetic terms). Its 2**(n-1) atom
    weights are refused past ``MAX_KNOTS``, before anything is built."""
    real("p", p, lo=2, hi=3)
    n = real("n", n, lo=1, hi=MAX_KNOTS.bit_length(), open=False, integer=True)
    delta = 2.0**-n
    counts = np.array([0] + [bump_count(p, i) for i in range(1, n + 1)], dtype=float)
    total_l = 0.0
    n_inc = 0
    k_top = 2 ** (n - 1)
    # finite-stage atom weights on the value ladder, both directions sharing w
    w_fin = np.zeros(k_top)
    for i in range(1, n + 1):
        big_k = 2 ** (n - i)
        mult = 2.0 ** (i - 1) * counts[i]
        ks = np.arange(1, big_k + 1, dtype=float)
        ladder = 2.0 * float(np.sum(ks ** (p - 2.0))) - float(big_k) ** (p - 2.0)
        first = -delta * p * (big_k * delta) ** (p - 1.0)
        second = p * (p - 1.0) / 2.0 * delta**p * ladder
        total_l += mult * (first + second)
        n_inc += int(mult) * 2 * big_k
        w_fin[:big_k] += mult * delta**p
    # closed-form limit atoms on the rungs k < 2**(n-1), both directions of
    # weight c 2^(-ceil(log2(k+1)) p); all rungs k >= 0 carry mass 1 in all
    ks = np.arange(k_top)
    levels = np.ceil(np.log2(ks + 1.0))
    levels[0] = 0.0
    c = (2.0 ** (p - 1.0) - 1.0) / (2.0**p - 1.0)
    w_lim = 2.0 ** (-levels * p) * c
    up = np.arctan2(ks + 1.0, ks.astype(float))
    down = np.arctan2(ks.astype(float), ks + 1.0)
    fn = abs_power(p)
    g_up = kernel_profile(fn, p, up)
    g_down = kernel_profile(fn, p, down)
    kernel_from_atoms = float(np.sum((g_up + g_down) * w_fin))
    kernel_from_limit = float(np.sum((g_up + g_down) * w_lim))
    return BumpReport(
        p=p,
        n=n,
        delta=delta,
        compensated=total_l,
        kernel_sum=-total_l,
        n_increments=n_inc,
        atom_weights=w_fin,
        atom_weights_limit=w_lim,
        up_angles=up,
        down_angles=down,
        g_up=g_up,
        g_down=g_down,
        kernel_from_atoms=kernel_from_atoms,
        kernel_from_limit=kernel_from_limit,
    )


def bump_limit_value(p: float) -> float:
    """Closed reference level p 2^-p (2^(p-1) - 1) (2(p-1)/3 - 1) for the
    limiting compensated sum of the bump path with f(x) = |x|^p; negative
    throughout 2 < p < (3 + ...), which is the point of the construction."""
    real("p", p, lo=2, hi=3)
    return p * 2.0**-p * (2.0 ** (p - 1.0) - 1.0) * (2.0 * (p - 1.0) / 3.0 - 1.0)


# --------------------------------------------------------------------------- #
# fractional Brownian motion experiments
# --------------------------------------------------------------------------- #


def gaussian_abs_moment(q: float) -> float:
    """E|Z|^q for standard normal Z: 2^(q/2) Gamma((q+1)/2) / sqrt(pi)."""
    real("q", q, lo=-1, hi=301)  # E|Z|^q passes float64 at q = 301.16
    return 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)


@dataclass(frozen=True)
class FbmVariationReport:
    hurst: float
    n: int
    horizon: float
    seeds: tuple[int, ...]
    per_seed: tuple[float, ...]
    empirical_mean: float
    expected: float

    @property
    def relative_error(self) -> float:
        return abs(self.empirical_mean - self.expected) / abs(self.expected)


def fbm_variation_experiment(
    hurst: float,
    n: int,
    seeds,
    horizon: float = 1.0,
) -> FbmVariationReport:
    """Full-grid (1/H)-th power sums across seeds against the exact mean
    horizon * E|Z|^(1/H), which holds at every resolution by self-similarity."""
    p = real("1 / hurst", 1.0 / real("hurst", hurst, lo=0, hi=1))
    sums = []
    seeds = tuple(int(s) for s in seeds)
    for seed in seeds:
        path = fbm_path(GaussianPathSpec(hurst=hurst, n=n, horizon=horizon, seed=seed))
        part = Partition(path.times)
        sums.append(pth_variation_partial(path, part, p))
    expected = real("horizon * E|Z|^p", horizon * gaussian_abs_moment(p))
    return FbmVariationReport(
        hurst=hurst,
        n=n,
        horizon=horizon,
        seeds=seeds,
        per_seed=tuple(sums),
        empirical_mean=float(np.mean(sums)),
        expected=expected,
    )


@dataclass(frozen=True)
class FbmItoReport:
    hurst: float
    seed: int
    levels: tuple[int, ...]
    residuals: tuple[float, ...]
    reports: tuple[ItoReport, ...] = field(repr=False, default=())


def fbm_ito_experiment(
    hurst: float,
    fn: SmoothFn,
    seed: int,
    j_levels,
    p: float | None = None,
    horizon: float = 1.0,
) -> FbmItoReport:
    """Compensated-sum residuals for f along one fBm sample, evaluated on a
    nested ladder of dyadic partitions (the path is sampled once at the
    finest level)."""
    j_levels = sorted(real("j_levels", j, integer=True) for j in j_levels)
    if p is None:
        p = real("1 / hurst", 1.0 / real("hurst", hurst, lo=0, hi=1))
    n_fine = badic(horizon, j_levels[-1]).n_intervals
    path = fbm_path(GaussianPathSpec(hurst=hurst, n=n_fine, horizon=horizon, seed=seed))
    residuals = []
    reports = []
    for j in j_levels:
        part = badic(horizon, j)
        rep = ito_check(fn, path, part, p)
        reports.append(rep)
        residuals.append(rep.follmer_residual)
    return FbmItoReport(
        hurst=hurst,
        seed=seed,
        levels=tuple(j_levels),
        residuals=tuple(residuals),
        reports=tuple(reports),
    )
