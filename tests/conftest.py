"""Shared fixtures: the expensive sampled paths are built once per session;
the reference builder of the full Cantor crossing grid, the per-level
reference sums of a Cantor stage, the reference variation profile and the
merged-grid oscillation; and the scalar edge values of the API fuzz
property."""

import itertools
import math

import numpy as np
import pytest

from fracpath.follmer import ItoReport, ito_check
from fracpath.partitions import (
    Partition,
    badic,
    cantor_blocks,
    check_stop_times,
    partition_values,
    weighted_total,
)
from fracpath.paths import (
    LN2_OVER_LN3,
    GaussianPathSpec,
    SampledPath,
    cantor_gap_lefts,
    fbm_path,
    sample,
    takagi_path,
)
from fracpath.registry import abs_power
from fracpath.variation import phi_variation_partial, pth_variation_partial

# one scalar argument at a time takes each of these: non-finite, float64's
# extremes, the boundaries 0 and -1, a subnormal, a fraction, sizes far
# past every knot cap, a boolean and an int that float64 cannot hold
EDGE_VALUES = (
    math.nan,
    math.inf,
    -math.inf,
    1e308,
    -1e308,
    0,
    -1,
    5e-324,
    0.5,
    1e6,
    2**40,
    True,
    10**400,
)


def cantor_pattern(p, n, rounding="floor"):
    """(k_n, crossing times as fractions of a removed interval, values in
    units of the level's value step) of the stage-n crossing grid; only k_n
    comes from ``cantor_blocks``."""
    k_n, _ = cantor_blocks(p, n, rounding)
    q = LN2_OVER_LN3 / p
    ks = np.arange(k_n + 1, dtype=float)
    s_frac = (ks / k_n) ** (1.0 / q) / 2.0
    frac_all = np.concatenate([s_frac, 1.0 - s_frac[:-1][::-1]])
    val_pattern = np.concatenate(
        [np.arange(k_n + 1, dtype=float), np.arange(k_n - 1, -1, -1, dtype=float)]
    )
    return k_n, frac_all, val_pattern


def argsort_grid(p, n, rounding="floor"):
    """(path, partition, k_n) of the stage-n crossing grid of the
    Cantor-distance path, built the direct way: every level's blocks
    appended, then one stable argsort of all knot times. The library sums
    over its level rows instead, and the tests check those sums against
    this grid."""
    k_n, frac_all, val_pattern = cantor_pattern(p, n, rounding)
    all_t = [np.array([0.0]), np.array([1.0])]
    all_v = [np.array([0.0]), np.array([0.0])]
    for i in range(1, n + 1):
        lefts = cantor_gap_lefts(i)
        delta = 2.0 ** (-i / p) / k_n
        all_t.append((lefts[:, None] + 3.0 ** (-i) * frac_all[None, :]).ravel())
        all_v.append(np.tile(delta * val_pattern, lefts.size))
    t = np.concatenate(all_t)
    v = np.concatenate(all_v)
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    return SampledPath(t, v), Partition(t), k_n


def per_level_reference(p, n, rounding="floor", phi=None):
    """(ItoReport, variation) of the stage-n crossing grid summed level by
    level: ``ito_check`` of |x|^p and ``pth_variation_partial`` (or
    ``phi_variation_partial`` with ``phi``) on each level's own SampledPath,
    built one at a time, combined with ``weighted_total`` in block order:
    level i (times 3**-i * fracs, values 2**(-i/p) / k_n * pattern) at weight
    2**(i-1), then the flat block of weight 2**n."""
    k_n, frac_all, val_pattern = cantor_pattern(p, n, rounding)
    levels = (
        (1 << (i - 1), 3.0 ** (-i) * frac_all, 2.0 ** (-i / p) / k_n * val_pattern)
        for i in range(1, n + 1)
    )
    flat = (1 << n, np.array([0.0, 1.0]), np.zeros(2))
    fn, per_block = abs_power(p), []
    for weight, times, values in itertools.chain(levels, [flat]):
        path, part = SampledPath(times, values), Partition(times)
        variation = pth_variation_partial(path, part, p) if phi is None else phi_variation_partial(path, part, phi)
        per_block.append((weight, ito_check(fn, path, part, p), variation))
    names = (
        "value_change", "compensated", "kernel_sum", "n_increments", "n_zero_increments", "variation"
    )
    report = ItoReport(*(weighted_total((w, getattr(r, name)) for w, r, _ in per_block) for name in names))
    return report, weighted_total((w, v) for w, _, v in per_block)


def variation_table(path, partition, p, ts):
    """Partial p-th variation at many stop times t in one pass: one cumulative
    sum of |dS|^p plus the fragment of the interval holding each t, rejecting
    the query times ``pth_variation_partial`` rejects. The library's profile,
    ``experiments.cantor_profile``, does the same arithmetic level by level;
    the tests check it, and this table, against the pointwise sums."""
    ts = np.asarray(ts, dtype=float)
    check_stop_times(ts)
    grid, vals = partition_values(path, partition)
    csum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(vals)) ** p)])
    idx = np.clip(np.searchsorted(grid, ts, side="right") - 1, 0, grid.size - 1)
    frag = np.abs(path.value_at(np.minimum(ts, grid[-1])) - vals[idx]) ** p
    frag[idx == grid.size - 1] = 0.0
    return csum[idx] + frag


def merged_grid_osc(path, partition):
    """The oscillation of ``path`` over ``partition`` on one merged grid: the
    knots up to the partition's end and the partition times sorted together by
    ``np.union1d``, the path looked up on that grid, each interval's max and min
    taken over its slice and its right end. ``partitions.osc`` reduces the
    stored knot values interval by interval instead; the tests check it, bit for
    bit, against this reference."""
    grid = np.union1d(path.times[path.times <= partition.horizon], partition.times)
    vals = path.value_at(grid)
    starts = np.searchsorted(grid, partition.times)
    mx = np.maximum.reduceat(vals, starts[:-1])
    mn = np.minimum.reduceat(vals, starts[:-1])
    right = vals[starts[1:]]  # reduceat slices exclude each interval's right end
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.maximum(mx, right) - np.minimum(mn, right)))


@pytest.fixture(scope="session")
def fbm04():
    # rough regime, H < 1/2; also the path behind the ito-check fixtures
    return fbm_path(GaussianPathSpec(hurst=0.4, n=2**16, seed=2))


@pytest.fixture(scope="session")
def fbm08():
    # smooth regime for the isometry checks
    return fbm_path(GaussianPathSpec(hurst=0.8, n=2**14, seed=9))


@pytest.fixture(scope="session")
def cantor8():
    """(path, partition, k_n) of the stage-8 Cantor-distance crossing grid."""
    return argsort_grid(2.5, 8)


@pytest.fixture(scope="session")
def takagi_fine():
    """Takagi path (b=2, alpha=1/2, triangle) sampled on the level-16 grid."""
    return sample(takagi_path(2, 0.5, "triangle", depth=30), badic(1.0, 16).times)


@pytest.fixture()
def hand_path():
    """Small piecewise-linear path with both flat and steep segments."""
    t = np.linspace(0.0, 1.0, 11)
    v = np.array([0.0, 0.3, 0.55, 0.2, -0.4, 0.1, 0.35, 0.9, 0.62, 0.3, 0.05])
    return SampledPath(t, v)
