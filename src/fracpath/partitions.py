"""Partition sequences: b-adic grids and value-crossing (Lebesgue) partitions.

A partition is a strictly increasing time grid starting at 0; refinement is
always understood along a whole sequence of partitions, with the oscillation
``osc`` (not the mesh) being the quantity that has to vanish for variation
limits to make sense.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import choice, entries, real, time_grid
from .paths import LN2_OVER_LN3, MAX_KNOTS, TERNARY_UNDERFLOW, SampledPath

_CHUNK = 1 << 18  # values of the Cantor level rows formed and summed together
_LEAF = 1 << 14  # increments of a long row summed together; at least 128, numpy's unrolled block

__all__ = [
    "Partition",
    "badic",
    "value_grid_partition",
    "CantorBlocks",
    "cantor_blocks",
    "block_sum",
    "tree_sum",
    "weighted_total",
    "MAX_KNOTS",
    "osc",
    "partition_values",
    "check_stop_times",
]


@dataclass(frozen=True)
class Partition:
    """A time grid (``errors.time_grid``) on [0, horizon]."""

    times: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", time_grid("partition times", self.times))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_intervals(self) -> int:
        return self.times.size - 1

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))


def badic(horizon: float, n: int, base: int = 2) -> Partition:
    """Uniform b-adic partition of [0, horizon] with base**n intervals; more than
    ``MAX_KNOTS`` knots are refused before base**n is formed, and so are subnormal steps."""
    base = real("base", base, lo=2, open=False, integer=True)
    n = real("n", n, lo=0, open=False, integer=True)
    # base**n >= 2**(n * floor(log2 base)): past 26 such digits the count is
    # passed as inf, base**n unformed
    knots = base**n + 1 if n * (base.bit_length() - 1) <= MAX_KNOTS.bit_length() else math.inf
    real(f"the knots of base**n = {base}**{n} intervals", knots, lo=2, hi=MAX_KNOTS, open=False)
    real("horizon / base**n", real("horizon", horizon, lo=0) / base**n, lo=np.finfo(float).tiny)
    return Partition(np.linspace(0.0, horizon, base**n + 1))


# --------------------------------------------------------------------------- #
# value-crossing partitions
# --------------------------------------------------------------------------- #


def value_grid_partition(
    path: SampledPath,
    delta: float,
    mode: str = "increment",
) -> Partition:
    """Times at which a piecewise-linear path crosses a value grid of
    spacing ``delta``, from one lattice kernel with no Python loop.

    mode="grid": crossings of the absolute levels ``k * delta``.
    mode="increment": successive hitting times of ``last recorded value
    +- delta``. The recorded values stay on the lattice ``S(0) + k * delta``,
    so this is grid mode on that lattice minus each crossing of the level
    recorded just before it; S(0) itself is level 0 and counts as recorded.

    Segment j crosses the levels between floor/ceil of ``(v - base) / delta
    +- 1e-9`` at ``t[j] + (base + k * delta - v[j]) / slope``, clipped to the
    segment. 0 and the horizon are always included; exact hits at segment
    endpoints count once. More than 2**25 crossings are refused before any
    is built.
    """
    real("delta", delta, lo=0)
    choice("mode", mode, ("increment", "grid"))
    t, v0, v1 = path.times, path.values[:-1], path.values[1:]
    base = float(v0[0]) if mode == "increment" else 0.0
    guard = 1e-9
    up = v1 > v0
    step = np.where(up, 1.0, -1.0)  # rising segments cross k_lo..k_hi, falling k_hi..k_lo
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing v / delta is refused below
        a0, a1 = (v0 - base) / delta, (v1 - base) / delta
        first = np.where(up, np.floor(a0 + guard) + 1.0, np.ceil(a0 - guard) - 1.0)
        last = np.where(up, np.floor(a1 + guard), np.ceil(a1 - guard))
        count = np.maximum((last - first) * step + 1.0, 0.0)  # 0 on flat segments
    # the total is inf or NaN, and refused, when v / delta overflows
    total = real(f"the crossings at delta={delta!r}", float(count.sum()), lo=0, hi=MAX_KNOTS,
                 open=False)
    count = count.astype(np.int64)
    seg = np.repeat(np.arange(count.size), count)
    rank = np.arange(int(total)) - np.repeat(np.cumsum(count) - count, count)
    levels = first[seg] + step[seg] * rank
    t_lo = t[seg]
    times = t_lo + (base + levels * delta - v0[seg]) / ((v1 - v0) / np.diff(t))[seg]
    np.clip(times, t_lo, t[seg + 1], out=times)
    if mode == "increment":
        times = times[np.diff(levels, prepend=0.0) != 0.0]
    body = np.concatenate([[0.0], times])
    body = body[np.concatenate([[True], np.diff(body) > 0.0])]  # endpoint hits count once
    if body[-1] < path.horizon:
        body = np.append(body, path.horizon)
    return Partition(body)


# --------------------------------------------------------------------------- #
# exact crossing grid for the Cantor-distance path
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CantorBlocks:
    """A Cantor stage as weighted rows of path values (``block_sum``): its chunks
    are the level rows ``scales[i-1] * pattern`` at weight 2**(i-1), i = 1..n,
    at most ``_CHUNK`` values each (or one row), then the flat block ``[0, 0]``
    at weight 2**n. Level i's knot times are ``3**-i * fracs``."""

    scales: tuple[float, ...]
    pattern: np.ndarray
    fracs: np.ndarray

    def __iter__(self):
        n, step = len(self.scales), max(1, _CHUNK // self.pattern.size)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            yield [1 << i for i in range(lo, hi)], np.outer(self.scales[lo:hi], self.pattern)
        yield [1 << n], np.zeros((1, 2))


def cantor_blocks(p: float, n: int, rounding: str = "floor") -> tuple[int, CantorBlocks]:
    """(k_n, blocks): the stage-n value-crossing grid of the Cantor-distance
    path with exponent ``p`` as weighted level rows, without the 2**n grid;
    ``k_n`` is ``n**(1/(p-1))`` rounded down (rounding="floor") or to the
    nearest integer (rounding="nearest").

    The grid is 0, one block of 2 k_n + 1 knots per removed interval, then 1,
    the blocks joined by 2**n zero increments. A block crosses a uniform value
    grid of k_n levels up to its peak and back: times ``fracs`` of its
    interval, values 0, 1, .., k_n, .., 1, 0 in steps of its level. The
    2**(i-1) intervals removed at level i carry the same values, so one row
    holds them, scaled by the Python float ``2**(-i/p) / k_n``; the flat block
    stands for the zero increments. Every increment is the same float as in
    the full grid, so a sum over the grid is the weighted sum over the rows up
    to the order of summation. Refused before anything is built: a block past
    ``MAX_KNOTS`` knots (with the end knots 0 and 1), n rows past ``MAX_KNOTS``
    values, and level-n crossing times ``3**-n * fracs`` that underflow.
    """
    real("p", p, lo=1)
    n = real("n", n, lo=1, hi=TERNARY_UNDERFLOW - 1, open=False, integer=True)
    choice("rounding", rounding, ("floor", "nearest"))
    stage = f"stage {n} at p={p}"
    # a log bound, so that a p near 1 never reaches the power
    raw = n ** (1.0 / (p - 1.0)) if math.log(n) <= (p - 1.0) * math.log(MAX_KNOTS) else math.inf
    real(f"{stage}: k_n = n**(1/(p-1))", raw, lo=1, hi=MAX_KNOTS, open=False)
    k_n = max(int(math.floor(raw + 1e-9)) if rounding == "floor" else int(round(raw)), 1)
    # one block with the end knots 0 and 1, then all n level rows
    real(f"{stage}: the knots of one block", 2 * k_n + 3, lo=0, hi=MAX_KNOTS, open=False)
    real(f"{stage}: the values in {n} level rows", n * (2 * k_n + 1), lo=0, hi=MAX_KNOTS,
         open=False)

    q = LN2_OVER_LN3 / p
    ks = np.arange(k_n + 1, dtype=float)
    s_frac = (ks / k_n) ** (1.0 / q) / 2.0  # crossing offsets on the rising half
    frac_all = np.concatenate([s_frac, 1.0 - s_frac[:-1][::-1]])
    steps = np.diff(3.0 ** (-n) * frac_all)
    where = f"{stage} is too deep for float64: the steps of its level-{n} crossing times"
    entries(f"{where} 3**-n * s", steps, steps > 0.0, "be positive")
    val_pattern = np.concatenate(
        [np.arange(k_n + 1, dtype=float), np.arange(k_n - 1, -1, -1, dtype=float)]
    )
    scales = tuple(2.0 ** (-i / p) / k_n for i in range(1, n + 1))
    return k_n, CantorBlocks(scales, val_pattern, frac_all)


def weighted_total(pairs):
    """sum of ``weight * value`` over ``(weight, value)`` pairs, in order; the
    first term starts the sum, so one pair of weight 1 gives its value
    itself, bit for bit (a signed zero included)."""
    return functools.reduce(operator.add, (w * v for w, v in pairs))


def block_sum(blocks, term) -> tuple:
    """Weighted sums over the rows of ``blocks``, chunks ``(weights, rows)``
    with one row of path values per weight (a path's values along a partition
    are ``[((1,), values[None])]``): ``term`` maps a chunk's rows to a tuple of
    per-row arrays, and each is summed by ``weighted_total`` in block order."""
    rows = [r for w, v in blocks for r in zip(w, *(np.asarray(c).tolist() for c in term(v)))]
    weights, *columns = zip(*rows)
    return tuple(weighted_total(zip(weights, column)) for column in columns)


def tree_sum(n: int, leaf, lo: int = 0) -> tuple:
    """Sums along rows of ``n`` increments from increment ``lo`` on, in O(_LEAF) memory:
    ``leaf(lo, hi)`` gives a tuple of sums over increments lo..hi-1 (values lo..hi) of a
    row split where numpy's pairwise sum splits one past ``_LEAF``, at n2 = n // 2 - (n // 2)
    % 8, and the halves' tuples are added entry by entry: bit for bit the whole row's sums."""
    if n <= _LEAF:
        return leaf(lo, lo + n)
    half = n // 2 - (n // 2) % 8
    return tuple(map(operator.add, tree_sum(half, leaf, lo), tree_sum(n - half, leaf, lo + half)))


# --------------------------------------------------------------------------- #
# values along a partition, oscillation
# --------------------------------------------------------------------------- #


def check_stop_times(ts) -> None:
    """Reject an array of stop times unless all are finite and nonnegative:
    NaN propagates through the min and the max, so those two stand for all."""
    for t in (np.min(ts, initial=0.0), np.max(ts, initial=0.0)):
        real("stop time t", float(t), lo=0, open=False)


def partition_values(
    path: SampledPath,
    partition: Partition,
    t: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, path values) along the partition, every time clipped at the
    stop time ``t`` when given; the one entry point of all sums along a
    partition, and the one lookup. Rejects a negative or non-finite t and a
    partition that runs past the path. With no stop time, a partition on
    every s-th knot of the path (s = n // m for m intervals dividing the
    path's n) reads the stored values with no search, the floats the lookup
    would return: a C-contiguous copy of ``path.values[::s]``, or on the
    path's own grid (s = 1) a read-only view of ``path.values``."""
    # past its last knot the interpolant is a constant extension, not the path
    real(f"the partition's end within the path horizon {path.horizon!r}", partition.horizon,
         lo=0, hi=path.horizon + 1e-12, open=False)
    times, n, m = partition.times, path.times.size - 1, partition.n_intervals
    if t is not None:
        times = np.minimum(times, real("stop time t", t, lo=0, open=False))
    elif n % m == 0 and (times is path.times or np.array_equal(path.times[:: n // m], times)):
        if n > m:
            return times, path.values[:: n // m].copy()
        vals = path.values.view()
        vals.flags.writeable = False
        return times, vals
    return times, path.value_at(times)


def osc(path: SampledPath, partition: Partition) -> float:
    """Largest oscillation (max minus min of the path) over any single
    partition interval; the quantity that must vanish along a partition
    sequence for variation limits to be meaningful. An interval's extremes are
    its two end values (``partition_values``) and the stored values of the
    knots inside it, reduced run by run: O(n + m), no merged grid."""
    times, vals = partition_values(path, partition)
    at = np.searchsorted(times, path.times, side="right")  # knot k lies in [times[at-1], times[at])
    first = np.flatnonzero(np.diff(at, prepend=0))  # the first knot of each interval holding any
    i = at[first] - 1
    i = i[i < partition.n_intervals]  # knots at or past the end lie in no interval
    mx, mn = np.maximum(vals[:-1], vals[1:]), np.minimum(vals[:-1], vals[1:])
    mx[i] = np.maximum(mx[i], np.maximum.reduceat(path.values, first)[: i.size])
    mn[i] = np.minimum(mn[i], np.minimum.reduceat(path.values, first)[: i.size])
    with np.errstate(over="ignore", invalid="ignore"):  # a width past float64 is refused by name
        width = float(np.max(mx - mn))
    return real(f"the oscillation on a partition of {partition.n_intervals} intervals", width)
