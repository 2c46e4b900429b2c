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

from .errors import InvalidParameterError
from .paths import LN2_OVER_LN3, MAX_KNOTS, TERNARY_UNDERFLOW, SampledPath

__all__ = [
    "Partition",
    "badic",
    "value_grid_partition",
    "cantor_blocks",
    "block_sum",
    "weighted_total",
    "MAX_KNOTS",
    "osc",
    "partition_values",
    "check_stop_times",
]


@dataclass(frozen=True)
class Partition:
    """Strictly increasing time grid on [0, horizon], first point 0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise InvalidParameterError("a partition needs at least two points")
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            raise InvalidParameterError(f"time at index {bad[0]} is not finite ({times[bad[0]]})")
        if times[0] != 0.0:
            raise InvalidParameterError("partitions start at time 0")
        if np.any(np.diff(times) <= 0.0):
            raise InvalidParameterError("partition times must be strictly increasing")
        object.__setattr__(self, "times", times)

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
    """Uniform b-adic partition of [0, horizon] with base**n intervals.
    More than ``MAX_KNOTS`` knots are refused before base**n is computed."""
    if base < 2 or int(base) != base:
        raise InvalidParameterError(f"base must be an integer >= 2, got {base}")
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if not 0.0 < horizon < math.inf:
        raise InvalidParameterError(f"horizon must be positive and finite, got {horizon!r}")
    base = int(base)
    # base**n >= 2**(n * floor(log2 base)): a digit bound that needs no base**n
    if n * (base.bit_length() - 1) >= MAX_KNOTS.bit_length() - 1 or base**n + 1 > MAX_KNOTS:
        raise InvalidParameterError(
            f"{base}**{n} intervals exceed the limit of {MAX_KNOTS} knots"
        )
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
    if not (math.isfinite(delta) and delta > 0.0):
        raise InvalidParameterError("delta must be positive and finite")
    if mode not in ("increment", "grid"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
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
    total = float(count.sum())
    if not total <= MAX_KNOTS:  # inf or NaN when v / delta overflows
        raise InvalidParameterError(
            f"delta={delta!r} gives {total:.0f} crossings, more than the limit of {MAX_KNOTS}"
        )
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


def _cantor_pattern(p: float, n: int, rounding: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(k_n, frac_all, val_pattern): the crossing pattern that every interval
    removed up to stage n carries, with ``k_n = n**(1/(p-1))`` rounded down
    (rounding="floor") or to the nearest integer (rounding="nearest").

    ``frac_all`` holds the 2 k_n + 1 crossing times as fractions of the
    interval, ``val_pattern`` the values 0, 1, .., k_n, .., 1, 0 in units of
    the level's value step. Refuses, before building anything, when one
    such block between the end knots 0 and 1 would exceed ``MAX_KNOTS``
    knots, and when the level-n block's crossing times
    ``3**-n * frac_all`` are not distinct float64 numbers (they underflow).
    """
    if p <= 1.0:
        raise InvalidParameterError(f"p must exceed 1, got {p}")
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if rounding not in ("floor", "nearest"):
        raise InvalidParameterError(f"unknown rounding {rounding!r}")
    too_deep = InvalidParameterError(
        f"stage {n} at p={p} is too deep: the level-{n} crossing times 3**-{n} * s"
        " underflow float64"
    )
    # cheap refusals first, so that a huge n or a p near 1 never reaches the power
    if n >= TERNARY_UNDERFLOW:
        raise too_deep
    if math.log(n) > (p - 1.0) * math.log(MAX_KNOTS):
        raise InvalidParameterError(
            f"stage {n} at p={p}: k_n = n**(1/(p-1)) exceeds the limit of {MAX_KNOTS} knots"
        )
    raw = n ** (1.0 / (p - 1.0))
    k_n = max(int(math.floor(raw + 1e-9)) if rounding == "floor" else int(round(raw)), 1)
    n_knots = 2 * k_n + 3
    if n_knots > MAX_KNOTS:
        raise InvalidParameterError(
            f"stage {n} at p={p}: {n_knots} knots exceed the limit of {MAX_KNOTS}"
        )

    q = LN2_OVER_LN3 / p
    ks = np.arange(k_n + 1, dtype=float)
    s_frac = (ks / k_n) ** (1.0 / q) / 2.0  # crossing offsets on the rising half
    frac_all = np.concatenate([s_frac, 1.0 - s_frac[:-1][::-1]])
    if not np.all(np.diff(3.0 ** (-n) * frac_all) > 0.0):
        raise too_deep
    val_pattern = np.concatenate(
        [np.arange(k_n + 1, dtype=float), np.arange(k_n - 1, -1, -1, dtype=float)]
    )
    return k_n, frac_all, val_pattern


def cantor_blocks(
    p: float, n: int, rounding: str = "floor"
) -> tuple[int, list[tuple[int, SampledPath, Partition]]]:
    """(k_n, blocks): the stage-n value-crossing grid of the Cantor-distance
    path with exponent ``p`` as weighted blocks ``(weight, path,
    partition)``, without the 2**n grid; ``k_n`` is ``n**(1/(p-1))`` rounded
    down (rounding="floor") or to the nearest integer (rounding="nearest").

    In that grid each interval removed at level ``i <= n`` crosses a uniform
    value grid of ``k_n`` levels up to its peak ``2**(-i/p)`` and back: the
    grid is 0, one block of 2 k_n + 1 knots per removed interval, then 1,
    the blocks joined by 2**n zero increments. The 2**(i-1) intervals
    removed at level i carry the same values, so entry i - 1 is one
    representative block -- times ``3**-i * frac_all`` from 0, values
    ``2**(-i/p) / k_n * val_pattern`` -- of weight 2**(i-1). The last entry
    is a flat one-interval block of weight 2**n: the zero increments. Every
    increment is the same float as in the full grid, so a sum over the grid
    is the weighted sum over the blocks up to the order of summation. Memory
    grows with n * k_n instead of 2**n * k_n; a stage whose level-n times
    underflow float64 is refused before any block is built.
    """
    k_n, frac_all, val_pattern = _cantor_pattern(p, n, rounding)
    blocks = []
    for i in range(1, n + 1):
        times = 3.0 ** (-i) * frac_all
        path = SampledPath(times, 2.0 ** (-i / p) / k_n * val_pattern)
        blocks.append((1 << (i - 1), path, Partition(times)))
    flat = np.array([0.0, 1.0])
    blocks.append((1 << n, SampledPath(flat, np.zeros(2)), Partition(flat)))
    return k_n, blocks


def weighted_total(pairs):
    """sum of ``weight * value`` over ``(weight, value)`` pairs, in order; the
    first term starts the sum, so one pair of weight 1 gives its value
    itself, bit for bit (a signed zero included)."""
    return functools.reduce(operator.add, (w * v for w, v in pairs))


def block_sum(blocks, term):
    """sum of ``weight * term(path, partition)`` over weighted blocks, in
    block order; one block of weight 1 gives ``term``'s value itself."""
    return weighted_total((w, term(path, part)) for w, path, part in blocks)


# --------------------------------------------------------------------------- #
# values along a partition, oscillation
# --------------------------------------------------------------------------- #


def _require_within(path: SampledPath, partition: Partition) -> None:
    # past its last knot the interpolant is a constant extension, not the path
    if partition.horizon > path.horizon + 1e-12:
        raise InvalidParameterError(f"partition runs past the path horizon {path.horizon!r}")


def check_stop_times(ts) -> None:
    """Reject a stop time (or any of an array of them) that is negative or
    not finite; NaN would pass a plain ``t < 0`` test."""
    ts = np.asarray(ts, dtype=float)
    bad = ~(np.isfinite(ts) & (ts >= 0.0))
    if bad.any():
        raise InvalidParameterError(
            f"stop time t must be finite and nonnegative, got {float(ts[bad].flat[0])!r}"
        )


def partition_values(
    path: SampledPath,
    partition: Partition,
    t: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, path values) along the partition, every time clipped at the
    stop time ``t`` when given; the one entry point of all sums along a
    partition. Rejects a negative or non-finite t and a partition that runs
    past the path. On the path's own grid with no stop time the values are
    a read-only view of ``path.values``, which the lookup would return."""
    _require_within(path, partition)
    times = partition.times
    if t is not None:
        check_stop_times(t)
        times = np.minimum(times, t)
    elif times is path.times or (times.size == path.times.size and np.array_equal(times, path.times)):
        vals = path.values.view()
        vals.flags.writeable = False
        return times, vals
    return times, path.value_at(times)


def osc(path: SampledPath, partition: Partition) -> float:
    """Largest oscillation (max minus min of the path) over any single
    partition interval; the quantity that must vanish along a partition
    sequence for variation limits to be meaningful."""
    _require_within(path, partition)
    grid = np.union1d(path.times, partition.times)
    vals = path.value_at(grid)
    starts = np.searchsorted(grid, partition.times)
    mx = np.maximum.reduceat(vals, starts[:-1])
    mn = np.minimum.reduceat(vals, starts[:-1])
    # reduceat slices exclude each interval's right endpoint; fold it in
    right = vals[starts[1:]]
    mx = np.maximum(mx, right)
    mn = np.minimum(mn, right)
    return float(np.max(mx - mn))
