"""Variation sums along partition sequences.

Everything here is a finite-stage quantity: p-th (or phi-) power sums of
increments along one partition, optionally stopped at an intermediate time t
(increments are evaluated at clipped times ``min(t, t_i)``). Limit statements
live in the tests and experiments, which drive these sums along refining
partition sequences and check Cauchy behaviour.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidParameterError, InvalidPhiError, real
from .partitions import Partition, check_stop_times, partition_values
from .paths import SampledPath

__all__ = [
    "phi_sums",
    "pth_variation_partial",
    "phi_variation_partial",
    "variation_table",
    "cantor_function",
]


def phi_sums(values: np.ndarray, phi: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """sum of phi(|increment|) along the last axis of ``values``, per row of
    path values (``partitions.block_sum``) bit for bit the row's sum alone."""
    out = phi(np.abs(np.diff(values)))
    if np.any(out < 0.0) or not np.all(np.isfinite(out)):
        raise InvalidPhiError("phi must be finite and nonnegative on increment magnitudes")
    return np.add.reduce(out, axis=-1)


def phi_variation_partial(
    path: SampledPath,
    partition: Partition,
    phi: Callable[[np.ndarray], np.ndarray],
    t: float | None = None,
) -> float:
    """sum_i phi(|S(min(t, t_{i+1})) - S(min(t, t_i))|) along the partition:
    ``phi_sums`` on its one row."""
    return float(phi_sums(partition_values(path, partition, t)[1], phi))


def pth_variation_partial(
    path: SampledPath,
    partition: Partition,
    p: float,
    t: float | None = None,
) -> float:
    """p-th power increment sum; the phi-sum with phi(x) = x**p."""
    real("p", p, lo=0)
    return phi_variation_partial(path, partition, lambda a: a**p, t)


def variation_table(
    path: SampledPath,
    partition: Partition,
    p: float,
    ts: np.ndarray,
) -> np.ndarray:
    """Partial p-th variation evaluated at many times t in one pass.

    Equivalent to ``[pth_variation_partial(path, partition, p, t) for t in ts]``
    but uses one cumulative sum plus a boundary fragment per query, and
    rejects the same query times.
    """
    real("p", p, lo=0)
    ts = np.asarray(ts, dtype=float)
    check_stop_times(ts)
    grid, vals = partition_values(path, partition)
    c = np.abs(np.diff(vals)) ** p
    csum = np.concatenate([[0.0], np.cumsum(c)])
    idx = np.clip(np.searchsorted(grid, ts, side="right") - 1, 0, grid.size - 1)
    frag = np.abs(path.value_at(np.minimum(ts, grid[-1])) - vals[idx]) ** p
    frag[idx == grid.size - 1] = 0.0
    return csum[idx] + frag


# --------------------------------------------------------------------------- #
# reference values
# --------------------------------------------------------------------------- #


def cantor_function(ts) -> np.ndarray:
    """Cantor (devil's staircase) function on [0, 1], by the ternary digit
    expansion: halve digits 0/2 until the first digit 1, which contributes its
    binary weight and stops the expansion. Times past the ends read 0 and 1;
    a NaN time is refused."""
    ts = np.asarray(ts, dtype=float)
    scalar = ts.ndim == 0
    x = np.atleast_1d(ts).astype(float).copy()
    if np.isnan(x).any():  # every comparison below reads NaN as false, so NaN would read 0
        raise InvalidParameterError(f"ts must not be NaN, got nan at index {np.isnan(x).argmax()}")
    out = np.zeros_like(x)
    done = x <= 0.0
    hi = x >= 1.0
    out[hi] = 1.0
    done |= hi
    x = np.clip(x, 0.0, 1.0)
    half = 0.5
    for _ in range(54):
        if np.all(done):
            break
        x *= 3.0
        d = np.minimum(np.floor(x), 2.0)
        x -= d
        first_one = ~done & (d == 1.0)
        out[first_one] += half
        done |= first_one
        out[~done & (d == 2.0)] += half
        half *= 0.5
    return out[0] if scalar else out
