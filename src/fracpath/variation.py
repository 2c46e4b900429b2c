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

from .errors import InvalidPhiError, entries, real
from .partitions import Partition, partition_values, tree_sum
from .paths import SampledPath

__all__ = [
    "phi_sums",
    "pth_variation_partial",
    "phi_variation_partial",
    "cantor_function",
]


def phi_sums(values: np.ndarray, phi: Callable[[np.ndarray], np.ndarray] | float) -> np.ndarray:
    """sum of phi(|increment|) along the last axis of ``values`` by ``partitions.tree_sum``,
    per row of path values (``partitions.block_sum``) bit for bit the row's sum alone; ``phi``
    is a gauge, or the exponent p of |increment|**p, refused by name where the power overflows."""

    def leaf(lo, hi, whole=False):
        with np.errstate(over="ignore"):
            size = np.abs(np.diff(values if whole else values[..., lo : hi + 1]))
            out = phi(size) if callable(phi) else size**phi
        ok = np.isfinite(out) & (out >= 0.0 if callable(phi) else True)
        if not (whole or ok.all()):  # a refusal names its index in the whole row
            return leaf(lo, hi, whole=True)
        if callable(phi):
            entries("phi(|dS|)", out, ok, "be finite and nonnegative", error=InvalidPhiError)
        entries("|dS|", size, ok, f"keep |dS|^{phi!r} finite")
        return (np.add.reduce(out, axis=-1),)

    return tree_sum(values.shape[-1] - 1, leaf)[0]


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
    """p-th power increment sum sum_i |S(min(t, t_{i+1})) - S(min(t, t_i))|^p:
    ``phi_sums`` with the exponent p on the partition's one row."""
    p = real("p", p, lo=0)
    return float(phi_sums(partition_values(path, partition, t)[1], p))


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
    entries("ts", x, ~np.isnan(x), "not be NaN")  # the comparisons below would read NaN as 0
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
