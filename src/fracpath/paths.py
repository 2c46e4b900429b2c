"""Path constructions: analytic rough-path families and sampled paths.

Three analytic families are provided:

* ``cantor_distance_path`` -- a power of the distance to the middle-third
  Cantor set; vanishes exactly on the Cantor set and has one smooth arch per
  removed interval.
* ``cantor_bump_path`` -- triangular bumps packed into the removed intervals,
  with a level-dependent bump count that grows geometrically.
* ``takagi_path`` -- Takagi-van der Waerden type series over a b-adic wave.

Gaussian paths (fractional Brownian motion) are sampled for every n by
real-FFT circulant embedding (Davies-Harte), whose square-root spectrum is
computed once per (n, hurst) and reused for every seed.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import InvalidParameterError, SamplingInfeasibleError, choice, real, time_grid

__all__ = [
    "AnalyticPath",
    "SampledPath",
    "GaussianPathSpec",
    "cantor_distance_path",
    "cantor_bump_path",
    "takagi_path",
    "fbm_path",
    "sample",
    "cantor_gap_lefts",
    "bump_count",
    "cantor_bump_knots",
]

LN2_OVER_LN3 = math.log(2.0) / math.log(3.0)

# the most knots a grid builder materializes: fBm samples, b-adic knots,
# value-grid crossings, the bump path's knots, or the 2 k_n + 3 knots of one
# Cantor crossing block (2**25 knots hold about 0.5 GB of times and values)
MAX_KNOTS = 2**25

# 3.0 ** -679 == 0.0: from this level on a removed interval has no float64
# length, so no stage this deep has a level-n block of distinct times
TERNARY_UNDERFLOW = 679


# --------------------------------------------------------------------------- #
# path containers
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SampledPath:
    """A path known at finitely many times, linearly interpolated in between.

    ``times`` is a time grid (``errors.time_grid``); the horizon is ``times[-1]``.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = time_grid("times", self.times)
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != times.shape:
            raise InvalidParameterError("times and values must be 1-d arrays of equal length")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InvalidParameterError(f"value at index {bad[0]} is not finite ({values[bad[0]]})")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def value_at(self, ts) -> np.ndarray:
        """Evaluate the interpolant; exact (no arithmetic) at stored knots:
        ``np.interp`` answers a query equal to a knot, the last one included,
        with the stored value itself rather than ``slope * 0 + value``."""
        return np.interp(np.asarray(ts, dtype=float), self.times, self.values)


@dataclass(frozen=True)
class AnalyticPath:
    """A deterministic path given by a closed-form, vectorized evaluator."""

    horizon: float
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self.fn(ts)


@dataclass(frozen=True)
class GaussianPathSpec:
    """Parameters of a fractional Brownian motion sample.

    ``n`` is the number of increments, any integer from 2 up to
    ``MAX_KNOTS - 1``; ``horizon`` must be positive, with normal float64 steps ``horizon / n``.
    """

    hurst: float
    n: int
    horizon: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        real("hurst", self.hurst, lo=0, hi=1)
        n = real("n", self.n, lo=2, open=False, integer=True)
        if n + 1 > MAX_KNOTS:
            raise InvalidParameterError(f"n={n} increments exceed the limit of {MAX_KNOTS} knots")
        real("horizon / n", real("horizon", self.horizon, lo=0) / n, lo=sys.float_info.min)
        seed = real("seed", self.seed, lo=0, hi=2**64 - 1, open=False, integer=True)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)


# --------------------------------------------------------------------------- #
# Cantor-set machinery
# --------------------------------------------------------------------------- #


def cantor_gap_lefts(level: int) -> np.ndarray:
    """Left endpoints (sorted) of the 2**(level-1) intervals removed at
    ``level`` in the middle-third Cantor construction on [0, 1], refused past ``MAX_KNOTS``."""
    d = real("level", level, lo=1, hi=MAX_KNOTS.bit_length(), open=False, integer=True) - 1
    idx = np.arange(1 << d, dtype=np.uint64)
    lefts = np.zeros(1 << d)
    for j in range(d):
        bit = ((idx >> np.uint64(d - 1 - j)) & np.uint64(1)).astype(float)
        lefts += bit * (2.0 * 3.0 ** (-(j + 1)))
    return lefts + 3.0 ** (-level)


def _cantor_gap_info(ts: np.ndarray, depth: int):
    """For each t: (level i of the removed interval containing it, or 0 if none
    up to ``depth``; left endpoint of that interval, 0 if none)."""
    ts = np.asarray(ts, dtype=float)
    lo = np.zeros_like(ts)
    level = np.zeros(ts.shape, dtype=np.int64)
    gap_lo = np.zeros_like(ts)
    active = (ts >= 0.0) & (ts <= 1.0)
    size = 1.0
    for i in range(1, depth + 1):
        third = size / 3.0
        gl = lo + third
        gr = lo + 2.0 * third
        in_left = ts < gl
        in_right = ts > gr
        in_gap = active & ~in_left & ~in_right
        level[in_gap] = i
        gap_lo[in_gap] = gl[in_gap]
        active &= ~in_gap
        move = active & in_right
        lo = np.where(move, gr, lo)
        size = third
    return level, gap_lo


def _cantor_distance(ts: np.ndarray, depth: int) -> np.ndarray:
    """Distance from each t in [0, 1] to the depth-``depth`` Cantor set
    approximation (points inside a retained depth-d interval get 0)."""
    level, gap_lo = _cantor_gap_info(ts, depth)
    in_gap = level > 0
    out = np.zeros_like(np.asarray(ts, dtype=float))
    if np.any(in_gap):
        glen = 3.0 ** (-level[in_gap].astype(float))
        t = np.asarray(ts, dtype=float)[in_gap]
        a = gap_lo[in_gap]
        out[in_gap] = np.minimum(t - a, a + glen - t)
    return out


def _refuse_ternary_underflow(depth: int, p: float) -> None:
    if depth >= TERNARY_UNDERFLOW:
        raise InvalidParameterError(
            f"depth {depth} at p={p} is too deep: the level-{depth} interval length"
            f" 3**-{depth} underflows float64 (the deepest is {TERNARY_UNDERFLOW - 1})"
        )


def cantor_distance_path(p: float, depth: int = 30) -> AnalyticPath:
    """Path ``S(t) = (2 * dist(t, C))**(log_3(2) / p)`` on [0, 1], where C is
    the depth-``depth`` Cantor set approximation.

    On the interval removed at level i the path rises from 0 to ``2**(-i/p)``
    at the midpoint and falls back to 0.

    Parameters
    ----------
    p : float
        Scaling exponent, must exceed 1.
    depth : int
        Construction depth; points closer to the Cantor set than ``3**-depth``
        evaluate to 0.
    """
    real("p", p, lo=1)
    depth = real("depth", depth, lo=1, open=False, integer=True)
    _refuse_ternary_underflow(depth, p)
    q = LN2_OVER_LN3 / p

    def fn(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        d = _cantor_distance(ts, depth)
        return (2.0 * d) ** q

    return AnalyticPath(horizon=1.0, fn=fn)


def bump_count(p: float, level: int) -> int:
    """Number of equal sub-intervals (one triangular bump each) that the
    bump path places in every interval removed at ``level``; a count past
    float64 is refused."""
    real("p", p, lo=2, hi=3)
    scale = (real("level", level, lo=0, open=False, integer=True) - 1) * (p - 1.0)
    count = 2.0**scale * (2.0 ** (p - 1.0) - 1.0) if scale < 1024.0 else math.inf
    if count == math.inf:
        raise InvalidParameterError(f"level {level} at p={p}: the bump count overflows float64")
    return int(math.floor(count))


def cantor_bump_path(p: float, depth: int = 14) -> AnalyticPath:
    """Piecewise-linear path of triangular bumps supported on the removed
    intervals of the Cantor construction.

    The interval removed at level i is split into ``bump_count(p, i)``
    contiguous equal sub-intervals, each carrying one triangular bump of
    height ``2**-i``. Levels beyond ``depth`` are dropped.

    Requires ``2 < p < 3`` (this keeps the bump counts nonzero and the total
    p-th power mass of each level summable to a finite nonzero limit).
    """
    real("p", p, lo=2, hi=3)
    depth = real("depth", depth, lo=1, open=False, integer=True)
    _refuse_ternary_underflow(depth, p)
    counts = np.array([bump_count(p, i) for i in range(depth + 1)], dtype=float)

    def fn(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        level, gap_lo = _cantor_gap_info(ts, depth)
        out = np.zeros_like(ts)
        in_gap = level > 0
        if np.any(in_gap):
            i = level[in_gap]
            glen = 3.0 ** (-i.astype(float))
            r = counts[i]
            pos = (ts[in_gap] - gap_lo[in_gap]) / glen * r
            k = np.clip(np.floor(pos), 0.0, r - 1.0)
            frac = pos - k
            out[in_gap] = 2.0 ** (-i.astype(float)) * (1.0 - np.abs(2.0 * frac - 1.0))
        return out

    return AnalyticPath(horizon=1.0, fn=fn)


def cantor_bump_knots(p: float, depth: int) -> SampledPath:
    """Exact piecewise-linear representation of ``cantor_bump_path`` truncated
    at ``depth``: every bump foot and peak is a knot, so linear interpolation
    reproduces the path with no error.

    The 2**(i-1) intervals of level i hold 2 bump_count(p, i) + 1 knots
    each, so the count grows like ``2**(p * depth)``; more than
    ``MAX_KNOTS`` (depth 11 at p = 2.5) are refused before any is built.
    """
    real("p", p, lo=2, hi=3)
    depth = real("depth", depth, lo=1, open=False, integer=True)
    # every level adds at least 2**(i-1) knots, 2**depth + 1 in all: this
    # deep, the limit is passed before any bump count is formed
    if depth >= MAX_KNOTS.bit_length():
        raise InvalidParameterError(
            f"depth {depth} at p={p}: more than 2**{depth} knots exceed the limit of {MAX_KNOTS}"
        )
    n_knots = 2 + sum((1 << (i - 1)) * (2 * bump_count(p, i) + 1) for i in range(1, depth + 1))
    if n_knots > MAX_KNOTS:
        raise InvalidParameterError(
            f"depth {depth} at p={p}: {n_knots} knots exceed the limit of {MAX_KNOTS}"
        )
    all_t = [np.array([0.0, 1.0])]
    all_v = [np.array([0.0, 0.0])]
    for i in range(1, depth + 1):
        lefts = cantor_gap_lefts(i)
        r = bump_count(p, i)
        glen = 3.0 ** (-i)
        offs = np.arange(2 * r + 1) * (glen / (2.0 * r))
        t = (lefts[:, None] + offs[None, :]).ravel()
        pattern = np.zeros(2 * r + 1)
        pattern[1::2] = 2.0 ** (-i)
        v = np.tile(pattern, lefts.size)
        all_t.append(t)
        all_v.append(v)
    t = np.concatenate(all_t)
    v = np.concatenate(all_v)
    order = np.argsort(t, kind="stable")
    t = t[order]
    v = v[order]
    keep = np.concatenate([[True], np.diff(t) > 0.0])
    return SampledPath(t[keep], v[keep])


# --------------------------------------------------------------------------- #
# Takagi-type series
# --------------------------------------------------------------------------- #


def takagi_path(
    b: int = 2,
    alpha: float = 0.5,
    wave: Literal["triangle", "sinusoid"] = "triangle",
    depth: int = 24,
    nu: float = 1.0,
    rho: float = 0.0,
) -> AnalyticPath:
    """Series path ``S(t) = sum_k alpha**k * w(b**k t)`` truncated at ``depth``
    terms, with ``w`` either the distance to the nearest integer (triangle)
    or ``nu*sin(2 pi t) + rho*cos(2 pi t)``.

    Requires integer ``b >= 2`` and ``|alpha| == 1/b`` (within 1e-12); that
    scaling balances the series so increments at scale ``b**-n`` stay of
    order ``b**-n`` times a slowly growing factor.
    """
    b = real("b", b, lo=2, open=False, integer=True)
    for name, value in (("alpha", alpha), ("nu", nu), ("rho", rho)):
        real(name, value)
    if abs(abs(alpha) * b - 1.0) > 1e-12:
        raise InvalidParameterError(f"|alpha| must equal 1/b = {1.0 / b!r}, got {alpha!r}")
    real("(|nu| + |rho|) / (1 - |alpha|)", (abs(nu) + abs(rho)) / (1.0 - abs(alpha)))
    depth = real("depth", depth, lo=1, open=False, integer=True)
    # the last term scales t by b**(depth - 1); the digit bound spares a huge
    # depth from forming that power
    if (depth - 1) * (b.bit_length() - 1) >= 1024 or b ** (depth - 1) > sys.float_info.max:
        raise InvalidParameterError(
            f"depth {depth} at b={b} is too deep: b**{depth - 1} overflows float64"
        )
    choice("wave", wave, ("triangle", "sinusoid"))

    def fn(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        coeff = 1.0
        for k in range(depth):
            x = (b**k) * ts
            if wave == "triangle":
                w = np.abs(x - np.rint(x))
            else:
                w = nu * np.sin(2.0 * np.pi * x) + rho * np.cos(2.0 * np.pi * x)
            out += coeff * w
            coeff *= alpha
        return out

    return AnalyticPath(horizon=1.0, fn=fn)


# --------------------------------------------------------------------------- #
# fractional Brownian motion
# --------------------------------------------------------------------------- #


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    """Autocovariance gamma(0..n) of unit-spacing fractional Gaussian noise."""
    pw = np.arange(n + 2, dtype=float) ** (2.0 * hurst)  # k**2H, read at k + 1, k and |k - 1|
    return 0.5 * (pw[1:] - 2.0 * pw[:-1] + np.concatenate([pw[1:2], pw[:-2]]))


@functools.lru_cache(maxsize=2)
def _circulant_sqrt_spectrum(n: int, hurst: float) -> np.ndarray:
    """Square roots of the n + 1 distinct eigenvalues of the 2n circulant that
    embeds the fGn covariance (Davies-Harte), read-only and cached per
    (n, hurst); a failed nonnegative-definiteness check is not cached and
    raises on every call."""
    g = _fgn_autocov(n, hurst)
    row = np.concatenate([g, g[-2:0:-1]])  # length 2n, symmetric
    lam = np.fft.rfft(row).real
    if lam.min() < -1e-8 * lam.max():
        raise SamplingInfeasibleError("circulant embedding is not nonnegative definite")
    root = np.sqrt(np.clip(lam, 0.0, None))
    root.flags.writeable = False
    return root


def _fgn_circulant(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-spacing fGn of length n via Davies-Harte circulant embedding: the
    n + 1 Hermitian coefficients z[0..n] through one real inverse FFT. One
    draw of 2n normals (z[0], z[n], real parts, imaginary parts) is scaled
    into z, weighted and transformed in place; the result is a view of the
    first n of the transform's 2n points."""
    root = _circulant_sqrt_spectrum(n, hurst)
    draws = rng.standard_normal(2 * n)
    z = np.empty(n + 1, dtype=complex)
    z[0], z[n] = draws[0], draws[1]
    half = 1.0 / math.sqrt(2.0)  # complex division by sqrt(2) multiplies by this
    np.multiply(draws[2 : n + 1], half, out=z.real[1:n])
    np.multiply(draws[n + 1 :], half, out=z.imag[1:n])
    del draws
    z *= root
    fgn = np.fft.irfft(z, 2 * n)[:n]
    fgn *= math.sqrt(2.0 * n)
    return fgn


def fbm_path(spec: GaussianPathSpec) -> SampledPath:
    """Sample fractional Brownian motion on the uniform grid with ``spec.n``
    increments over [0, horizon] by circulant embedding, for every n;
    deterministic per seed; the noise is scaled and summed into the values
    in place and freed before the times are built."""
    n, hurst = spec.n, spec.hurst
    fgn = _fgn_circulant(n, hurst, np.random.default_rng(spec.seed))
    fgn *= (spec.horizon / n) ** hurst
    values = np.zeros(n + 1)
    np.cumsum(fgn, out=values[1:])
    del fgn
    times = np.linspace(0.0, spec.horizon, n + 1)
    return SampledPath(times, values)


# --------------------------------------------------------------------------- #
# sampling
# --------------------------------------------------------------------------- #


def sample(path: AnalyticPath, grid: np.ndarray) -> SampledPath:
    """Evaluate an analytic path on ``grid``, a time grid (``errors.time_grid``)
    within the path's domain [0, horizon], and wrap as a SampledPath."""
    grid = time_grid("grid", grid)
    if grid[-1] > path.horizon + 1e-15:
        raise InvalidParameterError(f"grid exceeds the path horizon {path.horizon!r}")
    return SampledPath(grid, path(grid))
