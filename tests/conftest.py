"""Shared fixtures: the expensive sampled paths are built once per session;
the reference builder of the full Cantor crossing grid; and the scalar edge
values of the API fuzz property."""

import math

import numpy as np
import pytest

from fracpath.partitions import Partition, badic, cantor_blocks
from fracpath.paths import (
    LN2_OVER_LN3,
    GaussianPathSpec,
    SampledPath,
    cantor_gap_lefts,
    fbm_path,
    sample,
    takagi_path,
)

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


def argsort_grid(p, n, rounding="floor"):
    """(path, partition, k_n) of the stage-n crossing grid of the
    Cantor-distance path, built the direct way: every level's blocks
    appended, then one stable argsort of all knot times. Only k_n comes from
    ``cantor_blocks``; the library sums over its level blocks instead, and
    the tests check those sums against this grid."""
    k_n, _ = cantor_blocks(p, n, rounding)
    q = LN2_OVER_LN3 / p
    ks = np.arange(k_n + 1, dtype=float)
    s_frac = (ks / k_n) ** (1.0 / q) / 2.0
    frac_all = np.concatenate([s_frac, 1.0 - s_frac[:-1][::-1]])
    val_pattern = np.concatenate(
        [np.arange(k_n + 1, dtype=float), np.arange(k_n - 1, -1, -1, dtype=float)]
    )
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
