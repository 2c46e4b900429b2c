"""Partition builders: uniform b-adic grids, value-crossing (Lebesgue)
partitions, and the level blocks of the Cantor crossing grid."""

import tracemalloc

import numpy as np
import pytest

from fracpath.errors import InvalidParameterError
from fracpath.partitions import Partition, badic, cantor_blocks, osc, value_grid_partition
from fracpath.paths import SampledPath


def test_partition_validation():
    with pytest.raises(InvalidParameterError):
        Partition(np.array([0.0, 0.4, 0.4, 1.0]))
    with pytest.raises(InvalidParameterError):
        Partition(np.array([0.1, 1.0]))
    with pytest.raises(InvalidParameterError):
        Partition(np.array([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partition_rejects_non_finite_times(bad):
    # NaN passes the ordering comparisons and leaves a NaN horizon behind
    with pytest.raises(InvalidParameterError, match="index 2 is not finite"):
        Partition(np.array([0.0, 0.5, bad]))
    with pytest.raises(InvalidParameterError, match="not finite"):
        Partition(np.array([bad, 0.5, 1.0]))


def test_badic_shape_and_nesting():
    part = badic(1.0, 5)
    assert part.n_intervals == 32
    assert part.mesh == pytest.approx(1 / 32)
    coarse = badic(1.0, 4)
    # dyadic grids refine: every coarse time reappears exactly
    assert np.all(np.isin(coarse.times, part.times))
    tri = badic(2.0, 3, base=3)
    assert tri.n_intervals == 27
    assert tri.horizon == 2.0
    with pytest.raises(InvalidParameterError):
        badic(1.0, 3, base=1)
    with pytest.raises(InvalidParameterError):
        badic(-1.0, 3)


def test_badic_refuses_oversized_grids_before_building_them():
    # 2**25 + 1 knots is one past the limit; 2**30 would be 8 GiB of times,
    # and n = 1e308 must not build base**n either
    tracemalloc.start()
    try:
        for n, base in [(25, 2), (5, 32), (30, 2), (int(1e308), 2), (1, 2**25)]:
            with pytest.raises(InvalidParameterError, match="exceed the limit of 33554432 knots"):
                badic(1.0, n, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert badic(1.0, 3, base=2**7).n_intervals == 2**21


# --------------------------------------------------------------------------- #
# value-crossing partitions
# --------------------------------------------------------------------------- #


def test_value_grid_increment_mode(hand_path):
    delta = 0.25
    part = value_grid_partition(hand_path, delta, mode="increment")
    rec = hand_path.value_at(part.times)
    inc = np.diff(rec)
    # recorded values form a +-delta walk; only the horizon fragment differs
    assert np.all(np.abs(np.abs(inc[:-1]) - delta) < 1e-12)
    assert part.times[0] == 0.0
    assert part.times[-1] == hand_path.horizon


def test_value_grid_grid_mode(hand_path):
    delta = 0.25
    part = value_grid_partition(hand_path, delta, mode="grid")
    rec = hand_path.value_at(part.times[1:-1])
    # interior crossing values sit on the absolute delta-grid
    assert np.all(np.abs(rec / delta - np.round(rec / delta)) < 1e-9)


def test_value_grid_validation(hand_path):
    with pytest.raises(InvalidParameterError):
        value_grid_partition(hand_path, -0.1)
    with pytest.raises(InvalidParameterError):
        value_grid_partition(hand_path, 0.1, mode="nope")


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_value_grid_rejects_non_finite_delta(hand_path, delta):
    # NaN passes `delta <= 0`; inf used to return [0, horizon] silently
    for mode in ("increment", "grid"):
        with pytest.raises(InvalidParameterError, match="delta must be positive and finite"):
            value_grid_partition(hand_path, delta, mode=mode)


def test_value_grid_refuses_oversized_crossing_counts():
    # one segment from 0 to 1 crosses 2^30 levels of a 2^-30 grid; the count
    # is known before any crossing is built, so the refusal allocates nothing
    rise = SampledPath(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="1073741824 crossings"):
            value_grid_partition(rise, 2.0**-30, mode="grid")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one past the 2**25 knot limit, in both modes
    steep = SampledPath(np.array([0.0, 1.0]), np.array([0.5, 2.0**25 + 1.5]))
    for mode in ("increment", "grid"):
        with pytest.raises(InvalidParameterError, match="33554433 crossings"):
            value_grid_partition(steep, 1.0, mode=mode)
    # v / delta overflows: no finite count at all
    with pytest.raises(InvalidParameterError, match="more than the limit"):
        value_grid_partition(rise, 5e-324)


def test_osc_on_knot_partition(hand_path):
    part = Partition(hand_path.times)
    assert osc(hand_path, part) == pytest.approx(np.max(np.abs(np.diff(hand_path.values))))


# --------------------------------------------------------------------------- #
# Cantor crossing grid
# --------------------------------------------------------------------------- #


def test_cantor_blocks_rounding_modes():
    # n = 18, p = 2.5: n^(1/(p-1)) = 18^(2/3) = 6.868...
    k_floor, _ = cantor_blocks(2.5, 18, "floor")
    k_near, _ = cantor_blocks(2.5, 18, "nearest")
    assert k_floor == 6
    assert k_near == 7
    with pytest.raises(InvalidParameterError, match="rounding must be one of 'floor', 'nearest', got 'up'"):
        cantor_blocks(2.5, 4, "up")
    with pytest.raises(InvalidParameterError, match="p must exceed 1, got 0.9"):
        cantor_blocks(0.9, 4)


def test_cantor_value_grid_increment_magnitudes(cantor8):
    path, part, k_n = cantor8
    inc = np.abs(np.diff(path.value_at(part.times)))
    inc = inc[inc > 0.0]
    # every nonzero increment is one rung of some level's ladder, exactly
    rungs = np.array([2.0 ** (-i / 2.5) / k_n for i in range(1, 9)])
    gaps = np.min(np.abs(np.unique(inc)[:, None] - rungs[None, :]), axis=1)
    assert np.max(gaps) < 1e-15
    assert part.times[0] == 0.0 and part.times[-1] == 1.0
