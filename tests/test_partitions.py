"""Partition builders: uniform b-adic grids, value-crossing (Lebesgue)
partitions, and the level blocks of the Cantor crossing grid."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpath import partitions
from fracpath.errors import InvalidParameterError
from fracpath.partitions import (
    Partition,
    badic,
    cantor_blocks,
    osc,
    tree_sum,
    value_grid_partition,
)
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
    message = f"partition times at index 2 must be finite, got {bad}"
    with pytest.raises(InvalidParameterError, match=message):
        Partition(np.array([0.0, 0.5, bad]))
    with pytest.raises(InvalidParameterError, match="must be finite"):
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
    # and n = 1e308 must not build base**n either: both counts read as inf
    tracemalloc.start()
    try:
        for n, base, got in [
            (25, 2, 33554433),
            (5, 32, 33554433),
            (30, 2, "inf"),
            (int(1e308), 2, "inf"),
            (1, 2**25, 33554433),
        ]:
            knots = re.escape(f"{base}**{n} intervals must lie in [2, 33554432], got {got}")
            with pytest.raises(InvalidParameterError, match=knots):
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
        with pytest.raises(InvalidParameterError, match="crossings at .* got 1073741824.0"):
            value_grid_partition(rise, 2.0**-30, mode="grid")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one past the 2**25 knot limit, in both modes
    steep = SampledPath(np.array([0.0, 1.0]), np.array([0.5, 2.0**25 + 1.5]))
    for mode in ("increment", "grid"):
        with pytest.raises(InvalidParameterError, match="crossings at .* got 33554433.0"):
            value_grid_partition(steep, 1.0, mode=mode)
    # v / delta overflows: no finite count at all
    with pytest.raises(InvalidParameterError, match=re.escape("lie in [0, 33554432], got inf")):
        value_grid_partition(rise, 5e-324)


def test_osc_on_knot_partition(hand_path):
    part = Partition(hand_path.times)
    assert osc(hand_path, part) == pytest.approx(np.max(np.abs(np.diff(hand_path.values))))


def test_osc_leaves_out_the_knots_past_the_partition_end():
    path = SampledPath([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
    assert osc(path, Partition([0.0, 1.0])) == 0.0
    assert osc(path, Partition([0.0, 1.5])) == 0.5


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


# --------------------------------------------------------------------------- #
# the leaf tree of long rows
# --------------------------------------------------------------------------- #

# tree_sum rests on numpy's pairwise summation (split a row past 128 values at
# n // 2 - (n // 2) % 8), as the CSV hashes in fixtures/expected/sha256.json do,
# which record the numpy version beside them: a numpy that sums otherwise fails here


def leaf_tree_total(rows: np.ndarray, leaf: int) -> np.ndarray:
    """tree_sum's per-row sums of ``rows`` with leaves of at most ``leaf`` increments."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_LEAF", leaf)
        (total,) = tree_sum(rows.shape[-1], lambda lo, hi: (np.add.reduce(rows[..., lo:hi], -1),))
    return total


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 40_000), st.integers(128, 1024), st.integers(0, 2**32 - 1))
def test_a_leaf_tree_sum_is_bit_for_bit_numpy_pairwise_sum(n_rows, n, leaf, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, n)) * np.exp(rng.uniform(-30.0, 30.0, (n_rows, n)))
    total, whole = leaf_tree_total(rows, leaf), np.add.reduce(rows, axis=-1)
    assert [x.hex() for x in total.tolist()] == [x.hex() for x in whole.tolist()]
    total, whole = leaf_tree_total(rows[0], leaf), np.add.reduce(rows[0])
    assert total.hex() == whole.hex()


@pytest.mark.parametrize("n", [777_777, 1_000_003, 2**20])
def test_a_long_row_splits_where_numpy_splits_it(n):
    rng = np.random.default_rng(n)
    row = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
    for leaf in (1024, partitions._LEAF):
        assert leaf_tree_total(row, leaf).hex() == np.add.reduce(row).hex()
