"""Level-reduced Cantor stages and profiles against the materialized
crossing grid, and the depth where float64 stops them."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import argsort_grid, per_level_reference

from fracpath.errors import InvalidParameterError
from fracpath.experiments import (
    bump_decomposition,
    cantor_compensated_formula,
    cantor_profile,
    cantor_stage,
)
from fracpath.follmer import ito_check, ito_check_blocks
from fracpath.partitions import Partition, block_sum, cantor_blocks
from fracpath.paths import SampledPath
from fracpath.registry import abs_power
from fracpath.variation import pth_variation_partial

P = 2.5
EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("rounding", ["floor", "nearest"])
def test_cantor_stage_matches_materialized_grid(rounding):
    fn = abs_power(P)
    for n in range(1, 17):
        stage = cantor_stage(P, n, rounding)
        path, part, k_n = argsort_grid(P, n, rounding)
        rep = ito_check(fn, path, part, P)
        total = pth_variation_partial(path, part, P)
        assert stage.k_n == k_n
        assert stage.n_increments == rep.n_increments
        assert stage.total_variation == pytest.approx(total, rel=1e-12, abs=0.0)
        assert stage.compensated == pytest.approx(rep.compensated, rel=0.0, abs=1e-13)
        assert stage.kernel_sum == pytest.approx(rep.kernel_sum, rel=0.0, abs=1e-13)
        limit = stage.n_increments * EPS * max(1.0, abs(stage.compensated))
        assert abs(stage.identity_residual) <= limit


def test_cantor_stage_83_crosses_the_criterion_level():
    # the first stage with |L^n| < 0.02 at p = 2.5; its full grid would hold
    # 2^83 - 1 blocks, the level reduction needs 83 blocks of 39 knots
    stage = cantor_stage(P, 83)
    assert stage.k_n == 19
    assert stage.n_increments == 1 + (2**83 - 1) * (2 * 19 + 1)
    assert abs(stage.compensated) < 0.02
    formula = cantor_compensated_formula(P, 83, 19)
    assert stage.compensated_formula == formula
    assert stage.compensated == pytest.approx(formula, rel=1e-9)
    assert stage.total_variation == pytest.approx(83 * 19.0 ** (1.0 - P), rel=1e-12)
    assert abs(stage.identity_residual) < 1e-13


@pytest.mark.parametrize("rounding", ["floor", "nearest"])
def test_cantor_blocks_count_every_increment_of_the_grid(rounding):
    # the flat block of weight 2**n stands for the zero increments joining
    # the removed intervals, so both counts come out of the weighted sum
    fn = abs_power(P)
    for n in range(1, 11):
        _, blocks = cantor_blocks(P, n, rounding)
        path, part, _ = argsort_grid(P, n, rounding)
        rep = ito_check(fn, path, part, P)
        summed = ito_check_blocks(fn, blocks, P)
        (n_increments,) = block_sum(blocks, lambda rows: ([rows.shape[1] - 1] * len(rows),))
        assert n_increments == part.n_intervals
        assert summed.n_increments == rep.n_increments
        assert summed.n_zero_increments == rep.n_zero_increments == 2**n


def test_one_block_of_weight_one_gives_its_own_numbers():
    # the weighted sum starts from its first term, so ito_check_blocks and
    # block_sum over a single row of weight 1 return that row's values
    # bit for bit, a signed zero included
    fn = abs_power(P)
    _, blocks = cantor_blocks(P, 3)
    (weight, *_), rows = next(iter(blocks))
    assert weight == 1
    times = 3.0**-1 * blocks.fracs
    path = SampledPath(times, rows[0])
    alone, summed = ito_check(fn, path, Partition(times), P), ito_check_blocks(fn, [((1,), rows[:1])], P)
    for name in ("value_change", "compensated", "kernel_sum"):
        assert float(getattr(summed, name)).hex() == float(getattr(alone, name)).hex()
    assert math.copysign(1.0, block_sum([((1,), rows[:1])], lambda _: ([-0.0],))[0]) == -1.0


def bits(report):
    return [float(v).hex() if isinstance(v, float) else v for v in vars(report).values()]


@pytest.mark.parametrize("rounding", ["floor", "nearest"])
@pytest.mark.parametrize("p", [1.5, 2.5, 3.5])
def test_stacked_stage_is_the_per_level_sum_bit_for_bit(p, rounding):
    # each level row keeps the bits it has alone and the rows are summed in
    # block order, so the stacked stage is the per-level reference exactly
    deep = [83, 662] if rounding == "floor" else [83]  # nearest k_n = 76 at 662 is too deep
    fn = abs_power(p)
    for n in [*range(1, 21), *(deep if p == P else [])]:
        report, total = per_level_reference(p, n, rounding)
        stage = cantor_stage(p, n, rounding)
        assert bits(ito_check_blocks(fn, cantor_blocks(p, n, rounding)[1], p)) == bits(report)
        assert stage.total_variation.hex() == total.hex()
        assert stage.n_increments == report.n_increments
        for name in ("compensated", "kernel_sum", "identity_residual"):
            assert getattr(stage, name).hex() == getattr(report, name).hex()


def test_a_stage_is_summed_in_bounded_memory():
    # stage 200 at p = 1.5 has 200 level rows of 80001 knots, 128 MB as one
    # array; the rows are formed and summed chunk by chunk
    tracemalloc.start()
    try:
        stage = cantor_stage(1.5, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    report, total = per_level_reference(1.5, 200)
    assert stage.total_variation.hex() == total.hex()
    for name in ("compensated", "kernel_sum", "identity_residual"):
        assert getattr(stage, name).hex() == getattr(report, name).hex()


def test_cantor_profile_83_ends_at_the_stage_total():
    stage = cantor_stage(P, 83)
    ts = np.array([0.0, 1.0, 2.0])
    profile = cantor_profile(P, 83, ts)
    assert profile[0] == 0.0
    assert profile[1] == pytest.approx(stage.total_variation, rel=1e-12, abs=0.0)
    assert profile[2] == profile[1]


def test_deep_stages_are_refused_where_float64_ends():
    # at p = 2.5 the level-663 crossing times 3**-663 * s collide in the
    # subnormal range; stage 662 is the deepest whose blocks are distinct
    deepest = cantor_stage(P, 662)
    assert deepest.compensated == pytest.approx(deepest.compensated_formula, rel=1e-9)
    with pytest.raises(InvalidParameterError, match="stage 663 at p=2.5 is too deep"):
        cantor_stage(P, 663)
    with pytest.raises(InvalidParameterError, match="too deep"):
        cantor_profile(P, 663, [0.5])
    # from 3**-679 == 0 on no level-n interval has a length at all
    for n in (679, 680, int(1e308)):
        message = re.escape(f"n must lie in [1, 678], got {n}")
        with pytest.raises(InvalidParameterError, match=message):
            cantor_stage(P, n)
        with pytest.raises(InvalidParameterError, match=message):
            cantor_profile(P, n, [0.5])
    # a p near 1 makes k_n = n**(1/(p-1)) overflow; refused without the power
    message = "k_n = n**(1/(p-1)) must lie in [1, 33554432], got inf"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        cantor_stage(1.0 + 1e-12, 600)
    # k_n = 65**4 passes that test, but one block would hold 2 k_n + 3 knots
    message = "stage 65 at p=1.25: the knots of one block must lie in [0, 33554432], got 35701253"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        cantor_stage(1.25, 65)


def test_bump_decomposition_refuses_oversized_atom_tables():
    # 2**(n - 1) atom weights: n = 26 is the last stage within MAX_KNOTS
    with pytest.raises(InvalidParameterError, match=re.escape("n must lie in [1, 26], got 27")):
        bump_decomposition(2.25, 27)
    with pytest.raises(InvalidParameterError, match=re.escape("n must lie in [1, 26], got 1")):
        bump_decomposition(2.25, int(1e308))
