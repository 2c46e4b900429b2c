"""Compensated sums and their p-th variation weights, remainder kernels, and
the bundled time / multi-component / functional identities."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from fracpath.errors import (
    InsufficientDerivativesError,
    InvalidParameterError,
    KernelSingularError,
    QuadratureError,
)
from fracpath.experiments import (
    bump_decomposition,
    bump_limit_value,
    cantor_compensated_formula,
    cantor_stage,
)
from fracpath.follmer import (
    FunctionalBundle,
    PrefixFamily,
    TensorFunctionBundle,
    TimeFunctionBundle,
    ito_check,
    ito_check_functional,
    ito_check_multi,
    ito_check_time,
    kernel_profile,
    remainder_kernel,
    taylor_order,
    taylor_remainder,
    young_bound_check,
)
from fracpath import partitions
from fracpath.smooth import SmoothFn
from fracpath.partitions import Partition, badic, osc, value_grid_partition
from fracpath.paths import GaussianPathSpec, SampledPath, cantor_bump_knots, fbm_path
from fracpath.registry import abs_power, moving_abs_power, polynomial, product_bundle, sin_affine
from fracpath.variation import phi_variation_partial, pth_variation_partial

P = 2.5


def cumsum_path(n: int, seed: int) -> SampledPath:
    """A random walk of ``n`` normal steps of size 1/sqrt(n) on [0, 1]."""
    steps = np.random.default_rng(seed).standard_normal(n) / math.sqrt(n)
    return SampledPath(np.linspace(0.0, 1.0, n + 1), np.concatenate([[0.0], np.cumsum(steps)]))


# --------------------------------------------------------------------------- #
# compensated sum and the stage identity
# --------------------------------------------------------------------------- #


def test_identity_residual_rounding_level(cantor8):
    path, part, _ = cantor8
    rep = ito_check(abs_power(P), path, part, P)
    assert abs(rep.identity_residual) < 1e-13
    # start and end values coincide, so kernel and compensated parts cancel
    assert rep.value_change == 0.0
    assert rep.kernel_sum == pytest.approx(-rep.compensated, abs=1e-13)


def test_compensated_closed_form():
    # frozen stage values; the closed form reproduces the sum bitwise-tight
    for n, frozen in ((4, -0.23667478527522334), (8, -0.087688576589700418)):
        stage = cantor_stage(P, n)
        assert stage.compensated == pytest.approx(stage.compensated_formula, abs=5e-15)
        assert stage.compensated_formula == pytest.approx(frozen, rel=1e-15)
    assert cantor_compensated_formula(P, 4, 2) == pytest.approx(-0.23667478527522334, rel=1e-15)


def test_zero_increment_is_counted_and_weighs_nothing():
    # the flat step leaves the kernel sum; the variation takes its 0 in place
    path = SampledPath(np.array([0.0, 0.25, 0.5, 1.0]), np.array([0.0, 0.5, 0.5, 0.2]))
    part = Partition(path.times)
    rep = ito_check(abs_power(2.0), path, part, 2.0)
    assert rep.n_zero_increments == 1
    assert rep.variation.hex() == pth_variation_partial(path, part, 2.0).hex()


def test_ito_check_refuses_too_few_derivatives(cantor8):
    path, part, _ = cantor8
    fn = SmoothFn(fn=np.sin, derivs=(np.cos,))
    with pytest.raises(InsufficientDerivativesError, match="need 2 derivatives .* got 1"):
        ito_check(fn, path, part, P)


def test_ito_check_rejects_small_p(cantor8):
    path, part, _ = cantor8
    with pytest.raises(InvalidParameterError):
        ito_check(abs_power(P), path, part, 1.0)


def test_taylor_order_is_floor_p():
    orders = [taylor_order(p) for p in (1.000001, 1.5, 2.0, 2.999, 3.5)]
    assert orders == [1, 1, 2, 2, 3]
    assert all(type(m) is int for m in orders)


def test_taylor_remainder_takes_an_evaluated_gap():
    fn = abs_power(2.5, 0.1)
    left, right = np.array([-0.4, 0.1, 0.3]), np.array([0.2, 0.35, -0.6])
    gap = fn.fn(right) - fn.fn(left)
    want = taylor_remainder(fn, left, right, 2)
    assert np.array_equal(taylor_remainder(fn, left, right, 2, gap=gap), want)


def _order_p_entries(path, p):
    """Every public entry that takes the order p, as zero-argument calls."""
    part = Partition(path.times)
    fn = sin_affine()
    thetas = np.linspace(0.1, 6.0, 5)
    return (
        lambda: taylor_order(p),
        lambda: kernel_profile(fn, p, thetas),
        lambda: kernel_profile(fn, p, thetas, method="integral"),
        lambda: remainder_kernel(fn, p, 0.2, 0.7, method="taylor"),
        lambda: remainder_kernel(fn, p, 0.2, 0.7),
        lambda: ito_check(fn, path, part, p),
        lambda: ito_check_time(moving_abs_power(P), path, part, p),
        lambda: ito_check_multi(product_bundle(), [path, path], part, p),
        lambda: ito_check_functional(FunctionalBundle(lambda pre: pre.current), path, part, p),
    )


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.nan])
def test_every_order_p_entry_rejects_p_at_most_one(hand_path, p):
    for call in _order_p_entries(hand_path, p):
        with pytest.raises(InvalidParameterError, match=f"p must exceed 1, got {p}"):
            call()


def test_every_order_p_entry_rejects_infinite_p(hand_path):
    # floor(inf) has no integer value: refused by name, not an OverflowError
    for call in _order_p_entries(hand_path, math.inf):
        with pytest.raises(InvalidParameterError, match="p must be finite, got inf"):
            call()


def test_negative_stop_time_rejected(hand_path):
    part = Partition(hand_path.times)
    fn = abs_power(P)
    calls = (
        lambda: ito_check(fn, hand_path, part, P, t=-1.0),
        lambda: ito_check_time(moving_abs_power(P), hand_path, part, P, t=-1.0),
        lambda: pth_variation_partial(hand_path, part, P, t=-1.0),
    )
    for call in calls:
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            call()


def test_partition_past_path_horizon_rejected(hand_path):
    # past its last knot the path would be read as a constant extension
    part = badic(2.0, 4)
    fn = abs_power(P)
    calls = (
        lambda: ito_check(fn, hand_path, part, P),
        lambda: ito_check_time(moving_abs_power(P), hand_path, part, P),
        lambda: pth_variation_partial(hand_path, part, P),
        lambda: young_bound_check([hand_path], [P], [part]),
        lambda: PrefixFamily(hand_path, part),
    )
    for call in calls:
        with pytest.raises(InvalidParameterError, match="end within the path horizon"):
            call()


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_stop_time_rejected(hand_path, t):
    # NaN passes a plain `t < 0` test and used to surface as NaN sums or a
    # misleading gauge error
    part = Partition(hand_path.times)
    calls = (
        lambda: ito_check(sin_affine(), hand_path, part, 2.5, t=t),
        lambda: pth_variation_partial(hand_path, part, P, t=t),
    )
    for call in calls:
        with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
            call()


# --------------------------------------------------------------------------- #
# remainder kernel
# --------------------------------------------------------------------------- #


def test_kernel_pure_power_reference():
    fn = abs_power(P)
    # G(0, 1) = 1 for f = |x|^p: the Taylor part vanishes at the origin
    assert remainder_kernel(fn, P, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # p-homogeneous f makes G scale-invariant
    g1 = remainder_kernel(fn, P, 0.3, 0.7)
    g2 = remainder_kernel(fn, P, 0.6, 1.4)
    assert g1 == pytest.approx(g2, rel=1e-10)


def test_kernel_smooth_and_diagonal():
    # m = 2 and constant second derivative: the integrand vanishes identically
    smooth = polynomial([0.3, 2.0, 1.5])
    assert abs(remainder_kernel(smooth, P, -0.4, 0.9)) < 1e-12
    assert remainder_kernel(smooth, P, 0.5, 0.5) == 0.0
    with pytest.raises(KernelSingularError):
        remainder_kernel(abs_power(P), P, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        remainder_kernel(smooth, 0.9, 0.0, 1.0)


def test_kernel_undeclared_kink_fails_loudly():
    # f'' = c |x|^0.05 is too rough for plain panels; declared, the kink is a
    # break point with a power substitution, undeclared it must raise
    declared = abs_power(2.05)
    bare = SmoothFn(fn=declared.fn, derivs=declared.derivs, kinks=())
    # |b - a| = 1, so the kernel is the bare Taylor remainder
    want = float(taylor_remainder(declared, np.array([-0.3]), np.array([0.7]), 2)[0])
    assert remainder_kernel(declared, 2.05, -0.3, 0.7) == pytest.approx(want, abs=1e-12)
    with pytest.raises(QuadratureError, match=r"16384 panels on \[-0.3, 0.7\]"):
        remainder_kernel(bare, 2.05, -0.3, 0.7)


@pytest.mark.parametrize("method", ["integral", "taylor"])
def test_kernel_refuses_a_singular_diagonal_entry_before_any_work(method):
    # the third pair sits on the kink of |x|^2.5 at 0: the batch is refused
    # before f or any derivative is evaluated on the two pairs before it
    declared, calls = abs_power(P), []

    def counted(g):
        return lambda x: calls.append(np.size(x)) or g(x)

    fn = SmoothFn(counted(declared.fn), tuple(map(counted, declared.derivs)), declared.kinks)
    with pytest.raises(KernelSingularError, match=r"at 0.0 \(kink exponent 2.5\)$"):
        remainder_kernel(fn, P, [0.2, -0.4, 0.0, 0.5], [0.7, 0.3, 0.0, 0.9], method)
    assert calls == []


def test_kernel_profile_batch_fails_in_angle_order_within_bounded_memory():
    # 64 angles without the kink declared: the one batch raises what the
    # per-angle loop raised first (angle 16, the first interval across 0),
    # and integrand calls of at most 2**19 points keep the peak near that
    # of one failing scalar kernel
    declared = abs_power(2.05)
    bare = SmoothFn(fn=declared.fn, derivs=declared.derivs, kinks=())
    thetas = (np.arange(64) + 0.5) * (2.0 * np.pi / 64)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match=r"16384 panels on \[-0.0490677, 0.998795\]$"):
            kernel_profile(bare, 2.05, thetas, method="integral")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20


def test_kernel_profile_axis_and_methods():
    fn = abs_power(2.25)
    thetas = np.array([np.pi / 2, 0.35, 1.1, 2.4, 4.0, np.pi / 4, 5 * np.pi / 4])
    fast = kernel_profile(fn, 2.25, thetas)
    slow = kernel_profile(fn, 2.25, thetas, method="integral")
    # the axis angle hits (a, b) = (0, 1) exactly: G = 1 for a pure power
    assert fast[0] == 1.0
    # cos and sin of pi/4 and 5 pi/4 round 1 ulp apart: snapped to the diagonal
    assert fast[5:].tolist() == slow[5:].tolist() == [0.0, 0.0]
    assert np.allclose(fast, slow, rtol=1e-7, atol=1e-9)
    with pytest.raises(InvalidParameterError):
        kernel_profile(fn, 2.25, thetas, method="midpoint")


# --------------------------------------------------------------------------- #
# bump path: finite stages, atoms, limit
# --------------------------------------------------------------------------- #


def test_bump_atom_weights_closed_form():
    p = 2.25
    rep = bump_decomposition(p, 4)  # the limit atoms of rungs 0..7
    c = (2.0 ** (p - 1.0) - 1.0) / (2.0**p - 1.0)
    want = c * np.array([1.0] + [2.0 ** (-math.ceil(math.log2(k + 1)) * p) for k in range(1, 8)])
    assert np.allclose(rep.atom_weights_limit, want, rtol=1e-15)
    # the full ladder carries unit mass; the 4096 rungs of stage 13 get close
    big = bump_decomposition(p, 13)
    assert 0.999 < 2.0 * float(np.sum(big.atom_weights_limit)) <= 1.0 + 1e-12
    with pytest.raises(InvalidParameterError):
        bump_decomposition(3.2, 5)


def _limit_atoms_reference(p, n):
    # rung k of the ladder: weight c 2^(-ceil(log2(k+1)) p), rung 0 at level 0
    ks = np.arange(2 ** (n - 1))
    levels = np.ceil(np.log2(ks + 1.0))
    levels[0] = 0.0
    c = (2.0 ** (p - 1.0) - 1.0) / (2.0**p - 1.0)
    kf = ks.astype(float)
    return 2.0 ** (-levels * p) * c, np.arctan2(ks + 1.0, kf), np.arctan2(kf, ks + 1.0)


def test_bump_limit_atoms_are_the_closed_form_bit_for_bit():
    p = 2.25
    rep = bump_decomposition(p, 3)
    frozen = {
        "atom_weights_limit": ["0x1.77b6ff3121988p-2", "0x1.3befefefe0d7bp-4",
                               "0x1.09aba638b5ed4p-6", "0x1.09aba638b5ed4p-6"],
        "up_angles": ["0x1.921fb54442d18p+0", "0x1.1b6e192ebbe44p+0",
                      "0x1.f730bd281f69bp-1", "0x1.dac670561bb4fp-1"],
        "down_angles": ["0x0.0p+0", "0x1.dac670561bb4fp-2",
                        "0x1.2d0ead6066395p-1", "0x1.4978fa3269ee1p-1"],
    }
    for name, hexes in frozen.items():
        assert [float(v).hex() for v in getattr(rep, name)] == hexes
    # every stage's atoms are the closed form, and the first rungs of stage 14
    top = bump_decomposition(p, 14)
    for n in range(1, 15):
        rep = bump_decomposition(p, n)
        for name, want in zip(frozen, _limit_atoms_reference(p, n)):
            got, deepest = getattr(rep, name), getattr(top, name)[: want.size]
            assert got.tobytes() == want.tobytes() == deepest.tobytes()


def test_bump_decomposition_stage_numbers():
    p = 2.25
    rep = bump_decomposition(p, 10)
    assert rep.compensated < 0.0
    # the kernel sum rebuilt from finite-stage atoms is the compensated sum
    # with its sign flipped (the path starts and ends at zero)
    assert rep.kernel_from_atoms == pytest.approx(-rep.compensated, abs=1e-12)
    assert rep.kernel_from_limit == pytest.approx(-rep.compensated, abs=1e-3)
    # frozen leading atom weight, finite stage vs limit table
    assert rep.atom_weights[0] == pytest.approx(0.36685476739591794, rel=1e-14)
    assert rep.atom_weights_limit[0] == pytest.approx(0.36690901505826234, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        bump_decomposition(1.9, 4)
    with pytest.raises(InvalidParameterError):
        bump_decomposition(p, 0)


def test_bump_decomposition_carries_its_limit_table():
    # the kernel is sampled at the table's own ray angles, the atan2 of the
    # rung pairs (k + 1, k) and (k, k + 1)
    p, n = 2.25, 6
    rep = bump_decomposition(p, n)
    ks = np.arange(2 ** (n - 1), dtype=float)
    assert np.array_equal(rep.up_angles, np.arctan2(ks + 1.0, ks))
    assert np.array_equal(rep.down_angles, np.arctan2(ks, ks + 1.0))
    g = kernel_profile(abs_power(p), p, rep.up_angles) + kernel_profile(
        abs_power(p), p, rep.down_angles
    )
    assert rep.kernel_from_atoms == float(np.sum(g * rep.atom_weights))


def test_bump_direct_stage_matches_decomposition():
    # materialize the stage-5 path and let the generic machinery loose on it
    p, n = 2.25, 5
    knots = cantor_bump_knots(p, n)
    part = value_grid_partition(knots, 2.0**-n, mode="increment")
    rep = ito_check(abs_power(p), knots, part, p)
    dec = bump_decomposition(p, n)
    assert rep.compensated == pytest.approx(dec.compensated, abs=1e-12)
    assert rep.variation == pytest.approx(2.0 * float(np.sum(dec.atom_weights)), abs=1e-12)
    assert abs(rep.identity_residual) < 1e-13


def test_bump_limit_reference_level():
    # the closed reference level is negative on (2, 3) and dominates the
    # (more negative) finite stages from below zero
    ref = bump_limit_value(2.25)
    assert ref == pytest.approx(-0.10866596106996423, rel=1e-15)
    rep = bump_decomposition(2.25, 10)
    assert rep.compensated < ref < 0.0


def test_remainder_integral_matches_limit_kernel():
    p = 2.25
    rep = bump_decomposition(p, 8)
    angles = np.concatenate([rep.up_angles, rep.down_angles])
    weights = np.concatenate([rep.atom_weights_limit, rep.atom_weights_limit])
    got = float(np.sum(kernel_profile(abs_power(p), p, angles) * weights))
    assert got == pytest.approx(rep.kernel_from_limit, rel=1e-12)


# --------------------------------------------------------------------------- #
# time-dependent identity
# --------------------------------------------------------------------------- #


def test_time_bundle_cylinder_reduction(fbm04):
    fn = abs_power(P)
    asbundle = TimeFunctionBundle(
        fn=lambda t, x: fn.fn(x),
        dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        dx=(lambda t, x: fn.derivs[0](x), lambda t, x: fn.derivs[1](x)),
    )
    for part in (badic(1.0, 10), value_grid_partition(fbm04, 0.05)):
        for t in (None, 0.37):
            plain = ito_check(fn, fbm04, part, P, t)
            rep = ito_check_time(asbundle, fbm04, part, P, t)
            assert rep.compensated == pytest.approx(plain.compensated, abs=1e-13)
            assert rep.follmer_residual == pytest.approx(plain.follmer_residual, abs=1e-13)
            assert rep.time_integral == 0.0
            # the engine's |dS|^p weights are the p-th variation, bit for bit
            want = pth_variation_partial(fbm04, part, P, t).hex()
            assert plain.variation.hex() == rep.variation.hex() == want


def test_time_bundle_pure_time(fbm04):
    only_t = TimeFunctionBundle(
        fn=lambda t, x: np.asarray(t, dtype=float),
        dt=lambda t, x: np.ones_like(np.asarray(t, dtype=float)),
        dx=(
            lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        ),
    )
    rep = ito_check_time(only_t, fbm04, badic(1.0, 8), P)
    # the time differences telescope to the horizon with nothing left over
    assert rep.follmer_residual == 0.0
    assert rep.time_integral == pytest.approx(1.0, abs=1e-13)


def test_time_bundle_moving_kink(fbm04):
    rep = ito_check_time(moving_abs_power(P, speed=0.3), fbm04, badic(1.0, 12), P)
    assert abs(rep.identity_residual) < 1e-12
    assert rep.time_quadrature_gap < 1e-12
    assert abs(rep.follmer_residual) < 0.02


def test_time_bundle_needs_space_derivatives(fbm04):
    lame = TimeFunctionBundle(
        fn=lambda t, x: np.asarray(x, dtype=float),
        dt=lambda t, x: np.zeros_like(np.asarray(t, dtype=float)),
        dx=(lambda t, x: np.ones_like(np.asarray(x, dtype=float)),),
    )
    with pytest.raises(InsufficientDerivativesError):
        ito_check_time(lame, fbm04, badic(1.0, 6), P)


# --------------------------------------------------------------------------- #
# multi-component identity
# --------------------------------------------------------------------------- #


def test_multi_reduces_to_scalar(fbm04):
    part = badic(1.0, 10)
    square = ito_check(polynomial([0.0, 0.0, 1.0]), fbm04, part, P)
    # f(x, y) = x y evaluated on the diagonal pair (S, S) is f(x) = x^2
    rep = ito_check_multi(product_bundle(), [fbm04, fbm04], part, P)
    assert rep.compensated == pytest.approx(square.compensated, abs=1e-12)
    assert rep.value_change == pytest.approx(square.value_change, abs=1e-14)


def test_multi_linear_is_exact(fbm04, fbm08):
    grid = badic(1.0, 10)
    a = SampledPath(grid.times, fbm04.value_at(grid.times))
    b = SampledPath(grid.times, fbm08.value_at(grid.times))
    lin = TensorFunctionBundle(
        fn=lambda v: np.asarray(v, dtype=float).sum(axis=-1),
        grad=lambda v: np.ones_like(np.asarray(v, dtype=float)),
        hess=lambda v: np.zeros(np.asarray(v, dtype=float).shape[:-1] + (2, 2)),
    )
    rep = ito_check_multi(lin, [a, b], grid, P)
    assert abs(rep.follmer_residual) < 1e-12
    assert abs(rep.kernel_sum) < 1e-12
    # increments are measured by the euclidean norm
    da, db = np.diff(a.values), np.diff(b.values)
    assert rep.variation == float(np.sum(np.sqrt(da * da + db * db) ** P))


def test_multi_needs_hessian(fbm04):
    nohess = TensorFunctionBundle(
        fn=lambda v: np.asarray(v, dtype=float).prod(axis=-1),
        grad=lambda v: np.asarray(v, dtype=float)[..., ::-1].copy(),
    )
    with pytest.raises(InsufficientDerivativesError):
        ito_check_multi(nohess, [fbm04, fbm04], badic(1.0, 6), P)


def test_multi_keeps_a_subnormal_gap_exact():
    # the product's gap 2 * 5e-324 over |dS|^1.5 = 2**1.5 gives a subnormal
    # G; the divide-and-multiply round trip would report 5e-324 (1.5e-323
    # before), 5e-324 off the identity, so the gap stands for itself
    times = np.arange(5.0)
    x = SampledPath(times, [0.0, 0.0, 0.0, 0.0, 2.0])
    y = SampledPath(times, [0.0, 0.0, 0.0, 0.0, 5e-324])
    rep = ito_check_multi(product_bundle(), [x, y], Partition([0.0, 4.0]), 1.5)
    assert rep.kernel_sum == rep.value_change == 1e-323
    assert rep.identity_residual == 0.0


@pytest.mark.filterwarnings("error")  # refused with no numpy RuntimeWarning on the way
def test_checks_refuse_a_term_that_is_not_finite():
    # 1e300 x^100 overflows where |S| > 1: S(4) = 3 makes the value change inf
    message = "the value change on a partition of 4 increments must be finite, got inf"
    f = polynomial([0.0] * 100 + [1e300])
    path = SampledPath(np.arange(5.0), [0.0, 0.5, 2.0, 1.5, 3.0])
    part = Partition(path.times)
    in_time = TimeFunctionBundle(
        fn=lambda t, x: f.fn(x),
        dt=lambda t, x: 0.0 * x,
        dx=(lambda t, x: f.derivs[0](x), lambda t, x: f.derivs[1](x)),
    )
    in_plane = TensorFunctionBundle(
        fn=lambda v: f.fn(v[..., 0]),
        grad=f.derivs[0],
        hess=lambda v: f.derivs[1](v)[..., None],
    )
    at_endpoint = FunctionalBundle(evaluate=lambda pre: float(f.fn(np.asarray(pre.current))))
    for check in (
        lambda: ito_check(f, path, part, P),
        lambda: ito_check_time(in_time, path, part, P),
        lambda: ito_check_multi(in_plane, [path], part, P),
        lambda: ito_check_functional(at_endpoint, path, part, P),
    ):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            check()


def test_ito_check_on_the_path_grid_transient_memory_is_bounded():
    # sin at p = 2.5 on a 2**20-increment walk's own grid, read with no copy and
    # summed in leaves of partitions._LEAF increments: each check peaks near 1 MiB
    # (40 and 17 MiB, 40 and 17 bytes per increment, while a row was summed whole)
    path = cumsum_path(2**20, 11)
    part = Partition(path.times)
    for check in (
        lambda: ito_check(sin_affine(), path, part, 2.5),
        lambda: pth_variation_partial(path, part, 2.5),
    ):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20, f"{peak / 2**20:.1f} MiB"


def test_sin_affine_holds_one_buffer_per_call():
    # the phase, sin and scaling share one array: 8 bytes per point (16
    # with the phase and sin(phase) as separate temporaries)
    n = 2**18
    x = np.linspace(0.0, 10.0, n)
    fn = sin_affine(amp=1.5, freq=2.0, shift=0.3)
    tracemalloc.start()
    try:
        out = fn.derivs[0](x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, 1.5 * 2.0 * np.cos(2.0 * x + 0.3))
    assert peak <= 9 * n, f"{peak / n:.1f} bytes per point"


# --------------------------------------------------------------------------- #
# functional identity
# --------------------------------------------------------------------------- #


def test_functional_cylinder_reduction(fbm04):
    part = badic(1.0, 10)
    fn = abs_power(P)
    cyl = FunctionalBundle(
        evaluate=lambda pre: float(fn.fn(np.asarray(pre.current))),
        vertical=(
            lambda pre: float(fn.derivs[0](np.asarray(pre.current))),
            lambda pre: float(fn.derivs[1](np.asarray(pre.current))),
        ),
        name="cylinder",
    )
    rep = ito_check_functional(cyl, fbm04, part, P)
    plain = ito_check(fn, fbm04, part, P)
    assert rep.compensated == pytest.approx(plain.compensated, abs=1e-12)
    assert rep.follmer_residual == pytest.approx(plain.follmer_residual, abs=1e-12)


def test_functional_running_integral(fbm04):
    part = badic(1.0, 10)
    # F = integral of the path: horizontal steps carry everything, and the
    # vertical expansion sees a locally constant functional
    area = FunctionalBundle(
        evaluate=lambda pre: pre.integral(),
        vertical=(lambda pre: 0.0, lambda pre: 0.0),
        name="area",
    )
    rep = ito_check_functional(area, fbm04, part, P)
    assert rep.follmer_residual == pytest.approx(0.0, abs=1e-14)


def test_functional_product_with_endpoint(fbm04):
    part = badic(1.0, 10)

    # bump sensitivity at an extended prefix: the flat extension of length L
    # carries the bumped value, so d/db [I(b) c(b)] = I + L c and d2 = 2 L
    def ext_len(pre):
        return pre.end_time - float(pre.family.times[pre.j])

    prod = FunctionalBundle(
        evaluate=lambda pre: pre.integral() * pre.current,
        vertical=(
            lambda pre: pre.integral() + ext_len(pre) * pre.current,
            lambda pre: 2.0 * ext_len(pre),
        ),
        name="area-times-endpoint",
    )
    rep = ito_check_functional(prod, fbm04, part, P)
    assert abs(rep.identity_residual) < 1e-12
    assert abs(rep.follmer_residual) < 0.05
    # the functional is quadratic in the bump, so centered differences are
    # exact and the fd fallback must agree to rounding
    fd = FunctionalBundle(evaluate=lambda pre: pre.integral() * pre.current)
    rep_fd = ito_check_functional(fd, fbm04, part, P)
    assert rep_fd.compensated == pytest.approx(rep.compensated, abs=1e-9)


@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, 1e-200])
def test_functional_rejects_unusable_fd_step(hand_path, step):
    # 1e-200 squares to 0, so the order-2 centered difference has no divisor
    fd = FunctionalBundle(evaluate=lambda pre: pre.integral() * pre.current)
    with pytest.raises(InvalidParameterError, match=r"fd_step(\*\*2)? must be positive and finite"):
        ito_check_functional(fd, hand_path, Partition(hand_path.times), P, fd_step=step)


def test_functional_default_fd_step_survives_a_subnormal_path():
    # half the oscillation is 2.4e-299 here, whose square is 0
    tiny = SampledPath(np.array([0.0, 1.0]), np.array([0.0, 4.7e-299]))
    fd = FunctionalBundle(evaluate=lambda pre: float(abs_power(P).fn(np.asarray(pre.current))))
    rep = ito_check_functional(fd, tiny, Partition(tiny.times), P)
    assert math.isfinite(rep.compensated) and rep.identity_residual == 0.0


def test_functional_default_fd_step_that_overflows_is_refused():
    # half the oscillation is 1.5e200, whose square overflows: refused as a given one is
    big = SampledPath(np.linspace(0.0, 1.0, 5), np.array([0.0, 3e200, 1e200, -2e200, 0.0]))
    area = FunctionalBundle(evaluate=lambda pre: pre.integral())
    want = re.escape("fd_step**2 must be positive and finite, got inf")
    with pytest.raises(InvalidParameterError, match=want):
        ito_check_functional(area, big, Partition(big.times), P)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oscillation_past_float64_is_refused_by_name():
    # 1e308 - (-1e308) overflows: the oscillation is named, never a step the caller did not give
    wide = SampledPath(np.linspace(0.0, 1.0, 5), np.array([0.0, 1e308, -1e308, 1e308, 0.0]))
    want = re.escape("the oscillation on a partition of 1 intervals must be finite, got inf")
    with pytest.raises(InvalidParameterError, match=want):
        osc(wide, Partition([0.0, 1.0]))
    area = FunctionalBundle(evaluate=lambda pre: pre.integral())
    with pytest.raises(InvalidParameterError, match=want):
        ito_check_functional(area, wide, Partition([0.0, 1.0]), P)


def test_prefix_family_mechanics(fbm04):
    part = badic(1.0, 6)
    fam = PrefixFamily(fbm04, part)
    vals = fbm04.value_at(part.times)
    dt = np.diff(part.times)
    j = 17
    assert fam.prefix(j).integral() == pytest.approx(float(np.sum(vals[:j] * dt[:j])), abs=1e-14)
    assert fam.prefix(j).current == pytest.approx(float(vals[j]))
    bumped = fam.prefix(j, bump=0.25)
    assert bumped.current == pytest.approx(float(vals[j]) + 0.25)
    stretched = fam.prefix(j, extend_to=part.times[j] + 0.1)
    assert stretched.integral() == pytest.approx(
        fam.prefix(j).integral() + 0.1 * float(vals[j]), abs=1e-14
    )
    with pytest.raises(InvalidParameterError):
        fam.prefix(part.times.size)
    with pytest.raises(InvalidParameterError):
        fam.prefix(j, extend_to=part.times[j] - 0.5)


# --------------------------------------------------------------------------- #
# product bound for mixed variation
# --------------------------------------------------------------------------- #


def test_young_bound_single_path_is_equality(fbm04):
    rep = young_bound_check([fbm04], [P], [badic(1.0, j) for j in (6, 8, 10)])
    assert rep.all_ok
    assert all(m == 0.0 for m in rep.margins)


def test_young_bound_pair(fbm04, fbm08):
    grid = [badic(1.0, j) for j in (6, 8, 10)]
    a = SampledPath(grid[-1].times, fbm04.value_at(grid[-1].times))
    b = SampledPath(grid[-1].times, fbm08.value_at(grid[-1].times))
    rep = young_bound_check([a, b], [1.25, 1.25], grid)
    assert rep.all_ok
    assert rep.p == pytest.approx(2.5)
    # perfectly anticorrelated components still satisfy the bound
    anti = SampledPath(a.times, -a.values)
    rep2 = young_bound_check([a, anti], [1.0, 1.5], grid)
    assert rep2.all_ok


@pytest.mark.filterwarnings("error")  # refused with no numpy RuntimeWarning on the way
def test_young_bound_validation(fbm04):
    grid = [badic(1.0, 6)]
    with pytest.raises(InvalidParameterError):
        young_bound_check([fbm04], [1.0, 1.0], grid)
    with pytest.raises(InvalidParameterError):
        young_bound_check([fbm04], [-1.0], grid)
    # an overflowed bound proves nothing, so it is refused rather than passed
    big = SampledPath(fbm04.times, fbm04.values * 1e200)
    message = "the product sum on a partition of 64 increments must be finite, got inf"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        young_bound_check([big], [P], grid)


# --------------------------------------------------------------------------- #
# long rows summed in leaves
# --------------------------------------------------------------------------- #

ODD = 3 * 2**14 + 5  # increments of a row of odd length past a leaf
TIMED = TimeFunctionBundle(
    fn=lambda t, x: np.sin(x) * (1.0 + t),
    dt=lambda t, x: np.sin(x),
    dx=(lambda t, x: np.cos(x) * (1.0 + t), lambda t, x: -np.sin(x) * (1.0 + t)),
)


def leaf_rows():
    """(name, path, partition, stop time): b-adic fBm rows past a leaf, a row of odd
    length, value-grid rows in both modes (grid mode holds zero increments), a stop time."""
    fbm = {n: fbm_path(GaussianPathSpec(hurst=0.4, n=n, seed=5)) for n in (2**15, 2**18)}
    odd = cumsum_path(ODD, 3)
    yield "badic 2**15", fbm[2**15], Partition(fbm[2**15].times), None
    yield "badic 2**18", fbm[2**18], Partition(fbm[2**18].times), None
    yield "badic 2**17 of 2**18", fbm[2**18], badic(1.0, 17), None
    yield "odd", odd, Partition(odd.times), None
    yield "odd stopped", odd, Partition(odd.times), 0.6
    for mode in ("increment", "grid"):
        yield f"value-grid {mode}", fbm[2**15], value_grid_partition(fbm[2**15], 5e-3, mode), None
    yield "value-grid stopped", fbm[2**15], value_grid_partition(fbm[2**15], 5e-3, "grid"), 0.45


def leaf_checks(path, part, t):
    """Every check that reduces a row, as hex strings of its fields."""
    second = SampledPath(path.times, np.cos(3.0 * path.values))
    reports = {
        "sin": ito_check(sin_affine(), path, part, P, t),
        "abs 2.5 at 0.1": ito_check(abs_power(P, 0.1), path, part, P, t),
        "abs 1.5": ito_check(abs_power(1.5), path, part, 1.5, t),
        "time": ito_check_time(TIMED, path, part, P, t),
        "multi": ito_check_multi(product_bundle(), [path, second], part, P, t),
    }
    sums = {
        "pth": pth_variation_partial(path, part, P, t),
        "phi": phi_variation_partial(path, part, lambda x: x * x * (1.0 + np.log1p(x)), t),
    }
    fields = {
        name: {k: v.hex() if isinstance(v, float) else v for k, v in vars(rep).items()}
        for name, rep in reports.items()
    }
    return fields | {name: total.hex() for name, total in sums.items()}


@pytest.mark.parametrize("row", list(leaf_rows()), ids=lambda row: row[0])
def test_a_long_row_gives_the_fields_of_one_whole_row_leaf(monkeypatch, row):
    # one leaf of the whole row, as before rows were split, and leaves of the
    # default size give every field bit for bit
    _, path, part, t = row
    assert part.n_intervals > partitions._LEAF
    in_leaves = leaf_checks(path, part, t)
    monkeypatch.setattr(partitions, "_LEAF", 2 * part.n_intervals)
    assert in_leaves == leaf_checks(path, part, t)
    assert in_leaves["sin"]["variation"] == in_leaves["pth"]
    if row[0] == "value-grid grid":  # a level crossed back and forth: zero increments
        assert in_leaves["sin"]["n_zero_increments"] > 0


def test_a_refusal_in_a_later_leaf_names_its_index_in_the_whole_row(monkeypatch):
    # a jump of 1e200 at increment 40000, in the third leaf: |dS|^2.5 overflows
    path = cumsum_path(ODD, 4)
    values = path.values.copy()
    values[40_001:] += 1e200
    path, part = SampledPath(path.times, values), Partition(path.times)
    checks = {
        "pth": lambda: pth_variation_partial(path, part, P),
        "phi": lambda: phi_variation_partial(path, part, lambda x: np.where(x > 1e100, -x, x)),
        "ito": lambda: ito_check(abs_power(P), path, part, P),
    }

    def refusals():
        found = {}
        for name, check in checks.items():
            with pytest.raises(Exception) as refused:
                check()
            found[name] = f"{type(refused.value).__name__}: {refused.value}"
        return found

    in_leaves = refusals()
    assert in_leaves["pth"] == (
        "InvalidParameterError: |dS| at index 40000 must keep |dS|^2.5 finite, got 1e+200"
    )
    assert in_leaves["phi"] == (
        "InvalidPhiError: phi(|dS|) at index 40000 must be finite and nonnegative, got -1e+200"
    )
    monkeypatch.setattr(partitions, "_LEAF", 2 * ODD)
    assert refusals() == in_leaves

