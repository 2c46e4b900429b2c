"""Gauges, conjugate weights, the transform isometry, and its gatekeepers."""

import math
import signal

import numpy as np
import pytest

from fracpath.errors import (
    AdmissibilityError,
    InsufficientDerivativesError,
    InvalidParameterError,
    InvalidPhiError,
)
from fracpath.smooth import SmoothFn
from fracpath.isometry import (
    PhiSpec,
    admissibility_threshold,
    generalized_minkowski_check,
    holder_exponent,
    isometry_check,
    phi_hat,
    phi_hat_numeric,
    phi_inverse,
)
from fracpath.partitions import Partition, badic
from fracpath.paths import AnalyticPath, GaussianPathSpec, SampledPath, fbm_path, sample
from fracpath.registry import abs_power, sin_affine


# --------------------------------------------------------------------------- #
# gauge specs
# --------------------------------------------------------------------------- #


def test_phi_spec_power_and_validation():
    spec = PhiSpec(kind="power", p_phi=2.5)
    x = np.array([0.0, 0.3, 1.7])
    assert np.array_equal(spec(x), x**2.5)
    with pytest.raises(InvalidPhiError):
        spec(np.array([-0.1]))
    with pytest.raises(InvalidPhiError):
        PhiSpec(kind="power", p_phi=0.0)
    with pytest.raises(InvalidPhiError):
        PhiSpec(kind="wavelet")
    for custom_fn in (None, 3, "x"):
        with pytest.raises(InvalidPhiError, match=f"need a callable, got {custom_fn!r}"):
            PhiSpec(kind="custom", custom_fn=custom_fn)
    for kind in ("power", "log-modulated"):
        with pytest.raises(InvalidPhiError, match=f"needs kind 'custom', got kind '{kind}'"):
            PhiSpec(kind=kind, log_power=0.5, custom_fn=3)
    with pytest.raises(InvalidPhiError):
        PhiSpec(kind="log-modulated", p_phi=1.0, log_power=0.0)
    for p_phi in (math.nan, math.inf):
        with pytest.raises(InvalidPhiError, match="p_phi must be positive and finite"):
            PhiSpec(kind="power", p_phi=p_phi)
    for log_power in (math.nan, math.inf):
        with pytest.raises(InvalidPhiError, match="log_power of a log-modulated gauge must"):
            PhiSpec(kind="log-modulated", p_phi=1.0, log_power=log_power)


def test_phi_spec_log_modulated_domain():
    spec = PhiSpec(kind="log-modulated", p_phi=1.0, log_power=0.5)
    cap = math.exp(-0.5)
    assert spec.domain_hi == pytest.approx(cap)
    x = np.array([0.0, 0.01, 0.3])
    got = spec(x)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(0.01 * (-math.log(0.01)) ** -0.5)
    with pytest.raises(InvalidPhiError):
        spec(np.array([cap + 0.01]))


# --------------------------------------------------------------------------- #
# conjugate weights
# --------------------------------------------------------------------------- #


def test_phi_hat_closed_forms():
    power = phi_hat(PhiSpec(kind="power", p_phi=2.5))
    assert float(power(np.array(2.0))) == 2.0**2.5
    assert float(power(np.array(0.0))) == 0.0
    logmod = phi_hat(PhiSpec(kind="log-modulated", p_phi=1.0, log_power=0.5))
    # the slowly varying factor cancels in the limit: hat is the plain power
    assert float(logmod(np.array(0.5))) == 0.5
    assert float(logmod(np.array(2.0))) == 2.0


def test_phi_hat_numeric_custom():
    spec = PhiSpec(kind="custom", p_phi=2.0, custom_fn=lambda x: x**2 * (1.0 + x))
    got = phi_hat_numeric(spec, 2.0)
    assert got == pytest.approx(4.0, abs=1e-5)
    hat = phi_hat(spec)
    assert float(hat(np.array(2.0))) == pytest.approx(4.0, abs=1e-5)
    with pytest.raises(InvalidPhiError):
        phi_hat_numeric(spec, -1.0)


def test_phi_inverse_roundtrips():
    spec = PhiSpec(kind="power", p_phi=2.5)
    y = 0.37
    assert spec(np.array(phi_inverse(spec, y))) == pytest.approx(y, abs=1e-12)
    logmod = PhiSpec(kind="log-modulated", p_phi=1.0, log_power=0.5)
    y2 = float(logmod(np.array(0.1)))
    assert phi_inverse(logmod, y2) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(InvalidPhiError):
        phi_inverse(spec, -0.5)
    with pytest.raises(InvalidPhiError):
        phi_inverse(logmod, 10.0)


@pytest.mark.parametrize("p_phi", [0.5, 2.0])
@pytest.mark.parametrize("y", [5e-324, 1e-320])
def test_phi_inverse_crosses_a_plateau_in_bounded_time(y, p_phi):
    # x^2 reads 5e-324 across ~2^50 floats near 2e-162: a snap that walks one
    # ulp at a time would not end; the alarm turns such a hang into a failure
    def hang(signum, frame):
        raise TimeoutError(f"phi_inverse(p_phi={p_phi}, y={y!r}) still running after 5 s")

    spec = PhiSpec(p_phi=p_phi)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        x = phi_inverse(spec, y)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert float(spec(np.asarray(x))) >= y > float(spec(np.asarray(np.nextafter(x, 0.0))))
    if (y, p_phi) == (5e-324, 2.0):
        assert x == 1.5717277847026288e-162


@pytest.mark.parametrize("y", [1e-300, 1e-6, 0.3, 2.0, 7.5])
def test_phi_inverse_of_a_custom_gauge_is_the_float_just_past_the_root(y):
    # no derivative is known, so the bit bisection starts from the whole bracket
    spec = PhiSpec(kind="custom", p_phi=0.5, custom_fn=lambda x: np.sqrt(x) * (1.0 + x))
    x = phi_inverse(spec, y)
    assert float(spec(np.asarray(x))) >= y > float(spec(np.asarray(np.nextafter(x, 0.0))))


# --------------------------------------------------------------------------- #
# isometry check
# --------------------------------------------------------------------------- #


def test_admissibility_threshold_value():
    # p_phi = 1.25: (sqrt(1 + 3.2) - 1) / 2
    assert admissibility_threshold(1.25) == pytest.approx(0.5246950765959599, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        admissibility_threshold(0.0)


def _linear_fn(c: float) -> SmoothFn:
    return SmoothFn(
        fn=lambda x: c * np.asarray(x, dtype=float),
        derivs=(
            lambda x: np.full_like(np.asarray(x, dtype=float), c),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        ),
        name=f"{c}x",
    )


def test_isometry_exact_for_linear(fbm08):
    spec = PhiSpec(kind="power", p_phi=1.25)
    parts = [badic(1.0, j) for j in (6, 8, 10)]
    rep = isometry_check(spec, _linear_fn(3.0), fbm08, parts, holder_alpha=0.79)
    assert rep.final_gap < 1e-12
    assert all(abs(r - 1.0) < 1e-12 for r in rep.ratios)
    assert rep.levels == (2**6, 2**8, 2**10)


def test_isometry_rejects_partition_past_horizon():
    # past its last knot the path would be read as a constant extension
    path = SampledPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.4]))
    part = Partition(np.array([0.0, 0.5, 1.0, 2.0]))
    spec = PhiSpec(kind="power", p_phi=1.25)
    with pytest.raises(InvalidParameterError, match="the partition's end within the path horizon"):
        isometry_check(spec, _linear_fn(3.0), path, [part], holder_alpha=0.79)


def test_isometry_gate_refuses(fbm08):
    spec = PhiSpec(kind="power", p_phi=1.25)
    with pytest.raises(AdmissibilityError):
        isometry_check(spec, _linear_fn(1.0), fbm08, [badic(1.0, 6)], holder_alpha=0.4)


def test_isometry_needs_a_first_derivative(fbm08):
    spec = PhiSpec(kind="power", p_phi=1.25)
    with pytest.raises(InsufficientDerivativesError):
        isometry_check(spec, SmoothFn(fn=np.sin), fbm08, [badic(1.0, 6)], holder_alpha=0.79)


def test_isometry_refuses_two_zero_phi_sums():
    # path increments of 0.01, F = 3x ones of 0.03: x**300 reads 0 on both sides
    path = SampledPath(np.linspace(0.0, 1.0, 5), np.array([0.0, 0.01, 0.02, 0.01, 0.0]))
    spec = PhiSpec(kind="power", p_phi=300)
    with pytest.raises(InvalidPhiError, match="p_phi = 300 on the stage of 4 increments"):
        isometry_check(spec, _linear_fn(3.0), path, [Partition(path.times)], holder_alpha=0.79)
    # a zero rhs alone still reads inf: f'(0) = 0 weighs the one increment by phi_hat(0) = 0
    path = SampledPath(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    square = SmoothFn(fn=np.square, derivs=(lambda x: 2.0 * np.asarray(x),))
    rep = isometry_check(PhiSpec(kind="power", p_phi=1.25), square, path, [badic(1.0, 0)], 0.79)
    assert rep.lhs == (0.25**1.25,) and rep.rhs == (0.0,) and rep.ratios == (math.inf,)


@pytest.mark.filterwarnings("error")
def test_isometry_refuses_an_overflowing_phi_sum():
    # |dS|^2.5 overflows from 1e150 on: an inf rhs would read as ratio 0
    base = fbm_path(GaussianPathSpec(hurst=0.4, n=64, seed=3))
    big = SampledPath(base.times, 1e150 * base.values)
    spec = PhiSpec(kind="power", p_phi=2.5)
    want = r"phi\(\|dS\|\) on a partition of 64 increments must be finite, got inf"
    with pytest.raises(InvalidParameterError, match=want):
        isometry_check(spec, sin_affine(), big, [badic(1.0, 6)], holder_alpha=0.9)


def test_isometry_smooth_transform_converges(fbm08):
    spec = PhiSpec(kind="power", p_phi=1.25)
    fn = SmoothFn(
        fn=lambda x: np.sin(x) + 2.0 * x,
        derivs=(lambda x: np.cos(x) + 2.0, lambda x: -np.sin(x)),
        name="sin(x)+2x",
    )
    rep = isometry_check(spec, fn, fbm08, [badic(1.0, j) for j in (8, 10, 12)], 0.79)
    assert rep.final_gap < 0.05
    assert rep.lhs[-1] > 0.0 and rep.rhs[-1] > 0.0


# --------------------------------------------------------------------------- #
# generalized triangle inequality
# --------------------------------------------------------------------------- #


def test_minkowski_seeded_vectors():
    spec = PhiSpec(kind="log-modulated", p_phi=1.0, log_power=0.5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        size = int(rng.integers(2, 12))
        a = rng.uniform(0.0, 0.05, size)
        b = rng.uniform(0.0, 0.05, size)
        rep = generalized_minkowski_check(spec, a, b)
        assert rep.ok
    # degenerate second argument: the inequality collapses to an identity
    assert generalized_minkowski_check(spec, np.array([0.01, 0.02]), np.zeros(2)).ok


# --------------------------------------------------------------------------- #
# Holder exponent estimation
# --------------------------------------------------------------------------- #


def test_holder_exponent_pure_power():
    path = sample(
        AnalyticPath(horizon=1.0, fn=lambda t: np.abs(t) ** 0.7),
        np.linspace(0.0, 1.0, 2**14 + 1),
    )
    assert holder_exponent(path) == pytest.approx(0.7, abs=1e-6)


def test_holder_exponent_fbm_ballpark(fbm04):
    # max-increment regression on a random path: biased low by the Gaussian
    # log factor, so only a loose bracket is stable across seeds
    est = holder_exponent(fbm04)
    assert 0.2 < est < 0.45


def test_holder_exponent_validation():
    from fracpath.paths import SampledPath

    flat = SampledPath(np.array([0.0, 0.5, 1.0]), np.zeros(3))
    with pytest.raises(InvalidParameterError):
        holder_exponent(flat)
