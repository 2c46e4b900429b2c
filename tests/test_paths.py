"""Path constructors: exact values where closed forms exist, statistical
sanity where they do not."""

import math

import numpy as np
import pytest

import fracpath.paths as paths_module
from fracpath.errors import InvalidParameterError, SamplingInfeasibleError
from fracpath.paths import (
    AnalyticPath,
    GaussianPathSpec,
    SampledPath,
    _circulant_sqrt_spectrum,
    bump_count,
    cantor_bump_knots,
    cantor_bump_path,
    cantor_distance_path,
    cantor_gap_lefts,
    fbm_path,
    sample,
    takagi_path,
)

# --------------------------------------------------------------------------- #
# sampled / analytic containers
# --------------------------------------------------------------------------- #


def test_sampled_path_exact_at_knots():
    t = np.array([0.0, 0.1, 0.5, 1.0])
    v = np.array([0.0, 1 / 3, math.pi, -0.7])
    path = SampledPath(t, v)
    # knot evaluation must return the stored floats bitwise, no interpolation
    assert np.array_equal(path.value_at(t), v)
    assert path.value_at(0.3) == pytest.approx(v[1] + (v[2] - v[1]) * 0.5)
    assert path.horizon == 1.0


def test_sampled_path_validation():
    with pytest.raises(InvalidParameterError):
        SampledPath(np.array([0.0, 0.5, 0.5]), np.zeros(3))
    with pytest.raises(InvalidParameterError):
        SampledPath(np.array([0.1, 0.5]), np.zeros(2))
    with pytest.raises(InvalidParameterError):
        SampledPath(np.array([0.0]), np.zeros(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sampled_path_rejects_non_finite(bad):
    with pytest.raises(InvalidParameterError, match="value at index 2 is not finite"):
        SampledPath(np.linspace(0.0, 1.0, 5), np.array([0.0, 0.1, bad, 0.3, bad]))
    with pytest.raises(InvalidParameterError, match="finite"):
        SampledPath(np.array([0.0, bad, 1.0]), np.zeros(3))


def test_analytic_custom_and_sample():
    ap = AnalyticPath.custom(lambda t: t**2, horizon=2.0)
    grid = np.linspace(0.0, 2.0, 9)
    sp = sample(ap, grid)
    assert np.allclose(sp.values, grid**2)
    assert sp.horizon == 2.0


# --------------------------------------------------------------------------- #
# Cantor constructions
# --------------------------------------------------------------------------- #


def test_cantor_gap_lefts_levels():
    assert np.allclose(sorted(cantor_gap_lefts(1)), [1 / 3])
    assert np.allclose(sorted(cantor_gap_lefts(2)), [1 / 9, 7 / 9])
    assert cantor_gap_lefts(5).size == 2**4


def test_cantor_distance_path_peaks():
    p = 2.5
    path = cantor_distance_path(p)
    # zero exactly on the Cantor set, peak 2^(-i/p) at level-i gap midpoints
    assert float(path(0.0)) == 0.0
    assert float(path(1.0)) == 0.0
    assert float(path(1 / 3)) == 0.0
    assert float(path(2 / 3)) == 0.0
    assert float(path(0.5)) == pytest.approx(2.0 ** (-1.0 / p), rel=1e-12)
    assert float(path(1 / 6)) == pytest.approx(2.0 ** (-2.0 / p), rel=1e-12)
    assert float(path(5 / 6)) == pytest.approx(2.0 ** (-2.0 / p), rel=1e-12)


def test_cantor_bump_path_envelope():
    p = 2.25
    knots = cantor_bump_knots(p, 6)
    assert knots.values.min() == 0.0
    assert knots.values.max() == 0.5  # tallest bump has height 2^-1
    assert float(knots.values[0]) == 0.0 and float(knots.values[-1]) == 0.0
    ap = cantor_bump_path(p, depth=6)
    mid = np.linspace(0.01, 0.99, 37)
    assert np.all(ap(mid) >= 0.0)
    assert bump_count(p, 1) >= 1
    # counts grow with the level: more room for smaller bumps
    assert bump_count(p, 6) >= bump_count(p, 3)


# --------------------------------------------------------------------------- #
# Takagi family
# --------------------------------------------------------------------------- #


def test_takagi_dyadic_spot_values():
    tk = takagi_path(2, 0.5, "triangle", depth=26)
    # only finitely many terms survive at dyadic points:
    # T(1/2) = 1/2, T(1/4) = 1/4 + (1/2)(1/2) = 1/2
    assert float(tk(0.5)) == 0.5
    assert float(tk(0.25)) == 0.5
    assert float(tk(0.0)) == 0.0
    assert float(tk(1.0)) == 0.0
    # at 2/3 every term contributes (1/2)^k / 3, geometric to 2/3
    assert float(tk(2 / 3)) == pytest.approx(2 / 3, abs=1e-7)


def test_takagi_validation_and_sinusoid():
    with pytest.raises(InvalidParameterError):
        takagi_path(2, 0.4)
    with pytest.raises(InvalidParameterError):
        takagi_path(1, 1.0)
    snake = takagi_path(3, 1 / 3, "sinusoid", depth=10)
    assert np.isfinite(snake(np.linspace(0, 1, 17))).all()


# --------------------------------------------------------------------------- #
# fractional Brownian motion
# --------------------------------------------------------------------------- #


def test_fbm_reproducible_and_shapes():
    spec = GaussianPathSpec(hurst=0.3, n=1024, seed=7)
    a = fbm_path(spec)
    b = fbm_path(spec)
    c = fbm_path(GaussianPathSpec(hurst=0.3, n=1024, seed=8))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.times.size == 1025
    assert a.values[0] == 0.0
    assert a.horizon == 1.0


def test_fbm_increment_scaling(fbm04):
    # var of increments over step 2h vs h: ratio 2^(2H), ergodic average
    v = fbm04.values
    d1 = np.diff(v)
    d2 = v[2::2] - v[:-2:2]
    ratio = np.var(d2) / np.var(d1)
    assert ratio == pytest.approx(2.0 ** (2 * 0.4), rel=0.05)


def test_fbm_lag_one_correlation(fbm04):
    # fGn autocorrelation at lag 1 is 2^(2H-1) - 1, negative for H < 1/2
    d = np.diff(fbm04.values)
    corr = float(np.corrcoef(d[:-1], d[1:])[0, 1])
    assert corr == pytest.approx(2.0 ** (2 * 0.4 - 1.0) - 1.0, abs=0.02)


def test_fbm_dense_route_non_pow2():
    # non-power-of-two sizes fall back to the dense factorization
    path = fbm_path(GaussianPathSpec(hurst=0.6, n=600, seed=3))
    assert path.times.size == 601
    assert np.isfinite(path.values).all()


def test_circulant_spectrum_is_cached_read_only():
    _circulant_sqrt_spectrum.cache_clear()
    spec = GaussianPathSpec(hurst=0.35, n=2**12, seed=4)
    cold = fbm_path(spec).values
    warm = fbm_path(spec).values
    assert _circulant_sqrt_spectrum.cache_info().hits == 1
    assert np.array_equal(cold.view(np.uint64), warm.view(np.uint64))
    root = _circulant_sqrt_spectrum(2**12, 0.35)
    assert not root.flags.writeable
    with pytest.raises(ValueError):
        root[0] = 0.0


def test_circulant_failure_is_not_cached(monkeypatch):
    # gamma(0) = 1, gamma(1) = 0.9: circulant eigenvalues 1 + 1.8 cos(theta)
    # go down to -0.8; n > 4096 has no dense fallback, so every call must
    # reach the check and raise
    def not_definite(n, hurst):
        return np.concatenate([[1.0, 0.9], np.zeros(n - 1)])

    monkeypatch.setattr(paths_module, "_fgn_autocov", not_definite)
    _circulant_sqrt_spectrum.cache_clear()
    spec = GaussianPathSpec(hurst=0.45, n=2**13, seed=1)
    for _ in range(2):
        with pytest.raises(SamplingInfeasibleError, match="nonnegative definite"):
            fbm_path(spec)
    assert _circulant_sqrt_spectrum.cache_info().currsize == 0


def test_gaussian_spec_validation():
    with pytest.raises(InvalidParameterError):
        GaussianPathSpec(hurst=1.2, n=64)
    with pytest.raises(InvalidParameterError):
        GaussianPathSpec(hurst=0.5, n=1)
    with pytest.raises(InvalidParameterError):
        GaussianPathSpec(hurst=0.5, n=64, horizon=-1.0)
