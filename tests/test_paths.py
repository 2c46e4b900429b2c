"""Path constructors: exact values where closed forms exist, statistical
sanity where they do not."""

import concurrent.futures
import math
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

import fracpath.paths as paths_module
from fracpath.errors import InvalidParameterError, SamplingInfeasibleError
from fracpath.partitions import Partition
from fracpath.paths import (
    AnalyticPath,
    TERNARY_UNDERFLOW,
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
    with pytest.raises(InvalidParameterError, match=f"values at index 2 must be finite, got {bad}"):
        SampledPath(np.linspace(0.0, 1.0, 5), np.array([0.0, 0.1, bad, 0.3, bad]))
    with pytest.raises(InvalidParameterError, match="finite"):
        SampledPath(np.array([0.0, bad, 1.0]), np.zeros(3))


@pytest.mark.parametrize(
    "times, rule",
    [
        ([0.0], "must be 1-d, 2 or more long, got shape (1,)"),
        ([[0.0, 1.0]], "must be 1-d, 2 or more long, got shape (1, 2)"),
        ([0.0, math.nan, 1.0], "at index 1 must be finite, got nan"),
        ([0.25, 1.0], "must start at 0, got 0.25"),
        ([0.0, 0.5, 0.5, 1.0], "at index 2 must exceed the previous time 0.5, got 0.5"),
    ],
)
def test_one_time_grid_check_names_the_grid_the_rule_and_the_index(times, rule):
    # path times, partitions and sampling grids share errors.time_grid
    ramp = AnalyticPath(horizon=1.0, fn=lambda t: t)
    for build, name in (
        (lambda t: SampledPath(t, np.zeros(np.shape(t))), "times"),
        (Partition, "partition times"),
        (lambda t: sample(ramp, t), "grid"),
    ):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(f'{name} {rule}')}$"):
            build(times)


def test_analytic_custom_and_sample():
    ap = AnalyticPath(horizon=2.0, fn=lambda t: t**2)
    grid = np.linspace(0.0, 2.0, 9)
    sp = sample(ap, grid)
    assert np.allclose(sp.values, grid**2)
    assert sp.horizon == 2.0


def test_sample_checks_its_grid_once_and_its_values(monkeypatch):
    # the grid is checked as "grid" before the path is evaluated on it, and the
    # SampledPath it builds does not check it again; the values still are
    checked = []
    time_grid = paths_module.time_grid
    monkeypatch.setattr(
        paths_module, "time_grid", lambda name, t: checked.append(name) or time_grid(name, t)
    )
    sp = sample(AnalyticPath(horizon=1.0, fn=lambda t: 2.0 * t), [0.0, 0.5, 1.0])
    assert checked == ["grid"]
    assert sp.times.tolist() == [0.0, 0.5, 1.0] and sp.values.tolist() == [0.0, 1.0, 2.0]
    assert sp == SampledPath(sp.times, sp.values)
    with pytest.raises(InvalidParameterError, match=r"^values at index 1 must be finite, got inf$"):
        sample(AnalyticPath(1.0, lambda t: np.where(t == 0.5, np.inf, t)), [0.0, 0.5, 1.0])


# --------------------------------------------------------------------------- #
# Cantor constructions
# --------------------------------------------------------------------------- #


def test_cantor_gap_lefts_levels():
    assert np.allclose(sorted(cantor_gap_lefts(1)), [1 / 3])
    assert np.allclose(sorted(cantor_gap_lefts(2)), [1 / 9, 7 / 9])
    assert cantor_gap_lefts(5).size == 2**4


def test_cantor_gap_lefts_refuses_past_the_knot_cap_before_allocating():
    # level 27 would hold 2**26 lefts, one level past MAX_KNOTS, and level
    # 2**40 an index of 2**40 bits: each is refused before anything is built
    tracemalloc.start()
    try:
        for level in (200, 27, 2**40):
            message = re.escape(f"level must lie in [1, 26], got {level}")
            with pytest.raises(InvalidParameterError, match=message):
                cantor_gap_lefts(level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for level in (2.5, math.nan, 1e6 + 0.5):
        with pytest.raises(InvalidParameterError, match="level must be an integer"):
            cantor_gap_lefts(level)


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


def test_analytic_depths_end_where_float64_ends():
    # 3.0 ** -679 is 0 and 2.0 ** 1024 overflows: one level less still builds
    ts = np.linspace(0.0, 1.0, 9)
    ternary = "depth must lie in [1, 678], got 679"
    for build, deepest, message in (
        (lambda d: cantor_distance_path(2.5, d), TERNARY_UNDERFLOW - 1, ternary),
        (lambda d: cantor_bump_path(2.5, d), TERNARY_UNDERFLOW - 1, ternary),
        (
            lambda d: takagi_path(2, 0.5, depth=d),
            1024,
            "depth 1025 at b=2: the last scale b**1024 must lie in [1, 1.7976931348623157e+308],"
            " got inf",
        ),
    ):
        assert np.all(np.isfinite(build(deepest)(ts)))
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            build(deepest + 1)
    # past p = 2.51 the bump count overflows first, named by its level
    with pytest.raises(InvalidParameterError, match="level 540 at p=2.9: the bump count must lie"):
        cantor_bump_path(2.9, 600)


def test_cantor_bump_knots_refuses_oversized_depths():
    # depth 16 at p = 2.5 would hold 863405543735 knots; the count is summed
    # over the levels before any knot is built, so the refusal allocates nothing
    tracemalloc.start()
    try:
        message = "depth 16 at p=2.5: the knots must lie in [0, 33554432], got 863405543735"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            cantor_bump_knots(2.5, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the first depth past the limit at each p
    for p, depth in ((2.5, 11), (2.25, 12), (2.9, 9)):
        with pytest.raises(InvalidParameterError, match=f"depth {depth} at p={p}: "):
            cantor_bump_knots(p, depth)
    # past 25 levels the 2**depth floor alone is over the limit
    with pytest.raises(InvalidParameterError, match=re.escape("depth must lie in [1, 25], got 26")):
        cantor_bump_knots(2.5, 26)
    with pytest.raises(InvalidParameterError, match=re.escape("depth must lie in [1, 25]")):
        cantor_bump_knots(2.5, 10**308)


def test_cantor_bump_knots_refuses_depth_below_one():
    # as cantor_bump_path does: depth 0 would be the flat two-knot path
    for depth in (0, -3):
        message = f"depth must lie in [1, 25], got {depth}"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            cantor_bump_knots(2.5, depth)


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
    # NaN passes the |alpha| * b == 1 comparison, and nu and rho are not
    # compared at all: each is refused by name before any sampling
    for name, bad in (("alpha", math.nan), ("nu", math.inf), ("rho", math.nan)):
        kwargs = {"alpha": 0.5, "wave": "sinusoid", name: bad}
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite, got {bad!r}"):
            takagi_path(2, **kwargs)
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


@pytest.mark.parametrize("n", [600, 10007])
def test_fbm_non_power_of_two_sizes(n):
    # every n takes the circulant embedding, 10007 (prime) included
    path = fbm_path(GaussianPathSpec(hurst=0.6, n=n, seed=3))
    assert path.times.size == n + 1
    assert np.isfinite(path.values).all()


def _davies_harte_reference(spec):
    """fBm by the textbook complex-FFT Davies-Harte construction: the full 2n
    Hermitian vector through ``np.fft.ifft``, drawing from the seeded rng in
    the order z[0], z[n], real parts, imaginary parts."""
    n, h = spec.n, spec.hurst
    k = np.arange(n + 1, dtype=float)
    g = 0.5 * (np.abs(k + 1.0) ** (2 * h) - 2.0 * k ** (2 * h) + np.abs(k - 1.0) ** (2 * h))
    lam = np.fft.fft(np.concatenate([g, g[-2:0:-1]])).real
    assert lam.min() >= -1e-8 * lam.max()
    rng = np.random.default_rng(spec.seed)
    z = np.empty(2 * n, dtype=complex)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    a = rng.standard_normal(n - 1)
    b = rng.standard_normal(n - 1)
    z[1:n] = (a + 1j * b) / math.sqrt(2.0)
    z[n + 1 :] = np.conj(z[n - 1 : 0 : -1])
    fgn = (np.fft.ifft(np.sqrt(np.clip(lam, 0.0, None)) * z) * math.sqrt(2.0 * n))[:n].real
    return np.concatenate([[0.0], np.cumsum(fgn * (spec.horizon / n) ** h)])


@pytest.mark.parametrize("n", [2**12, 3000])
@pytest.mark.parametrize("hurst", [0.1, 0.4, 0.8])
def test_fbm_matches_complex_fft_reference(n, hurst):
    spec = GaussianPathSpec(hurst=hurst, n=n, horizon=2.0, seed=5)
    values = fbm_path(spec).values
    ref = _davies_harte_reference(spec)
    assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref))


def _real_fft_reference(spec):
    """The real-FFT sampler written with plain temporaries: three-power
    autocovariance, separate draws for z[0], z[n], the real and the
    imaginary parts, complex division by sqrt(2), ``root * z``, scaled
    copies and a concatenated cumulative sum."""
    n, h = spec.n, spec.hurst
    k = np.arange(n + 1, dtype=float)
    g = 0.5 * (np.abs(k + 1.0) ** (2.0 * h) - 2.0 * np.abs(k) ** (2.0 * h) + np.abs(k - 1.0) ** (2.0 * h))
    root = np.sqrt(np.clip(np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real, 0.0, None))
    rng = np.random.default_rng(spec.seed)
    z = np.empty(n + 1, dtype=complex)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    a = rng.standard_normal(n - 1)
    b = rng.standard_normal(n - 1)
    z[1:n] = (a + 1j * b) / math.sqrt(2.0)
    fgn = np.fft.irfft(root * z, 2 * n)[:n] * math.sqrt(2.0 * n)
    fgn = fgn * (spec.horizon / n) ** h
    return np.concatenate([[0.0], np.cumsum(fgn)])


@pytest.mark.parametrize("n", [600, 2**12, 3000, 10007])
@pytest.mark.parametrize("hurst", [0.1, 0.4, 0.8])
def test_fbm_in_place_sampler_is_bitwise_the_plain_one(n, hurst):
    # the in-place draws, scaling and cumulative sum change no bit
    spec = GaussianPathSpec(hurst=hurst, n=n, horizon=2.0, seed=n + 1)
    values = fbm_path(spec).values
    assert np.array_equal(values.view(np.uint64), _real_fft_reference(spec).view(np.uint64))


def test_fbm_transient_memory_is_bounded():
    # measured at 2**18 with a warm spectrum: 32 bytes per increment, result
    # included (64 with a complex ``root * z`` and scaled copies)
    n = 2**18
    spec = GaussianPathSpec(hurst=0.4, n=n, seed=7)
    fbm_path(spec)
    tracemalloc.start()
    try:
        fbm_path(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n, f"{peak / n:.1f} bytes per increment"


@pytest.fixture
def computed(monkeypatch):
    """An empty spectrum cache for the test, and the (n, hurst) of every spectrum
    computed from then on, as the calls into its first step, ``_fgn_autocov``."""
    keys, autocov = [], paths_module._fgn_autocov

    def counted(n, hurst):
        keys.append((n, hurst))
        return autocov(n, hurst)

    monkeypatch.setattr(paths_module, "_fgn_autocov", counted)
    monkeypatch.setattr(paths_module, "_SPECTRA", {})
    return keys


def held(cache: dict) -> int:
    """The spectrum values a cache keeps."""
    return sum(root.size for root in cache.values())


def test_circulant_spectrum_is_cached_read_only(computed):
    spec = GaussianPathSpec(hurst=0.35, n=2**12, seed=4)
    cold = fbm_path(spec).values
    warm = fbm_path(spec).values
    assert computed == [(2**12, 0.35)]  # the warm call computes nothing
    assert np.array_equal(cold.view(np.uint64), warm.view(np.uint64))
    root = _circulant_sqrt_spectrum(2**12, 0.35)
    assert root is paths_module._SPECTRA[2**12, 0.35]
    assert not root.flags.writeable
    with pytest.raises(ValueError):
        root[0] = 0.0


def test_circulant_failure_is_not_cached(monkeypatch, computed):
    # gamma(0) = 1, gamma(1) = 0.9: circulant eigenvalues 1 + 1.8 cos(theta)
    # go down to -0.8; there is no fallback, so every call must reach the
    # check and raise
    def not_definite(n, hurst):
        return np.concatenate([[1.0, 0.9], np.zeros(n - 1)])

    monkeypatch.setattr(paths_module, "_fgn_autocov", not_definite)
    spec = GaussianPathSpec(hurst=0.45, n=2**13, seed=1)
    for _ in range(2):
        with pytest.raises(SamplingInfeasibleError, match="least eigenvalue of the circulant"):
            fbm_path(spec)
    assert paths_module._SPECTRA == {}


# the (n, hurst) keys of one perfbench fbm-ladder pass, about 1.2M spectrum values in all
LADDER_KEYS = [(2**20, 0.4), (2**16, 0.4), (2**16, 1 / 3), (2**14, 0.8)]


def test_fbm_ladder_keys_sampled_twice_compute_each_spectrum_once(computed):
    cold = [_circulant_sqrt_spectrum(n, hurst) for n, hurst in LADDER_KEYS]
    warm = [_circulant_sqrt_spectrum(n, hurst) for n, hurst in LADDER_KEYS]
    assert computed == LADDER_KEYS
    assert all(a is b for a, b in zip(cold, warm))


def test_spectrum_cache_evicts_the_least_recently_used_within_its_budget(monkeypatch, computed):
    monkeypatch.setattr(paths_module, "SPECTRUM_BUDGET", 3000)
    cache = paths_module._SPECTRA
    for n in (1000, 800, 600):  # 1001 + 801 + 601 values
        _circulant_sqrt_spectrum(n, 0.4)
    _circulant_sqrt_spectrum(1000, 0.4)  # a hit: 1000 is now the most recently used
    _circulant_sqrt_spectrum(900, 0.4)  # 901 more: 800, the least recently used, goes
    assert list(cache) == [(600, 0.4), (1000, 0.4), (900, 0.4)]
    _circulant_sqrt_spectrum(2500, 0.4)  # alone within the budget: all the others go
    assert list(cache) == [(2500, 0.4)]
    _circulant_sqrt_spectrum(400, 0.4)
    assert list(cache) == [(2500, 0.4), (400, 0.4)] and held(cache) == 2902
    assert computed == [(n, 0.4) for n in (1000, 800, 600, 900, 2500, 400)]


def test_a_spectrum_over_the_budget_is_kept_alone(monkeypatch, computed):
    monkeypatch.setattr(paths_module, "SPECTRUM_BUDGET", 1000)
    _circulant_sqrt_spectrum(500, 0.4)
    root = _circulant_sqrt_spectrum(4096, 0.4)
    assert list(paths_module._SPECTRA) == [(4096, 0.4)]
    assert _circulant_sqrt_spectrum(4096, 0.4) is root
    assert computed == [(500, 0.4), (4096, 0.4)]


def test_threads_sharing_the_spectrum_cache_sample_the_serial_bits(monkeypatch, computed):
    # 12 keys of 546 spectrum values in all against a budget of 200, each sampled 40
    # times in a shuffled order by 4 threads switching every microsecond: small keys,
    # so the cache is read and evicted often (without the lock, a few of these 480
    # calls raise "dictionary changed size during iteration")
    monkeypatch.setattr(paths_module, "SPECTRUM_BUDGET", 200)
    keys = [(n, h) for n in (8, 13, 32, 50, 64, 100) for h in (0.3, 0.7)]
    specs = [GaussianPathSpec(hurst=h, n=n, seed=i) for i, (n, h) in enumerate(keys * 40)]
    random.Random(5).shuffle(specs)
    serial = [fbm_path(spec).values for spec in specs]
    paths_module._SPECTRA.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fbm_path, spec) for spec in specs]
            threaded = [future.result(timeout=60).values for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    cache = paths_module._SPECTRA
    assert len(cache) == 1 or held(cache) <= 200


def test_gaussian_spec_validation():
    with pytest.raises(InvalidParameterError):
        GaussianPathSpec(hurst=1.2, n=64)
    with pytest.raises(InvalidParameterError):
        GaussianPathSpec(hurst=0.5, n=1)
    with pytest.raises(InvalidParameterError):
        GaussianPathSpec(hurst=0.5, n=64, horizon=-1.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 1000.5}, "n must be an integer, got 1000.5"),
        ({"n": True}, "n must be an integer, got True"),
        ({"n": "64"}, "n must be an integer, got '64'"),
        ({"n": math.inf}, "n must be an integer, got inf"),
        ({"n": 2**40}, "n must lie in [2, 33554431], got 1099511627776"),
        ({"n": 2**25}, "n must lie in [2, 33554431], got 33554432"),
        ({"n": 64, "horizon": math.inf}, "horizon must be positive and finite, got inf"),
        ({"n": 64, "horizon": math.nan}, "horizon must be positive and finite, got nan"),
        ({"n": 64, "seed": 2.7}, "seed must be an integer, got 2.7"),
        ({"n": 64, "seed": True}, "seed must be an integer, got True"),
        ({"n": 64, "seed": -0.5}, "seed must be an integer, got -0.5"),
    ],
)
def test_gaussian_spec_refuses_bad_input_by_value(kwargs, message):
    # refused in the spec, before any array is built
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        GaussianPathSpec(hurst=0.5, **kwargs)


def test_gaussian_spec_takes_integral_sizes_up_to_the_knot_cap():
    assert GaussianPathSpec(hurst=0.5, n=2**25 - 1).n == 2**25 - 1
    spec = GaussianPathSpec(hurst=0.5, n=1024.0)
    assert spec.n == 1024 and type(spec.n) is int
    assert GaussianPathSpec(hurst=0.5, n=np.int64(64), seed=np.uint64(2**64 - 1)).n == 64
    assert GaussianPathSpec(hurst=0.5, n=64, seed=3.0).seed == 3
