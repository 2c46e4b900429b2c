"""Library range checks refuse bad scalars by name: a check written as
``p <= 0`` lets NaN through, so each is written so that NaN fails it; and
the API fuzz property feeds every scalar argument of the public entry
points each edge value, expecting a finite result or a refusal that names
the argument; the value fuzz scales seeded paths toward both ends of float64,
expecting finite numbers or a refusal that names the term, with no numpy
warning; and the choice fuzz gives every enumerated argument, of a library
call or in a config, wrong values, expecting a refusal that names the
argument, every option and the value."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import EDGE_VALUES
from hypothesis import given, settings
from hypothesis import strategies as st

import fracpath.paths as paths_module
from fracpath import cli
from fracpath._quad import integrate_kinked
from fracpath.errors import (
    AdmissibilityError,
    FracpathError,
    InvalidBundleError,
    InvalidConfigError,
    InvalidParameterError,
    InvalidPhiError,
    SamplingInfeasibleError,
    real,
)
from fracpath.experiments import (
    bump_decomposition,
    bump_limit_value,
    cantor_compensated_formula,
    cantor_profile,
    cantor_stage,
    fbm_variation_experiment,
    gaussian_abs_moment,
)
from fracpath.follmer import (
    FunctionalBundle,
    PrefixFamily,
    ito_check,
    ito_check_functional,
    ito_check_multi,
    ito_check_time,
    kernel_profile,
    remainder_kernel,
    young_bound_check,
)
from fracpath.fracops import (
    FracOrder,
    caputo,
    caputo_power,
    frac_taylor_check,
    local_frac_derivative,
    power_rule,
    rl_integral,
)
from fracpath.isometry import (
    PhiSpec,
    admissibility_threshold,
    generalized_minkowski_check,
    holder_exponent,
    isometry_check,
    phi_hat_numeric,
    phi_inverse,
)
from fracpath.partitions import (
    Partition,
    badic,
    cantor_blocks,
    osc,
    partition_values,
    value_grid_partition,
)
from fracpath.paths import (
    GaussianPathSpec,
    SampledPath,
    bump_count,
    cantor_bump_knots,
    cantor_bump_path,
    cantor_distance_path,
    cantor_gap_lefts,
    fbm_path,
    sample,
    takagi_path,
)
from fracpath.registry import (
    FN_REGISTRY,
    TIME_FN_REGISTRY,
    abs_power,
    exp_fn,
    make_fn,
    make_path,
    make_phi,
    make_time_fn,
    moving_abs_power,
    plus_power,
    polynomial,
    product_bundle,
    sin_affine,
)
from fracpath.variation import (
    cantor_function,
    phi_variation_partial,
    pth_variation_partial,
)

NAN, INF = math.nan, math.inf
PATH = SampledPath(np.linspace(0.0, 1.0, 5), [0.0, 0.3, -0.2, 0.4, 0.0])
PART = Partition(PATH.times)


def _range_checked_entries(path):
    """Every library entry whose range check a NaN or inf would pass if it
    were a plain comparison, the shape, sign and bracketing refusals no
    other test reaches, and every array check ``errors.entries`` makes, named
    by its index and value, as zero-argument calls with the error and message
    each must raise."""
    part = Partition(path.times)
    coarse = SampledPath(np.linspace(0.0, 1.0, 3), [0.0, 0.1, 0.0])
    huge = SampledPath(np.linspace(0.0, 1.0, 3), [0.0, 3e200, 1e200])
    log_spec = PhiSpec(kind="log-modulated", log_power=0.5)
    x_past_a = (InvalidParameterError, "x past a must be finite and nonnegative, got nan")
    a_nan = (InvalidParameterError, "a must be finite, got nan")
    x_below_a = (InvalidParameterError, "x past a must be >= 1.0, got 0.0")
    x_at_k = (InvalidParameterError, "x past k must exceed 0.5, got 0.5")
    fam = PrefixFamily(path, part)
    functional = FunctionalBundle(evaluate=lambda pre: pre.integral() * pre.current)
    # f = 5e307 S^2 is finite at S = 1.8, where f' = 1e308 S overflows
    steep = SampledPath(np.linspace(0.0, 1.0, 3), [0.0, 1.8, 0.0])
    # the value fuzz's first seeded path, where exp(S) overflows
    fbm = fbm_path(GaussianPathSpec(hurst=0.4, n=64, seed=3))
    fbm = SampledPath(fbm.times, 1e100 * fbm.values)
    return {
        "pth_variation_partial-p": (
            lambda: pth_variation_partial(path, part, NAN),
            InvalidParameterError,
            "p must be positive and finite, got nan",
        ),
        "young_bound_check-alphas": (
            lambda: young_bound_check([path], [NAN], [part]),
            InvalidParameterError,
            "alphas[0] must be positive and finite, got nan",
        ),
        "young_bound_check-count": (
            lambda: young_bound_check([path], [1.0, 1.0], [part]),
            InvalidParameterError,
            "need one alpha per path, got 2 for 1",
        ),
        "phi_inverse-y-nan": (
            lambda: phi_inverse(PhiSpec(), NAN),
            InvalidPhiError,
            "gauge value y must be finite and nonnegative, got nan",
        ),
        "phi_inverse-y-inf": (
            lambda: phi_inverse(PhiSpec(), INF),
            InvalidPhiError,
            "gauge value y must be finite and nonnegative, got inf",
        ),
        "rl_integral-x": (lambda: rl_integral(np.sin, 0.5, 0.0, NAN), *x_past_a),
        "rl_integral-a": (lambda: rl_integral(np.sin, 0.5, NAN, 1.0), *a_nan),
        "rl_integral-x-below-a": (lambda: rl_integral(np.sin, 0.5, 1.0, 0.0), *x_below_a),
        "caputo-x": (lambda: caputo(np.sin, FracOrder(0.5), 0.0, NAN), *x_past_a),
        "caputo-a": (lambda: caputo(np.sin, FracOrder(0.5), NAN, 1.0), *a_nan),
        "caputo-x-below-a": (lambda: caputo(np.sin, FracOrder(0.5), 1.0, 0.0), *x_below_a),
        "power_rule-x-at-k": (lambda: power_rule(3.2, FracOrder(0.7), 0.5, 0.5), *x_at_k),
        "caputo_power-x-at-k": (
            lambda: caputo_power(3.2, FracOrder(0.7), -0.5, 0.5, 0.5, kind="abs"), *x_at_k
        ),
        "caputo_power-k-below-a": (
            lambda: caputo_power(3.2, FracOrder(0.7), 0.6, 0.5, 1.0),
            InvalidParameterError,
            "k past a must be >= 0.6, got 0.5",
        ),
        # a fraction and a bool raised a bare IndexError and TypeError
        "PrefixFamily.prefix-j-fraction": (
            lambda: fam.prefix(1.5),
            InvalidParameterError,
            "prefix index j must be an integer, got 1.5",
        ),
        "PrefixFamily.prefix-j-bool": (
            lambda: fam.prefix(True),
            InvalidParameterError,
            "prefix index j must be an integer, got True",
        ),
        "PrefixFamily.prefix-j-range": (
            lambda: fam.prefix(5),
            InvalidParameterError,
            "prefix index j must lie in [0, 4], got 5",
        ),
        # NaN was accepted, and the prefix's integral read nan
        "PrefixFamily.prefix-extend_to-nan": (
            lambda: fam.prefix(1, extend_to=NAN),
            InvalidParameterError,
            "extend_to past times[j] must be >= 0.25, got nan",
        ),
        "PrefixFamily.prefix-extend_to-backwards": (
            lambda: fam.prefix(2, extend_to=0.25),
            InvalidParameterError,
            "extend_to past times[j] must be >= 0.5, got 0.25",
        ),
        "ito_check_functional-p": (
            lambda: ito_check_functional(functional, path, part, 3.5),
            InvalidBundleError,
            "p of a functional check must lie in (1, 3), got 3.5",
        ),
        # a string was compared before it was checked: a bare TypeError
        "ito_check_functional-fd_step-str": (
            lambda: ito_check_functional(functional, path, part, 2.5, fd_step="x"),
            InvalidParameterError,
            "fd_step must be a number, got 'x'",
        ),
        "ito_check_functional-fd_step-squares-to-0": (
            lambda: ito_check_functional(functional, path, part, 2.5, fd_step=1e-200),
            InvalidParameterError,
            "fd_step**2 must be positive and finite, got 0.0",
        ),
        "PhiSpec-log_power": (
            lambda: PhiSpec(kind="log-modulated", log_power=0.0),
            InvalidPhiError,
            "log_power of a log-modulated gauge must be positive and finite, got 0.0",
        ),
        "isometry_check-gate": (
            lambda: isometry_check(PhiSpec(), _SIN, path, [part], 0.3),
            AdmissibilityError,
            "holder_alpha past the admissibility gate at p_phi = 2.0 must exceed"
            " 0.36602540378443865, got 0.3",
        ),
        "isometry_check-holder_alpha-nan": (
            lambda: isometry_check(PhiSpec(), _SIN, path, [part], NAN),
            InvalidParameterError,
            "holder_alpha must be finite, got nan",
        ),
        # the gauge's input was blamed, as an InvalidPhiError, for f(S) overflowing
        "isometry_check-dF-overflows": (
            lambda: isometry_check(PhiSpec(p_phi=2.5), exp_fn(), fbm, [badic(1.0, 6)], 0.9),
            InvalidParameterError,
            "|dF| at index 1 must be finite, got inf",
        ),
        "isometry_check-f'(S)-overflows": (
            lambda: isometry_check(PhiSpec(), polynomial([0, 0, 5e307]), steep,
                                   [Partition(steep.times)], 0.9),
            InvalidParameterError,
            "|f'(S)| at index 1 must be finite, got inf",
        ),
        "phi_inverse-cap": (
            lambda: phi_inverse(log_spec, 2.0),
            InvalidPhiError,
            "gauge value y of a gauge capped at x < 0.7788007830714049 must lie in"
            " [0, 1.2130613194204145], got 2.0",
        ),
        "holder_exponent-flat": (
            lambda: holder_exponent(SampledPath(path.times, np.zeros(path.times.size))),
            InvalidParameterError,
            "the largest increment at level j = 4 must be positive and finite, got 0.0",
        ),
        "partition_values-past-horizon": (
            lambda: partition_values(path, Partition(np.array([0.0, 2.0]))),
            InvalidParameterError,
            "the partition's end within the path horizon 1.0 must lie in [0, 1.000000000001],"
            " got 2.0",
        ),
        "integrate_kinked-kink-exponent": (
            lambda: integrate_kinked(lambda t, _: np.abs(t) ** -1.0, 0.0, 1.0, [(0.0, -1.0)], 1e-9),
            InvalidParameterError,
            "the exponent s of an integrable |t - 0|**s must exceed -1, got -1.0",
        ),
        "admissibility_threshold-p_phi": (
            lambda: admissibility_threshold(NAN),
            InvalidParameterError,
            "p_phi must be positive and finite, got nan",
        ),
        "FracOrder-nan": (
            lambda: FracOrder(NAN),
            InvalidParameterError,
            "order must be positive and finite, got nan",
        ),
        "FracOrder-inf": (
            lambda: FracOrder(INF),
            InvalidParameterError,
            "order must be positive and finite, got inf",
        ),
        "local_frac_derivative-alpha": (
            lambda: local_frac_derivative(np.sin, INF, 0.0),
            InvalidParameterError,
            "alpha must be positive, finite and non-integer, got inf",
        ),
        "badic-horizon": (
            lambda: badic(INF, 3),
            InvalidParameterError,
            "horizon must be positive and finite, got inf",
        ),
        "takagi_path-b-huge": (
            lambda: takagi_path(b=10**400, alpha=0.0),
            InvalidParameterError,
            f"b must be finite, got {10**400}",
        ),
        "local_frac_derivative-at": (
            lambda: local_frac_derivative(np.sin, 0.5, NAN),
            InvalidParameterError,
            "at must be finite, got nan",
        ),
        "caputo-rtol-nan": (
            lambda: caputo(np.sin, FracOrder(0.5), 0.0, 1.0, rtol=NAN),
            InvalidParameterError,
            "rtol must be positive and finite, got nan",
        ),
        "caputo-rtol-zero": (
            lambda: caputo(np.sin, FracOrder(0.5), 0.0, 1.0, rtol=0.0),
            InvalidParameterError,
            "rtol must be positive and finite, got 0.0",
        ),
        "rl_integral-rtol-nan": (
            lambda: rl_integral(np.sin, 0.5, 0.0, 1.0, rtol=NAN),
            InvalidParameterError,
            "rtol must be positive and finite, got nan",
        ),
        "rl_integral-rtol-negative": (
            lambda: rl_integral(np.sin, 0.5, 0.0, 1.0, rtol=-1e-9),
            InvalidParameterError,
            "rtol must be positive and finite, got -1e-09",
        ),
        "cantor_distance_path-p": (
            lambda: cantor_distance_path(NAN, 3),
            InvalidParameterError,
            "p must exceed 1, got nan",
        ),
        "cantor_blocks-p": (
            lambda: cantor_blocks(INF, 3),
            InvalidParameterError,
            "p must be finite, got inf",
        ),
        "remainder_kernel-array-nan": (
            lambda: remainder_kernel(abs_power(2.5), 2.5, np.array([NAN, 0.2]), np.array([0.7, 0.7])),
            InvalidParameterError,
            "(a, b) at index 0 must be finite, got (nan, 0.7)",
        ),
        "remainder_kernel-norm-overflows": (
            lambda: remainder_kernel(_SIN, 2.5, np.array([0.2, 0.1]), np.array([0.7, 1e200])),
            InvalidParameterError,
            "(a, b) at index 1 must keep |b - a|^2.5 finite, got (0.1, 1e+200)",
        ),
        "remainder_kernel-taylor-not-finite": (
            lambda: remainder_kernel(
                abs_power(3.5), 2.5, np.array([0.0, 0.0]), np.array([0.5, 1e100]), method="taylor"
            ),
            InvalidParameterError,
            "(a, b) at index 1 must give a finite Taylor remainder kernel, got (0.0, 1e+100)",
        ),
        "cantor_function-ts-nan": (
            lambda: cantor_function(np.array([0.5, NAN])),
            InvalidParameterError,
            "ts at index 1 must not be NaN, got nan",
        ),
        "SampledPath-shape": (
            lambda: SampledPath(np.linspace(0.0, 1.0, 3), [0.0, 1.0]),
            InvalidParameterError,
            "values must have shape (3,), got (2,)",
        ),
        "SampledPath-values": (
            lambda: SampledPath(np.linspace(0.0, 1.0, 3), [0.0, INF, 0.0]),
            InvalidParameterError,
            "values at index 1 must be finite, got inf",
        ),
        "time_grid-finite": (
            lambda: Partition(np.array([0.0, 0.5, NAN])),
            InvalidParameterError,
            "partition times at index 2 must be finite, got nan",
        ),
        "time_grid-increasing": (
            lambda: Partition(np.array([0.0, 0.5, 0.4])),
            InvalidParameterError,
            "partition times at index 2 must exceed the previous time 0.5, got 0.4",
        ),
        "phi_sums-gauge-negative": (
            lambda: phi_variation_partial(path, part, np.negative),
            InvalidPhiError,
            "phi(|dS|) at index 0 must be finite and nonnegative, got -0.3",
        ),
        "phi_sums-power-overflows": (
            lambda: pth_variation_partial(huge, Partition(huge.times), 2.5),
            InvalidParameterError,
            "|dS| at index 0 must keep |dS|^2.5 finite, got 3e+200",
        ),
        "cantor_blocks-underflow": (
            lambda: cantor_blocks(2.5, 663),
            InvalidParameterError,
            "stage 663 at p=2.5 is too deep for float64: the steps of its level-663 crossing times"
            " 3**-n * s at index 0 must be positive, got 0.0",
        ),
        "sample-grid-past-horizon": (
            lambda: sample(cantor_distance_path(2.5, 3), np.linspace(0.0, 2.0, 5)),
            InvalidParameterError,
            "the grid's end within the path horizon 1.0 must lie in [0, 1.000000000000001],"
            " got 2.0",
        ),
        "ito_check_multi-grids": (
            lambda: ito_check_multi(product_bundle(), [path, coarse], part, 2.5),
            InvalidParameterError,
            "the times of paths at index 1 must equal those of paths[0],"
            " got array([0. , 0.5, 1. ])",
        ),
        "PhiSpec-custom-negative": (
            lambda: PhiSpec(kind="custom", custom_fn=np.negative)(np.array([0.5])),
            InvalidPhiError,
            "custom_fn(x) at index 0 must be finite and nonnegative, got -0.5",
        ),
        # a NaN input read nan and an inf one was blamed on a cap the power gauge lacks
        "PhiSpec-nan-input": (
            lambda: PhiSpec()(np.array([0.5, NAN])),
            InvalidPhiError,
            "gauge input x at index 1 must be finite and nonnegative, got nan",
        ),
        "PhiSpec-inf-input": (
            lambda: PhiSpec()(np.array([INF])),
            InvalidPhiError,
            "gauge input x at index 0 must be finite and nonnegative, got inf",
        ),
        "PhiSpec-negative-input": (
            lambda: PhiSpec()(np.array([[0.1, -0.2]])),
            InvalidPhiError,
            "gauge input x at index (0, 1) must be finite and nonnegative, got -0.2",
        ),
        "PhiSpec-past-the-cap": (
            lambda: log_spec(0.9),
            InvalidPhiError,
            "gauge input x must lie in [0, exp(-log_power / p_phi)) = [0, 0.7788007830714049);"
            " rescale first, got 0.9",
        ),
        "phi_hat_numeric-ladder": (
            # the domain ends at exp(-100 / 2), below every ladder point 2^-8..2^-26
            lambda: phi_hat_numeric(PhiSpec(kind="log-modulated", log_power=100.0), 0.5),
            InvalidPhiError,
            "the count of ladder points b with b, a b below the cap exp(-log_power / p_phi) ="
            " 1.9287498479639178e-22 at a = 0.5 must be >= 5, got 0",
        ),
        "phi_inverse-bracket": (
            # x**0.001 reaches 3 only at 2**1585, past the 1e300 bracket
            lambda: phi_inverse(PhiSpec(p_phi=0.001), 3.0),
            InvalidPhiError,
            "no x below 1e300 brackets the gauge inverse of y = 3.0",
        ),
        "generalized_minkowski_check-shape": (
            lambda: generalized_minkowski_check(PhiSpec(), [1.0, 2.0], [1.0]),
            InvalidParameterError,
            "a and b must be 1-d of one length, got (2,), (1,)",
        ),
        "generalized_minkowski_check-sign": (
            lambda: generalized_minkowski_check(PhiSpec(), [-1.0], [1.0]),
            InvalidParameterError,
            "a at index 0 must be finite and nonnegative, got -1.0",
        ),
        # NaN passed the sign check, and phi_inverse then blamed the gauge value y
        "generalized_minkowski_check-nan": (
            lambda: generalized_minkowski_check(PhiSpec(), [NAN, 1.0], [1.0, 1.0]),
            InvalidParameterError,
            "a at index 0 must be finite and nonnegative, got nan",
        ),
        "generalized_minkowski_check-b-inf": (
            lambda: generalized_minkowski_check(PhiSpec(), [1.0, 1.0], [1.0, INF]),
            InvalidParameterError,
            "b at index 1 must be finite and nonnegative, got inf",
        ),
        "make_phi-not-an-object": (
            lambda: make_phi([]),
            InvalidConfigError,
            "gauge config must be an object",
        ),
        # an int past float64 meets a numpy bound: compared as Python numbers, not float64
        "real-int-past-float64-numpy-bound": (
            lambda: real("v", 10**400, lo=np.float64(0.25)),
            InvalidParameterError,
            f"v must be finite, got {10**400}",
        ),
    }


ENTRIES = _range_checked_entries(PATH)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_finite_parameter_is_refused_by_name(entry):
    call, error, message = ENTRIES[entry]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_circulant_refusal_names_its_least_eigenvalue_and_the_bound(monkeypatch):
    # gamma(0) = 1, gamma(1) = 0.9: circulant eigenvalues 1 + 1.8 cos(theta) in [-0.8, 2.8]
    def not_definite(n, hurst):
        return np.concatenate([[1.0, 0.9], np.zeros(n - 1)])

    monkeypatch.setattr(paths_module, "_fgn_autocov", not_definite)
    monkeypatch.setattr(paths_module, "_SPECTRA", {})  # no cached spectrum answers for it
    want = (
        "the least eigenvalue of the circulant embedding must be >= -1e-8 times the largest"
        " = -2.8e-08, got -0.8"
    )
    with pytest.raises(SamplingInfeasibleError, match=re.escape(want)):
        fbm_path(GaussianPathSpec(hurst=0.45, n=16, seed=1))


# --------------------------------------------------------------------------- #
# API fuzz: one scalar argument at a time takes each edge value
# --------------------------------------------------------------------------- #


def _report(*fields):
    """The named numbers (or tuples of them) of a report, as one array."""
    return lambda report: np.concatenate([np.ravel(getattr(report, name)) for name in fields])


_ITO = _report("value_change", "compensated", "kernel_sum", "time_integral")
# a stage's upper_bound is inf by design at k_n = 1, and a Taylor report's
# slope inf (a pure power) or NaN (too few points); the other numbers count
_STAGE = _report(
    "total_variation", "compensated", "compensated_formula", "kernel_sum", "identity_residual"
)
_BUMP = _report("compensated", "kernel_sum", "mass", "kernel_from_atoms", "kernel_from_limit")
_MOMENTS = _report("per_seed", "empirical_mean", "expected")
_ISOMETRY = _report("lhs", "rhs", "ratios")
_FUNCTIONAL = FunctionalBundle(evaluate=lambda pre: pre.integral() * pre.current)
_SIN = sin_affine()

# entry -> (call taking the scalars as keywords, valid base scalars); each
# call returns the numbers its result holds. FracOrder's one argument is
# called "order", the name its refusals use.
FUZZ = {
    "GaussianPathSpec": (
        lambda **kw: fbm_path(GaussianPathSpec(**kw)).values,
        {"hurst": 0.4, "n": 8, "horizon": 1.0, "seed": 3},
    ),
    "cantor_distance_path": (
        lambda **kw: cantor_distance_path(**kw)(np.linspace(0.0, 1.0, 7)),
        {"p": 2.5, "depth": 8},
    ),
    "cantor_bump_path": (
        lambda **kw: cantor_bump_path(**kw)(np.linspace(0.0, 1.0, 7)),
        {"p": 2.5, "depth": 6},
    ),
    "cantor_bump_knots": (lambda **kw: cantor_bump_knots(**kw).values, {"p": 2.5, "depth": 4}),
    "takagi_path": (
        lambda **kw: takagi_path(wave="sinusoid", **kw)(np.linspace(0.0, 1.0, 7)),
        {"b": 2, "alpha": 0.5, "depth": 8, "nu": 1.0, "rho": 0.5},
    ),
    "cantor_gap_lefts": (cantor_gap_lefts, {"level": 3}),
    "bump_count": (bump_count, {"p": 2.5, "level": 3}),
    "badic": (lambda **kw: badic(**kw).times, {"horizon": 1.0, "n": 3, "base": 2}),
    "value_grid_partition": (
        lambda **kw: value_grid_partition(PATH, **kw).times,
        {"delta": 0.1},
    ),
    "cantor_blocks": (lambda **kw: cantor_blocks(**kw)[0], {"p": 2.5, "n": 3}),
    "pth_variation_partial": (
        lambda **kw: pth_variation_partial(PATH, PART, **kw),
        {"p": 2.5, "t": 0.5},
    ),
    "phi_variation_partial": (
        lambda **kw: phi_variation_partial(PATH, PART, np.square, **kw),
        {"t": 0.5},
    ),
    "FracOrder": (lambda order: FracOrder(order).alpha, {"order": 0.5}),
    "rl_integral": (
        lambda **kw: rl_integral(_SIN, **kw),
        {"alpha": 0.5, "a": 0.0, "x": 1.0, "rtol": 1e-9},
    ),
    "caputo": (lambda **kw: caputo(_SIN, FracOrder(0.5), **kw), {"a": 0.0, "x": 1.0, "rtol": 1e-9}),
    "power_rule": (
        lambda **kw: power_rule(order=FracOrder(0.7), **kw),
        {"q": 3.2, "k": 0.0, "x": 0.5},
    ),
    "caputo_power": (
        lambda **kw: caputo_power(order=FracOrder(0.7), kind="abs", **kw),
        {"q": 3.2, "a": -0.5, "k": 0.0, "x": 0.5, "rtol": 1e-9},
    ),
    "local_frac_derivative": (
        lambda **kw: local_frac_derivative(np.sin, **kw),
        {"alpha": 0.5, "at": 0.3, "side": 1},
    ),
    "frac_taylor_check": (
        lambda **kw: _report("coeff", "max_resid")(frac_taylor_check(_SIN, FracOrder(1.5), **kw)),
        {"a": 0.3},
    ),
    "remainder_kernel": (
        lambda **kw: remainder_kernel(abs_power(2.5), method="taylor", **kw),
        {"p": 2.5, "a": 0.2, "b": 0.7},
    ),
    "kernel_profile": (
        lambda **kw: kernel_profile(abs_power(2.5), thetas=[0.3, 1.0], **kw),
        {"p": 2.5},
    ),
    "ito_check": (lambda **kw: _ITO(ito_check(_SIN, PATH, PART, **kw)), {"p": 2.5, "t": 0.5}),
    "ito_check_time": (
        lambda **kw: _ITO(ito_check_time(moving_abs_power(2.5), PATH, PART, **kw)),
        {"p": 2.5, "t": 0.5},
    ),
    "ito_check_multi": (
        lambda **kw: _ITO(ito_check_multi(product_bundle(), [PATH, PATH], PART, **kw)),
        {"p": 2.5, "t": 0.5},
    ),
    "ito_check_functional": (
        lambda **kw: _ITO(ito_check_functional(_FUNCTIONAL, PATH, PART, **kw)),
        {"p": 2.5, "fd_step": 0.01},
    ),
    "PrefixFamily.prefix": (
        lambda **kw: PrefixFamily(PATH, PART).prefix(**kw).integral(),
        {"j": 1, "extend_to": 0.5},
    ),
    "young_bound_check": (
        lambda alphas: _report("lhs", "rhs")(young_bound_check([PATH], [alphas], [PART])),
        {"alphas": 2.0},
    ),
    "PhiSpec": (
        lambda **kw: PhiSpec(kind="log-modulated", **kw)(0.1),
        {"p_phi": 2.0, "log_power": 0.5},
    ),
    "phi_hat_numeric": (lambda a: phi_hat_numeric(PhiSpec(), a), {"a": 2.0}),
    "admissibility_threshold": (admissibility_threshold, {"p_phi": 2.0}),
    "isometry_check": (
        lambda **kw: _ISOMETRY(isometry_check(PhiSpec(), _SIN, PATH, [PART], **kw)),
        {"holder_alpha": 0.9},
    ),
    "phi_inverse": (lambda y: phi_inverse(PhiSpec(), y), {"y": 0.3}),
    "abs_power": (lambda **kw: abs_power(**kw).derivs[2](0.3), {"q": 2.5, "k": 0.0}),
    "plus_power": (lambda **kw: plus_power(**kw).derivs[2](0.3), {"q": 2.5, "k": 0.0}),
    "sin_affine": (
        lambda **kw: sin_affine(**kw).derivs[2](0.3),
        {"amp": 1.0, "freq": 1.0, "shift": 0.0},
    ),
    # at x = 0, where e^(rate x) = 1 for every rate: what varies is the factor rate^3
    "exp_fn": (lambda **kw: exp_fn(**kw).derivs[2](0.0), {"rate": 1.0}),
    "moving_abs_power": (
        lambda **kw: moving_abs_power(**kw).dt(0.5, 0.3),
        {"q": 2.5, "speed": 1.0},
    ),
    "cantor_stage": (
        lambda **kw: _STAGE(cantor_stage(**kw)),
        {"p": 2.5, "n": 3},
    ),
    "cantor_profile": (lambda **kw: cantor_profile(ts=[0.5], **kw), {"p": 2.5, "n": 3}),
    "cantor_compensated_formula": (cantor_compensated_formula, {"p": 2.5, "n": 3, "k_n": 2}),
    "bump_decomposition": (
        lambda **kw: _BUMP(bump_decomposition(**kw)),
        {"p": 2.5, "n": 3},
    ),
    "bump_limit_value": (bump_limit_value, {"p": 2.5}),
    "gaussian_abs_moment": (gaussian_abs_moment, {"q": 3.0}),
    "fbm_variation_experiment": (
        lambda **kw: _MOMENTS(fbm_variation_experiment(seeds=[1], **kw)),
        {"hurst": 0.4, "n": 8, "horizon": 1.0},
    ),
}

CASES = [
    (entry, name, edge) for entry in sorted(FUZZ) for name in FUZZ[entry][1] for edge in EDGE_VALUES
]


# the space is finite: hypothesis stops once it has run every case
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=2 * len(CASES), deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CASES))
def test_edge_scalars_give_finite_numbers_or_a_refusal_naming_them(case):
    entry, name, edge = case
    call, base = FUZZ[entry]
    try:
        result = call(**{**base, name: edge})
    except FracpathError as exc:
        assert re.search(rf"\b{name}\b", str(exc)), f"{entry}({name}={edge!r}): {exc}"
    else:
        numbers = np.asarray(result, dtype=float)
        assert np.all(np.isfinite(numbers)), f"{entry}({name}={edge!r}) returned {result!r}"


# --------------------------------------------------------------------------- #
# value fuzz: seeded path values scaled toward both ends of float64
# --------------------------------------------------------------------------- #

_STAGE = badic(1.0, 6)
_SEEDED = tuple(
    fbm_path(GaussianPathSpec(hurst=h, n=64, seed=s)) for h, s in ((0.4, 3), (0.7, 5), (0.25, 8))
)
_FNS = {
    "sin": _SIN, "abs-power": abs_power(2.5), "exp": exp_fn(), "poly": polynomial([0, 0, 0, 1e100])
}
# the identity's numbers and the p-th variation
_ITO_P = _report("value_change", "compensated", "kernel_sum", "variation", "time_integral")
_LOG_GAUGE = PhiSpec(kind="log-modulated", log_power=0.5)


def _increments(path):
    return np.abs(np.diff(partition_values(path, _STAGE)[1]))


# entry -> (call on a path, a second path and a function, whether it takes the function)
VALUE_FUZZ = {
    "ito_check": (lambda s, o, f: _ITO_P(ito_check(f, s, _STAGE, 2.5)), True),
    "ito_check_time": (
        lambda s, o, f: _ITO_P(ito_check_time(moving_abs_power(2.5), s, _STAGE, 2.5)), False
    ),
    "ito_check_multi": (
        lambda s, o, f: _ITO_P(ito_check_multi(product_bundle(), [s, o], _STAGE, 2.5)), False
    ),
    "ito_check_functional": (
        lambda s, o, f: _ITO_P(ito_check_functional(_FUNCTIONAL, s, _STAGE, 2.5)), False
    ),
    "pth_variation_partial": (lambda s, o, f: pth_variation_partial(s, _STAGE, 2.5), False),
    "phi_variation_partial": (lambda s, o, f: phi_variation_partial(s, _STAGE, _LOG_GAUGE), False),
    "young_bound_check": (
        lambda s, o, f: _report("lhs", "rhs")(young_bound_check([s, o], [1.25, 1.25], [_STAGE])),
        False,
    ),
    "isometry_check": (
        lambda s, o, f: _ISOMETRY(isometry_check(PhiSpec(p_phi=2.5), f, s, [_STAGE], 0.9)), True
    ),
    "generalized_minkowski_check": (
        lambda s, o, f: _report("lhs", "rhs")(
            generalized_minkowski_check(PhiSpec(p_phi=2.5), _increments(s), _increments(o))
        ),
        False,
    ),
    "remainder_kernel": (
        lambda s, o, f: remainder_kernel(f, 2.5, s.values[:-1], s.values[1:], method="taylor"), True
    ),
    "osc": (lambda s, o, f: osc(s, _STAGE), False),
    "holder_exponent": (lambda s, o, f: holder_exponent(s), False),
    "value_grid_partition": (lambda s, o, f: value_grid_partition(s, 0.1).times, False),
}
SCALES = (1e-300, 1.0, 1e50, 1e100, 1e150, 1e200, 1e300)
VALUE_CASES = [
    (entry, k, scale, fn)
    for entry in sorted(VALUE_FUZZ)
    for k in range(len(_SEEDED))
    for scale in SCALES
    for fn in (sorted(_FNS) if VALUE_FUZZ[entry][1] else [None])
]
# "<term> must <rule>, got <value>", or the two phi-sums that underflow to 0
_NAMES_THE_TERM = re.compile(r".+ must .+, got .+|both phi-sums .+")


# the space is finite: hypothesis stops once it has run every case
@settings(max_examples=2 * len(VALUE_CASES), deadline=None, derandomize=True, database=None)
@given(st.sampled_from(VALUE_CASES))
def test_scaled_path_values_give_finite_numbers_or_a_refusal_naming_the_term(case):
    entry, k, scale, fn = case
    path, other = (SampledPath(q.times, scale * q.values) for q in (_SEEDED[k], _SEEDED[k - 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = VALUE_FUZZ[entry][0](path, other, _FNS.get(fn))
        except FracpathError as exc:
            assert _NAMES_THE_TERM.fullmatch(str(exc)), f"{case}: {exc}"
        else:
            numbers = np.asarray(result, dtype=float)
            assert np.all(np.isfinite(numbers)), f"{case} returned {result!r}"


# --------------------------------------------------------------------------- #
# choice fuzz: every enumerated argument, from the library and from a config
# --------------------------------------------------------------------------- #


def _run_config(out, invoked, **cfg):
    """``cfg`` run in-process as ``cli.main`` runs a config file: as the command
    ``invoked``, or as the one it declares when that is None (reproduce-all)."""
    path = out / "choice.json"
    path.write_text(json.dumps({"command": invoked, **cfg} if invoked else cfg))
    return cli._execute(invoked, path, out)


_CAPUTO_CFG = {"fn": {"name": "plus-power", "q": 3.2}, "p": 0.7, "xs": [0.5]}
_REMAINDER_CFG = {"fn": {"name": "abs-power", "q": 2.25}, "p": 2.25}
_FBM_CFG = {"kind": "fbm", "hurst": 0.8, "n": 16, "seed": 9}
_BADIC_CFG = {"kind": "badic", "levels": [2, 3]}

# site -> (call taking the value and a scratch directory, the error it raises, the
# argument's name, its options)
CHOICES = {
    "remainder_kernel-method": (
        lambda v, _: remainder_kernel(abs_power(2.5), 2.5, 0.2, 0.7, method=v),
        InvalidParameterError, "method", ("taylor", "integral"),
    ),
    "kernel_profile-method": (
        lambda v, _: kernel_profile(abs_power(2.5), 2.5, [0.3], method=v),
        InvalidParameterError, "method", ("taylor", "integral"),
    ),
    "value_grid_partition-mode": (
        lambda v, _: value_grid_partition(PATH, 0.1, v),
        InvalidParameterError, "mode", ("increment", "grid"),
    ),
    "cantor_blocks-rounding": (
        lambda v, _: cantor_blocks(2.5, 3, v), InvalidParameterError, "rounding", ("floor", "nearest"),
    ),
    "takagi_path-wave": (
        lambda v, _: takagi_path(wave=v), InvalidParameterError, "wave", ("triangle", "sinusoid"),
    ),
    "caputo_power-kind": (
        lambda v, _: caputo_power(3.2, FracOrder(0.7), -0.5, 0.0, 0.5, kind=v),
        InvalidParameterError, "kind", ("plus", "abs"),
    ),
    "local_frac_derivative-side": (
        lambda v, _: local_frac_derivative(np.sin, 0.5, 0.3, v), InvalidParameterError, "side", (1, -1),
    ),
    "PhiSpec-kind": (
        lambda v, _: PhiSpec(kind=v), InvalidPhiError, "kind", ("power", "log-modulated", "custom"),
    ),
    "make_fn-name": (
        lambda v, _: make_fn({"name": v}), InvalidConfigError, "name", tuple(FN_REGISTRY),
    ),
    "make_time_fn-name": (
        lambda v, _: make_time_fn({"name": v}), InvalidConfigError, "name", tuple(TIME_FN_REGISTRY),
    ),
    "make_path-kind": (
        lambda v, _: make_path({"kind": v}), InvalidConfigError, "kind",
        ("cantor-distance", "cantor-bump", "cantor-bump-knots", "takagi", "fbm"),
    ),
    "config-expect": (
        lambda v, out: _run_config(out, "cantor-sweep", p=2.5, ns=[2], expect=v, tol=0.1),
        InvalidConfigError, "expect", ("any", "converged"),
    ),
    "config-partition-kind": (
        lambda v, out: _run_config(out, "variation", p=2.5, partition={"kind": v, "ns": [2]}),
        InvalidConfigError, "kind", ("cantor-crossing", "badic", "value-grid"),
    ),
    "config-op": (
        lambda v, out: _run_config(out, "frac-deriv", op=v, **_CAPUTO_CFG),
        InvalidConfigError, "op", ("rl", "caputo", "local"),
    ),
    "config-reference-kind": (
        lambda v, out: _run_config(out, 
            "frac-deriv", op="caputo", reference={"kind": v, "q": 3.2}, **_CAPUTO_CFG
        ),
        InvalidConfigError, "kind", ("power-rule",),
    ),
    "config-remainder-method": (
        lambda v, out: _run_config(
            out, "remainder", method=v, pairs=[[0.2, 0.7]], **_REMAINDER_CFG
        ),
        InvalidConfigError, "method", ("taylor", "integral", "both"),
    ),
    "config-command": (
        lambda v, out: _run_config(out, None, command=v, p=2.5),
        InvalidConfigError, "command", tuple(cli._RUNNERS),
    ),
    "config-fn-name": (
        lambda v, out: _run_config(out, "remainder", fn={"name": v}, p=2.5, pairs=[[0.2, 0.7]]),
        InvalidConfigError, "name", tuple(FN_REGISTRY),
    ),
    "config-path-kind": (
        lambda v, out: _run_config(out, "variation", p=2.5, path={"kind": v}, partition=_BADIC_CFG),
        InvalidConfigError, "kind",
        ("cantor-distance", "cantor-bump", "cantor-bump-knots", "takagi", "fbm"),
    ),
    "config-phi-kind": (
        lambda v, out: _run_config(out, 
            "isometry", path=_FBM_CFG, partition=_BADIC_CFG, fn={"name": "sin"}, phi={"kind": v}
        ),
        InvalidPhiError, "kind", ("power", "log-modulated", "custom"),
    ),
}
# a required key at None or [] reads as missing, and is refused as that; a null at a
# key of an object the config reader fills is refused as a null
_REQUIRED_CHOICES = {"config-op", "config-partition-kind", "config-reference-kind"}
_FILLED_CHOICES = {"config-expect", "config-remainder-method", *_REQUIRED_CHOICES}


def _wrong_values(site):
    options = CHOICES[site][3]
    words = [o for o in options if isinstance(o, str)]
    wrong = ["", 0, {}, True, 1.0] + [o.upper() for o in words] + [f"{o} " for o in words]
    if not site.startswith("config-"):  # an option of the wrong kind: == alone passes it
        wrong += [np.array(options[:1]), np.array((options * 2)[:2])]
    return wrong + [None] * (site not in _FILLED_CHOICES) + [[]] * (site not in _REQUIRED_CHOICES)


CHOICE_CASES = [(site, value) for site in sorted(CHOICES) for value in _wrong_values(site)]


@settings(max_examples=2 * len(CHOICE_CASES), deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CHOICE_CASES))
def test_a_wrong_choice_is_refused_naming_the_argument_every_option_and_the_value(
    tmp_path_factory, case
):
    site, value = case
    call, error, name, options = CHOICES[site]
    with pytest.raises(error) as refused:
        call(value, tmp_path_factory.mktemp("choice"))
    message = str(refused.value)
    assert re.search(rf"\b{name}\b", message), message
    assert all(repr(option) in message for option in options), message
    assert message.endswith(f", got {value!r}"), message
