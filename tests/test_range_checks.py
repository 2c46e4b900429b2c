"""Library range checks refuse bad scalars by name: a check written as
``p <= 0`` lets NaN through, so each is written so that NaN fails it; and
the API fuzz property feeds every scalar argument of the public entry
points each edge value, expecting a finite result or a refusal that names
the argument; and the choice fuzz gives every enumerated argument, of a
library call or in a config, wrong values, expecting a refusal that names
the argument, every option and the value."""

import json
import math
import re

import numpy as np
import pytest
from conftest import EDGE_VALUES
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpath import cli
from fracpath.errors import FracpathError, InvalidConfigError, InvalidParameterError, InvalidPhiError
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
    isometry_check,
    phi_hat_numeric,
    phi_inverse,
)
from fracpath.partitions import Partition, badic, cantor_blocks, value_grid_partition
from fracpath.paths import (
    GaussianPathSpec,
    SampledPath,
    bump_count,
    cantor_bump_knots,
    cantor_bump_path,
    cantor_distance_path,
    cantor_gap_lefts,
    fbm_path,
    takagi_path,
)
from fracpath.registry import (
    FN_REGISTRY,
    TIME_FN_REGISTRY,
    abs_power,
    exp_fn,
    make_fn,
    make_path,
    make_time_fn,
    moving_abs_power,
    plus_power,
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
    were a plain comparison, as zero-argument calls with the error and
    message each must raise."""
    part = Partition(path.times)
    need_a_x = (InvalidParameterError, "need finite a <= x, got a=")
    return {
        "pth_variation_partial-p": (
            lambda: pth_variation_partial(path, part, NAN),
            InvalidParameterError,
            "p must be positive and finite, got nan",
        ),
        "young_bound_check-alphas": (
            lambda: young_bound_check([path], [NAN], [part]),
            InvalidParameterError,
            "alphas must be positive and finite, got (nan,)",
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
        "rl_integral-x": (lambda: rl_integral(np.sin, 0.5, 0.0, NAN), *need_a_x),
        "rl_integral-a": (lambda: rl_integral(np.sin, 0.5, NAN, 1.0), *need_a_x),
        "caputo-x": (lambda: caputo(np.sin, FracOrder(0.5), 0.0, NAN), *need_a_x),
        "caputo-a": (lambda: caputo(np.sin, FracOrder(0.5), NAN, 1.0), *need_a_x),
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
            "kernel at (a, b) = (nan, 0.7) is not a finite number: a and b must be finite",
        ),
        "cantor_function-ts-nan": (
            lambda: cantor_function(np.array([0.5, NAN])),
            InvalidParameterError,
            "ts must not be NaN, got nan at index 1",
        ),
    }


ENTRIES = _range_checked_entries(PATH)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_finite_parameter_is_refused_by_name(entry):
    call, error, message = ENTRIES[entry]
    with pytest.raises(error, match=re.escape(message)):
        call()


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
# choice fuzz: every enumerated argument, from the library and from a config
# --------------------------------------------------------------------------- #


def _run_config(out, invoked, **cfg):
    """``cfg`` run in-process as ``cli.main`` runs a config file: as the command
    ``invoked``, or as the one it declares when that is None (reproduce-all)."""
    path = out / "choice.json"
    path.write_text(json.dumps({"command": invoked, **cfg} if invoked else cfg))
    return cli._execute(invoked, path, out)


_CAPUTO_CFG = {"fn": {"name": "plus-power", "q": 3.2}, "p": 0.7, "xs": [0.5]}
_ATOMS_CFG = {"fn": {"name": "abs-power", "q": 2.25}, "p": 2.25}
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
    "config-atoms-kind": (
        lambda v, out: _run_config(out, "remainder", atoms={"kind": v, "n": 3}, **_ATOMS_CFG),
        InvalidConfigError, "kind", ("cantor-bump",),
    ),
    "config-remainder-method": (
        lambda v, out: _run_config(out, "remainder", method=v, pairs=[[0.2, 0.7]], **_ATOMS_CFG),
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
# a required key at None or [] reads as missing, and is refused as that
_REQUIRED_CHOICES = {"config-op", "config-reference-kind"}


def _wrong_values(site):
    options = CHOICES[site][3]
    words = [o for o in options if isinstance(o, str)]
    wrong = ["", 0, {}] + [o.upper() for o in words] + [f"{o} " for o in words]
    return wrong + ([] if site in _REQUIRED_CHOICES else [None, []])


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
