"""Variation along partition sequences, pathwise change-of-variable checks
and fractional-order operators for rough deterministic and Gaussian paths.

``import fracpath`` loads no submodule: each public name is looked up in
its module on access (PEP 562), so a process pays only for the modules it
uses. The lookup runs on every access and nothing is cached here, so a name
rebound in its module (a profiler's wrapper, say) is seen as rebound.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "AdmissibilityError",
            "FracpathError",
            "InsufficientDerivativesError",
            "InvalidBundleError",
            "InvalidConfigError",
            "InvalidParameterError",
            "InvalidPhiError",
            "KernelSingularError",
            "NoLimitError",
            "QuadratureError",
            "SamplingInfeasibleError",
        ),
        "follmer": (
            "FunctionalBundle",
            "ItoReport",
            "PathPrefix",
            "PrefixFamily",
            "TensorFunctionBundle",
            "TimeFunctionBundle",
            "YoungReport",
            "circle_points",
            "ito_check",
            "ito_check_functional",
            "ito_check_multi",
            "ito_check_time",
            "kernel_profile",
            "remainder_kernel",
            "young_bound_check",
        ),
        "fracops": (
            "FracOrder",
            "FracTaylorReport",
            "caputo",
            "caputo_power",
            "frac_taylor_check",
            "local_frac_derivative",
            "power_rule",
            "rl_integral",
        ),
        "isometry": (
            "IsometryReport",
            "MinkowskiReport",
            "PhiSpec",
            "admissibility_threshold",
            "generalized_minkowski_check",
            "holder_exponent",
            "isometry_check",
            "phi_hat",
            "phi_inverse",
        ),
        "partitions": ("Partition", "badic", "osc", "value_grid_partition"),
        "paths": (
            "AnalyticPath",
            "GaussianPathSpec",
            "SampledPath",
            "bump_count",
            "cantor_bump_knots",
            "cantor_bump_path",
            "cantor_distance_path",
            "cantor_gap_lefts",
            "fbm_path",
            "sample",
            "takagi_path",
        ),
        "smooth": ("SmoothFn",),
        "variation": (
            "cantor_function",
            "phi_variation_partial",
            "pth_variation_partial",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
