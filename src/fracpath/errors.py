"""Exception types shared across the library, and its one range check: every public
entry point passes each scalar argument through ``real`` before any numpy work, so a
value outside its domain, or no finite float64 number at all (a bool, NaN, +-inf, an
int float64 cannot hold), raises a ``FracpathError`` naming the argument and the value.
The command line reads every config number through ``real`` too, so a JSON string
where a number belongs is refused by the same rule. Checks relating several
arguments (``a <= k < x``, the knot caps) stay where they apply."""

from __future__ import annotations

import numbers
import sys

__all__ = [
    "FracpathError",
    "InvalidParameterError",
    "InvalidConfigError",
    "SamplingInfeasibleError",
    "InsufficientDerivativesError",
    "InvalidBundleError",
    "InvalidPhiError",
    "NoLimitError",
    "QuadratureError",
    "KernelSingularError",
    "AdmissibilityError",
    "real",
]


class FracpathError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(FracpathError, ValueError):
    """A parameter is outside the documented domain."""


class InvalidConfigError(FracpathError, ValueError):
    """An experiment configuration failed validation."""


class SamplingInfeasibleError(FracpathError, RuntimeError):
    """A Gaussian path cannot be sampled with the available factorizations."""


class InsufficientDerivativesError(FracpathError, ValueError):
    """An operation needs more derivatives than the bundle provides."""


class InvalidBundleError(FracpathError, ValueError):
    """A derivative bundle is inconsistent (e.g. asymmetric tensors)."""


class InvalidPhiError(FracpathError, ValueError):
    """A phi evaluator violated its contract (e.g. negative values)."""


class NoLimitError(FracpathError, RuntimeError):
    """A numeric limit did not stabilize; refusing to guess."""


class QuadratureError(FracpathError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class KernelSingularError(FracpathError, RuntimeError):
    """The remainder kernel has no finite diagonal limit at this point."""


class AdmissibilityError(FracpathError, RuntimeError):
    """A regularity gate for an identity check is not satisfied."""


def real(name, value, *, lo=None, hi=None, open=True, integer=None, error=InvalidParameterError):
    """``value`` (an int if it is one or ``integer``) once it is a finite float64
    number in (lo, hi), [lo, hi] unless ``open``, an integer if ``integer`` and not
    one if it is False. Else ``error`` names it and the rule it broke: "lie in (lo,
    hi)"; for a real with lo = 0 alone "be positive and finite" ("be finite and
    nonnegative"); "exceed lo" ("be >= lo") below lo; else "be finite"."""
    common = type(value) in (float, int)  # spared the numbers ABCs, a microsecond each
    if not common and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise error(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    integral = type(value) is int or not common and isinstance(value, numbers.Integral)
    if integer and not integral and not float(value).is_integer():
        raise error(f"{name} must be an integer, got {float(value)!r}")
    num = int(value) if integral or integer else float(value)
    above = lo is None or (num > lo if open else num >= lo)
    below = hi is None or (num < hi if open else num <= hi)
    kind_ok = integer is not False or not (integral or num.is_integer())
    if abs(num) <= sys.float_info.max and above and below and kind_ok:  # NaN fails all
        return num
    if hi is not None:
        rule = f"lie in {'(' if open else '['}{lo}, {hi}{')' if open else ']'}"
    elif lo == 0 and not integer:
        rule = "be positive and finite" if open else "be finite and nonnegative"
    elif not above:
        rule = f"exceed {lo}" if open else f"be >= {lo}"
    else:
        rule = "be finite"
    if integer is False:  # "be positive, finite and non-integer"
        rule = rule.replace(" and ", ", ") + " and non-integer"
    raise error(f"{name} must {rule}, got {num!r}")
