"""Exception types shared across the library and its four argument rules, each of
which raises a ``FracpathError`` naming the argument, the rule and the value. Every
public entry point passes each scalar argument through ``real`` before any numpy work,
so a value outside its domain, or no finite float64 number at all (a bool, NaN, +-inf,
an int float64 cannot hold), is refused. Every enumerated argument (a method, mode,
kind or side) passes through ``choice``, which names every option too. A size limit
(the ``MAX_KNOTS`` knot cap, a float64 depth) is the ``hi`` of a ``real`` range, on the
argument or on the count it implies. Every array, given or formed from one by a gauge or
a power, passes ``entries`` with a mask of the entries that keep a rule, which names
the first index that breaks it (``values at index 2 must be finite, got nan``).
``time_grid`` is the one check of a time grid. A relation between arguments (``a <= k <
x``) is a ``real`` range on the later one, named by both (``x past k must exceed 0.5, got
0.5``). The command line reads config numbers and options through ``real`` and ``choice``
too."""

from __future__ import annotations

import numbers
import sys

import numpy as np

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
    "choice",
    "entries",
    "time_grid",
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
    # a numpy bound would turn an int past float64 into a float, and overflow
    lo = lo.item() if isinstance(lo, np.generic) else lo
    hi = hi.item() if isinstance(hi, np.generic) else hi
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


def choice(name, value, options, *, error=InvalidParameterError):
    """``value`` once it equals one of ``options``, of its kind: a str option takes a
    str, an int option an integral number that is not a bool (never 1.0, True or an
    array). Membership is tested against the sequence, not a hash, so an unhashable
    value (a config's [] or {}) is refused like any other. Else ``error`` says "{name}
    must be one of 'a', 'b', got {value!r}"."""
    options = tuple(options)
    kind = type(value)  # str and int spared the numbers ABC, a microsecond each
    if kind in (str, int) or kind is not bool and isinstance(value, (str, numbers.Integral)):
        if value in options:
            return value
    raise error(f"{name} must be one of {', '.join(map(repr, options))}, got {value!r}")


def entries(name, values, ok, rule, *, error=InvalidParameterError):
    """``values`` once the boolean mask ``ok`` holds everywhere. Else ``error`` says
    "{name} at index {i} must {rule}, got {value!r}" of the first entry that fails, ``i``
    a tuple past one dimension and left out for a 0-d mask. ``values`` is an array or a
    list read at ``i``, or a tuple of them read together; a callable ``rule`` is given
    ``i``. The message is formed on failure alone."""
    if ok.all():
        return values
    at = np.unravel_index(ok.argmin(), ok.shape)
    i = int(at[0]) if len(at) == 1 else tuple(map(int, at))
    read = values if type(values) is tuple else (values,)
    got = tuple(v[i].item() if isinstance(v[i], np.generic) else v[i] for v in read)
    where, rule = f" at index {i}" if at else "", rule(i) if callable(rule) else rule
    raise error(f"{name}{where} must {rule}, got {got if len(read) > 1 else got[0]!r}")


def time_grid(name, times) -> np.ndarray:
    """``times`` as a contiguous float64 array once it is a time grid: 1-d, two
    points or more, finite, starting at 0 and strictly increasing. Else an
    InvalidParameterError names it, the rule and the first index that breaks it."""
    times = np.ascontiguousarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise InvalidParameterError(f"{name} must be 1-d, 2 or more long, got shape {times.shape}")
    entries(name, times, np.isfinite(times), "be finite")
    if times[0] != 0.0:
        raise InvalidParameterError(f"{name} must start at 0, got {times[0]}")
    rising = np.ones(times.size, dtype=bool)
    np.greater(times[1:], times[:-1], out=rising[1:])
    entries(name, times, rising, lambda i: f"exceed the previous time {float(times[i - 1])!r}")
    return times
