"""Functions with supplied derivatives, and the limit rule of ratio ladders.

Both are shared by the operators (``fracops``), the change-of-variable
checks (``follmer``), the gauges (``isometry``) and the constructors
(``registry``); this module imports nothing beyond numpy and ``errors``, so
a command that never integrates loads no quadrature code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientDerivativesError, InvalidParameterError, NoLimitError

__all__ = ["SmoothFn", "ratio_limit"]


@dataclass(frozen=True)
class SmoothFn:
    """A scalar function with explicitly supplied derivatives.

    ``derivs[k]`` is the (k+1)-th derivative. ``kinks`` holds (loc, q) pairs:
    near loc the function is c * |x - loc|**q plus something smoother.
    Integral operators break there and grade the neighbouring piece ends by
    a substitution of strength q + 1 if q < 0, else 1/4
    (``_quad.integrate_kinked``). Declare every kink: an undeclared one
    raises QuadratureError.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    derivs: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()
    kinks: tuple[tuple[float, float], ...] = ()
    name: str = ""

    def derivative(self, j: int) -> SmoothFn:
        """f^(j) with the supplied derivatives above it; the j-th derivative
        of a kink of exponent q has exponent q - j."""
        if j < 0:
            raise InvalidParameterError("derivative order must be >= 0")
        if j == 0:
            return self
        if j > len(self.derivs):
            raise InsufficientDerivativesError(
                f"the order-{j} derivative is not supplied ({len(self.derivs)} given)"
            )
        return SmoothFn(
            fn=self.derivs[j - 1],
            derivs=self.derivs[j:],
            kinks=tuple((loc, q - j) for loc, q in self.kinks),
        )


def ratio_limit(ratios: np.ndarray, what: str) -> float:
    """Limit of ratio estimates r_j computed at h_j = 2**-j: the tail mean
    when the last three agree to 20%, exactly 0.0 when the sequence decays
    geometrically, else NoLimitError with the message ``what``."""
    r = np.asarray(ratios, dtype=float)
    tail = r[-3:]
    med = float(np.median(tail))
    spread = float(np.max(tail) - np.min(tail))
    if spread <= 0.2 * abs(med):
        return float(np.mean(tail))
    y = np.maximum(np.abs(r), 1e-300)
    nonincreasing = bool(np.all(y[1:] <= y[:-1] * 1.05))
    total_drop = math.log2(y[0] / y[-1]) / (y.size - 1) if y.size > 1 else 0.0
    if nonincreasing and total_drop >= 0.1:
        return 0.0
    raise NoLimitError(what)
