"""Fixed-order Gauss-Legendre panels with doubling until relative stabilization.

All weakly singular or kinked integrals in this package are first split at
their singular points and transformed so the integrand is bounded and smooth
enough for the panels (power substitutions anchored at a singular point on or
beyond a piece end, :func:`integrate_piece`), then fed to :func:`gl_adaptive`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["gl_adaptive", "integrate_piece", "power_substitution"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def gl_adaptive(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rtol: float = 1e-9,
    max_doublings: int = 14,
) -> float:
    """Integrate ``g`` on [lo, hi] with 32-point panels, doubling the panel
    count until successive values agree to ``rtol`` (relative).

    ``g`` must accept ndarray input. Raises QuadratureError if the doubling
    cap is hit without stabilizing.
    """
    if hi == lo:
        return 0.0
    prev = None
    panels = 1
    for _ in range(max_doublings + 1):
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        pts = mid[:, None] + half * _NODES[None, :]
        val = half * float(np.sum(_WEIGHTS[None, :] * g(pts)))
        if prev is not None:
            if abs(val - prev) <= rtol * max(abs(val), 1e-300) + 1e-15 * rtol:
                return val
        prev = val
        panels *= 2
    raise QuadratureError(
        f"Gauss-Legendre panels did not stabilize to rtol={rtol:g} "
        f"after {panels // 2} panels on [{lo:g}, {hi:g}]"
    )


def power_substitution(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, beta: float, at: float
) -> tuple[Callable[[np.ndarray], np.ndarray], float, float]:
    """Transform ``\\int_lo^hi f(t) dt`` where ``f ~ |t - at|**(beta - 1)``
    near a point ``at <= lo`` or ``at >= hi`` (0 < beta <= 1 integrable, beta
    may exceed 1 for mere kinks; beta < 1 also grades the panels toward ``at``).

    Substitutes ``u = |t - at|**beta`` so the image integrand is bounded.
    Returns (g, u0, u1) with ``\\int_u0^u1 g du`` equal to the original.
    """
    inv = 1.0 / beta
    side, near, far = (1.0, lo, hi) if at <= lo else (-1.0, hi, lo)

    def g(u: np.ndarray) -> np.ndarray:
        u = np.maximum(u, 1e-300)
        return f(at + side * u**inv) * (inv * u ** (inv - 1.0))

    return g, abs(near - at) ** beta, abs(far - at) ** beta


def integrate_piece(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rtol: float,
    left: tuple[float, float] | None = None,
    right: tuple[float, float] | None = None,
) -> float:
    """Integrate g over [lo, hi]. ``left`` / ``right`` = (beta, at) mark
    g ~ |t - at|**(beta - 1) at a point ``at`` on or beyond that end, handled
    by :func:`power_substitution`; None means the end is regular."""
    if hi <= lo:
        return 0.0
    if left is not None and right is not None:
        mid = 0.5 * (lo + hi)
        return integrate_piece(g, lo, mid, rtol, left=left) + integrate_piece(
            g, mid, hi, rtol, right=right
        )
    mark = left or right
    if mark is not None:
        g, lo, hi = power_substitution(g, lo, hi, *mark)
    return gl_adaptive(g, lo, hi, rtol=rtol)
