"""Fixed-order Gauss-Legendre panels with doubling until relative stabilization,
and the one rule for integrands with declared algebraic kinks.

A kink is a (point, s) pair: near ``point`` the integrand behaves like
c * |t - point|**s (s > -1) plus something smoother. :func:`integrate_kinked`
breaks at the points inside the interval and grades each piece end toward the
nearest point on it or within one piece length beyond it, by
u = |t - point|**beta with beta = s + 1 for s < 0 (the image is bounded) and
beta = 1/4 otherwise (c + |t - point|**s becomes smooth enough for the panels).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, QuadratureError

__all__ = ["gauss_legendre", "gl_adaptive", "integrate_kinked"]

_MAX_DOUBLINGS = 14

Integrand = Callable[[np.ndarray], np.ndarray]
Kink = tuple[float, float]  # (point, s)


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``order``-point Gauss-Legendre rule
    on [-1, 1], built on first use, so ``numpy.polynomial`` loads only when
    something integrates."""
    rule = np.polynomial.legendre.leggauss(order)
    for table in rule:
        table.flags.writeable = False
    return rule


def gl_adaptive(g: Integrand, lo: float, hi: float, rtol: float = 1e-9) -> float:
    """Integrate ``g`` on [lo, hi] with 32-point panels, doubling the panel
    count until successive values agree to ``rtol`` (relative).

    ``g`` must accept ndarray input. Raises QuadratureError if the doubling
    cap is hit without stabilizing, or at once on a non-finite panel sum.
    """
    if hi == lo:
        return 0.0
    nodes, weights = gauss_legendre(32)
    prev = None
    panels = 1
    for _ in range(_MAX_DOUBLINGS + 1):
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        pts = mid[:, None] + half * nodes[None, :]
        val = half * float(np.sum(weights[None, :] * g(pts)))
        if not math.isfinite(val):
            raise QuadratureError(f"panel sum is {val} with {panels} panels on [{lo:g}, {hi:g}]")
        if prev is not None:
            if abs(val - prev) <= rtol * max(abs(val), 1e-300) + 1e-15 * rtol:
                return val
        prev = val
        panels *= 2
    raise QuadratureError(
        f"Gauss-Legendre panels did not stabilize to rtol={rtol:g} "
        f"after {panels // 2} panels on [{lo:g}, {hi:g}]"
    )


def integrate_kinked(
    g: Integrand, lo: float, hi: float, kinks: Sequence[Kink], rtol: float
) -> float:
    """Integrate ``g`` over [lo, hi] with ``g ~ |t - point|**s`` near each
    ``(point, s)`` of ``kinks``, which may lie inside, on or beyond the ends."""
    if hi <= lo:
        return 0.0
    edges = sorted({lo, hi, *(k for k, _ in kinks if lo < k < hi)})
    total = 0.0
    for x0, x1 in zip(edges[:-1], edges[1:]):
        span = x1 - x0
        # the nearest kink per end; the more singular of two at one point
        left = _nearest([k for k in kinks if x0 - span < k[0] <= x0], x0)
        right = _nearest([k for k in kinks if x1 <= k[0] < x1 + span], x1)
        # a piece graded at both ends is split at its midpoint
        mid = 0.5 * (x0 + x1) if left and right else (x1 if left else x0)
        total += _graded(g, x0, mid, left, rtol) + _graded(g, mid, x1, right, rtol)
    return total


def _nearest(kinks: list[Kink], end: float) -> Kink | None:
    return min(kinks, key=lambda k: (abs(k[0] - end), k[1]), default=None)


def _graded(g: Integrand, lo: float, hi: float, kink: Kink | None, rtol: float) -> float:
    """One piece, graded toward ``kink`` = (point, s) on or beyond one of its
    ends, or plain when ``kink`` is None."""
    if kink is None:
        return gl_adaptive(g, lo, hi, rtol=rtol)
    at, s = kink
    if s <= -1.0:
        raise InvalidParameterError(f"|t - {at:g}|**{s:g} is not integrable (need s > -1)")
    beta = s + 1.0 if s < 0.0 else 0.25
    try:
        return gl_adaptive(*_power_substitution(g, lo, hi, beta, at), rtol=rtol)
    except QuadratureError as err:
        raise QuadratureError(
            f"{err}; that is the substituted variable of the piece [{lo:g}, {hi:g}], "
            f"graded toward the kink at {at:g} with exponent s = {s:g}"
        ) from err


def _power_substitution(
    f: Integrand, lo: float, hi: float, beta: float, at: float
) -> tuple[Integrand, float, float]:
    """Transform ``\\int_lo^hi f(t) dt`` by ``u = |t - at|**beta`` for a
    point ``at <= lo`` or ``at >= hi``; beta < 1 grades the panels toward
    ``at``. Returns (g, u0, u1) with ``\\int_u0^u1 g du`` equal to the original.
    """
    inv = 1.0 / beta
    side, near, far = (1.0, lo, hi) if at <= lo else (-1.0, hi, lo)

    def g(u: np.ndarray) -> np.ndarray:
        u = np.maximum(u, 1e-300)
        return f(at + side * u**inv) * (inv * u ** (inv - 1.0))

    return g, abs(near - at) ** beta, abs(far - at) ** beta
