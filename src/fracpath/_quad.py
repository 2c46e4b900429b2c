"""Fixed-order Gauss-Legendre panels with doubling until relative stabilization,
and the one rule for integrands with declared algebraic kinks, both for a
batch of rows at once: a row is one interval (plain or graded) of one integral.
Input refusals come before any work, then the first failing row's error.

A kink is a (point, s) pair: near ``point`` the integrand behaves like
c * |t - point|**s (s > -1) plus something smoother. :func:`integrate_kinked`
breaks at the points inside the interval and grades each piece end toward the
nearest point on it or within one piece length beyond it, by
u = |t - point|**beta with beta = s + 1 for s < 0 (the image is bounded) and
beta = 1/4 otherwise (c + |t - point|**s becomes smooth enough for the panels).

"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidParameterError, QuadratureError

__all__ = ["gauss_legendre", "gl_adaptive", "integrate_kinked"]

_MAX_DOUBLINGS = 14
_MAX_POINTS = 32 << _MAX_DOUBLINGS  # one row at the cap: the most one integrand call sees
_BLOCK = 1024  # integrals whose rows are built and integrated together

Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]  # g(points (k, n), rows i (k, 1))
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


def gl_adaptive(g: Integrand, lo, hi, rtol: float = 1e-9) -> np.ndarray:
    """Integrate each row r of ``g`` on [lo[r], hi[r]] (1-D) with 32-point
    panels, doubling the panels of the unsettled rows until successive values
    agree to ``rtol`` (relative); an empty row is 0. ``g`` sees chunks of whole
    rows, at most ``_MAX_POINTS`` points, and a row's value is bit for bit its
    value alone. A row fails on a non-finite panel sum or unsettled at the
    doubling cap, dropping the rows after it; once those before it are done,
    the first failing row's QuadratureError is raised, its index as ``row``."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    out, rows = np.zeros(lo.shape), (hi != lo).nonzero()[0]
    x0, x1, (nodes, weights) = lo[rows], hi[rows], gauss_legendre(32)
    prev, panels, fail = (), 1, None
    while rows.size and panels <= 1 << _MAX_DOUBLINGS:
        grid, width, val = np.arange(panels + 1.0), (x1 - x0) / panels, []
        for c in range(0, rows.size, step := _MAX_POINTS // (32 * panels)):
            r = slice(c, c + step)
            edges = grid * width[r, None] + x0[r, None]  # np.linspace's, row by row
            edges[:, -1] = x1[r]
            mid, half = 0.5 * (edges[:, :-1] + edges[:, 1:]), 0.5 * (edges[:, 1] - edges[:, 0])
            pts = mid[:, :, None] + (half[:, None] * nodes)[:, None, :]
            fx = g(pts.reshape(half.size, -1), rows[r, None]).reshape(pts.shape) * weights
            # a row's panels are one contiguous block: np.sum's pairwise order
            val += (half * np.add.reduce(fx.reshape(half.size, -1), axis=1)).tolist()
            del pts, fx  # not held through the next chunk's integrand call
        if not all(map(math.isfinite, val)):
            j = [math.isfinite(v) for v in val].index(False)
            fail = rows[j], f"panel sum is {val[j]} with {panels} panels on [{x0[j]:g}, {x1[j]:g}]"
            rows, x0, x1, val = rows[:j], x0[:j], x1[:j], val[:j]
        done = [abs(v - w) <= rtol * max(abs(v), 1e-300) + 1e-15 * rtol for v, w in zip(val, prev)]
        if any(done):
            out[rows[done]] = list(itertools.compress(val, done))
            go = np.logical_not(done)
            rows, x0, x1, val = rows[go], x0[go], x1[go], list(itertools.compress(val, go))
        prev, panels = val, 2 * panels
    if rows.size:
        fail = rows[0], (
            f"Gauss-Legendre panels did not stabilize to rtol={rtol:g} "
            f"after {panels // 2} panels on [{x0[0]:g}, {x1[0]:g}]"
        )
    if fail:
        err = QuadratureError(fail[1])
        err.row = int(fail[0])
        raise err
    return out


def integrate_kinked(g: Integrand, lo, hi, kinks: Sequence[Kink], rtol: float) -> np.ndarray:
    """Integrate ``g`` over [lo[i], hi[i]] for each entry i of ``lo`` and ``hi``
    (one shape; hi <= lo gives 0), with ``g ~ |t - point|**s`` near each
    ``(point, s)`` of ``kinks``, inside, on or beyond the ends. The pieces of
    ``_BLOCK`` integrals are the rows of one batch, summed in order per
    integral, and the first failing row of a batch raises, its kink named."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    shape, lo, hi, out = lo.shape, lo.ravel(), hi.ravel(), np.empty(lo.size)
    for first in range(0, lo.size, _BLOCK):
        s = slice(first, first + _BLOCK)
        block = [list(_pieces(a, b, kinks)) for a, b in zip(lo[s].tolist(), hi[s].tolist())]
        rows = [(i, *part) for i, ps in enumerate(block, first) for piece in ps for part in piece]
        vals = iter(rows and _integrate_rows(g, rows, rtol))
        for i, pieces in enumerate(block, first):
            out[i] = sum((sum(itertools.islice(vals, len(piece))) for piece in pieces), 0.0)
    return out.reshape(shape)


def _pieces(lo: float, hi: float, kinks: Sequence[Kink]) -> Iterator[list[tuple]]:
    """The pieces of [lo, hi] between the kinks inside it, each as its
    non-empty parts (x0, x1, kink), graded toward ``kink`` or plain (None)."""
    edges = sorted({lo, hi, *(k for k, _ in kinks if lo < k < hi)}) if lo < hi else []
    for x0, x1 in zip(edges[:-1], edges[1:]):
        span = x1 - x0
        # the nearest kink per end; the more singular of two at one point
        left = _nearest([k for k in kinks if x0 - span < k[0] <= x0], x0)
        right = _nearest([k for k in kinks if x1 <= k[0] < x1 + span], x1)
        # a piece graded at both ends is split at its midpoint
        mid = 0.5 * (x0 + x1) if left and right else (x1 if left else x0)
        yield [part for part in ((x0, mid, left), (mid, x1, right)) if part[0] != part[1]]


def _nearest(kinks: list[Kink], end: float) -> Kink | None:
    return min(kinks, key=lambda k: (abs(k[0] - end), k[1]), default=None)


def _integrate_rows(g: Integrand, rows: list[tuple], rtol: float) -> list[float]:
    """Rows (i, x0, x1, kink) of the integrals i, by panels in u = |t - point|**beta
    toward ``kink``, or in u = t (t = 0 + 1 * u**1, exact) for a plain row. A value
    all rows share is passed as a number: numpy's scalar path, as for one row alone."""
    plain = (0.0, 1.0, 1.0, -math.inf)  # at, side, 1/beta and the floor of u
    u0, u1, *maps = zip(*(_substitution(a, b, *k) if k else (a, b, *plain) for _, a, b, k in rows))
    maps = [c[0] if c.count(c[0]) == len(c) else np.array(c) for c in ([r[0] for r in rows], *maps)]

    def sub(u: np.ndarray, r: np.ndarray) -> np.ndarray:
        i, at, side, e, floor = (c[r] if isinstance(c, np.ndarray) else c for c in maps)
        np.maximum(u, floor, out=u)  # in place: gl_adaptive is done with its points
        return g(at + side * u**e, i) * (e * u ** (e - 1.0))

    try:
        return gl_adaptive(sub, u0, u1, rtol).tolist()
    except QuadratureError as err:
        _, x0, x1, kink = rows[err.row]
        if not kink:
            raise
        raise QuadratureError(
            f"{err}; that is the substituted variable of the piece [{x0:g}, {x1:g}], "
            f"graded toward the kink at {kink[0]:g} with exponent s = {kink[1]:g}"
        ) from err


def _substitution(lo: float, hi: float, at: float, s: float) -> tuple[float, ...]:
    """Map the piece [lo, hi] by ``u = |t - at|**beta`` for a point ``at <= lo``
    or ``at >= hi`` (beta < 1 grades the panels toward ``at``): (u0, u1, at, side,
    1/beta, floor) with t = at + side * u**(1/beta) on [u0, u1] and u above floor."""
    if s <= -1.0:
        raise InvalidParameterError(f"|t - {at:g}|**{s:g} is not integrable (need s > -1)")
    beta = s + 1.0 if s < 0.0 else 0.25
    side, near, far = (1.0, lo, hi) if at <= lo else (-1.0, hi, lo)
    return abs(near - at) ** beta, abs(far - at) ** beta, at, side, 1.0 / beta, 1e-300
