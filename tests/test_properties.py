"""Property-based invariants on random piecewise-linear paths and partitions:
exact knot lookup, the finite-stage identity at rounding level, one
compensated sum behind every check, the remainder kernel's two forms and the
gauge inverse."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracpath.errors import InvalidPhiError
from fracpath.follmer import (
    compensated_sum,
    ito_check,
    ito_check_time,
    remainder_kernel,
    taylor_remainder,
)
from fracpath.isometry import PhiSpec, phi_inverse
from fracpath.partitions import Partition
from fracpath.paths import SampledPath
from fracpath.registry import abs_power, moving_abs_power, plus_power, sin_affine

EPS = float(np.finfo(float).eps)
PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.5, -1.0]))


@st.composite
def knot_grids(draw):
    """(times, values): strictly increasing times from 0 and arbitrary
    finite values, extremes and signed zeros included."""
    inner = draw(st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=1, max_size=40, unique=True))
    times = np.concatenate([[0.0], np.sort(inner)])
    values = np.array(draw(st.lists(finite, min_size=times.size, max_size=times.size)))
    return times, values


@st.composite
def path_and_partition(draw):
    """A piecewise-linear path (flat stretches likely) and a partition of
    its horizon mixing knots and off-knot times."""
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    values = np.array(draw(st.lists(moderate, min_size=times.size, max_size=times.size)))
    path = SampledPath(times, values)
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=60))
    knots = draw(st.lists(st.sampled_from(list(times)), max_size=30))
    inner = np.concatenate([np.array(fractions) * path.horizon, knots])
    inner = inner[(inner > 0.0) & (inner < path.horizon)]
    part = Partition(np.concatenate([[0.0], np.unique(inner), [path.horizon]]))
    return path, part


def summand_scale(fn_vals, derivs, inc):
    """Largest summand of the identity: f at the knots and each Taylor term
    f^(j)(left) inc^j / j!. Each increment adds a few roundings of at most
    that size (its value difference, m Taylor subtractions, the divide and
    multiply of the kernel), hence the (m + 2) n eps bounds below."""
    scale = float(np.max(np.abs(fn_vals)))
    for j, d in enumerate(derivs, start=1):
        scale = max(scale, float(np.max(np.abs(d * inc**j))) / math.factorial(j))
    return scale


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@PROPS
@given(knot_grids(), st.data())
def test_value_at_returns_stored_floats_at_knots(grid, data):
    times, values = grid
    path = SampledPath(times, values)
    assert np.array_equal(bits(path.value_at(times)), bits(values))
    # repeated queries in any order, the last knot always among them
    idx = data.draw(st.lists(st.integers(0, times.size - 1), max_size=50))
    idx = np.array(idx + [times.size - 1, times.size - 1], dtype=int)
    assert np.array_equal(bits(path.value_at(times[idx])), bits(values[idx]))


@PROPS
@given(path_and_partition(), st.sampled_from([1.5, 2.5, 3.5]), st.sampled_from(["abs", "sin"]))
def test_ito_check_identity_at_rounding_level(case, p, kind):
    path, part = case
    fn = abs_power(p) if kind == "abs" else sin_affine(1.3, 2.0, 0.2)
    m = int(math.floor(p))
    rep = ito_check(fn, path, part, p)
    vals = path.value_at(part.times)
    inc = np.diff(vals)
    scale = summand_scale(fn.fn(vals), [d(vals[:-1]) for d in fn.derivs[:m]], inc)
    assert abs(rep.identity_residual) <= (m + 2) * rep.n_increments * EPS * scale


@PROPS
@given(path_and_partition(), st.sampled_from([1.5, 2.5]), st.floats(0.0, 0.8))
def test_ito_check_time_identity_at_rounding_level(case, p, speed):
    path, part = case
    bundle = moving_abs_power(p, speed)
    m = int(math.floor(p))
    rep = ito_check_time(bundle, path, part, p)
    times = part.times
    vals = path.value_at(times)
    inc = np.diff(vals)
    knots_and_cross = np.concatenate([bundle.fn(times, vals), bundle.fn(times[:-1], vals[1:])])
    derivs = [d(times[:-1], vals[:-1]) for d in bundle.dx[:m]]
    scale = summand_scale(knots_and_cross, derivs, inc)
    assert abs(rep.identity_residual) <= (m + 3) * rep.n_increments * EPS * scale


@PROPS
@given(
    path_and_partition(),
    st.sampled_from([1.5, 2.5, 3.5]),
    st.one_of(st.none(), st.floats(0.0, 40.0)),
)
def test_ito_check_compensated_is_compensated_sum(case, p, t):
    path, part = case
    fn = abs_power(p, k=0.25)
    m = int(math.floor(p))
    got = ito_check(fn, path, part, p, t=t).compensated
    want = compensated_sum(fn, path, part, m, t=t)
    assert bits(got) == bits(want)


@st.composite
def kinked_kernel_cases(draw):
    """(m, q, k, a, b): order q in (m + 0.05, m + 0.95), a kink k in (-1, 1)
    and an interval at least 0.05 long, one of its ends sometimes on k."""
    m = draw(st.sampled_from([1, 2, 3]))
    q = draw(st.floats(m + 0.05, m + 0.95))
    k = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    a = draw(st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True))
    b = draw(st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True))
    on_kink = draw(st.sampled_from(["none", "a", "b"]))
    if on_kink == "a":
        a = k
    elif on_kink == "b":
        b = k
    assume(abs(b - a) >= 0.05)
    return m, q, k, a, b


@PROPS
@given(kinked_kernel_cases(), st.sampled_from(["abs", "plus"]))
def test_remainder_kernel_matches_taylor_difference(case, kind):
    m, q, k, a, b = case
    fn = abs_power(q, k) if kind == "abs" else plus_power(q, k)
    got = remainder_kernel(fn, q, a, b)
    want = float(taylor_remainder(fn, np.array([a]), np.array([b]), m)[0]) / abs(b - a) ** q
    assert got == pytest.approx(want, abs=1e-9)


gauges = st.one_of(
    st.floats(0.5, 4.0).map(lambda p: PhiSpec(kind="power", p_phi=p)),
    st.floats(0.1, 2.0, exclude_min=True, exclude_max=True).map(
        lambda lp: PhiSpec(kind="log-modulated", p_phi=1.0, log_power=lp)
    ),
)


def reachable(spec):
    """Largest gauge value phi_inverse accepts: the value just below the
    domain cap, or 10 for the unbounded power gauges."""
    if math.isfinite(spec.domain_hi):
        return float(spec(np.asarray(spec.domain_hi * (1.0 - 1e-12))))
    return 10.0


@PROPS
@given(gauges, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_phi_inverse_roundtrips_and_is_monotone(spec, u, v):
    top = reachable(spec)
    y1, y2 = sorted((u * top, v * top))
    x1, x2 = phi_inverse(spec, y1), phi_inverse(spec, y2)
    assert float(spec(np.asarray(x1))) == pytest.approx(y1, abs=1e-12)
    assert float(spec(np.asarray(x2))) == pytest.approx(y2, abs=1e-12)
    # each root is the upper end of a bracket no wider than 8.9e-16 x
    assert x1 <= x2 + 8.9e-16 * x1
    with pytest.raises(InvalidPhiError):
        phi_inverse(spec, -y2 - 1e-300)
    if math.isfinite(spec.domain_hi):
        with pytest.raises(InvalidPhiError):
            phi_inverse(spec, top * (1.0 + 1e-9))
