"""Property-based invariants on random piecewise-linear paths and partitions:
exact knot lookup, the finite-stage identity at rounding level (scalar,
time-dependent, multi-component and path functional), the compensated sum
against a plain numpy sum, the remainder kernel's two forms, the gauge
inverse (the float just past the root), the variation profile (and the
query times it rejects), the level-reduced Cantor profile against the
materialized grid, the Young bound as an equality for one component, the
kernel weights of the identity (the quotient measure's mass) as the p-th
variation, the lattice form of value-grid partitions, the fBm sampler at
every size and the read-only on-grid values of ``partition_values``."""

import math
import re

import numpy as np
import pytest
from conftest import argsort_grid, variation_table
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracpath.errors import (
    InvalidParameterError,
    InvalidPhiError,
    KernelSingularError,
    QuadratureError,
)
from fracpath.experiments import cantor_profile
from fracpath.follmer import (
    FunctionalBundle,
    PrefixFamily,
    TensorFunctionBundle,
    ito_check,
    ito_check_functional,
    ito_check_multi,
    ito_check_time,
    remainder_kernel,
    taylor_remainder,
    young_bound_check,
)
from fracpath.isometry import PhiSpec, phi_inverse
from fracpath.partitions import (
    Partition,
    osc,
    partition_values,
    value_grid_partition,
)
from fracpath.paths import GaussianPathSpec, SampledPath, cantor_gap_lefts, fbm_path
from fracpath.registry import abs_power, moving_abs_power, plus_power, product_bundle, sin_affine
from fracpath.variation import pth_variation_partial

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
@given(knot_grids(), st.booleans(), st.floats(0.0, 1e300))
def test_partition_values_on_the_path_grid_is_a_read_only_lookup(grid, same_array, t):
    times, values = grid
    path = SampledPath(times, values)
    part = Partition(path.times if same_array else path.times.copy())
    _, vals = partition_values(path, part)
    assert np.array_equal(bits(vals), bits(path.value_at(part.times)))
    assert not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 1.0
    assert path.values.flags.writeable  # the view locks only itself
    # a stop time still clips the times and interpolates fresh values
    clipped, vals = partition_values(path, part, t)
    assert np.array_equal(clipped, np.minimum(part.times, t))
    assert np.array_equal(bits(vals), bits(path.value_at(clipped)))
    assert vals.flags.writeable


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
    rep = ito_check(fn, path, part, p, t=t)
    got = rep.compensated
    # the same pass carries the p-th variation, bit for bit
    assert rep.variation.hex() == pth_variation_partial(path, part, p, t).hex()
    # sum_j sum_i f^(j)(S_i) dS_i^j / j!, one plain numpy sum per order
    _, vals = partition_values(path, part, t)
    inc = np.diff(vals)
    want = sum(
        float(np.sum(d(vals[:-1]) * inc**j)) / math.factorial(j)
        for j, d in enumerate(fn.derivs[:m], start=1)
    )
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


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


@st.composite
def kernel_batches(draw):
    """(fn, p, a, b): a kinked function and up to six pairs, some on the
    diagonal, some with an end on the kink and some with the kink beyond an
    end by less than the interval's length."""
    m = draw(st.sampled_from([1, 2, 3]))
    q, p = draw(st.floats(m + 0.05, m + 0.95)), draw(st.floats(m + 0.05, m + 0.95))
    k = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    fn = draw(st.sampled_from([abs_power, plus_power]))(q, k)
    pairs = []
    for mode in draw(st.lists(st.sampled_from(["free", "diagonal", "on", "beyond"]), max_size=6)):
        x = draw(st.floats(-1.5, 1.5))
        length = draw(st.floats(0.05, 1.0))
        gap = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * length
        if mode == "free":
            pairs.append(draw(st.sampled_from([(x, x + length), (x, x - length)])))
        elif mode == "diagonal":
            pairs.append(draw(st.sampled_from([(x, x), (k, k)])))
        elif mode == "on":
            pairs.append(draw(st.sampled_from([(k, k + length), (k - length, k), (k, k - length)])))
        else:
            pairs.append(draw(st.sampled_from([(k + gap, k + gap + length), (k - gap, k - gap - length)])))
    a, b = (np.array([ab[i] for ab in pairs], dtype=float) for i in (0, 1))
    return fn, p, a, b


@pytest.mark.parametrize("method", ["integral", "taylor"])
@PROPS
@given(case=kernel_batches())
def test_remainder_kernel_batch_is_the_per_entry_loop(case, method):
    # a diagonal entry on the kink when q <= p has no finite kernel and is
    # refused before any work, so the first such entry's error wins; else
    # the values bit for bit, or the error the loop raised first
    fn, p, a, b = case
    want = []
    for x, y in zip(a.tolist(), b.tolist()):
        try:
            want.append(remainder_kernel(fn, p, x, y, method).hex())
        except (KernelSingularError, QuadratureError) as err:
            want.append(err)
    errors = [err for err in want if isinstance(err, Exception)]
    if errors:
        err = next((e for e in errors if isinstance(e, KernelSingularError)), errors[0])
        with pytest.raises(type(err), match=re.escape(str(err))):
            remainder_kernel(fn, p, a, b, method)
        return
    assert [v.hex() for v in remainder_kernel(fn, p, a, b, method).tolist()] == want


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
    # x is nondecreasing in y, up to a slack of 8.9e-16 x
    assert x1 <= x2 + 8.9e-16 * x1
    with pytest.raises(InvalidPhiError):
        phi_inverse(spec, -y2 - 1e-300)
    if math.isfinite(spec.domain_hi):
        with pytest.raises(InvalidPhiError):
            phi_inverse(spec, top * (1.0 + 1e-9))


every_gauge = st.one_of(
    st.floats(0.1, 8.0).map(lambda p: PhiSpec(kind="power", p_phi=p)),
    st.builds(
        lambda p, lp: PhiSpec(kind="log-modulated", p_phi=p, log_power=lp),
        st.floats(0.2, 5.0),
        st.floats(0.05, 3.0),
    ),
    st.floats(0.1, 8.0).map(
        lambda p: PhiSpec(kind="custom", p_phi=p, custom_fn=lambda x: x**p * (1.0 + x))
    ),
)


@PROPS
@given(every_gauge, st.data())
def test_phi_inverse_is_the_float_just_past_the_root(spec, data):
    # phi(x) >= y > phi(prevfloat(x)), phi as the gauge's own formula, for
    # values across the range, deep below it and among the subnormals
    top = reachable(spec)
    y = data.draw(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True).map(lambda u: u * top),
            st.floats(1e-300, 1e-3),
            st.floats(5e-324, 2.2250738585072014e-308),
        ).filter(lambda y: 0.0 < y <= top)
    )
    x = phi_inverse(spec, y)
    assert float(spec(np.asarray(x))) >= y > float(spec(np.asarray(np.nextafter(x, 0.0))))


@PROPS
@given(path_and_partition(), st.sampled_from([0.7, 1.5, 2.5, 3.5]), st.data())
def test_variation_table_is_pointwise_partial_variation(case, p, data):
    path, part = case
    fractions = data.draw(st.lists(st.floats(0.0, 1.2), min_size=1, max_size=20))
    ts = np.concatenate([np.array(fractions) * path.horizon, part.times[:: max(part.n_intervals // 5, 1)]])
    table = variation_table(path, part, p, ts)
    # a cumulative sum against a pairwise one: both sums of n nonnegative terms
    for t, got in zip(ts, table):
        want = pth_variation_partial(path, part, p, float(t))
        assert abs(got - want) <= 2 * part.n_intervals * EPS * want


@PROPS
@given(path_and_partition(), st.sampled_from([-0.5, -1e-300, math.nan, math.inf, -math.inf]), st.data())
def test_variation_table_rejects_what_pointwise_rejects(case, bad, data):
    path, part = case
    ts = np.array(data.draw(st.lists(st.floats(0.0, 1.2), max_size=5))) * path.horizon
    ts = np.insert(ts, data.draw(st.integers(0, ts.size)), bad)
    with pytest.raises(InvalidParameterError) as pointwise:
        pth_variation_partial(path, part, 2.0, bad)
    with pytest.raises(InvalidParameterError) as table:
        variation_table(path, part, 2.0, ts)
    assert str(table.value) == str(pointwise.value)
    with pytest.raises(InvalidParameterError) as profile:
        cantor_profile(2.5, 3, ts)
    assert str(profile.value) == str(pointwise.value)


@PROPS
@given(
    st.integers(1, 12),
    st.sampled_from(["floor", "nearest"]),
    st.sampled_from([1.5, 2.5, 3.5]),
    st.data(),
)
def test_cantor_profile_is_the_materialized_variation_table(n, rounding, p, data):
    # the level walk against variation_table over the full stage-n grid, at
    # knots, inside gaps of every level, at 0, 1 and past the horizon
    path, part, _ = argsort_grid(p, n, rounding)
    knots = part.times[data.draw(st.lists(st.integers(0, part.times.size - 1), max_size=20))]
    level = data.draw(st.integers(1, n))
    lefts = cantor_gap_lefts(level)
    picks = data.draw(st.lists(st.integers(0, lefts.size - 1), max_size=10))
    offsets = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(picks), max_size=len(picks)))
    inside = lefts[picks] + 3.0 ** (-level) * np.array(offsets)
    anywhere = data.draw(st.lists(st.floats(0.0, 1.5), max_size=20))
    ts = np.concatenate([knots, inside, anywhere, [0.0, 1.0, 1.25]])
    want = variation_table(path, part, p, ts)
    got = cantor_profile(p, n, ts, rounding)
    limit = part.n_intervals * EPS * np.maximum(1.0, want)
    assert np.all(np.abs(got - want) <= limit), np.max(np.abs(got - want) / limit)


@PROPS
@given(path_and_partition(), st.floats(0.3, 4.0))
def test_young_bound_single_component_is_an_equality(case, p):
    # d = 1: one sign pattern with weight alpha / p = 1, so both sides are
    # the p-th power sum
    path, part = case
    rep = young_bound_check([path], [p], [part])
    assert rep.all_ok
    assert abs(rep.lhs[0] - rep.rhs[0]) <= 2 * EPS * rep.rhs[0]


@PROPS
@given(path_and_partition(), st.sampled_from([0.7, 1.5, 2.5, 3.5]), st.one_of(st.none(), st.floats(0.0, 40.0)))
def test_quotient_measure_mass_is_pth_variation(case, p, t):
    # the weights |dS|^p of the kernel sum are the quotient measure's atoms:
    # the order-p identity's own variation is their mass, zeros included
    path, part = case
    want = pth_variation_partial(path, part, p, t)
    if p > 1.0:
        variation = ito_check(abs_power(p), path, part, p, t=t).variation
        assert variation.hex() == want.hex()


def sin_times_y():
    """f(x, y) = sin(x) y + x^2 on R^2, with its gradient and Hessian."""

    def f(v):
        return np.sin(v[..., 0]) * v[..., 1] + v[..., 0] ** 2

    def grad(v):
        return np.stack([np.cos(v[..., 0]) * v[..., 1] + 2.0 * v[..., 0], np.sin(v[..., 0])], axis=-1)

    def hess(v):
        h = np.empty(v.shape[:-1] + (2, 2))
        h[..., 0, 0] = 2.0 - np.sin(v[..., 0]) * v[..., 1]
        h[..., 0, 1] = h[..., 1, 0] = np.cos(v[..., 0])
        h[..., 1, 1] = 0.0
        return h

    return TensorFunctionBundle(fn=f, grad=grad, hess=hess, name="sin-times-y")


@PROPS
@given(
    path_and_partition(),
    st.lists(moderate, min_size=31, max_size=31),  # path_and_partition paths hold <= 31 knots
    st.sampled_from([1.5, 2.5]),
    st.sampled_from(["product", "sin"]),
    st.one_of(st.none(), st.floats(0.0, 40.0)),
)
def test_ito_check_multi_identity_at_rounding_level(case, other, p, kind, t):
    path, part = case
    second = SampledPath(path.times, np.array(other[: path.times.size]))
    bundle = product_bundle() if kind == "product" else sin_times_y()
    m = int(math.floor(p))
    rep = ito_check_multi(bundle, [path, second], part, p, t=t)
    times = np.minimum(part.times, math.inf if t is None else t)
    vals = np.stack([path.value_at(times), second.value_at(times)], axis=1)
    inc = np.diff(vals, axis=0)
    # largest summand: f at the knots, each gradient term g_k dS_k, each
    # Hessian term h_jk dS_j dS_k / 2; a dot product of d = 2 terms adds one
    # rounding per term on top of the scalar (m + 2) n eps budget
    terms = [np.abs(bundle.fn(vals)), np.abs(bundle.grad(vals[:-1]) * inc)]
    if m == 2:
        terms.append(np.abs(0.5 * inc[:, :, None] * bundle.hess(vals[:-1]) * inc[:, None, :]))
    scale = max(float(np.max(x)) for x in terms)
    assert abs(rep.identity_residual) <= (m + 4) * rep.n_increments * EPS * scale


def prefix_functional(kind, p):
    """(evaluate, (first, second vertical derivative)) of a cylinder
    functional f(current) or of the area-times-endpoint functional; a flat
    extension of length L carries the bumped endpoint, so the latter's bump
    derivatives are I + L c and 2 L."""
    if kind == "area-times-endpoint":
        def ext_len(pre):
            return pre.end_time - float(pre.family.times[pre.j])

        return (
            lambda pre: pre.integral() * pre.current,
            (
                lambda pre: pre.integral() + ext_len(pre) * pre.current,
                lambda pre: 2.0 * ext_len(pre),
            ),
        )
    fn = abs_power(p) if kind == "abs" else sin_affine(1.3, 2.0, 0.2)

    def at_current(g):
        return lambda pre: float(g(np.asarray(pre.current)))

    return at_current(fn.fn), (at_current(fn.derivs[0]), at_current(fn.derivs[1]))


@PROPS
@given(
    path_and_partition(),
    st.sampled_from([1.5, 2.5]),
    st.sampled_from(["abs", "sin", "area-times-endpoint"]),
    st.booleans(),
)
def test_ito_check_functional_identity_at_rounding_level(case, p, kind, analytic):
    path, part = case
    evaluate, vertical = prefix_functional(kind, p)
    bundle = FunctionalBundle(evaluate=evaluate, vertical=vertical if analytic else ())
    m = int(math.floor(p))
    rep = ito_check_functional(bundle, path, part, p)
    # largest summand: the functional at the knots and at the flat
    # extensions, and each vertical Taylor term D^j F [ds^j] / j!, with the
    # centered differences of the default step when no derivative is given
    fam = PrefixFamily(path, part)
    step = 0.5 * osc(path, part)
    step = step if step**m > 0.0 else 1e-6
    ds = np.diff(fam.values)
    scale = max(abs(evaluate(fam.prefix(i))) for i in range(rep.n_increments + 1))
    for i in range(rep.n_increments):
        pre = fam.prefix(i, 0.0, float(fam.times[i + 1]))
        mid = evaluate(pre)
        if analytic:
            derivs = [g(pre) for g in vertical[:m]]
        else:
            up = evaluate(fam.prefix(i, step, pre.extend_to))
            dn = evaluate(fam.prefix(i, -step, pre.extend_to))
            derivs = [(up - dn) / (2.0 * step)]
            if m == 2:
                derivs.append((up - 2.0 * mid + dn) / step**2)
        terms = [abs(d * ds[i] ** j) / math.factorial(j) for j, d in enumerate(derivs, start=1)]
        scale = max(scale, abs(mid), *terms)
    assert abs(rep.identity_residual) <= (m + 3) * rep.n_increments * EPS * scale


# --------------------------------------------------------------------------- #
# value-grid partitions: the lattice kernel against the per-segment loop
# --------------------------------------------------------------------------- #


def reference_value_grid(path, delta, mode):
    """The per-segment loop that value_grid_partition replaced: increment
    mode walks a running reference value ref +- delta, grid mode crosses the
    levels k delta segment by segment."""
    t, v = path.times, path.values
    guard = 1e-9
    chunks = [np.array([0.0])]
    ref = v[0]
    for j in range(t.size - 1):
        v0, v1 = v[j], v[j + 1]
        if v1 == v0:
            continue
        slope = (v1 - v0) / (t[j + 1] - t[j])
        if mode == "increment":
            sgn = 1.0 if v1 > v0 else -1.0
            count = int(math.floor((v1 - ref) * sgn / delta + guard))
            if count <= 0:
                continue
            cross_vals = ref + sgn * delta * np.arange(1, count + 1, dtype=float)
            ref = float(cross_vals[-1])
            times = t[j] + (cross_vals - v0) / slope
        else:
            if v1 > v0:
                k_lo = math.floor(v0 / delta + guard) + 1
                k_hi = math.floor(v1 / delta + guard)
            else:
                k_hi = math.ceil(v0 / delta - guard) - 1
                k_lo = math.ceil(v1 / delta - guard)
            if k_hi < k_lo:
                continue
            ks = np.arange(k_lo, k_hi + 1, dtype=float)
            if v1 < v0:
                ks = ks[::-1]
            times = t[j] + (ks * delta - v0) / slope
        np.clip(times, t[j], t[j + 1], out=times)
        chunks.append(times)
    body = np.concatenate(chunks)
    body = body[np.concatenate([[True], np.diff(body) > 0.0])]
    if body[-1] < path.horizon:
        body = np.append(body, path.horizon)
    return body


@st.composite
def crossing_paths(draw):
    """(path, delta): a piecewise-linear path whose segments rise or fall by
    at least 0.1 (no near-flat slopes to amplify rounding in the times), and
    a grid spacing from 0.01 to 0.5."""
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=20))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    start = draw(st.floats(-1.0, 1.0))
    moves = draw(st.lists(st.floats(0.1, 1.0), min_size=len(steps), max_size=len(steps)))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(steps), max_size=len(steps)))
    values = start + np.concatenate([[0.0], np.cumsum(np.array(moves) * np.array(signs))])
    return SampledPath(times, values), draw(st.floats(0.01, 0.5))


def lattice_offset(values, delta, base):
    """Distance of each value from the nearest level base + k delta."""
    r = (values - base) / delta
    return np.abs(r - np.round(r)) * delta


def off_lattice(values, delta, base):
    """True when no knot after the first lies within 1e-6 delta of a level
    base + k delta: continuous values, away from the 1e-9 guard."""
    return bool(np.all(lattice_offset(values[1:], delta, base) > 1e-6 * delta))


@PROPS
@given(crossing_paths())
def test_value_grid_lattice_matches_segment_loop(case):
    path, delta = case
    # crossings sit on their lattice up to the 1e-9 delta guard and rounding
    on_level = 1e-9 * delta + 64 * EPS * (1.0 + np.max(np.abs(path.values)))
    grid = value_grid_partition(path, delta, mode="grid")
    assert np.array_equal(bits(grid.times), bits(reference_value_grid(path, delta, "grid")))
    assert osc(path, grid) <= delta * (1.0 + 1e-8)
    assert np.all(lattice_offset(path.value_at(grid.times[1:-1]), delta, 0.0) <= on_level)
    inc = value_grid_partition(path, delta, mode="increment")
    assert osc(path, inc) <= 2.0 * delta * (1.0 + 1e-8)
    start = path.values[0]
    assert np.all(lattice_offset(path.value_at(inc.times[1:-1]), delta, start) <= on_level)
    if off_lattice(path.values, delta, path.values[0]):
        # the loop's running ref += sgn delta count against S(0) + k delta
        want = reference_value_grid(path, delta, "increment")
        assert inc.times.size == want.size
        assert np.max(np.abs(inc.times - want)) <= 1e-13 * path.horizon


def test_value_grid_knots_on_the_lattice():
    # values on multiples of 0.25 sit on the 0.1 lattice (0.25 = 2.5 delta
    # misses it, 0.5 = 5 delta hits it); the loop's accumulated ref can put a
    # crossing about 1e-15 before a knot the lattice form lands on exactly,
    # so the two may differ by slivers, never by an interval of 1e-12 or more
    rng = np.random.default_rng(11)
    delta = 0.1
    slivers = 0
    for _ in range(200):
        n = int(rng.integers(2, 30))
        values = np.concatenate([[0.0], rng.integers(-8, 9, n - 1) * 0.25])
        path = SampledPath(np.linspace(0.0, 1.0, n), values)
        for mode in ("increment", "grid"):
            got = value_grid_partition(path, delta, mode).times
            want = reference_value_grid(path, delta, mode)
            if mode == "grid":
                assert np.array_equal(bits(got), bits(want))
                continue
            # every time of either form lies within 1e-12 of one of the other
            assert np.max(np.min(np.abs(got[:, None] - want[None, :]), axis=1)) < 1e-12
            assert np.max(np.min(np.abs(want[:, None] - got[None, :]), axis=1)) < 1e-12
            slivers += got.size != want.size
    assert slivers > 0  # the case does reach the sliver


@PROPS
@given(st.integers(2, 5000), st.floats(0.01, 0.99), st.integers(0, 2**32))
def test_fbm_path_samples_every_size(n, hurst, seed):
    # one circulant route for every n: no size or roughness is refused
    path = fbm_path(GaussianPathSpec(hurst=hurst, n=n, seed=seed))
    assert path.values.size == path.times.size == n + 1
    assert np.isfinite(path.values).all()
