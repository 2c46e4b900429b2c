"""Acceptance gates: one test per headline claim, each printing a single
PASS/FAIL line with the measured numbers.

These pin the quantitative behaviour of the whole stack end to end. Unit
tests guard the parts; the gates here guard the story. Tolerances are fixed
and must not be loosened to make a gate pass. Each printed line must also
read as committed in fixtures/expected/criteria.txt, FAIL included: a moved
number is a program change, listed with its cause where the file is updated.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from fracpath.experiments import (
    bump_decomposition,
    bump_limit_value,
    cantor_function_gap,
    cantor_sweep,
    fbm_ito_experiment,
    fbm_variation_experiment,
    gaussian_abs_moment,
)
from fracpath.follmer import (
    FunctionalBundle,
    TensorFunctionBundle,
    TimeFunctionBundle,
    ito_check,
    ito_check_functional,
    ito_check_multi,
    ito_check_time,
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
    generalized_minkowski_check,
    isometry_check,
    phi_hat,
)
from fracpath.smooth import SmoothFn
from fracpath.partitions import badic
from fracpath.paths import GaussianPathSpec, fbm_path
from fracpath.registry import abs_power, plus_power, polynomial, sin_affine
from fracpath.variation import phi_variation_partial

P = 2.5
CRITERIA = Path(__file__).resolve().parents[1] / "fixtures" / "expected" / "criteria.txt"


def gate(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    committed = CRITERIA.read_text().splitlines()[num - 1]
    assert line == committed, f"criterion {num} prints\n{line}\nnot as committed\n{committed}"
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep20():
    return cantor_sweep(P, range(1, 21))


# --------------------------------------------------------------------------- #
# 1. stage totals of the Cantor-distance construction
# --------------------------------------------------------------------------- #


def test_criterion_01_cantor_variation_identity(sweep20):
    worst_rel = 0.0
    for stage in sweep20:
        want = stage.n * float(stage.k_n) ** (1.0 - P)
        worst_rel = max(worst_rel, abs(stage.total_variation - want) / want)
        assert stage.lower_bound - 1e-12 <= stage.total_variation
        assert stage.total_variation <= stage.upper_bound * (1.0 + 1e-12)
    final = sweep20[-1].total_variation
    ok = worst_rel <= 1e-12 and abs(final - 1.0) <= 0.10
    gate(
        1,
        ok,
        f"stage totals match n k_n^(1-p) to rel {worst_rel:.2e} (n <= 20), "
        f"total at n=20 is {final:.6f} (within 10% of 1)",
    )


# --------------------------------------------------------------------------- #
# 2. partial-variation profile against the Cantor function
# --------------------------------------------------------------------------- #


def test_criterion_02_cantor_function_profile():
    ts = np.array([1 / 3, 0.5, 2 / 3, 1.0])
    gap = cantor_function_gap(P, 18, ts, rounding="nearest")
    gate(2, gap < 0.05, f"stage-18 profile vs Cantor function: sup gap {gap:.5f} < 0.05")


# --------------------------------------------------------------------------- #
# 3. vanishing compensated sum with its exact per-level envelope
# --------------------------------------------------------------------------- #


def test_criterion_03_vanishing_remainder_envelope(sweep20):
    worst = 0.0
    for stage in sweep20:
        envelope = abs(stage.compensated_formula)
        worst = max(worst, abs(stage.compensated) - envelope * (1.0 + 1e-9))
    assert worst <= 1e-12, "a compensated sum escaped its per-level envelope"
    final = abs(sweep20[-1].compensated)
    ok = final < 0.02
    gate(
        3,
        ok,
        f"|L^n| within the exact envelope at every n <= 20; |L^20| = {final:.5f} "
        f"vs required < 0.02 (the envelope itself still sits at {final:.5f}; "
        f"the 0.02 level needs far deeper stages than n=20)",
    )


# --------------------------------------------------------------------------- #
# 4. non-vanishing remainder for the bump construction
# --------------------------------------------------------------------------- #


def test_criterion_04_nonvanishing_remainder():
    p = 2.25
    rep = bump_decomposition(p, 14)
    # independent closed-form recomputation of the limit atom weights
    c = (2.0 ** (p - 1.0) - 1.0) / (2.0**p - 1.0)
    ks = np.arange(rep.atom_weights_limit.size)
    lv = np.ceil(np.log2(ks + 1.0))
    lv[0] = 0.0
    table_gap = float(np.max(np.abs(rep.atom_weights_limit - c * 2.0 ** (-lv * p))))
    identity_gap = abs(rep.compensated + rep.kernel_from_limit)  # f change is 0
    ok = (
        rep.compensated < 0.0
        and rep.compensated < bump_limit_value(p) < 0.0
        and identity_gap < 2e-2
        and table_gap <= 1e-12
    )
    gate(
        4,
        ok,
        f"depth-14 compensated sum {rep.compensated:.6f} < 0, limit-atom identity gap "
        f"{identity_gap:.2e} < 2e-2, atom table gap {table_gap:.1e} <= 1e-12",
    )


# --------------------------------------------------------------------------- #
# 5. fBm variation against the Gaussian moment oracle
# --------------------------------------------------------------------------- #


def test_criterion_05_fbm_variation_moments():
    rels = {}
    for hurst in (0.4, 1.0 / 3.0):
        rep = fbm_variation_experiment(hurst, 2**16, seeds=range(50))
        rels[hurst] = rep.relative_error
    # the H=1/3 oracle value quoted alongside the construction
    oracle_gap = abs(gaussian_abs_moment(3.0) - 1.5958)
    ok = all(r <= 0.10 for r in rels.values()) and oracle_gap < 1e-3
    gate(
        5,
        ok,
        f"mean p-th power sums vs T E|Z|^(1/H): rel {rels[0.4]:.4f} (H=0.4), "
        f"rel {rels[1/3]:.4f} (H=1/3), both within 10% over 50 seeds",
    )


# --------------------------------------------------------------------------- #
# 6. fractional operators against closed forms
# --------------------------------------------------------------------------- #


def test_criterion_06_fractional_operators():
    rng = np.random.default_rng(42)
    worst_pair = 0.0
    for i in range(20):
        p = float(rng.uniform(0.3, 2.7))
        while min(abs(p - round(p)), abs(p - math.floor(p)), abs(p - math.ceil(p))) < 0.05:
            p = float(rng.uniform(0.3, 2.7))
        order = FracOrder(p)
        q = float(rng.uniform(order.m + 1.2, order.m + 3.0))
        a = float(rng.uniform(-0.5, 0.5))
        x = a + float(rng.uniform(0.5, 1.5))
        k = a + float(rng.uniform(0.0, 0.6)) * (x - a)
        kind = "plus" if i % 2 == 0 else "abs"
        fn = plus_power(q, k) if kind == "plus" else abs_power(q, k)
        closed = caputo_power(q, order, a, k, x, kind=kind)
        direct = caputo(fn, order, a, x)
        worst_pair = max(worst_pair, abs(direct - closed) / max(1e-9, abs(closed)))
    assert worst_pair <= 1e-6, f"caputo vs closed form drifted to rel {worst_pair:.2e}"

    # C^0.5 of x^2 against the power rule
    sq = abs(
        caputo(polynomial([0.0, 0.0, 1.0]), FracOrder(0.5), 0.0, 0.8)
        - power_rule(2.0, FracOrder(0.5), 0.0, 0.8)
    ) / power_rule(2.0, FracOrder(0.5), 0.0, 0.8)
    assert sq <= 1e-6

    # constants are annihilated
    for p in (0.5, 1.5, 2.5):
        assert abs(caputo(polynomial([3.7]), FracOrder(p), 0.0, 1.0)) <= 1e-12

    # composition of fractional integrals
    def make_inner(alpha):
        def inner(xs):
            xs = np.asarray(xs, dtype=float)
            flat = xs.ravel()
            vals = np.array(
                [rl_integral(np.sin, alpha, 0.0, float(xi), rtol=1e-10) for xi in flat]
            )
            return vals.reshape(xs.shape)

        return inner

    worst_semi = 0.0
    for a1, a2 in ((0.3, 0.4), (0.25, 0.5)):
        lhs = rl_integral(make_inner(a2), a1, 0.0, 0.7, rtol=1e-8)
        rhs = rl_integral(np.sin, a1 + a2, 0.0, 0.7, rtol=1e-11)
        worst_semi = max(worst_semi, abs(lhs - rhs) / abs(rhs))
    assert worst_semi <= 1e-6

    # pointwise limits: smooth functions see zero, pure powers see Gamma(p+1)
    local_sin = abs(local_frac_derivative(np.sin, 0.5, 0.0))
    assert local_sin < 1e-4
    worst_local = 0.0
    for p in (0.5, 1.5, 2.5):
        got = local_frac_derivative(abs_power(p).fn, p, 0.0)
        worst_local = max(worst_local, abs(got - math.gamma(p + 1.0)))
    assert worst_local <= 1e-4
    gate(
        6,
        True,
        f"20 random Caputo tuples rel <= {worst_pair:.1e}, power rule rel {sq:.1e}, "
        f"constants annihilated, composition rel <= {worst_semi:.1e}, "
        f"pointwise limits off by <= {worst_local:.1e}",
    )


# --------------------------------------------------------------------------- #
# 7. fractional Taylor remainder order
# --------------------------------------------------------------------------- #


def test_criterion_07_taylor_remainder_order():
    fixtures = [
        (sin_affine(), 2.5, 0.4),
        (polynomial([0.0, 2.0, 0.0, 1.0]), 2.5, 0.3),
        (SmoothFn(fn=np.exp, derivs=(np.exp,), name="exp"), 1.5, 0.0),
    ]
    slopes = []
    for fn, p, a in fixtures:
        rep = frac_taylor_check(fn, FracOrder(p), a)
        slopes.append(rep.slope)
        assert rep.slope >= p + 0.3, f"remainder of {fn.name} decays too slowly at {a}"
    pure = frac_taylor_check(abs_power(2.5), FracOrder(2.5), 0.0)
    assert pure.max_resid <= 1e-12
    assert pure.pure_power
    gate(
        7,
        True,
        f"remainder slopes {', '.join(f'{s:.2f}' for s in slopes)} all >= p + 0.3; "
        f"pure power leaves residual {pure.max_resid:.1e}",
    )


# --------------------------------------------------------------------------- #
# 8. change-of-variable residuals along fBm
# --------------------------------------------------------------------------- #


def _relative_residuals(report):
    out = []
    for res, rep in zip(report.residuals, report.reports):
        out.append(abs(res) / max(1.0, abs(rep.value_change)))
    return out


def _longest_decreasing_run(seq):
    best, run = 1, 1
    for a, b in zip(seq, seq[1:]):
        run = run + 1 if b < a else 1
        best = max(best, run)
    return best


def test_criterion_08_ito_residuals_on_fbm():
    levels = range(8, 17)
    details = []
    for fn, seed in ((sin_affine(), 2), (abs_power(2.5, k=1.0), 1)):
        report = fbm_ito_experiment(0.4, fn, seed, levels, p=2.5)
        rel = _relative_residuals(report)
        run = _longest_decreasing_run([abs(r) for r in report.residuals])
        assert rel[-1] < 1e-2, f"{fn.name}: finest-level relative residual {rel[-1]:.2e}"
        assert run >= 3, f"{fn.name}: longest decreasing stretch only {run} levels"
        details.append(f"{fn.name}: final rel {rel[-1]:.1e}, decreasing run {run}")
    gate(8, True, "; ".join(details))


# --------------------------------------------------------------------------- #
# 9. functional, time-dependent and multi-component identities
# --------------------------------------------------------------------------- #


def test_criterion_09_functional_and_multid(fbm04):
    part = badic(1.0, 12)
    fn = abs_power(P)

    # cylinder reductions: the generalized checks collapse onto the scalar one
    plain = ito_check(fn, fbm04, part, P)
    tbundle = TimeFunctionBundle(
        fn=lambda t, x: fn.fn(x),
        dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        dx=(lambda t, x: fn.derivs[0](x), lambda t, x: fn.derivs[1](x)),
    )
    t_rep = ito_check_time(tbundle, fbm04, part, P)
    cyl = FunctionalBundle(
        evaluate=lambda pre: float(fn.fn(np.asarray(pre.current))),
        vertical=(
            lambda pre: float(fn.derivs[0](np.asarray(pre.current))),
            lambda pre: float(fn.derivs[1](np.asarray(pre.current))),
        ),
    )
    f_rep = ito_check_functional(cyl, fbm04, part, P)
    red_time = abs(t_rep.follmer_residual - plain.follmer_residual)
    red_func = abs(f_rep.follmer_residual - plain.follmer_residual)
    assert red_time <= 1e-9 and red_func <= 1e-9

    # running-integral functional: horizontal steps account for everything
    area = FunctionalBundle(
        evaluate=lambda pre: pre.integral(),
        vertical=(lambda pre: 0.0, lambda pre: 0.0),
    )
    a_rep = ito_check_functional(area, fbm04, part, P)
    assert abs(a_rep.follmer_residual) <= 1e-9

    # two independent rough components through a mixed product
    x_path = fbm_path(GaussianPathSpec(hurst=0.4, n=2**16, seed=21))
    y_path = fbm_path(GaussianPathSpec(hurst=0.4, n=2**16, seed=22))
    mixed = TensorFunctionBundle(
        fn=lambda v: np.sin(v[..., 0]) * np.cos(v[..., 1]),
        grad=lambda v: np.stack(
            [np.cos(v[..., 0]) * np.cos(v[..., 1]), -np.sin(v[..., 0]) * np.sin(v[..., 1])],
            axis=-1,
        ),
        hess=lambda v: np.stack(
            [
                np.stack(
                    [
                        -np.sin(v[..., 0]) * np.cos(v[..., 1]),
                        -np.cos(v[..., 0]) * np.sin(v[..., 1]),
                    ],
                    axis=-1,
                ),
                np.stack(
                    [
                        -np.cos(v[..., 0]) * np.sin(v[..., 1]),
                        -np.sin(v[..., 0]) * np.cos(v[..., 1]),
                    ],
                    axis=-1,
                ),
            ],
            axis=-2,
        ),
        name="sin-cos",
    )
    m_rep = ito_check_multi(mixed, [x_path, y_path], badic(1.0, 16), P)
    assert abs(m_rep.follmer_residual) < 2e-2

    young = young_bound_check(
        [x_path, y_path], [1.25, 1.25], [badic(1.0, j) for j in range(6, 13)]
    )
    assert young.all_ok
    gate(
        9,
        True,
        f"cylinder reductions {max(red_time, red_func):.1e} <= 1e-9, integral functional "
        f"residual {abs(a_rep.follmer_residual):.1e}, mixed-product residual "
        f"{abs(m_rep.follmer_residual):.2e} < 2e-2, product bound holds on all levels",
    )


# --------------------------------------------------------------------------- #
# 10. gauge variation and the transform isometry
# --------------------------------------------------------------------------- #


def test_criterion_10_phi_variation_and_isometry(takagi_fine, fbm08):
    spec = PhiSpec(kind="log-modulated", p_phi=1.0, log_power=0.5)
    v = {j: phi_variation_partial(takagi_fine, badic(1.0, j), spec) for j in (12, 14, 16)}
    cauchy = abs(v[16] - v[14]) / v[14]
    assert cauchy < 0.05

    # conjugate weights in closed form, exactly
    hat_p = phi_hat(PhiSpec(kind="power", p_phi=2.5))
    hat_l = phi_hat(spec)
    grid = np.array([0.25, 0.5, 1.0, 2.0, 3.0])
    assert np.array_equal(hat_p(grid), grid**2.5)
    assert np.array_equal(hat_l(grid), grid)

    fn = SmoothFn(
        fn=lambda x: np.sin(x) + 2.0 * x,
        derivs=(lambda x: np.cos(x) + 2.0, lambda x: -np.sin(x)),
        name="sin(x)+2x",
    )
    iso = isometry_check(
        PhiSpec(kind="power", p_phi=1.25),
        fn,
        fbm08,
        [badic(1.0, j) for j in (8, 10, 12, 14)],
        holder_alpha=0.79,
    )
    assert iso.final_gap < 0.10

    rng = np.random.default_rng(7)
    fails = 0
    for _ in range(100):
        size = int(rng.integers(2, 12))
        a = rng.uniform(0.0, 0.05, size)
        b = rng.uniform(0.0, 0.05, size)
        fails += 0 if generalized_minkowski_check(spec, a, b).ok else 1
    assert fails == 0
    gate(
        10,
        True,
        f"gauge variation Cauchy gap {cauchy:.4f} < 5%, conjugate weights exact, "
        f"isometry gap {iso.final_gap:.2e} < 0.1 at the finest level, "
        f"triangle inequality 0 failures in 100 draws",
    )
