"""The kink-graded quadrature rule against closed-form integrals."""

import math
import re

import numpy as np
import pytest

from fracpath._quad import gauss_legendre, integrate_kinked
from fracpath.errors import InvalidParameterError, QuadratureError


@pytest.mark.parametrize("s", [-0.9, -0.5, 0.05, 0.5, 2.2])
def test_kink_at_zero(s):
    got = integrate_kinked(lambda t, _: np.abs(t) ** s, 0.0, 1.0, [(0.0, s)], 1e-12)
    assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-12)


@pytest.mark.parametrize("s", [-0.5, -0.3, 0.05, 0.5, 2.2])
def test_interior_kink(s):
    # integral_0^1 |t - k|^s dt = (k^(s+1) + (1-k)^(s+1)) / (s+1)
    k = 0.3
    want = (k ** (s + 1.0) + (1.0 - k) ** (s + 1.0)) / (s + 1.0)
    got = integrate_kinked(lambda t, _: np.abs(t - k) ** s, 0.0, 1.0, [(k, s)], 1e-12)
    assert got == pytest.approx(want, rel=1e-11)


def test_kink_beyond_an_end_grades_within_one_piece_length():
    # the singular point 1.2 sits 0.2 beyond [0, 1]: the end is graded toward it
    s = -0.6
    want = (1.2 ** (s + 1.0) - 0.2 ** (s + 1.0)) / (s + 1.0)
    got = integrate_kinked(lambda t, _: np.abs(t - 1.2) ** s, 0.0, 1.0, [(1.2, s)], 1e-12)
    assert got == pytest.approx(want, rel=1e-11)


def test_batch_is_the_per_integral_loop_and_the_closed_form():
    # integral_lo^hi c_i |t - k|^s dt across, from, toward and beyond the kink,
    # empty and reversed: one batch, each integral with its own factor c_i
    k, s = 0.3, -0.4
    lo = np.array([[0.0, 0.3, -0.5], [0.35, 0.2, 1.0]])
    hi = np.array([[1.0, 0.8, 0.3], [0.9, 0.2, 0.5]])
    c = np.arange(1.0, 7.0)

    got = integrate_kinked(lambda t, i: c[i] * np.abs(t - k) ** s, lo, hi, [(k, s)], 1e-12)
    alone = [
        float(integrate_kinked(lambda t, _: ci * np.abs(t - k) ** s, x0, x1, [(k, s)], 1e-12))
        for ci, x0, x1 in zip(c, lo.ravel().tolist(), hi.ravel().tolist())
    ]
    assert got.shape == lo.shape
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in alone]

    def antiderivative(x):
        return np.sign(x - k) * np.abs(x - k) ** (s + 1.0) / (s + 1.0)

    closed = c.reshape(lo.shape) * (antiderivative(hi) - antiderivative(lo))
    want = np.where(hi > lo, closed, 0.0)
    assert np.allclose(got, want, rtol=1e-11, atol=0.0)


def test_failure_names_the_kink():
    # |t - 0.7|^0.05 is undeclared, so the piece graded toward 0 cannot settle
    def g(t, _):
        return np.abs(t) ** 0.5 + np.abs(t - 0.7) ** 0.05

    with pytest.raises(QuadratureError, match=r"kink at 0 with exponent s = 0.5"):
        integrate_kinked(g, 0.0, 1.0, [(0.0, 0.5)], 1e-12)


def test_non_finite_panel_sum_raises():
    with pytest.raises(QuadratureError, match="panel sum is inf"):
        integrate_kinked(lambda t, _: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0, [], 1e-9)


def test_batch_raises_its_first_failing_row_and_integrates_no_point_twice():
    # row 0 (|t - 0.7|^0.05, the kink undeclared) fails at the doubling cap;
    # row 1 (inf past 2.5) goes non-finite on its first panel, long before.
    # Row 0's own error is raised, and no point is evaluated twice
    seen = []

    def g(t, _):
        seen.append(t.ravel().copy())
        return np.where(t < 2.0, np.abs(t - 0.7) ** 0.05, np.where(t > 2.5, np.inf, 1.0))

    with pytest.raises(QuadratureError, match=r"after 16384 panels on \[0, 1\]$"):
        integrate_kinked(g, [0.0, 2.0], [1.0, 3.0], [], 1e-12)
    points = np.concatenate(seen)
    # row 0 on 1 + 2 + ... + 16384 panels of 32 points, row 1 on one panel
    assert np.unique(points).size == points.size == 32 * (2**15 - 1) + 32


def test_non_integrable_kink_rejected():
    with pytest.raises(InvalidParameterError, match="must exceed -1, got -1.0"):
        integrate_kinked(lambda t, _: np.abs(t) ** -1.0, 0.0, 1.0, [(0.0, -1.0)], 1e-9)
    def cos(t, _):
        return np.cos(t)

    assert integrate_kinked(cos, 1.0, 1.0, [(0.0, -1.0)], 1e-9) == 0.0
    assert integrate_kinked(cos, 0.0, math.pi / 2, [], 1e-12) == pytest.approx(1.0, rel=1e-12)


def test_non_integrable_kink_is_refused_before_any_integrand_call():
    # 1024 intervals far from the kink fill the first batch; only the last
    # interval is graded toward the kink (6.5, -1), in the second batch
    points = []

    def g(t, _):
        points.append(t.size)
        return np.ones_like(t)

    lo = np.append(np.linspace(-100.0, -90.0, 1024), 5.0)
    with pytest.raises(InvalidParameterError, match=re.escape("integrable |t - 6.5|**s")):
        integrate_kinked(g, lo, lo + 1.0, [(6.5, -1.0)], 1e-9)
    assert points == []


def test_lazy_node_table_is_numpys_bit_for_bit():
    nodes, weights = gauss_legendre(32)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(32)
    assert np.array_equal(nodes.view(np.uint64), ref_nodes.view(np.uint64))
    assert np.array_equal(weights.view(np.uint64), ref_weights.view(np.uint64))
    assert gauss_legendre(32)[0] is nodes  # built once
    assert not nodes.flags.writeable and not weights.flags.writeable
