"""Functions with supplied derivatives and the ratio-ladder limit rule."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracpath
from fracpath import fracops, smooth
from fracpath.errors import NoLimitError


def test_smoothfn_is_one_object_everywhere():
    assert fracpath.SmoothFn is fracops.SmoothFn is smooth.SmoothFn


def test_ratio_limit_outcomes():
    # a settled tail gives its mean, a geometric decay exactly 0.0
    assert smooth.ratio_limit([5.0, 3.0, 2.0, 2.01, 1.99], "unused") == pytest.approx(2.0)
    assert smooth.ratio_limit(2.0 ** -np.arange(10.0), "unused") == 0.0
    with pytest.raises(NoLimitError, match="^oscillates$"):
        smooth.ratio_limit([1.0, -1.0, 1.0, -1.0], "oscillates")


def median_ratio_limit(ratios, what):
    """``smooth.ratio_limit`` with the middle of its tail taken by ``np.median``."""
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


def outcome(limit, ratios):
    """The limit's float as hex, or the class of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return limit(ratios, "no limit").hex()
    except Exception as exc:
        return type(exc)


# any float, and a grid on which ties, signed zeros, non-finite values and tails whose
# spread sits near 20% of their middle come often
ratio = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, *np.linspace(1.0, 1.5, 11)]),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(ratio, min_size=1, max_size=8))
@example([1.0, 1.21])  # settled by the mean of the two middle values, not by the lower one
@example([1.0, 1.25])  # nor by the upper one
def test_ratio_limit_is_the_median_rule(ratios):
    assert outcome(smooth.ratio_limit, ratios) == outcome(median_ratio_limit, ratios)
