"""Functions with supplied derivatives and the ratio-ladder limit rule."""

import numpy as np
import pytest

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
