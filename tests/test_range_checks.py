"""Library range checks refuse NaN and inf by name: a check written as
``p <= 0`` lets NaN through, so each is written so that NaN fails it."""

import math
import re

import numpy as np
import pytest

from fracpath.errors import InvalidParameterError, InvalidPhiError
from fracpath.follmer import quotient_measure, young_bound_check
from fracpath.fracops import FracOrder, caputo, local_frac_derivative, rl_integral
from fracpath.isometry import PhiSpec, admissibility_threshold, phi_inverse
from fracpath.partitions import Partition, badic
from fracpath.paths import SampledPath
from fracpath.variation import pth_variation_partial, variation_table

NAN, INF = math.nan, math.inf


def _range_checked_entries(path):
    """Every library entry whose range check a NaN or inf would pass if it
    were a plain comparison, as zero-argument calls with the error and
    message each must raise."""
    part = Partition(path.times)
    positive_p = (InvalidParameterError, "p must be positive and finite, got nan")
    need_a_x = (InvalidParameterError, "need finite a <= x, got a=")
    return {
        "variation_table-p": (lambda: variation_table(path, part, NAN, [0.7]), *positive_p),
        "pth_variation_partial-p": (lambda: pth_variation_partial(path, part, NAN), *positive_p),
        "quotient_measure-p": (lambda: quotient_measure(path, part, NAN), *positive_p),
        "young_bound_check-alphas": (
            lambda: young_bound_check([path], [NAN], [part]),
            InvalidParameterError,
            "alphas must be positive and finite, got (nan,)",
        ),
        "phi_inverse-y-nan": (
            lambda: phi_inverse(PhiSpec(), NAN),
            InvalidPhiError,
            "gauge value y must be finite and nonnegative, got nan",
        ),
        "phi_inverse-y-inf": (
            lambda: phi_inverse(PhiSpec(), INF),
            InvalidPhiError,
            "gauge value y must be finite and nonnegative, got inf",
        ),
        "rl_integral-x": (lambda: rl_integral(np.sin, 0.5, 0.0, NAN), *need_a_x),
        "rl_integral-a": (lambda: rl_integral(np.sin, 0.5, NAN, 1.0), *need_a_x),
        "caputo-x": (lambda: caputo(np.sin, FracOrder(0.5), 0.0, NAN), *need_a_x),
        "caputo-a": (lambda: caputo(np.sin, FracOrder(0.5), NAN, 1.0), *need_a_x),
        "admissibility_threshold-p_phi": (
            lambda: admissibility_threshold(NAN),
            InvalidParameterError,
            "p_phi must be positive and finite, got nan",
        ),
        "FracOrder-nan": (
            lambda: FracOrder(NAN),
            InvalidParameterError,
            "order must be positive and finite, got nan",
        ),
        "FracOrder-inf": (
            lambda: FracOrder(INF),
            InvalidParameterError,
            "order must be positive and finite, got inf",
        ),
        "local_frac_derivative-alpha": (
            lambda: local_frac_derivative(np.sin, INF, 0.0),
            InvalidParameterError,
            "alpha must be positive, finite and non-integer, got inf",
        ),
        "badic-horizon": (
            lambda: badic(INF, 3),
            InvalidParameterError,
            "horizon must be positive and finite, got inf",
        ),
    }


ENTRIES = _range_checked_entries(
    SampledPath(np.linspace(0.0, 1.0, 5), [0.0, 0.3, -0.2, 0.4, 0.0])
)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_finite_parameter_is_refused_by_name(entry):
    call, error, message = ENTRIES[entry]
    with pytest.raises(error, match=re.escape(message)):
        call()
