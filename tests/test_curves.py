import numpy as np
import pytest

from predictimands.curves import RiskCurve, StepFunction, SurvivalCurve
from predictimands.errors import InvalidCurve, NumericError


def test_curves_without_jumps_return_their_initial_value():
    assert RiskCurve([], []).value_at(1.0) == 0.0
    assert SurvivalCurve([], [])(1.0) == 1.0
    np.testing.assert_array_equal(
        StepFunction([], [], initial=0.5)(np.array([0.0, 2.0])), [0.5, 0.5])


@pytest.mark.parametrize("build, message", [
    (lambda: StepFunction([1.0, 2.0], [0.1]), "equal length"),
    (lambda: StepFunction([[1.0, 2.0]], [[0.1, 0.2]]), "equal length"),
    (lambda: RiskCurve([1.0, 2.0], [0.1]), "1-d arrays of equal length"),
    (lambda: SurvivalCurve([[1.0, 2.0]], [[0.9, 0.8]]), "1-d arrays of equal length"),
    (lambda: StepFunction([2.0, 1.0], [0.1, 0.2]), "strictly increasing"),
    (lambda: SurvivalCurve([1.0, 1.0], [0.9, 0.8]), "strictly increasing"),
    (lambda: SurvivalCurve([1.0, 2.0], [0.9, 1.2]), r"\[0, 1\]"),
    (lambda: SurvivalCurve([1.0, 2.0], [0.8, 0.9]), "nonincreasing"),
    (lambda: RiskCurve([2.0, 1.0], [0.1, 0.2]), "strictly increasing"),
    (lambda: RiskCurve([0.0, 1.0], [0.1, 0.2]), "positive times"),
    (lambda: RiskCurve([1.0, 2.0], [-0.1, 0.2]), r"\[0, 1\]"),
    (lambda: RiskCurve([1.0, 2.0], [0.3, 0.2]), "nondecreasing"),
])
def test_broken_invariant_raises_numeric_error(build, message):
    with pytest.raises(InvalidCurve, match=message) as exc:
        build()
    assert isinstance(exc.value, NumericError)
