import numpy as np

from predictimands.curves import RiskCurve, StepFunction, SurvivalCurve


def test_curves_without_jumps_return_their_initial_value():
    assert RiskCurve([], []).value_at(1.0) == 0.0
    assert SurvivalCurve([], [])(1.0) == 1.0
    np.testing.assert_array_equal(
        StepFunction([], [], initial=0.5)(np.array([0.0, 2.0])), [0.5, 0.5])
