import numpy as np
import pytest

from predictimands import scenarios, simulate
from predictimands.data import (
    CovariateSchema,
    DesignFlavor,
    Episode,
    Status,
    SubjectRecord,
    split_at_treatment,
)
from predictimands.errors import DataError, DesignMismatch, PositivityWarning
from predictimands.simulate import IntensitySpec
from predictimands.strategies import (
    HypotheticalMethod,
    Strategy,
    StrategySpec,
    estimate,
    estimate_all,
)
from tests.records import dataset


def spec_for(strategy, method=None, t_hor=5.0, **kw):
    return StrategySpec(strategy, t_hor=t_hor, hypothetical_method=method, **kw)


class TestSpecValidation:
    def test_method_requires_hypothetical(self):
        with pytest.raises(DataError):
            StrategySpec(Strategy.COMPOSITE, t_hor=5.0,
                         hypothetical_method=HypotheticalMethod.CENSOR_BASELINE)

    def test_hypothetical_defaults_to_censor(self):
        s = StrategySpec(Strategy.HYPOTHETICAL, t_hor=5.0)
        assert s.hypothetical_method == HypotheticalMethod.CENSOR_BASELINE

    def test_horizon_positive(self):
        with pytest.raises(DataError):
            StrategySpec(Strategy.COMPOSITE, t_hor=0.0)


class TestDesignGating:
    @pytest.fixture
    def stops_ds(self):
        return dataset(
            split_at_treatment(simulate.simulate(scenarios.builtin("s1"), 150, seed=2)).subjects,
            CovariateSchema(), DesignFlavor.STOPS_AT_TREATMENT)

    def test_ignore_needs_continued_follow_up(self, stops_ds):
        with pytest.raises(DesignMismatch):
            estimate(stops_ds, spec_for(Strategy.IGNORE_TREATMENT))

    def test_model_methods_need_continued_follow_up(self, stops_ds):
        for method in (HypotheticalMethod.MODEL_BASELINE,
                       HypotheticalMethod.MODEL_IPTW):
            with pytest.raises(DesignMismatch):
                estimate(stops_ds, spec_for(Strategy.HYPOTHETICAL, method))

    def test_censor_strategies_accept_stops_design(self, stops_ds):
        for strategy, method in ((Strategy.COMPOSITE, None),
                                 (Strategy.WHILE_UNTREATED, None),
                                 (Strategy.HYPOTHETICAL,
                                  HypotheticalMethod.CENSOR_BASELINE)):
            curve = estimate(stops_ds, spec_for(strategy, method))
            assert curve.risk.size > 0

    def test_estimate_all_partial_results(self, stops_ds):
        res = estimate_all(stops_ds, spec_for(Strategy.HYPOTHETICAL,
                                              HypotheticalMethod.CENSOR_BASELINE))
        assert Strategy.IGNORE_TREATMENT in res.failures
        assert "DesignMismatch" in res.failures[Strategy.IGNORE_TREATMENT]
        assert set(res.curves) == {Strategy.COMPOSITE, Strategy.WHILE_UNTREATED,
                                   Strategy.HYPOTHETICAL}


class TestTrivialEquivalences:
    def test_no_treatment_all_strategies_agree(self):
        spec = IntensitySpec.from_dict({
            "name": "notx", "admin_censor": 10.0,
            "treatment": {"base": 0.0},
            "death_untreated": {"base": 0.2},
            "death_treated": {"base": 0.05},
        })
        ds = simulate.simulate(spec, 400, seed=21)
        assert not ds.has_treatment_starts
        res = estimate_all(ds, spec_for(Strategy.HYPOTHETICAL,
                                        HypotheticalMethod.CENSOR_BASELINE))
        assert not res.failures
        curves = list(res.curves.values())
        grid = np.linspace(0.01, 5.0, 200)
        base = curves[0]
        for other in curves[1:]:
            np.testing.assert_allclose(
                [other.value_at(t) for t in grid],
                [base.value_at(t) for t in grid], atol=1e-10)

    def test_censor_and_ipcw_coincide_with_zero_effect_denominator(self):
        # constant weight covariate: the fitted effect is exactly zero, so
        # the stabilized weights are exactly one and the curves identical
        spec = scenarios.builtin("s1")
        raw = simulate.simulate(spec, 300, seed=33)
        subjects = tuple(
            SubjectRecord(s.subject_id,
                          tuple(Episode(e.tstart, e.tstop, e.status, e.treated,
                                        {"c": 1.0}) for e in s.episodes),
                          s.baseline)
            for s in raw.subjects)
        ds = dataset(
            subjects, CovariateSchema(time_varying=("c",)), raw.design)
        censor = estimate(ds, spec_for(Strategy.HYPOTHETICAL,
                                       HypotheticalMethod.CENSOR_BASELINE))
        ipcw = estimate(ds, spec_for(Strategy.HYPOTHETICAL,
                                     HypotheticalMethod.CENSOR_IPCW,
                                     weight_covariates=("c",)))
        np.testing.assert_array_equal(censor.times, ipcw.times)
        np.testing.assert_array_equal(censor.risk, ipcw.risk)


class TestS1Recovery:
    def test_ordering_at_horizon(self):
        ds = simulate.simulate(scenarios.builtin("s1"), 4000, seed=8)
        res = estimate_all(ds, spec_for(Strategy.HYPOTHETICAL,
                                        HypotheticalMethod.CENSOR_BASELINE))
        assert not res.failures
        at5 = {s: res.curves[s].value_at(5.0) for s in res.curves}
        assert (at5[Strategy.COMPOSITE] > at5[Strategy.HYPOTHETICAL]
                > at5[Strategy.IGNORE_TREATMENT] > at5[Strategy.WHILE_UNTREATED])

    def test_values_near_analytic_truth(self):
        ds = simulate.simulate(scenarios.builtin("s1"), 4000, seed=8)
        truth = simulate.true_risks(scenarios.builtin("s1"), {}, t_hor=5.0)
        res = estimate_all(ds, spec_for(Strategy.HYPOTHETICAL,
                                        HypotheticalMethod.CENSOR_BASELINE))
        for strategy, curve in res.curves.items():
            assert curve.value_at(5.0) == pytest.approx(
                truth.risks[strategy.value], abs=0.035)

    def test_curves_respect_horizon(self):
        ds = simulate.simulate(scenarios.builtin("s1"), 500, seed=8)
        res = estimate_all(ds, spec_for(Strategy.HYPOTHETICAL,
                                        HypotheticalMethod.CENSOR_BASELINE,
                                        t_hor=3.0))
        for curve in res.curves.values():
            assert curve.times.max() <= 3.0
            assert curve.horizon == 3.0


class TestBaselineOnlyDecisions:
    def test_all_hypothetical_methods_recover_truth(self):
        # treatment decisions depend only on age, which every outcome model
        # includes, so all four estimation routes are valid
        spec = scenarios.builtin("age_gap")
        profile = {"age": 60.0}
        truth = simulate.true_risks(spec, profile, t_hor=10.0)
        ds = simulate.simulate(spec, 4000, seed=17)
        for method in HypotheticalMethod:
            s = spec_for(Strategy.HYPOTHETICAL, method, t_hor=10.0,
                         covariates=("age",), weight_covariates=("age",))
            value = estimate(ds, s, profile).value_at(10.0)
            assert value == pytest.approx(truth.risks["hypothetical"], abs=0.04), method


class TestModelIptwGuard:
    def test_tv_covariates_rejected_in_msm_outcome_model(self):
        ds = simulate.simulate(scenarios.builtin("s2"), 200, seed=2)
        s = spec_for(Strategy.HYPOTHETICAL, HypotheticalMethod.MODEL_IPTW,
                     covariates=("z",), weight_covariates=("z",))
        with pytest.raises(DataError, match="time-varying"):
            estimate(ds, s)


class TestPositivity:
    def test_warning_when_no_untreated_person_time_left(self):
        subjects = (
            SubjectRecord("1", (Episode(0.0, 1.0, Status.TREATMENT_START),
                                Episode(1.0, 9.0, Status.EVENT, treated=True))),
            SubjectRecord("2", (Episode(0.0, 2.0, Status.EVENT),)),
            SubjectRecord("3", (Episode(0.0, 1.5, Status.EVENT),)),
        )
        ds = dataset(subjects, CovariateSchema())
        with pytest.warns(PositivityWarning):
            estimate(ds, spec_for(Strategy.HYPOTHETICAL,
                                  HypotheticalMethod.CENSOR_BASELINE, t_hor=8.0))
