import numpy as np
import pytest

from predictimands import competing, scenarios, simulate
from predictimands.curves import StepFunction
from predictimands.data import CovariateSchema, Status
from predictimands.errors import NoEvents
from predictimands.strategies import Strategy, StrategySpec, estimate
from tests.conftest import one_episode_subject
from tests.records import dataset


def curve_for(ds, strategy, t_hor=10.0, profile=None, **kwargs):
    return estimate(ds, StrategySpec(strategy, t_hor=t_hor, **kwargs), profile)


class TestKaplanMeier:
    def test_d3_product_limit(self, d3):
        curve = curve_for(d3, Strategy.IGNORE_TREATMENT)
        # S(1) = 2/3, S(3) = 0
        assert curve(1.0) == pytest.approx(1 - 2 / 3, abs=1e-12)
        assert curve(3.0) == pytest.approx(1.0, abs=1e-12)
        assert curve(2.5) == pytest.approx(1 / 3, abs=1e-12)

    def test_all_censored_raises(self):
        ds = dataset(
            (one_episode_subject("1", 2.0, Status.CENSORED),), CovariateSchema())
        with pytest.raises(NoEvents):
            curve_for(ds, Strategy.IGNORE_TREATMENT)

    def test_no_censoring_reduces_to_ecdf(self):
        times = [1.0, 2.5, 4.0, 7.0]
        subjects = tuple(one_episode_subject(str(i), t, Status.EVENT)
                         for i, t in enumerate(times, 1))
        ds = dataset(subjects, CovariateSchema())
        curve = curve_for(ds, Strategy.IGNORE_TREATMENT)
        for k, t in enumerate(times, 1):
            assert curve(t) == pytest.approx(k / len(times), abs=1e-12)


class TestAalenJohansen:
    def test_d4_hand_computation(self, d4):
        pair = competing.fit_cause_specific_pair(d4, ties="breslow")
        times, f_ev, f_tr, s = competing.aalen_johansen(pair, {})
        assert list(times) == [1.0, 2.0, 3.0]
        # F_event(4) = 1/4 + (1/2)(1/2), F_treatment(4) = (3/4)(1/3)
        assert f_ev[-1] == pytest.approx(0.50, abs=1e-12)
        assert f_tr[-1] == pytest.approx(0.25, abs=1e-12)
        assert s[-1] == pytest.approx(0.25, abs=1e-12)

    def test_mass_conservation_on_simulated_data(self):
        spec = scenarios.builtin("s1")
        for seed in (1, 2, 3):
            ds = simulate.simulate(spec, 300, seed=seed)
            pair = competing.fit_cause_specific_pair(ds, ties="breslow")
            _, f_ev, f_tr, s = competing.aalen_johansen(pair, {})
            np.testing.assert_allclose(f_ev + f_tr + s, 1.0, atol=1e-12)

    def test_cuminc_equals_km_when_no_treatment(self, d3):
        pair = competing.fit_cause_specific_pair(d3, ties="breslow")
        assert pair.model_treatment is None
        curve = competing.cuminc(pair, {})
        np.testing.assert_allclose(curve.times, [1.0, 3.0])
        np.testing.assert_allclose(curve.risk, [1 / 3, 1.0], atol=1e-14)
        km = curve_for(d3, Strategy.IGNORE_TREATMENT)
        np.testing.assert_allclose(curve.times, km.times)
        np.testing.assert_allclose(curve.risk, km.risk, atol=1e-14)


class TestComposite:
    def test_d4_additivity(self, d4):
        comp = curve_for(d4, Strategy.COMPOSITE)
        assert comp.value_at(4.0) == pytest.approx(0.75, abs=1e-12)
        pair = competing.fit_cause_specific_pair(d4, ties="breslow")
        _, f_ev, f_tr, _ = competing.aalen_johansen(pair, {})
        assert comp.value_at(4.0) == pytest.approx(f_ev[-1] + f_tr[-1], abs=1e-12)

    def test_additivity_everywhere_on_simulated_data(self):
        spec = scenarios.builtin("s1")
        ds = simulate.simulate(spec, 250, seed=9)
        comp = curve_for(ds, Strategy.COMPOSITE, t_hor=spec.admin_censor)
        pair = competing.fit_cause_specific_pair(ds, ties="breslow")
        times, f_ev, f_tr, _ = competing.aalen_johansen(pair, {})
        np.testing.assert_allclose(comp.times, times)
        np.testing.assert_allclose(comp.risk, f_ev + f_tr, atol=1e-12)

    def test_no_treatment_equals_ignore_km(self, d3):
        comp = curve_for(d3, Strategy.COMPOSITE)
        km = curve_for(d3, Strategy.IGNORE_TREATMENT)
        np.testing.assert_allclose(comp.times, km.times)
        np.testing.assert_allclose(comp.risk, km.risk, atol=1e-14)

    def test_composite_with_covariates_is_cox_based(self, d1):
        curve = curve_for(d1, Strategy.COMPOSITE, t_hor=4.0,
                          covariates=("x",), profile={"x": 0.0})
        assert curve.risk[-1] <= 1.0
        assert np.all(np.diff(curve.risk) >= -1e-12)


def _first_times(ds):
    """Per-subject event time and treatment-start time (inf if none)."""
    event, treat = [], []
    for sub in ds.subjects:
        last = sub.episodes[-1]
        event.append(last.tstop if last.status == Status.EVENT else np.inf)
        treat.append(min((ep.tstop for ep in sub.episodes
                          if ep.status == Status.TREATMENT_START), default=np.inf))
    return np.asarray(event), np.asarray(treat)


class TestOrdering:
    def test_nonparametric_ordering_without_dropout(self):
        # with administrative censoring only, the nonparametric curves are
        # empirical fractions, so event-before-treatment <= any-event <=
        # composite holds at every time (random dropout can break this in
        # finite samples)
        spec = scenarios.builtin("s1")
        for seed in (11, 12):
            ds = simulate.simulate(spec, 400, seed=seed)
            wu_curve = curve_for(ds, Strategy.WHILE_UNTREATED, spec.admin_censor)
            ignore = curve_for(ds, Strategy.IGNORE_TREATMENT, spec.admin_censor)
            comp = curve_for(ds, Strategy.COMPOSITE, spec.admin_censor)
            grid = np.unique(np.concatenate([wu_curve.times, ignore.times,
                                             comp.times]))
            grid = grid[grid <= spec.admin_censor - 1e-9]
            wu = StepFunction(wu_curve.times, wu_curve.risk, initial=0.0)(grid)
            ig = StepFunction(ignore.times, ignore.risk, initial=0.0)(grid)
            cp = StepFunction(comp.times, comp.risk, initial=0.0)(grid)
            assert np.all(wu <= ig + 1e-12)
            assert np.all(ig <= cp + 1e-12)

    def test_curves_equal_empirical_fractions_without_dropout(self):
        # an oracle that shares no code with the estimators: with no censoring
        # before the horizon, each curve is the fraction of subjects whose
        # outcome time is at or before t
        spec = scenarios.builtin("s1")
        for seed in (11, 12):
            ds = simulate.simulate(spec, 400, seed=seed)
            event, treat = _first_times(ds)
            outcome = {
                Strategy.IGNORE_TREATMENT: event,
                Strategy.COMPOSITE: np.minimum(event, treat),
                Strategy.WHILE_UNTREATED: np.where(event < treat, event, np.inf),
            }
            for strategy, times in outcome.items():
                curve = curve_for(ds, strategy, spec.admin_censor)
                # the while-untreated grid also holds the treatment starts
                assert np.isin(times[np.isfinite(times)], curve.times).all()
                fraction = np.searchsorted(np.sort(times), curve.times,
                                           side="right") / ds.n_subjects
                np.testing.assert_allclose(curve.risk, fraction, rtol=0,
                                           atol=1e-12)
