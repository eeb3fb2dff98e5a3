import json
import math

import numpy as np
import pytest

from predictimands import scenarios, simulate
from predictimands.data import Status, write_csv
from predictimands.errors import InvalidIntensity, ScenarioError
from predictimands.simulate import (
    IntensitySpec,
    constant_intensity_risks,
    simulate_trajectories,
    true_risks,
    validate,
)
from predictimands.strategies import HypotheticalMethod, Strategy, StrategySpec


def no_treatment_spec():
    return IntensitySpec.from_dict({
        "name": "notx", "admin_censor": 10.0,
        "treatment": {"base": 0.0},
        "death_untreated": {"base": 0.2},
        "death_treated": {"base": 0.05},
    })


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        spec = scenarios.builtin("s2")
        a = simulate.simulate(spec, 60, seed=5)
        b = simulate.simulate(spec, 60, seed=5)
        assert a == b
        assert simulate.simulate(spec, 60, seed=6) != a

    def test_workers_do_not_change_output(self, tmp_path):
        spec = scenarios.builtin("s2")
        serial = simulate.simulate(spec, 80, seed=9, workers=1)
        threaded = simulate.simulate(spec, 80, seed=9, workers=4)
        assert serial == threaded
        p1, p4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        write_csv(serial, p1)
        write_csv(threaded, p4)
        assert p1.read_bytes() == p4.read_bytes()


class TestTrajectoryLaw:
    def test_no_treatment_intensity_means_no_starts(self):
        ds = simulate.simulate(no_treatment_spec(), 300, seed=3)
        assert not ds.has_treatment_starts
        assert not ds.treated.any()

    def test_counterfactual_consistency(self):
        trajs = simulate_trajectories(no_treatment_spec(), 300, seed=3)
        for tr in trajs:
            assert tr.treat_time == math.inf
            assert tr.death_time == tr.latent_death

    def test_one_terminal_state_per_subject(self):
        ds = simulate.simulate(scenarios.builtin("s1"), 400, seed=12)
        for sub in ds.subjects:
            terminal = [ep for ep in sub.episodes
                        if ep.status in (Status.EVENT, Status.CENSORED)]
            assert len(terminal) == 1 and terminal[0] is sub.episodes[-1]
            starts = [ep for ep in sub.episodes
                      if ep.status == Status.TREATMENT_START]
            assert len(starts) <= 1

    def test_random_dropout_censors_early(self):
        d = {**scenarios.builtin_dict("s1"), "dropout_rate": 0.3}
        spec = IntensitySpec.from_dict(d)
        trajs = simulate_trajectories(spec, 2000, seed=14)
        early = [t for t in trajs if t.censor_time < spec.admin_censor]
        # dropout hazard 0.3 over 10 units: most subjects draw a finite time
        assert len(early) > 1500
        # the dropout clock matches its exponential law (3-sigma)
        mean_draw = np.mean([min(t.censor_time, spec.admin_censor)
                             for t in trajs])
        expected = (1 - math.exp(-0.3 * 10)) / 0.3
        assert abs(mean_draw - expected) < 3 * (1 / 0.3) / math.sqrt(2000)
        ds = simulate.simulate(spec, 500, seed=14)
        assert ds.n_subjects == 500

    def test_stops_design_truncates_at_treatment(self):
        d = {**scenarios.builtin_dict("s1"), "design": "stops"}
        spec = IntensitySpec.from_dict(d)
        ds = simulate.simulate(spec, 300, seed=8)
        trajs = simulate_trajectories(spec, 300, seed=8)
        assert ds.design.value == "stops"
        assert not ds.treated.any()
        assert ds.has_treatment_starts
        for sub, tr in zip(ds.subjects, trajs):
            end = sub.episodes[-1].tstop
            assert end == pytest.approx(min(tr.latent_death, tr.treat_time, tr.censor_time))
            if sub.episodes[-1].status == Status.TREATMENT_START:
                assert tr.treat_time == pytest.approx(end)

    def test_transition_rates_match_spec(self):
        # occurrence / exposure estimates with 3-sigma Poisson bounds
        spec = scenarios.builtin("s1")
        trajs = simulate_trajectories(spec, 100_000, seed=77)
        pt_untreated = sum(min(t.latent_death, t.treat_time, t.censor_time)
                           for t in trajs)
        n_treat = sum(t.treat_time < min(t.latent_death, t.censor_time)
                      for t in trajs)
        n_death0 = sum(t.latent_death < min(t.treat_time, t.censor_time)
                       for t in trajs)
        pt_treated = sum(min(t.death_time, t.censor_time) - t.treat_time
                         for t in trajs
                         if t.treat_time < min(t.latent_death, t.censor_time))
        n_death1 = sum(t.treat_time < min(t.latent_death, t.censor_time)
                       and t.death_time <= t.censor_time for t in trajs)
        for n, pt, rate in ((n_treat, pt_untreated, 0.1),
                            (n_death0, pt_untreated, 0.2),
                            (n_death1, pt_treated, 0.05)):
            assert abs(n / pt - rate) < 3 * math.sqrt(rate / pt)

    def test_empirical_composite_risk_matches_analytic(self):
        trajs = simulate_trajectories(scenarios.builtin("s1"), 100_000, seed=42)
        p = np.mean([min(t.latent_death, t.treat_time) <= 5.0 for t in trajs])
        expected = 0.7769
        assert abs(p - expected) < 3 * math.sqrt(expected * (1 - expected) / 100_000)


class TestTruthOracle:
    def test_s1_closed_forms(self):
        oracle = true_risks(scenarios.builtin("s1"), {}, t_hor=5.0)
        assert oracle.method == "analytic"
        assert oracle.risks["hypothetical"] == pytest.approx(0.6321, abs=5e-5)
        assert oracle.risks["composite"] == pytest.approx(0.7769, abs=5e-5)
        assert oracle.risks["while-untreated"] == pytest.approx(0.5179, abs=5e-5)
        assert oracle.risks["ignore"] == pytest.approx(0.5546, abs=5e-5)

    def test_ignore_decomposition(self):
        r = constant_intensity_risks(0.1, 0.2, 0.05, 5.0)
        assert r["ignore"] == pytest.approx(0.5179 + 0.0367, abs=1e-4)

    def test_no_treatment_all_equal(self):
        r = constant_intensity_risks(0.0, 0.2, 0.05, 5.0)
        expected = -math.expm1(-0.2 * 5.0)
        for key in ("hypothetical", "composite", "while-untreated", "ignore"):
            assert r[key] == pytest.approx(expected, abs=1e-12)

    def test_zero_horizon_gives_zero_risks(self):
        r = constant_intensity_risks(0.1, 0.2, 0.05, 0.0)
        assert all(v == 0.0 for v in r.values())

    def test_equal_death_intensities_align_hypothetical_and_ignore(self):
        r = constant_intensity_risks(0.1, 0.2, 0.2, 5.0)
        assert r["ignore"] == pytest.approx(r["hypothetical"], abs=1e-12)

    def test_monte_carlo_agrees_with_analytic(self):
        # a zero-coefficient covariate forces the Monte Carlo branch while
        # leaving the law identical to s1
        d = scenarios.builtin_dict("s1")
        d = {**d, "grid_step": 1.0,
             "tv_covariates": {"z": {"init": {"dist": "normal", "mean": 0.0,
                                              "sd": 1.0}}},
             "treatment": {"base": 0.1, "log_hr": {"z": 0.0}}}
        spec = IntensitySpec.from_dict(d)
        oracle = true_risks(spec, {}, t_hor=5.0, mc_reps=40_000)
        assert oracle.method == "monte-carlo"
        analytic = true_risks(scenarios.builtin("s1"), {}, t_hor=5.0)
        for key, value in oracle.risks.items():
            assert abs(value - analytic.risks[key]) < 4 * oracle.se[key] + 1e-9

    def test_horizon_beyond_grid_rejected(self):
        with pytest.raises(ScenarioError):
            true_risks(scenarios.builtin("s1"), {}, t_hor=11.0)


class TestScenarioParsing:
    def test_negative_intensity_rejected(self):
        with pytest.raises(InvalidIntensity):
            IntensitySpec.from_dict({
                "treatment": {"base": -0.1},
                "death_untreated": {"base": 0.2},
                "death_treated": {"base": 0.05}})

    def test_missing_intensity_rejected(self):
        with pytest.raises(ScenarioError, match="death_treated"):
            IntensitySpec.from_dict({
                "treatment": {"base": 0.1},
                "death_untreated": {"base": 0.2}})

    def test_undeclared_covariate_rejected(self):
        with pytest.raises(ScenarioError, match="undeclared"):
            IntensitySpec.from_dict({
                "treatment": {"base": 0.1, "log_hr": {"z": 1.0}},
                "death_untreated": {"base": 0.2},
                "death_treated": {"base": 0.05}})

    def test_grid_required_with_tv(self):
        with pytest.raises(ScenarioError, match="grid_step"):
            IntensitySpec.from_dict({
                "tv_covariates": {"z": {"init": {"dist": "normal",
                                                 "mean": 0, "sd": 1}}},
                "treatment": {"base": 0.1},
                "death_untreated": {"base": 0.2},
                "death_treated": {"base": 0.05}})

    def test_round_trip(self):
        spec = scenarios.builtin("s2")
        assert IntensitySpec.from_dict(spec.to_dict()) == spec

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError, match="unknown builtin"):
            scenarios.builtin("nope")

    def test_tst_step_function(self):
        spec = IntensitySpec.from_dict({
            "treatment": {"base": 0.1},
            "death_untreated": {"base": 0.2},
            "death_treated": {"base": 0.05, "tst_cuts": [1.0],
                              "tst_log_hr": [0.0, 1.0]}})
        assert spec.death_treated.rate({}, tst=0.5) == pytest.approx(0.05)
        assert spec.death_treated.rate({}, tst=1.5) == pytest.approx(0.05 * math.e)


class TestValidate:
    def strategy_specs(self):
        return [
            StrategySpec(Strategy.HYPOTHETICAL, t_hor=5.0,
                         hypothetical_method=HypotheticalMethod.CENSOR_BASELINE),
            StrategySpec(Strategy.COMPOSITE, t_hor=5.0),
            StrategySpec(Strategy.WHILE_UNTREATED, t_hor=5.0),
            StrategySpec(Strategy.IGNORE_TREATMENT, t_hor=5.0),
        ]

    def test_smoke_run_tiny_n(self):
        report = validate(scenarios.builtin("s1"), n=10, seeds=[1, 2],
                          strategy_specs=self.strategy_specs(), t_hor=5.0,
                          tolerance=0.5)
        assert set(report["strategies"]) == {"hypothetical:censor", "composite",
                                             "while-untreated", "ignore"}
        for entry in report["strategies"].values():
            assert "bias" in entry or entry["errors"]
        json.dumps(report)  # report must be serializable

    def test_unexpected_errors_propagate(self, monkeypatch):
        from predictimands import strategies

        def broken(ds, spec, profile):
            raise TypeError("not an estimation failure")

        monkeypatch.setattr(strategies, "estimate", broken)
        with pytest.raises(TypeError, match="not an estimation failure"):
            validate(scenarios.builtin("s1"), n=10, seeds=[1],
                     strategy_specs=self.strategy_specs(), t_hor=5.0,
                     tolerance=0.5, mc_reps=1000)

    def test_validate_flags_failures(self):
        report = validate(scenarios.builtin("s1"), n=400, seeds=[1],
                          strategy_specs=self.strategy_specs(), t_hor=5.0,
                          tolerance=1e-6)
        assert not report["all_passed"]
