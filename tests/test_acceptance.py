"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Tolerances are frozen here; the heavy criteria also assert
their stated runtime budgets.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from predictimands import competing, cox, scenarios, simulate, weights
from predictimands.data import write_csv
from predictimands.simulate import IntensitySpec, validate
from predictimands.strategies import (
    HypotheticalMethod,
    Strategy,
    StrategySpec,
    estimate,
    estimate_all,
    fit_strategy_models,
)
from tests.test_cox import d1_hand_loglik, random_dataset

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    box = {"elapsed": None}
    try:
        yield box
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL - {description}")
        raise
    box["elapsed"] = time.perf_counter() - start
    print(f"\nACCEPTANCE {num}: PASS - {description} "
          f"[{box['elapsed']:.1f}s]")


def spec_for(strategy, method=None, t_hor=5.0, **kw):
    return StrategySpec(strategy, t_hor=t_hor, hypothetical_method=method, **kw)


def test_criterion_1_cox_correctness(d1, d2):
    with criterion(1, "Cox correctness on D1/D2 (beta, Breslow/Efron baselines)"):
        start = time.perf_counter()
        model = cox.fit(d1, cox.CoxSpec(covariates=("x",), ties="efron"))
        oracle = minimize_scalar(lambda b: -d1_hand_loglik(b),
                                 bracket=(-2.0, 0.0, 2.0), method="golden",
                                 options={"xtol": 1e-12})
        assert abs(model.beta[0] - oracle.x) <= 1e-6
        assert abs(model.beta[0] - 0.5 * math.log(2.0)) <= 1e-6

        breslow = cox.fit(d1, cox.CoxSpec(covariates=("x",), ties="breslow"))
        h0 = cox.baseline_cumhaz(breslow)
        assert abs(h0(2.0) - 0.5) <= 1e-9

        efron = cox.fit(d2, cox.CoxSpec(ties="efron"))
        breslow2 = cox.fit(d2, cox.CoxSpec(ties="breslow"))
        assert abs(efron.baseline_increments[0] - 5 / 6) <= 1e-12
        assert abs(breslow2.baseline_increments[0] - 2 / 3) <= 1e-12
        assert time.perf_counter() - start < 1.0


def _random_weights(ds, rng):
    """One uniform(0.5, 2) weight per row, drawn in row order."""
    return weights.WeightTable(tuple(
        weights.WeightRow(sub.subject_id, ep.tstart, ep.tstop,
                          float(rng.uniform(0.5, 2.0)))
        for sub in ds.subjects for ep in sub.episodes), weights.WeightMode.IPCW)


def test_criterion_2_gradient_and_curvature():
    with criterion(2, "score/information match finite differences on 100 "
                      "random datasets"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        h = 1e-5
        for k in range(100):
            ds = random_dataset(rng, n_max=30, p=2,
                                with_ties=bool(k % 3 == 0),
                                multi_episode=bool(k % 2))
            ties = "efron" if k % 2 else "breslow"
            wt = (_random_weights(ds, np.random.default_rng(k)) if k % 4 == 0
                  else None)
            spec = cox.CoxSpec(covariates=("x0", "x1"), ties=ties, weights=wt)
            beta = rng.normal(size=2) * 0.6
            an_score = cox.score(ds, spec, beta)
            an_info = cox.information(ds, spec, beta)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (cox.partial_loglik(ds, spec, beta + e)
                      - cox.partial_loglik(ds, spec, beta - e)) / (2 * h)
                assert abs(fd - an_score[j]) <= 1e-6 * max(1.0, abs(an_score[j]))
                fd_info = -(cox.score(ds, spec, beta + e)
                            - cox.score(ds, spec, beta - e)) / (2 * h)
                np.testing.assert_allclose(fd_info, an_info[:, j],
                                           rtol=1e-5, atol=1e-7)
        assert time.perf_counter() - start < 30.0


def test_criterion_3_competing_risks_conservation():
    with criterion(3, "F_event + F_treatment + S_overall = 1 (1e-12) and "
                      "composite additivity on every generated dataset"):
        for name in ("s1", "s2", "age_gap"):
            spec = scenarios.builtin(name)
            for seed in (1, 2, 3):
                ds = simulate.simulate(spec, 400, seed=seed)
                t_hor = spec.admin_censor
                wu = fit_strategy_models(
                    ds, StrategySpec(Strategy.WHILE_UNTREATED, t_hor=t_hor))
                pair = competing.CauseSpecificPair(wu.models["event"],
                                                   wu.models.get("treatment"))
                times, f_ev, f_tr, s = competing.aalen_johansen(pair, {}, t_hor)
                assert np.abs(f_ev + f_tr + s - 1.0).max() <= 1e-12
                comp = estimate(ds, StrategySpec(Strategy.COMPOSITE, t_hor=t_hor))
                np.testing.assert_array_equal(comp.times, times)
                assert np.abs(comp.risk - (f_ev + f_tr)).max() <= 1e-12


TRUTH_S1 = {"hypothetical": 0.6321, "composite": 0.7769,
            "while-untreated": 0.5179, "ignore": 0.5546}


def test_criterion_4_estimand_recovery_s1():
    with criterion(4, "S1 seed-mean estimates within 0.02 of analytic truths"
                      " (n=5000, 20 seeds)") as box:
        start = time.perf_counter()
        specs = [
            spec_for(Strategy.HYPOTHETICAL, HypotheticalMethod.CENSOR_BASELINE),
            spec_for(Strategy.COMPOSITE),
            spec_for(Strategy.WHILE_UNTREATED),
            spec_for(Strategy.IGNORE_TREATMENT),
        ]
        report = validate(scenarios.builtin("s1"), n=5000,
                          seeds=range(1, 21), strategy_specs=specs,
                          t_hor=5.0, tolerance=0.02)
        assert report["truth_method"] == "analytic"
        label = {"hypothetical": "hypothetical:censor", "composite": "composite",
                 "while-untreated": "while-untreated", "ignore": "ignore"}
        for key, frozen in TRUTH_S1.items():
            entry = report["strategies"][label[key]]
            assert not entry["errors"]
            assert abs(entry["mean"] - frozen) <= 0.02, (key, entry["mean"])
            assert abs(entry["truth"] - frozen) <= 5e-5
        assert report["all_passed"]
        assert time.perf_counter() - start < 120.0


def test_criterion_5_confounding_correction_s2():
    with criterion(5, "S2: |bias(censor-ipcw)| < |bias(censor)|; censor bias "
                      "> 0.03, ipcw bias < 0.02 (n=5000, 20 seeds)"):
        specs = [
            spec_for(Strategy.HYPOTHETICAL, HypotheticalMethod.CENSOR_BASELINE),
            spec_for(Strategy.HYPOTHETICAL, HypotheticalMethod.CENSOR_IPCW,
                     weight_covariates=("z",)),
        ]
        report = validate(scenarios.builtin("s2"), n=5000, seeds=range(1, 21),
                          strategy_specs=specs, t_hor=5.0, tolerance=0.02,
                          mc_reps=200_000)
        naive = report["strategies"]["hypothetical:censor"]
        ipcw = report["strategies"]["hypothetical:censor-ipcw"]
        assert not naive["errors"] and not ipcw["errors"]
        assert abs(ipcw["bias"]) < abs(naive["bias"])
        assert abs(naive["bias"]) > 0.03
        assert abs(ipcw["bias"]) < 0.02


def test_criterion_6_trivial_equivalences():
    with criterion(6, "no-treatment agreement (1e-10), ineffective-treatment "
                      "agreement (MC tol), unit weights for identical models"):
        # (a) lambda_treat = 0: all four strategies coincide pointwise
        no_tx = IntensitySpec.from_dict({
            "name": "notx", "admin_censor": 10.0,
            "treatment": {"base": 0.0},
            "death_untreated": {"base": 0.2},
            "death_treated": {"base": 0.05}})
        ds = simulate.simulate(no_tx, 2000, seed=6)
        res = estimate_all(ds, spec_for(Strategy.HYPOTHETICAL,
                                        HypotheticalMethod.CENSOR_BASELINE))
        assert not res.failures
        grid = np.linspace(0.01, 5.0, 400)
        values = [np.asarray([c.value_at(t) for t in grid])
                  for c in res.curves.values()]
        for other in values[1:]:
            assert np.abs(other - values[0]).max() <= 1e-10

        # (b) treated and untreated death intensities equal: hypothetical and
        # ignore-treatment estimate the same risk, up to Monte Carlo noise
        same_death = IntensitySpec.from_dict({
            "name": "ineffective", "admin_censor": 10.0,
            "treatment": {"base": 0.1},
            "death_untreated": {"base": 0.2},
            "death_treated": {"base": 0.2}})
        truth = -math.expm1(-0.2 * 5.0)
        n = 5000
        hyp_vals, ign_vals = [], []
        for seed in (1, 2, 3):
            ds = simulate.simulate(same_death, n, seed=seed)
            hyp_vals.append(estimate(ds, spec_for(
                Strategy.HYPOTHETICAL,
                HypotheticalMethod.CENSOR_BASELINE)).value_at(5.0))
            ign_vals.append(estimate(ds, spec_for(
                Strategy.IGNORE_TREATMENT)).value_at(5.0))
        se = math.sqrt(truth * (1 - truth) / (n * 3))
        assert abs(np.mean(hyp_vals) - truth) <= 3.5 * se
        assert abs(np.mean(ign_vals) - truth) <= 3.5 * se

        # (c) numerator model = denominator model: weights exactly one
        s2 = simulate.simulate(scenarios.builtin("s2"), 500, seed=9)
        den = weights.fit_treatment_hazard(s2, ("z",))
        table = weights.stabilized_weights(s2, den, den,
                                           weights.WeightMode.IPCW)
        np.testing.assert_array_equal(table.values, 1.0)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "simulate/validate outputs byte-identical across runs "
                      "and thread counts"):
        spec = scenarios.builtin("s2")
        paths = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
            ds = simulate.simulate(spec, 150, seed=11, workers=workers)
            p = tmp_path / f"{tag}.csv"
            write_csv(ds, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == paths[2].read_bytes()

        reports = []
        for workers in (1, 3):
            report = validate(scenarios.builtin("s1"), n=300, seeds=[1, 2],
                              strategy_specs=[spec_for(Strategy.COMPOSITE)],
                              t_hor=5.0, tolerance=0.1, workers=workers)
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]


def test_criterion_8_age_dependent_gap():
    with criterion(8, "hypothetical-vs-ignore gap larger for the younger "
                      "profile (age-dependent treatment uptake)"):
        spec = scenarios.builtin("age_gap")
        hyp_spec = spec_for(Strategy.HYPOTHETICAL,
                            HypotheticalMethod.CENSOR_BASELINE, t_hor=10.0,
                            covariates=("age",))
        ign_spec = spec_for(Strategy.IGNORE_TREATMENT, t_hor=10.0,
                            covariates=("age",))
        gaps = {50.0: [], 70.0: []}
        for seed in range(1, 11):
            ds = simulate.simulate(spec, 4000, seed=seed)
            for age in (50.0, 70.0):
                profile = {"age": age}
                gap = (estimate(ds, hyp_spec, profile).value_at(10.0)
                       - estimate(ds, ign_spec, profile).value_at(10.0))
                gaps[age].append(gap)
        assert np.mean(gaps[50.0]) > np.mean(gaps[70.0])
