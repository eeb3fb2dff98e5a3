from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predictimands import cox, scenarios, simulate
from predictimands.data import (
    CountingProcessDataset,
    CovariateSchema,
    DesignFlavor,
    Episode,
    Status,
    SubjectRecord,
    split_at_treatment,
)
from predictimands.errors import DataError, DesignMismatch, NumericError, PositivityWarning
from predictimands.simulate import IntensitySpec
from predictimands.strategies import (
    HypotheticalMethod,
    Strategy,
    StrategySpec,
    estimate,
    estimate_all,
    fit_strategy_models,
)
from predictimands.weights import WeightMode, WeightTable, weight_rows
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


#: the hypothetical methods as a 2 x 2: censor at treatment start or not,
#: and the stabilized weights, if any
METHOD_TABLE = {
    HypotheticalMethod.CENSOR_BASELINE: (True, None),
    HypotheticalMethod.MODEL_BASELINE: (False, None),
    HypotheticalMethod.CENSOR_IPCW: (True, WeightMode.IPCW),
    HypotheticalMethod.MODEL_IPTW: (False, WeightMode.IPTW),
}


@pytest.fixture(scope="module")
def method_table_data():
    no_starts = IntensitySpec.from_dict({
        "name": "notx", "admin_censor": 10.0,
        "treatment": {"base": 0.0},
        "death_untreated": {"base": 0.2},
        "death_treated": {"base": 0.05},
    })
    return {"s2": simulate.simulate(scenarios.builtin("s2"), 300, seed=4),
            "no-starts": simulate.simulate(no_starts, 300, seed=4)}


class TestMethodTable:
    @pytest.mark.parametrize("data", ["s2", "no-starts"])
    @pytest.mark.parametrize("method", list(HypotheticalMethod),
                             ids=lambda m: m.value)
    def test_fit_follows_the_table(self, method_table_data, method, data):
        ds = method_table_data[data]
        assert ds.has_treatment_starts == (data == "s2")
        censor, mode = METHOD_TABLE[method]
        fit = fit_strategy_models(ds, spec_for(Strategy.HYPOTHETICAL, method,
                                               weight_covariates=("z",)))
        model = fit.models["main"]
        fitted_on = split_at_treatment(ds) if censor else ds
        assert (model.treatment is not None) == (not censor)
        if mode is None or not ds.has_treatment_starts:
            assert fit.weight_table is None
        else:
            assert fit.weight_table.mode == mode
            np.testing.assert_array_equal(fit.weight_table.rows.tstart,
                                          fitted_on.tstart)
            np.testing.assert_array_equal(fit.weight_table.rows.tstop,
                                          fitted_on.tstop)
        assert model.n_events == int((fitted_on.status == Status.EVENT).sum())


def doubled_times(ds):
    """``ds`` with every time multiplied by 2, which is exact in binary
    floating point."""
    return CountingProcessDataset(ds.schema, ds.design, ds.ids, ds.offsets,
                                  2 * ds.tstart, 2 * ds.tstop, ds.status, ds.treated,
                                  ds.columns)


ALL_METHODS = ([(s, None) for s in Strategy if s != Strategy.HYPOTHETICAL]
               + [(Strategy.HYPOTHETICAL, m) for m in HypotheticalMethod])


class TestTimeDoubling:
    """Doubling every time, the treatment cuts and the horizon changes no
    risk by a bit and doubles every curve time exactly: partial likelihoods,
    baseline increments and weights depend on the order of the times only."""

    @pytest.mark.parametrize("name, n, profile, options", [
        ("s2", 800, {}, dict(t_hor=5.0, tv_cuts=(1.5,), weight_covariates=("z",))),
        ("age_gap", 300, {"age": 55.0}, dict(t_hor=10.0, tv_cuts=(4.0,),
                                             covariates=("age",),
                                             weight_covariates=("age",))),
    ])
    def test_risks_identical_and_times_doubled(self, name, n, profile, options):
        ds = simulate.simulate(scenarios.builtin(name), n, seed=4)
        twice = doubled_times(ds)
        for strategy, method in ALL_METHODS:
            spec = spec_for(strategy, method, **options)
            spec2 = replace(spec, t_hor=2 * spec.t_hor,
                            tv_cuts=tuple(2 * c for c in spec.tv_cuts))
            curve, curve2 = estimate(ds, spec, profile), estimate(twice, spec2, profile)
            assert curve.times.size > 10, spec.label
            assert np.array_equal(curve2.risk, curve.risk), spec.label
            assert np.array_equal(curve2.times, 2 * curve.times), spec.label


#: each dataset of the relations below, its profile and its spec options; on
#: age_gap the weight models share the outcome covariate, so every weight is 1
RELATION_CASES = [
    ("s2", {}, dict(t_hor=5.0, tv_cuts=(1.5,), weight_covariates=("z",))),
    ("age_gap", {"age": 55.0}, dict(t_hor=10.0, tv_cuts=(4.0,), covariates=("age",),
                                    weight_covariates=("age",))),
]
WEIGHTED = (HypotheticalMethod.CENSOR_IPCW, HypotheticalMethod.MODEL_IPTW)


def outcome(ds, spec, profile):
    """``estimate``'s curve, or the data or numeric error it raises."""
    try:
        return estimate(ds, spec, profile)
    except (DataError, NumericError) as exc:
        return exc


def assert_same_curves(ds, other, profile, options, weights_move=False):
    """Every method gives ``other`` the curve times of ``ds`` and risks equal
    to 1e-12 relative, or raises the same error with the same message on
    both; with ``weights_move``, the weighted methods' risks differ
    instead."""
    for strategy, method in ALL_METHODS:
        spec = spec_for(strategy, method, **options)
        curve, curve2 = outcome(ds, spec, profile), outcome(other, spec, profile)
        if isinstance(curve, Exception) or isinstance(curve2, Exception):
            assert (type(curve2), str(curve2)) == (type(curve), str(curve)), spec.label
            continue
        assert curve.times.size > 10, spec.label
        assert np.array_equal(curve2.times, curve.times), spec.label
        if weights_move and method in WEIGHTED:
            assert np.abs(curve2.risk - curve.risk).max() > 1e-6, spec.label
        else:
            np.testing.assert_allclose(curve2.risk, curve.risk, rtol=1e-12, atol=0,
                                       err_msg=spec.label)


def split_rows(ds, at):
    """``ds`` with each row r split at ``at[r]`` unless that is NaN: the
    first piece ends there censored, the second keeps the row's status, and
    both keep its treatment indicator and covariates."""
    cut = ~np.isnan(at)
    row = np.repeat(np.arange(ds.n_rows), 1 + cut)
    second = np.concatenate([[False], row[1:] == row[:-1]])
    first = cut[row] & ~second
    tstart, tstop, status = ds.tstart[row], ds.tstop[row], ds.status[row]
    tstart[second], tstop[first] = at[row[second]], at[row[first]]
    status[first] = Status.CENSORED
    counts = np.bincount(ds.row_subject[row], minlength=ds.n_subjects)
    return CountingProcessDataset(ds.schema, ds.design, ds.ids,
                                  np.concatenate([[0], np.cumsum(counts)]), tstart, tstop,
                                  status, ds.treated[row],
                                  {name: col[row] for name, col in ds.columns.items()})


class TestRowSplitting:
    """Splitting rows at interior times leaves every risk set as it was, so
    the unweighted curves keep their times and risks. The weights are read
    at each row's end, so the weighted curves change. Splits at other
    subjects' event and treatment-start times put a row boundary on the
    risk sets' time grid, where a fault in the at-risk comparisons shows."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    # age_gap seeds on which the model fits raise MonotoneLikelihood
    @example(seed=493)
    @example(seed=8575)
    @pytest.mark.parametrize("where", ["between-event-times", "at-event-times"])
    @pytest.mark.parametrize("name, profile, options", RELATION_CASES, ids=["s2", "age_gap"])
    def test_unweighted_curves_unchanged(self, name, profile, options, where, seed):
        ds = simulate.simulate(scenarios.builtin(name), 300, seed=seed)
        rng = np.random.default_rng(seed)
        grid = np.unique(ds.tstop[ds.status != Status.CENSORED])
        if where == "at-event-times":
            lo = np.searchsorted(grid, ds.tstart, side="right")
            hi = np.searchsorted(grid, ds.tstop, side="left")
            pick = lo + (rng.random(ds.n_rows) * (hi - lo)).astype(int)
            at = np.where(hi > lo, grid[np.minimum(pick, grid.size - 1)], np.nan)
        else:
            at = ds.tstart + rng.uniform(0.05, 0.95, ds.n_rows) * (ds.tstop - ds.tstart)
            at[np.isin(at, grid)] = np.nan
        at[rng.random(ds.n_rows) < 0.5] = np.nan
        split = split_rows(ds, at)
        assert split.n_rows > ds.n_rows + 50
        assert_same_curves(ds, split, profile, options, weights_move=name == "s2")


class TestEarlyDropout:
    """A subject censored before the first event or treatment start of any
    kind is in no risk set and has weight 1, so adding one, anywhere in the
    subject order, changes no curve."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           fraction=st.floats(min_value=0.01, max_value=0.99),
           place=st.floats(min_value=0.0, max_value=1.0))
    @example(seed=493, fraction=0.5, place=0.5)
    @example(seed=8575, fraction=0.5, place=0.5)
    @pytest.mark.parametrize("name, profile, options", RELATION_CASES, ids=["s2", "age_gap"])
    def test_no_curve_changes(self, name, profile, options, seed, fraction, place):
        ds = simulate.simulate(scenarios.builtin(name), 300, seed=seed)
        s = int(place * ds.n_subjects)
        r, donor_row = ds.offsets[s], ds.offsets[seed % ds.n_subjects]
        first_time = ds.tstop[ds.status != Status.CENSORED].min()
        added = CountingProcessDataset(
            ds.schema, ds.design, ds.ids[:s] + ("added",) + ds.ids[s:],
            np.concatenate([ds.offsets[:s + 1], ds.offsets[s:] + 1]),
            np.insert(ds.tstart, r, 0.0), np.insert(ds.tstop, r, fraction * first_time),
            np.insert(ds.status, r, Status.CENSORED), np.insert(ds.treated, r, False),
            {name: np.insert(col, r, col[donor_row]) for name, col in ds.columns.items()})
        assert_same_curves(ds, added, profile, options)


class TestSubjectOrder:
    """Risk sets, tie groups and weights depend on neither the order of the
    subjects nor their ids, so reversing the one and renaming the other
    changes no curve."""

    @pytest.mark.parametrize("name, profile, options", RELATION_CASES, ids=["s2", "age_gap"])
    def test_reversed_and_renamed(self, name, profile, options):
        ds = simulate.simulate(scenarios.builtin(name), 300, seed=6)
        # the last subject's rows first, each subject's rows in their order
        row = np.argsort(-ds.row_subject, kind="stable")
        reversed_ds = CountingProcessDataset(
            ds.schema, ds.design, [f"r{s}" for s in range(ds.n_subjects)],
            np.concatenate([[0], np.cumsum(np.diff(ds.offsets)[::-1])]),
            ds.tstart[row], ds.tstop[row], ds.status[row], ds.treated[row],
            {name: col[row] for name, col in ds.columns.items()})
        assert_same_curves(ds, reversed_ds, profile, options)


def duplicated(ds):
    """``ds`` followed by a copy of each of its subjects under a new id."""
    return CountingProcessDataset(
        ds.schema, ds.design, tuple(ds.ids) + tuple(f"{i}-copy" for i in ds.ids),
        np.concatenate([ds.offsets, ds.offsets[1:] + ds.n_rows]),
        np.tile(ds.tstart, 2), np.tile(ds.tstop, 2), np.tile(ds.status, 2),
        np.tile(ds.treated, 2), {name: np.tile(col, 2) for name, col in ds.columns.items()})


class TestDuplicatedSubjects:
    """Under Breslow ties a case weight of 2 on every row is the data with
    every subject twice: each risk-set sum and each event weight doubles,
    so the coefficients and the baseline increments stay as they are, and
    so does every curve. Efron is left out, because duplication ties every
    death. Newton stops on its decrement per unit of event weight, which
    duplication leaves as it is, so both fits take the same steps."""

    def test_weight_two_fits_as_duplicates(self):
        ds = split_at_treatment(simulate.simulate(scenarios.builtin("s2"), 400, seed=3))
        spec = cox.CoxSpec(covariates=("z",), ties="breslow")
        table = WeightTable(weight_rows(ds, np.full(ds.n_rows, 2.0)), WeightMode.IPCW)
        weighted = cox.fit(ds, replace(spec, weights=table))
        twice = cox.fit(duplicated(ds), spec)
        assert weighted.baseline_times.size > 10
        assert weighted.iterations == twice.iterations
        np.testing.assert_array_equal(weighted.baseline_times, twice.baseline_times)
        for a, b in ((weighted.beta, twice.beta),
                     (weighted.baseline_increments, twice.baseline_increments),
                     (weighted.info, twice.info), (weighted.loglik, twice.loglik)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    def test_curves_unchanged(self):
        # on seeds 1, 6 and 10, and on 3 and 6 with a cut, a stop on the
        # absolute score, which duplication doubles, gives the duplicates one
        # step more and moves the weighted or model-based risks by 3e-11 to
        # 8e-11
        for seed in (3, 1, 6, 10):
            ds = simulate.simulate(scenarios.builtin("s2"), 400, seed=seed)
            for tv_cuts in ((), (1.5,)):
                assert_same_curves(ds, duplicated(ds), {},
                                   dict(t_hor=5.0, tv_cuts=tv_cuts, weight_covariates=("z",),
                                        ties="breslow"))


class TestCovariateUnits:
    """A covariate in other units (a power of two times the original, with
    the profile value scaled alike) scales its coefficients inversely and
    leaves the linear predictors, the weights and every curve as they are,
    up to rounding, as long as the fit's stopping rule and divergence bound
    do not depend on units."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name, profile, options", RELATION_CASES, ids=["s2", "age_gap"])
    def test_same_outcomes(self, name, profile, options, seed):
        ds = simulate.simulate(scenarios.builtin(name), 500, seed=seed)
        covariate = options["weight_covariates"][0]
        specs = [spec_for(strategy, method, **options) for strategy, method in ALL_METHODS]
        curves = [outcome(ds, spec, profile) for spec in specs]
        for k in (-20, -3, 3, 20):
            scaled = CountingProcessDataset(
                ds.schema, ds.design, ds.ids, ds.offsets, ds.tstart, ds.tstop, ds.status,
                ds.treated, {**ds.columns, covariate: ds.columns[covariate] * 2.0 ** k})
            scaled_profile = {key: value * 2.0 ** k for key, value in profile.items()}
            for spec, curve in zip(specs, curves):
                curve2 = outcome(scaled, spec, scaled_profile)
                label = f"{spec.label}, k = {k}"
                assert type(curve2) is type(curve), (label, curve, curve2)
                if not isinstance(curve, Exception):
                    assert np.array_equal(curve2.times, curve.times), label
                    np.testing.assert_allclose(curve2.risk, curve.risk, rtol=1e-12, atol=0,
                                               err_msg=label)


class TestCollinearCopy:
    """A covariate w = c x + d added to the outcome and weight covariates
    beside x is aliased with x, so the fits hold its coefficient at 0 and
    every curve is that of the design without it, up to rounding."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name, profile, options", RELATION_CASES, ids=["s2", "age_gap"])
    def test_same_outcomes(self, name, profile, options, seed):
        ds = simulate.simulate(scenarios.builtin(name), 500, seed=seed)
        x = options["weight_covariates"][0]
        specs = [spec_for(strategy, method, **options) for strategy, method in ALL_METHODS]
        curves = [outcome(ds, spec, profile) for spec in specs]
        baseline = x in ds.schema.baseline
        schema = CovariateSchema(baseline=ds.schema.baseline + ("w",) * baseline,
                                 time_varying=ds.schema.time_varying + ("w",) * (not baseline))
        for c, d in ((2.0, 1.0), (-0.5, 3.0), (7.0, -2.0)):
            copied = CountingProcessDataset(
                schema, ds.design, ds.ids, ds.offsets, ds.tstart, ds.tstop, ds.status,
                ds.treated, {**ds.columns, "w": c * ds.columns[x] + d})
            copied_profile = {**profile, "w": c * profile[x] + d} if profile else {}
            for spec, curve in zip(specs, curves):
                spec2 = replace(spec, weight_covariates=spec.weight_covariates + ("w",),
                                covariates=spec.covariates + ("w",) * bool(spec.covariates))
                curve2 = outcome(copied, spec2, copied_profile)
                label = f"{spec.label}, c = {c}, d = {d}"
                assert type(curve2) is type(curve), (label, curve, curve2)
                if not isinstance(curve, Exception):
                    assert np.array_equal(curve2.times, curve.times), label
                    np.testing.assert_allclose(curve2.risk, curve.risk, rtol=1e-12, atol=0,
                                               err_msg=label)
