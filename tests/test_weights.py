import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from predictimands import scenarios, simulate
from predictimands.data import (
    CovariateSchema,
    Episode,
    Status,
    SubjectRecord,
    split_at_treatment,
)
from predictimands.errors import (
    DataError,
    NonPositiveProbability,
    NoTreatmentStarts,
    NumericError,
)
from predictimands.simulate import IntensitySpec
from predictimands.strategies import (
    HypotheticalMethod,
    Strategy,
    StrategySpec,
    estimate,
)
from predictimands.weights import WeightMode, fit_treatment_hazard, stabilized_weights
from tests.records import dataset


def confounded_spec(gamma_treat=0.5, base_treat=0.1):
    return IntensitySpec.from_dict({
        "name": "confounded",
        "admin_censor": 6.0,
        "grid_step": 0.5,
        "tv_covariates": {
            "z": {"init": {"dist": "normal", "mean": 0.0, "sd": 1.0},
                  "rho": 1.0, "sd": 0.3},
        },
        "treatment": {"base": base_treat, "log_hr": {"z": gamma_treat}},
        "death_untreated": {"base": 0.12, "log_hr": {"z": 0.8}},
        "death_treated": {"base": 0.06, "log_hr": {"z": 0.8}},
    })


class TestTreatmentHazard:
    def test_nobody_treated_raises(self, d3):
        with pytest.raises(NoTreatmentStarts):
            fit_treatment_hazard(d3)

    def test_intercept_only_numerator(self, d4):
        model = fit_treatment_hazard(d4, ())
        assert model.names == ()
        # one treatment start among 3 at risk at t=2
        assert model.baseline_times[0] == 2.0
        assert model.baseline_increments[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_recovers_generating_coefficient(self):
        spec = confounded_spec(gamma_treat=0.5, base_treat=0.1)
        ds = simulate.simulate(spec, 5000, seed=101)
        model = fit_treatment_hazard(ds, ("z",))
        se = math.sqrt(np.linalg.inv(model.info)[0, 0])
        assert abs(model.beta[0] - 0.5) < 3 * se
        assert se < 0.1


def two_interval_subject(sid, v, end, status, z0, z1):
    eps = (Episode(0.0, v, Status.TREATMENT_START, tv={"z": z0}),
           Episode(v, end, status, treated=True, tv={"z": z1}))
    return SubjectRecord(sid, eps, {})


def untreated_two_interval(sid, mid, end, status, z0, z1):
    eps = (Episode(0.0, mid, Status.CENSORED, tv={"z": z0}),
           Episode(mid, end, status, tv={"z": z1}))
    return SubjectRecord(sid, eps, {})


@pytest.fixture
def confounded_ds():
    return simulate.simulate(confounded_spec(gamma_treat=1.0), 400, seed=5)


def reference_weights(ds, numerator, denominator, mode):
    """Slow reference: per-subject accumulation of each model's hazard
    increments along the subject's covariate path, episode by episode.
    Returns (subject_id, tstart, tstop, weight) per row."""
    target = split_at_treatment(ds) if mode == WeightMode.IPCW else ds
    schema = target.schema

    def survival(model, sub):
        out, cum = [], 0.0
        for ep in sub.episodes:
            lp = sum(model.beta[j] * (sub.baseline[name] if name in schema.baseline
                                      else ep.tv[name])
                     for j, name in enumerate(model.covariates))
            lo = np.searchsorted(model.baseline_times, ep.tstart, side="right")
            hi = np.searchsorted(model.baseline_times, ep.tstop, side="right")
            cum += float(model.baseline_increments[lo:hi].sum()) * float(np.exp(lp))
            out.append(float(np.exp(-cum)))
        return out

    rows = []
    for sub in target.subjects:
        frozen = None
        for ep, sn, sd in zip(sub.episodes, survival(numerator, sub),
                              survival(denominator, sub)):
            if frozen is not None:
                w = frozen
            else:
                if sd <= 0.0:
                    raise NonPositiveProbability(
                        f"subject {sub.subject_id}: staying-untreated "
                        f"probability underflowed at t={ep.tstop}")
                w = sn / sd
                if mode == WeightMode.IPTW and ep.status == Status.TREATMENT_START:
                    frozen = w
            rows.append((sub.subject_id, ep.tstart, ep.tstop, w))
    return rows


@pytest.fixture(scope="module")
def s2_models():
    ds = simulate.simulate(scenarios.builtin("s2"), 300, seed=17)
    return ds, fit_treatment_hazard(ds, ()), fit_treatment_hazard(ds, ("z",))


class TestAgainstReference:
    @pytest.mark.parametrize("mode", [WeightMode.IPCW, WeightMode.IPTW])
    def test_matches_per_subject_accumulation(self, s2_models, mode):
        ds, num, den = s2_models
        table = stabilized_weights(ds, num, den, mode)
        ref = reference_weights(ds, num, den, mode)
        assert [(r.subject_id, r.tstart, r.tstop) for r in table.rows] == [
            row[:3] for row in ref]
        np.testing.assert_allclose(table.values, [row[3] for row in ref],
                                   rtol=1e-12, atol=0)

    def test_underflow_names_first_failing_subject(self, s2_models):
        ds, num, den = s2_models
        huge = replace(den, baseline_increments=den.baseline_increments * 1e4)
        with pytest.raises(NonPositiveProbability) as ref:
            reference_weights(ds, num, huge, WeightMode.IPCW)
        assert str(ref.value).startswith("subject ")
        with pytest.raises(NonPositiveProbability) as exc:
            stabilized_weights(ds, num, huge, WeightMode.IPCW)
        assert str(exc.value) == str(ref.value)

    def test_rows_after_iptw_freeze_are_not_checked(self, d4):
        num = fit_treatment_hazard(d4, ())
        # the staying-untreated probability underflows after t = 5, which
        # only frozen rows reach
        den = replace(num, baseline_times=np.array([1.0, 3.0, 5.0]),
                      baseline_increments=np.array([0.2, 0.3, 1e4]))
        subjects = (two_interval_subject("1", 1.0, 6.0, Status.CENSORED, 0.0, 0.0),
                    two_interval_subject("2", 3.0, 6.0, Status.EVENT, 0.0, 0.0),
                    untreated_two_interval("3", 1.0, 2.0, Status.EVENT, 0.0, 0.0))
        ds = dataset(subjects, CovariateSchema(time_varying=("z",)))
        table = stabilized_weights(ds, num, den, WeightMode.IPTW)
        weights_of = {r.subject_id: [] for r in table.rows}
        for r in table.rows:
            weights_of[r.subject_id].append(r.weight)
        assert weights_of["1"][1] == weights_of["1"][0] > 0
        assert weights_of["2"][1] == weights_of["2"][0] > 0
        late = untreated_two_interval("4", 1.0, 6.0, Status.CENSORED, 0.0, 0.0)
        unfrozen = dataset(subjects + (late,), ds.schema)
        with pytest.raises(NonPositiveProbability, match="subject 4: .* t=6.0"):
            stabilized_weights(unfrozen, num, den, WeightMode.IPTW)


def reference_csv(table, path):
    """The row-by-row export, one record at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "tstart", "tstop", "weight"])
        for r in table.rows:
            w.writerow([str(r.subject_id), repr(float(r.tstart)), repr(float(r.tstop)),
                        repr(float(r.weight))])


def single_subject_table():
    ds = dataset(
        (two_interval_subject("7", 1.5, 4.0, Status.EVENT, 0.0, 0.0),),
        CovariateSchema(time_varying=("z",)))
    num = fit_treatment_hazard(ds, ())
    den = replace(num, baseline_increments=num.baseline_increments / 3)
    return stabilized_weights(ds, num, den, WeightMode.IPTW)


class TestWeightColumns:
    @pytest.mark.parametrize("case", ["ipcw", "iptw", "truncated", "single-subject"])
    def test_csv_matches_row_by_row_export(self, s2_models, tmp_path, case):
        ds, num, den = s2_models
        table = {
            "ipcw": lambda: stabilized_weights(ds, num, den, WeightMode.IPCW),
            "iptw": lambda: stabilized_weights(ds, num, den, WeightMode.IPTW),
            "truncated": lambda: stabilized_weights(ds, num, den, WeightMode.IPCW,
                                                    truncation=(1, 99)),
            "single-subject": single_subject_table,
        }[case]()
        if case == "iptw":
            # rows after a treatment start carry frozen weights
            assert len(table.rows) > split_at_treatment(ds).n_rows
        if case == "single-subject":
            assert table.values.tolist()[1] == table.values.tolist()[0] != 1.0
        table.to_csv(tmp_path / "weights.csv")
        reference_csv(table, tmp_path / "reference.csv")
        assert ((tmp_path / "weights.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    def test_rows_are_read_only_dataset_columns(self, s2_models):
        ds, num, den = s2_models
        table = stabilized_weights(ds, num, den, WeightMode.IPTW)
        assert table.rows.subject_id.tolist() == [ds.ids[s] for s in ds.row_subject]
        np.testing.assert_array_equal(table.rows.tstart, ds.tstart)
        np.testing.assert_array_equal(table.rows.tstop, ds.tstop)
        assert np.shares_memory(table.values, table.rows)
        with pytest.raises(ValueError, match="read-only"):
            table.values[0] = 2.0


class TestStabilizedWeights:
    def test_identical_models_give_unit_weights(self, confounded_ds):
        den = fit_treatment_hazard(confounded_ds, ("z",))
        table = stabilized_weights(confounded_ds, den, den, WeightMode.IPCW)
        np.testing.assert_array_equal(table.values, 1.0)

    def test_constant_covariates_give_unit_weights(self):
        subjects = (
            two_interval_subject("1", 1.0, 5.0, Status.CENSORED, 1.0, 1.0),
            untreated_two_interval("2", 1.5, 4.0, Status.EVENT, 1.0, 1.0),
            untreated_two_interval("3", 2.0, 6.0, Status.TREATMENT_START, 1.0, 1.0),
            untreated_two_interval("4", 1.0, 6.0, Status.CENSORED, 1.0, 1.0),
        )
        ds = dataset(subjects, CovariateSchema(time_varying=("z",)))
        num = fit_treatment_hazard(ds, ())
        den = fit_treatment_hazard(ds, ("z",))
        assert den.degenerate and den.beta[0] == 0.0
        table = stabilized_weights(ds, num, den, WeightMode.IPCW)
        np.testing.assert_array_equal(table.values, 1.0)

    def test_unit_before_first_treatment_event(self, confounded_ds):
        num = fit_treatment_hazard(confounded_ds, ())
        den = fit_treatment_hazard(confounded_ds, ("z",))
        table = stabilized_weights(confounded_ds, num, den, WeightMode.IPCW)
        first = den.baseline_times[0]
        for row in table.rows:
            if row.tstop < first:
                assert row.weight == 1.0

    def test_numerator_must_nest_in_denominator(self, confounded_ds):
        num = fit_treatment_hazard(confounded_ds, ("z",))
        den = fit_treatment_hazard(confounded_ds, ())
        with pytest.raises(DataError, match="subset"):
            stabilized_weights(confounded_ds, num, den)

    def test_truncation_clamps_to_percentiles(self, confounded_ds):
        num = fit_treatment_hazard(confounded_ds, ())
        den = fit_treatment_hazard(confounded_ds, ("z",))
        raw = stabilized_weights(confounded_ds, num, den, WeightMode.IPCW)
        lo, hi = np.percentile(raw.values, [1, 99])
        clipped = stabilized_weights(confounded_ds, num, den, WeightMode.IPCW,
                                     truncation=(1, 99))
        assert clipped.values.min() == pytest.approx(lo)
        assert clipped.values.max() == pytest.approx(hi)
        assert clipped.truncation == (lo, hi)

    def test_iptw_frozen_after_treatment_start(self, confounded_ds):
        num = fit_treatment_hazard(confounded_ds, ())
        den = fit_treatment_hazard(confounded_ds, ("z",))
        table = stabilized_weights(confounded_ds, num, den, WeightMode.IPTW)
        by_subject = {}
        for row in table.rows:
            by_subject.setdefault(row.subject_id, []).append(row)
        seen_frozen = False
        for sub in confounded_ds.subjects:
            v = next((ep.tstop for ep in sub.episodes
                      if ep.status == Status.TREATMENT_START), None)
            if v is None:
                continue
            post = [r.weight for r in by_subject[sub.subject_id] if r.tstart >= v]
            at_v = [r.weight for r in by_subject[sub.subject_id] if r.tstop == v]
            if post:
                seen_frozen = True
                assert all(w == at_v[0] for w in post)
        assert seen_frozen

    def test_ipcw_rows_match_split_data(self, confounded_ds):
        num = fit_treatment_hazard(confounded_ds, ())
        den = fit_treatment_hazard(confounded_ds, ("z",))
        table = stabilized_weights(confounded_ds, num, den, WeightMode.IPCW)
        split = split_at_treatment(confounded_ds)
        assert len(table.rows) == split.n_rows

    def test_diagnostics(self, confounded_ds):
        num = fit_treatment_hazard(confounded_ds, ())
        den = fit_treatment_hazard(confounded_ds, ("z",))
        table = stabilized_weights(confounded_ds, num, den, WeightMode.IPCW)
        d = table.diagnostics
        assert d["n_rows"] == len(table.rows)
        assert 0 < d["ess"] <= d["n_rows"]
        assert d["min"] <= d["mean"] <= d["max"]
        assert "at_risk_mean_min" in d

    def test_at_risk_mean_near_one_when_well_specified(self):
        spec = confounded_spec(gamma_treat=1.0)
        ds = simulate.simulate(spec, 2000, seed=31)
        num = fit_treatment_hazard(ds, ())
        den = fit_treatment_hazard(ds, ("z",))
        table = stabilized_weights(ds, num, den, WeightMode.IPCW)
        assert 0.8 <= table.diagnostics["at_risk_mean_min"]
        assert table.diagnostics["at_risk_mean_max"] <= 1.2


class TestWeightedEstimation:
    def test_ipcw_corrects_informative_censoring(self):
        # treatment driven by the same z that drives death: censoring at
        # treatment is informative, weighting removes the bias
        spec = confounded_spec(gamma_treat=1.5, base_treat=0.12)
        truth = simulate.true_risks(spec, {}, t_hor=5.0, mc_reps=100_000)
        hyp = truth.risks["hypothetical"]

        naive = StrategySpec(Strategy.HYPOTHETICAL, t_hor=5.0,
                             hypothetical_method=HypotheticalMethod.CENSOR_BASELINE)
        weighted = StrategySpec(Strategy.HYPOTHETICAL, t_hor=5.0,
                                hypothetical_method=HypotheticalMethod.CENSOR_IPCW,
                                weight_covariates=("z",))
        naive_vals, weighted_vals = [], []
        for seed in range(1, 6):
            ds = simulate.simulate(spec, 5000, seed=seed)
            naive_vals.append(estimate(ds, naive).value_at(5.0))
            weighted_vals.append(estimate(ds, weighted).value_at(5.0))
        naive_bias = np.mean(naive_vals) - hyp
        weighted_bias = np.mean(weighted_vals) - hyp
        # censoring removes high-risk person-time, so the naive estimate is low
        assert naive_bias < -0.02
        assert abs(weighted_bias) < abs(naive_bias)
        assert abs(weighted_bias) < 0.02


@st.composite
def treated_datasets(draw):
    """2-8 subjects of 1-4 episodes on a half-unit grid, followed on after
    treatment, with a baseline x and a time-dependent z. Subject 1 starts
    treatment at the end of its first episode and has treated rows after it."""
    values = st.sampled_from([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])
    subjects = []
    for i in range(draw(st.integers(2, 8))):
        ends = sorted(draw(st.sets(st.integers(1, 12), min_size=2 if i == 0 else 1,
                                   max_size=4)))
        bounds = [0.0] + [e / 2 for e in ends]
        start = 0 if i == 0 else draw(st.sampled_from([None, *range(len(ends))]))
        final = draw(st.sampled_from([Status.EVENT, Status.CENSORED]))
        episodes = tuple(
            Episode(bounds[j], bounds[j + 1],
                    Status.TREATMENT_START if j == start
                    else final if j == len(ends) - 1 else Status.CENSORED,
                    treated=start is not None and j > start, tv={"z": draw(values)})
            for j in range(len(ends)))
        subjects.append(SubjectRecord(str(i + 1), episodes, {"x": draw(values)}))
    return dataset(subjects, CovariateSchema(baseline=("x",), time_varying=("z",)))


class TestUnitWeightsProperty:
    @settings(max_examples=150, deadline=None)
    @given(ds=treated_datasets(), covariates=st.sampled_from([(), ("x",), ("x", "z")]),
           mode=st.sampled_from(list(WeightMode)), truncation=st.sampled_from([None, (1, 99)]))
    def test_identical_models_give_exact_unit_weights(self, ds, covariates, mode,
                                                      truncation):
        try:
            model = fit_treatment_hazard(ds, covariates)
        except NumericError:
            assume(False)
        table = stabilized_weights(ds, model, model, mode, truncation)
        if mode == WeightMode.IPTW:
            # the rows after subject 1's treatment start carry a frozen weight
            assert len(table.rows) > split_at_treatment(ds).n_rows
        assert table.values.tolist() == [1.0] * len(table.rows)
        assert table.truncation in (None, (1.0, 1.0))
