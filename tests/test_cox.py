import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from predictimands import competing, cox
from predictimands.data import (
    CountingProcessDataset,
    CovariateSchema,
    DesignFlavor,
    Episode,
    Status,
    SubjectRecord,
    compose_outcome,
    split_at_treatment,
)
from predictimands.errors import (
    ConvergenceFailure,
    DataError,
    MonotoneLikelihood,
    NoEvents,
    NoTreatmentStarts,
    NumericError,
    ProfileIncomplete,
    SingularInformation,
)
from predictimands.scenarios import builtin
from predictimands.simulate import simulate
from predictimands.weights import WeightMode, WeightTable, fit_treatment_hazard
from tests.conftest import one_episode_subject
from tests.records import dataset

SQRT2 = math.sqrt(2.0)


def d1_hand_loglik(beta):
    """Direct risk-set enumeration for D1: risk sets {1,2,3,4}, {2,3,4}, {4}."""
    u = math.exp(beta)
    return beta - math.log(2 * u + 2) - math.log(u + 2)


def random_dataset(rng, n_max=30, p=2, with_ties=False, multi_episode=False):
    """Small random counting-process dataset for oracle comparisons."""
    n = rng.integers(4, n_max + 1)
    subjects = []
    for i in range(n):
        baseline = {f"x{j}": float(rng.normal()) for j in range(p)}
        if with_ties:
            stop = float(rng.integers(1, 6))
        else:
            stop = float(rng.uniform(0.5, 10.0))
        status = Status.EVENT if rng.random() < 0.7 else Status.CENSORED
        if multi_episode and rng.random() < 0.5 and stop > 1.0:
            cut = float(rng.uniform(0.2, stop - 0.2))
            eps = (Episode(0.0, cut, Status.CENSORED),
                   Episode(cut, stop, status))
        else:
            eps = (Episode(0.0, stop, status),)
        subjects.append(SubjectRecord(str(i + 1), eps, baseline))
    schema = CovariateSchema(baseline=tuple(f"x{j}" for j in range(p)))
    return dataset(tuple(subjects), schema)


def naive_risk_sets(ds, spec, beta):
    """Independent slow scan: for every event time, the (linear predictor,
    weight) of each episode at risk and of each episode dying there.

    Weights come from the weight table's row for each episode; a treated
    episode's step-function coefficient is the one whose segment holds the
    event time.
    """
    beta = np.asarray(beta, float)
    cuts = spec.treatment.tv_cuts if spec.treatment else ()
    episodes = [(sub, ep) for sub in ds.subjects for ep in sub.episodes]
    table = (spec.weights if spec.weights is not None
             else WeightTable(ds, np.ones(ds.n_rows), WeightMode.IPCW))
    of = table.rows
    rows = []
    for (sub, ep), s, tstop, w in zip(episodes, of.row_subject.tolist(), of.tstop.tolist(),
                                      table.values.tolist(), strict=True):
        assert (of.ids[s], tstop) == (sub.subject_id, ep.tstop)
        x = [sub.baseline[c] if c in ds.schema.baseline else ep.tv[c]
             for c in spec.covariates]
        rows.append((ep.tstart, ep.tstop, ep.status == spec.event_code, x,
                     spec.treatment is not None and ep.treated, w))

    def lp(row, t):
        x = list(row[3])
        if spec.treatment:
            seg = [0.0] * (len(cuts) + 1)
            if row[4]:
                seg[sum(c < t for c in cuts)] = 1.0
            x += seg
        return float(np.dot(x, beta)) if x else 0.0

    for t in sorted({stop for _, stop, ev, *_ in rows if ev}):
        risk = [(lp(r, t), r[5]) for r in rows if r[0] < t <= r[1]]
        dead = [(lp(r, t), r[5]) for r in rows if r[1] == t and r[2]]
        yield t, risk, dead


def naive_loglik(ds, spec, beta):
    ll = 0.0
    for _, risk, dead in naive_risk_sets(ds, spec, beta):
        d = len(dead)
        s0 = sum(w * math.exp(e) for e, w in risk)
        s0d = sum(w * math.exp(e) for e, w in dead)
        wd = sum(w for _, w in dead)
        ll += sum(w * e for e, w in dead)
        if spec.ties == "efron":
            ll -= (wd / d) * sum(math.log(s0 - (j / d) * s0d) for j in range(d))
        else:
            ll -= wd * math.log(s0)
    return ll


def naive_baseline_increments(ds, spec, beta):
    """Event times and baseline hazard increments at beta by the same scan."""
    times, incs = [], []
    for t, risk, dead in naive_risk_sets(ds, spec, beta):
        d = len(dead)
        s0 = sum(w * math.exp(e) for e, w in risk)
        s0d = sum(w * math.exp(e) for e, w in dead)
        wd = sum(w for _, w in dead)
        if spec.ties == "efron":
            inc = (wd / d) * sum(1.0 / (s0 - (j / d) * s0d) for j in range(d))
        else:
            inc = wd / s0
        times.append(t)
        incs.append(inc)
    return np.asarray(times), np.asarray(incs)


class TestD1:
    def test_loglik_at_zero(self, d1):
        spec = cox.CoxSpec(covariates=("x",))
        expected = math.log(1 / 4) + math.log(1 / 3) + math.log(1.0)
        assert cox.partial_loglik(d1, spec, [0.0]) == pytest.approx(expected, abs=1e-12)

    def test_fit_matches_grid_search_oracle(self, d1):
        spec = cox.CoxSpec(covariates=("x",))
        model = cox.fit(d1, spec)
        oracle = minimize_scalar(lambda b: -d1_hand_loglik(b),
                                 bracket=(-2.0, 0.0, 2.0), method="golden",
                                 options={"xtol": 1e-12})
        assert model.beta[0] == pytest.approx(oracle.x, abs=1e-6)
        assert model.beta[0] == pytest.approx(0.5 * math.log(2.0), abs=1e-6)
        assert model.score_norm < 1e-8

    def test_breslow_baseline_closed_form(self, d1):
        model = cox.fit(d1, cox.CoxSpec(covariates=("x",), ties="breslow"))
        h0 = cox.baseline_cumhaz(model)
        assert h0(1.0) == pytest.approx(1 / (2 * SQRT2 + 2), abs=1e-9)
        assert h0(2.0) == pytest.approx(0.5, abs=1e-9)
        assert h0(0.5) == 0.0

    def test_predict_survival_profile(self, d1):
        model = cox.fit(d1, cox.CoxSpec(covariates=("x",)))
        curve = cox.predict_survival(model, {"x": 1.0})
        expected = math.exp(-(SQRT2 - 1) / 2 * SQRT2)
        assert curve(1.0) == pytest.approx(expected, abs=1e-9)
        assert round(float(curve(1.0)), 3) == 0.746

    def test_schoenfeld_residual_at_first_event(self, d1):
        model = cox.fit(d1, cox.CoxSpec(covariates=("x",)))
        res = cox.schoenfeld_residuals(model, d1)
        u = math.exp(model.beta[0])
        expected = 1.0 - (2 * u) / (2 * u + 2)
        assert res.times[0] == 1.0
        assert res.residuals[0, 0] == pytest.approx(expected, abs=1e-10)

    def test_profile_incomplete(self, d1):
        model = cox.fit(d1, cox.CoxSpec(covariates=("x",)))
        with pytest.raises(ProfileIncomplete):
            cox.predict_survival(model, {})


class TestTies:
    def test_d2_efron_vs_breslow_increment(self, d2):
        efron = cox.fit(d2, cox.CoxSpec(ties="efron"))
        breslow = cox.fit(d2, cox.CoxSpec(ties="breslow"))
        assert efron.baseline_times[0] == 1.0
        assert efron.baseline_increments[0] == pytest.approx(5 / 6, abs=1e-12)
        assert breslow.baseline_increments[0] == pytest.approx(2 / 3, abs=1e-12)
        # third subject alone at risk at t=2 under both methods
        assert efron.baseline_increments[1] == pytest.approx(1.0, abs=1e-12)

    def test_methods_agree_without_ties(self, d1):
        efron = cox.fit(d1, cox.CoxSpec(covariates=("x",), ties="efron"))
        breslow = cox.fit(d1, cox.CoxSpec(covariates=("x",), ties="breslow"))
        assert efron.beta[0] == pytest.approx(breslow.beta[0], abs=1e-12)
        np.testing.assert_allclose(efron.baseline_increments,
                                   breslow.baseline_increments, atol=1e-14)

    def test_loglik_matches_naive_enumeration_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ds = random_dataset(rng, with_ties=True, multi_episode=True)
            beta = rng.normal(size=2) * 0.7
            for ties in ("efron", "breslow"):
                spec = cox.CoxSpec(covariates=("x0", "x1"), ties=ties)
                assert cox.partial_loglik(ds, spec, beta) == pytest.approx(
                    naive_loglik(ds, spec, beta), rel=1e-10)


def all_deaths_tied():
    """Six deaths at t = 2; censorings before, at and after the tie."""
    rng = np.random.default_rng(11)
    stops = [2.0] * 6 + [1.0, 2.0, 3.0, 3.5]
    subjects = tuple(
        one_episode_subject(str(i + 1), stop,
                            Status.EVENT if i < 6 else Status.CENSORED,
                            x0=float(rng.normal()), x1=float(rng.normal()))
        for i, stop in enumerate(stops))
    ds = dataset(subjects, CovariateSchema(baseline=("x0", "x1")))
    return ds, {"covariates": ("x0", "x1")}


def single_subject():
    ds = dataset(
        (one_episode_subject("1", 2.5, Status.EVENT, x0=0.3, x1=-1.2),),
        CovariateSchema(baseline=("x0", "x1")))
    return ds, {"covariates": ("x0", "x1")}


def late_entry():
    """Three episodes per subject, so most rows enter after time 0 and
    carry their own value of the time-varying x1; deaths tie on a 0.5 grid."""
    rng = np.random.default_rng(12)
    subjects = []
    for i in range(25):
        stop = float(rng.integers(3, 13)) / 2.0
        a, b = np.sort(rng.uniform(0.1, stop - 0.1, size=2))
        bounds = [0.0, float(a), float(b), stop]
        status = Status.EVENT if rng.random() < 0.7 else Status.CENSORED
        eps = tuple(Episode(lo, hi, status if hi == stop else Status.CENSORED,
                            tv={"x1": float(rng.normal())})
                    for lo, hi in zip(bounds[:-1], bounds[1:]))
        subjects.append(SubjectRecord(str(i + 1), eps, {"x0": float(rng.normal())}))
    schema = CovariateSchema(baseline=("x0",), time_varying=("x1",))
    return dataset(tuple(subjects), schema), {"covariates": ("x0", "x1")}


def zero_weights():
    """Every third subject weighs 0; the subject followed longest weighs
    more than 0 and keeps every risk set positive."""
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, n_max=30, with_ties=True, multi_episode=True)
    longest = max(ds.subjects, key=lambda sub: sub.episodes[-1].tstop).subject_id
    weight = []
    for sub in ds.subjects:
        zero = int(sub.subject_id) % 3 == 0 and sub.subject_id != longest
        weight += [0.0 if zero else float(rng.uniform(0.5, 2.0))
                   for _ in sub.episodes]
    table = WeightTable(ds, weight, WeightMode.IPCW)
    assert 0.0 in table.values
    return ds, {"covariates": ("x0", "x1"), "weights": table}


def treatment_two_cuts():
    ds = simulate(builtin("s1"), 300, seed=4)
    return ds, {"treatment": cox.TreatmentTerm((2.0, 5.0))}


ADVERSARIAL = {
    "all-deaths-tied": all_deaths_tied,
    "single-subject": single_subject,
    "late-entry": late_entry,
    "zero-weights": zero_weights,
    "treatment-two-cuts": treatment_two_cuts,
}


class TestAdversarialOracle:
    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_sweep_matches_naive_scan(self, case, ties):
        ds, kwargs = ADVERSARIAL[case]()
        spec = cox.CoxSpec(ties=ties, **kwargs)
        model = cox.fit(ds, spec)
        beta = np.random.default_rng(3).normal(size=model.beta.size) * 0.5
        assert cox.partial_loglik(ds, spec, beta) == pytest.approx(
            naive_loglik(ds, spec, beta), rel=1e-10)
        times, incs = naive_baseline_increments(ds, spec, model.beta)
        np.testing.assert_array_equal(model.baseline_times, times)
        np.testing.assert_allclose(model.baseline_increments, incs, rtol=1e-10)


@st.composite
def small_weighted_datasets(draw):
    """1-6 subjects of 1-3 contiguous episodes on an integer grid (so
    deaths, censorings and episode boundaries tie), one covariate and a
    positive weight per episode."""
    subjects, weight = [], []
    for i in range(draw(st.integers(1, 6))):
        ends = sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3)))
        status = draw(st.sampled_from([Status.EVENT, Status.CENSORED]))
        bounds = [0.0] + [float(e) for e in ends]
        eps = tuple(Episode(lo, hi,
                            status if hi == bounds[-1] else Status.CENSORED)
                    for lo, hi in zip(bounds[:-1], bounds[1:]))
        sid = str(i + 1)
        x = draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0]))
        subjects.append(SubjectRecord(sid, eps, {"x": x}))
        weight += [draw(st.sampled_from([0.25, 1.0, 3.0])) for _ in eps]
    assume(any(ep.status == Status.EVENT for sub in subjects for ep in sub.episodes))
    ds = dataset(tuple(subjects), CovariateSchema(baseline=("x",)))
    return ds, WeightTable(ds, weight, WeightMode.IPCW)


class TestOracleProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=small_weighted_datasets(), beta=st.floats(-1.5, 1.5),
           ties=st.sampled_from(["efron", "breslow"]))
    def test_random_datasets_match_naive_scan(self, data, beta, ties):
        ds, table = data
        spec = cox.CoxSpec(covariates=("x",), ties=ties, weights=table)
        assert cox.partial_loglik(ds, spec, [beta]) == pytest.approx(
            naive_loglik(ds, spec, [beta]), rel=1e-10)
        null = cox.CoxSpec(ties=ties, weights=table)
        times, incs = naive_baseline_increments(ds, null, [])
        model = cox.fit(ds, null)
        np.testing.assert_array_equal(model.baseline_times, times)
        np.testing.assert_allclose(model.baseline_increments, incs, rtol=1e-10)


@st.composite
def half_grid_datasets(draw):
    """A dataset and one weight per row: 1-6 subjects of 1-4 contiguous
    episodes on a half-unit grid, so that deaths, censorings, treatment
    starts and episode boundaries tie; weights that may be 0; events of
    either code, or none at all."""
    subjects, weight = [], []
    for i in range(draw(st.integers(1, 6))):
        ends = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))
        bounds = [0.0] + [e / 2 for e in ends]
        start = draw(st.sampled_from([None, *range(len(ends))]))
        last = draw(st.sampled_from([Status.EVENT, Status.CENSORED]))
        eps = tuple(Episode(lo, hi, Status.TREATMENT_START if k == start
                            else last if k == len(ends) - 1 else Status.CENSORED,
                            treated=start is not None and k > start)
                    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])))
        subjects.append(SubjectRecord(str(i + 1), eps, {"x": draw(st.sampled_from([0.0, 1.0]))}))
        weight += [draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in eps]
    return dataset(tuple(subjects), CovariateSchema(baseline=("x",))), weight


@st.composite
def risk_set_designs(draw):
    """A design and tie method on a ``half_grid_datasets`` dataset, its
    treated episodes cut into pieces at ``tv_cuts``."""
    ds, weight = draw(half_grid_datasets())
    cuts = sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.5]), max_size=3)))
    spec = cox.CoxSpec(
        event_code=draw(st.sampled_from([Status.EVENT, Status.TREATMENT_START])),
        covariates=("x",), treatment=draw(st.sampled_from([None, cox.TreatmentTerm(cuts)])),
        weights=WeightTable(ds, weight, WeightMode.IPCW))
    return cox._build_design(ds, spec), draw(st.sampled_from(["efron", "breslow"]))


class TestRiskSets:
    @settings(max_examples=100, deadline=None)
    @given(case=risk_set_designs())
    def test_index_arrays_of_three_searches(self, case):
        """Entry slots, exit slots and death slots equal those of a search of
        the event times for every row's stop, every row's start and every
        dead row's stop."""
        design, ties = case
        uft = np.unique(design.stop[design.event])
        enter = np.searchsorted(uft, design.stop, side="right") - 1
        exit_ = np.searchsorted(uft, design.start, side="right")
        active = np.flatnonzero(enter >= exit_)
        dead = np.flatnonzero(design.event)
        dead_time = np.searchsorted(uft, design.stop[dead])
        order = np.argsort(dead_time, kind="stable")
        rs = cox._RiskSets(design, ties)
        for got, expected in ((rs.active, active), (rs.enter, enter[active]),
                              (rs.exit, exit_[active]), (rs.dead, dead[order]),
                              (rs.dead_time, dead_time[order])):
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(times=st.sets(st.integers(0, 12), max_size=8),
           rows=st.lists(st.tuples(st.booleans(), st.integers(0, 12), st.integers(1, 6)),
                         max_size=12))
    def test_slots_of_two_searches(self, times, rows):
        """Entry and exit slots equal those of a search of the times for
        every row's stop and start, on rows in any order, overlapping, with
        gaps or continuing the row before them, as ``weights._diagnostics``
        passes them; times on a half-unit grid, so that bounds tie."""
        times = np.array(sorted(times), float) / 2
        start, stop = [], []
        for follows, begin, length in rows:
            start.append(stop[-1] if follows and stop else begin / 2)
            stop.append(start[-1] + length / 2)
        start, stop = np.array(start, float), np.array(stop, float)
        enter = np.searchsorted(times, stop, side="right") - 1
        exit_ = np.searchsorted(times, start, side="right")
        for got, expected in zip(cox._slots(times, start, stop),
                                 (enter, exit_, np.flatnonzero(enter >= exit_))):
            np.testing.assert_array_equal(got, expected)


def fresh(ds):
    """A dataset equal to ``ds`` that remembers nothing yet."""
    return CountingProcessDataset(ds.schema, ds.design, ds.ids, ds.offsets, ds.tstart,
                                  ds.tstop, ds.status, ds.treated, ds.columns)


def slots_kept(ds) -> list:
    return sorted(key[1] for key in ds._memo if key[0] == "slots")


class TestRememberedSlots:
    """A dataset builds the slots of its rows over the event times of each
    status code once; they equal fresh ``_slots`` and serve every fit,
    weight and diagnostic on its own rows."""

    @settings(max_examples=100, deadline=None)
    @given(case=half_grid_datasets(), stops=st.booleans(),
           ties=st.sampled_from(["efron", "breslow"]))
    def test_equal_fresh_slots(self, case, stops, ties):
        """On the full, split and composed views, with both status codes,
        on continuing and stops-at-treatment data."""
        ds = fresh(split_at_treatment(case[0])) if stops else case[0]
        for view in (ds, split_at_treatment(ds), compose_outcome(ds)):
            for code in (Status.EVENT, Status.TREATMENT_START):
                times = np.unique(view.tstop[view.status == code])
                got = cox._event_slots(view, code)
                for a, b in zip(got, (times, *cox._slots(times, view.tstart, view.tstop))):
                    np.testing.assert_array_equal(a, b)
                    assert not a.flags.writeable
                assert cox._event_slots(view, code) is got
                design = cox._build_design(view, cox.CoxSpec(event_code=code,
                                                             covariates=("x",)))
                assert design.rows_of is view
                kept = cox._RiskSets(design, ties)
                direct = cox._RiskSets(replace(design, rows_of=None), ties)
                for name in ("uft", "active", "enter", "exit", "dead", "dead_time",
                             "slot_time", "n_slots", "slot_frac"):
                    np.testing.assert_array_equal(getattr(kept, name), getattr(direct, name))
            assert slots_kept(view) == [1, 2]
        if stops:
            assert split_at_treatment(ds) is ds

    def test_tv_cuts_split_rows_bypass(self):
        ds, kwargs = treatment_two_cuts()
        spec = cox.CoxSpec(**kwargs)
        assert cox._build_design(ds, spec).rows_of is None
        cox.fit(ds, spec)
        assert slots_kept(ds) == []
        cox.fit(ds, cox.CoxSpec(treatment=cox.TreatmentTerm()))
        assert slots_kept(ds) == [1]

    def test_no_treatment_starts_keep_nothing(self, d1):
        base = split_at_treatment(d1)
        with pytest.raises(NoTreatmentStarts, match="^no subject ever starts treatment$"):
            fit_treatment_hazard(d1, ("x",))
        with pytest.raises(NoEvents, match="^no episode carries event code 2$"):
            cox.fit(d1, cox.CoxSpec(event_code=Status.TREATMENT_START))
        assert competing.fit_cause_specific_pair(d1, ("x",)).keys() == {"event"}
        assert (slots_kept(d1), slots_kept(base)) == ([], [1])

    def test_model_on_other_times_is_computed_directly(self, d4):
        model = cox.fit(d4, cox.CoxSpec())
        times, enter, exit_, active = cox._event_slots(d4, Status.EVENT)
        assert all(a is b for a, b in zip(cox._model_slots(model, d4),
                                          (enter, exit_, active)))
        other = replace(model, baseline_times=np.array([0.5, 2.0, 3.5]))
        for a, b in zip(cox._model_slots(other, d4),
                        cox._slots(other.baseline_times, d4.tstart, d4.tstop)):
            np.testing.assert_array_equal(a, b)
        assert cox._event_slots(d4, Status.EVENT)[0] is times


class TestDerivatives:
    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_score_matches_finite_differences(self, ties):
        rng = np.random.default_rng(42)
        for _ in range(15):
            ds = random_dataset(rng, with_ties=bool(rng.random() < 0.5),
                                multi_episode=True)
            spec = cox.CoxSpec(covariates=("x0", "x1"), ties=ties)
            beta = rng.normal(size=2) * 0.5
            an = cox.score(ds, spec, beta)
            h = 1e-5
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (cox.partial_loglik(ds, spec, beta + e)
                      - cox.partial_loglik(ds, spec, beta - e)) / (2 * h)
                assert abs(fd - an[j]) <= 1e-6 * max(1.0, abs(an[j]))

    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_information_matches_finite_differences(self, ties):
        rng = np.random.default_rng(43)
        for _ in range(10):
            ds = random_dataset(rng, with_ties=bool(rng.random() < 0.5))
            spec = cox.CoxSpec(covariates=("x0", "x1"), ties=ties)
            beta = rng.normal(size=2) * 0.5
            an = cox.information(ds, spec, beta)
            h = 1e-5
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = -(cox.score(ds, spec, beta + e)
                       - cox.score(ds, spec, beta - e)) / (2 * h)
                np.testing.assert_allclose(fd, an[:, j], rtol=1e-5, atol=1e-7)

    def test_score_vanishes_at_fit(self, d1):
        spec = cox.CoxSpec(covariates=("x",))
        model = cox.fit(d1, spec)
        assert np.abs(cox.score(d1, spec, model.beta)).max() < 1e-8


class TestFitBehavior:
    def test_all_covariates_zero_gives_null_model(self):
        subjects = tuple(one_episode_subject(str(i), float(i), Status.EVENT, x=0.0)
                         for i in range(1, 5))
        ds = dataset(subjects, CovariateSchema(baseline=("x",)))
        model = cox.fit(ds, cox.CoxSpec(covariates=("x",)))
        assert model.beta[0] == 0.0
        assert model.degenerate
        null = cox.fit(ds, cox.CoxSpec())
        assert model.loglik == pytest.approx(null.loglik, abs=1e-12)

    def test_monotone_likelihood_detected(self):
        subjects = (
            one_episode_subject("1", 1.0, Status.EVENT, x=1.0),
            one_episode_subject("2", 2.0, Status.EVENT, x=1.0),
            one_episode_subject("3", 3.0, Status.CENSORED, x=0.0),
            one_episode_subject("4", 4.0, Status.CENSORED, x=0.0),
        )
        ds = dataset(subjects, CovariateSchema(baseline=("x",)))
        with pytest.raises(MonotoneLikelihood, match="x"):
            cox.fit(ds, cox.CoxSpec(covariates=("x",)))

    def test_divergence_along_an_unidentified_direction_detected(self):
        # one event whose two-row risk set separates on x and has z = -x -
        # 0.5: z, the later column of the aliased pair, is held at 0, and x
        # drifts while the score shrinks until |beta| times its range (2.5)
        # passes the bound
        schema = CovariateSchema(baseline=("x",), time_varying=("z",))
        ds = CountingProcessDataset(
            schema, DesignFlavor.STOPS_AT_TREATMENT, ["1", "2"], [0, 1, 5],
            [0, 0, 0.5, 1, 1.5], [2, 0.5, 1, 1.5, 2], [2, 0, 0, 0, 0], [0] * 5,
            {"x": [1, -1.5, -1.5, -1.5, -1.5], "z": [-1.5, -1.5, -1.5, -1.5, 1]})
        with pytest.raises(MonotoneLikelihood, match=r"^coefficient for 'x' diverges "
                           r"\(\|beta\| times its column's range = 15.2 > 15 "):
            cox.fit(ds, cox.CoxSpec(event_code=Status.TREATMENT_START,
                                    covariates=("x", "z")))

    def test_large_coefficient_that_converges_does_not_diverge(self):
        # s2's treatment log hazard ratio on z is 1.2, and z spans 12.2 in
        # this replicate, so the converged coefficient passes the bound while
        # its Newton steps shrink
        base = split_at_treatment(simulate(builtin("s2"), 2000, 2073065470))
        model = cox.fit(base, cox.CoxSpec(event_code=Status.TREATMENT_START,
                                          covariates=("z",)))
        z = base.columns["z"]
        assert abs(model.beta[0]) * (z.max() - z.min()) > cox.BETA_BOUND
        assert model.beta[0] == pytest.approx(1.258, abs=1e-3)
        assert model.iterations == 4

    def test_no_events(self):
        ds = dataset(
            (one_episode_subject("1", 1.0, Status.CENSORED),), CovariateSchema())
        with pytest.raises(NoEvents):
            cox.fit(ds, cox.CoxSpec())

    def test_unit_weights_equal_unweighted_exactly(self, d1):
        ones = WeightTable(d1, np.ones(d1.n_rows), WeightMode.IPCW)
        plain = cox.fit(d1, cox.CoxSpec(covariates=("x",)))
        weighted = cox.fit(d1, cox.CoxSpec(covariates=("x",), weights=ones))
        assert weighted.beta[0] == plain.beta[0]
        assert weighted.loglik == plain.loglik
        np.testing.assert_array_equal(weighted.baseline_increments,
                                      plain.baseline_increments)

    def test_weight_table_must_match_the_rows(self, d1, d3):
        """A table of the dataset's rows in another order or of another
        dataset's rows; a table with fewer weights than rows is never built
        (``TestWeightColumns``)."""
        reordered = dataset(d1.subjects[1:] + d1.subjects[:1], d1.schema)
        for rows in (reordered, d3):
            spec = cox.CoxSpec(covariates=("x",),
                               weights=WeightTable(rows, np.ones(len(rows)), WeightMode.IPCW))
            with pytest.raises(DataError, match=f"table's {len(rows)} rows do not match "
                                                "the dataset's 4 rows"):
                cox.fit(d1, spec)

    def test_covariate_shift_invariance(self, d1):
        spec = cox.CoxSpec(covariates=("x",))
        model = cox.fit(d1, spec)
        shifted_subjects = tuple(
            SubjectRecord(s.subject_id, s.episodes, {"x": s.baseline["x"] + 3.0})
            for s in d1.subjects)
        shifted = dataset(shifted_subjects, d1.schema)
        model2 = cox.fit(shifted, spec)
        assert model2.beta[0] == pytest.approx(model.beta[0], abs=1e-9)
        scale = math.exp(-3.0 * model.beta[0])
        np.testing.assert_allclose(model2.baseline_increments,
                                   model.baseline_increments * scale, rtol=1e-9)

    def test_null_breslow_baseline_is_nelson_aalen(self, d3):
        model = cox.fit(d3, cox.CoxSpec(ties="breslow"))
        # hand Nelson-Aalen: 1/3 at t=1, 1/1 at t=3
        np.testing.assert_allclose(model.baseline_increments, [1 / 3, 1.0],
                                   atol=1e-15)

    def test_model_json_round_trip(self, tmp_path, d1):
        model = cox.fit(d1, cox.CoxSpec(covariates=("x",)))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict()))
        again = cox.CoxModel.from_dict(json.loads(path.read_text()))
        np.testing.assert_array_equal(again.beta, model.beta)
        np.testing.assert_array_equal(again.baseline_increments,
                                      model.baseline_increments)
        assert again.ties == model.ties

    def test_schoenfeld_sum_zero_in_balanced_null_design(self):
        subjects = (
            one_episode_subject("1", 1.0, Status.EVENT, x=1.0),
            one_episode_subject("2", 1.0, Status.EVENT, x=-1.0),
            one_episode_subject("3", 2.0, Status.EVENT, x=1.0),
            one_episode_subject("4", 2.0, Status.EVENT, x=-1.0),
        )
        ds = dataset(subjects, CovariateSchema(baseline=("x",)))
        model = cox.fit(ds, cox.CoxSpec(covariates=("x",)))
        res = cox.schoenfeld_residuals(model, ds)
        # direct summation oracle: risk-set means are 0 at both event times
        assert res.residuals.sum() == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(res.residuals[:, 0], [1, -1, 1, -1], atol=1e-10)


def treated_subject(sid, v, t, status, treated_after=True):
    eps = (Episode(0.0, v, Status.TREATMENT_START),
           Episode(v, t, status, treated=treated_after))
    return SubjectRecord(sid, eps, {})


class TestNewtonExits:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Count the sweeps and the Newton steps solved in a fit."""
        calls = {"sweeps": 0, "steps": 0}
        sweep, solve = cox._sweep, np.linalg.solve

        def counted_sweep(*args, **kwargs):
            calls["sweeps"] += 1
            return sweep(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            calls["steps"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(cox, "_sweep", counted_sweep)
        monkeypatch.setattr(cox.np.linalg, "solve", counted_solve)
        return calls

    def test_one_sweep_per_accepted_step(self, d1, counted):
        # no step-halving on D1: the start, then one sweep per Newton step;
        # each point's step is solved, the last one's for its decrement only
        model = cox.fit(d1, cox.CoxSpec(covariates=("x",)))
        assert model.iterations >= 3
        assert counted["steps"] == counted["sweeps"] == model.iterations + 1

    def test_intercept_only_fit_takes_no_step(self, d1, counted):
        model = cox.fit(d1, cox.CoxSpec())
        assert (model.iterations, counted["steps"], counted["sweeps"]) == (0, 1, 1)

    def test_stalled_step_halving_raises(self, d1, monkeypatch):
        # every trial point scores below the start, so no halving is accepted
        sweep = cox._sweep

        def worse_away_from_zero(rs, beta):
            loglik, *rest = sweep(rs, beta)
            return (loglik - 1.0 if beta.any() else loglik, *rest)

        monkeypatch.setattr(cox, "_sweep", worse_away_from_zero)
        with pytest.raises(ConvergenceFailure,
                           match=r"^step-halving stalled with max \|score\| = "):
            cox.fit(d1, cox.CoxSpec(covariates=("x",)))

    def test_singular_information_raises(self, d1, monkeypatch):
        # x is free at the start, but the information of the next point
        # cannot be solved
        sweep = cox._sweep

        def singular_away_from_zero(rs, beta):
            loglik, g, info, dH = sweep(rs, beta)
            return loglik, g, info * (not beta.any()), dH

        monkeypatch.setattr(cox, "_sweep", singular_away_from_zero)
        with pytest.raises(SingularInformation, match=r"^the information is singular"):
            cox.fit(d1, cox.CoxSpec(covariates=("x",)))

    def test_spent_budget_raises(self, d1, monkeypatch):
        monkeypatch.setattr(cox, "MAX_ITER", 1)
        with pytest.raises(ConvergenceFailure,
                           match=r"^no convergence in 1 iterations \(max \|score\| = "):
            cox.fit(d1, cox.CoxSpec(covariates=("x",)))


def with_columns(ds, schema=None, **columns):
    """``ds`` with the named covariate columns replaced or added."""
    return CountingProcessDataset(
        schema or ds.schema, ds.design, ds.ids, ds.offsets, ds.tstart, ds.tstop,
        ds.status, ds.treated, {**ds.columns, **columns})


class TestScaleFreeNewton:
    """Rescaling a covariate or every case weight by a power of two rounds
    no product, so Newton's iterates rescale exactly; the stopping rule
    (the decrement per unit of event weight) and the divergence bound
    (|beta| times the column's range) are scale-free, so the fit stops at
    the same step."""

    @pytest.fixture(scope="class")
    def s2(self):
        return simulate(builtin("s2"), 2000, seed=3)

    def test_case_weights_times_power_of_two(self, s2):
        ds = split_at_treatment(s2)
        spec = cox.CoxSpec(covariates=("z",))
        plain = cox.fit(ds, spec)
        for k in (-20, -1, 1, 20):
            table = WeightTable(ds, np.full(ds.n_rows, 2.0 ** k), WeightMode.IPCW)
            weighted = cox.fit(ds, replace(spec, weights=table))
            assert weighted.iterations == plain.iterations, k
            np.testing.assert_array_equal(weighted.beta, plain.beta, err_msg=k)
            np.testing.assert_array_equal(weighted.baseline_increments,
                                          plain.baseline_increments, err_msg=k)
            np.testing.assert_array_equal(weighted.info, plain.info * 2.0 ** k, err_msg=k)

    @pytest.mark.parametrize("k", [-10, -7, 7, 10])
    def test_covariate_times_power_of_two(self, s2, k):
        ds = compose_outcome(s2)
        spec = cox.CoxSpec(covariates=("z",))
        plain = cox.fit(ds, spec)
        scaled = cox.fit(with_columns(ds, z=ds.columns["z"] * 2.0 ** k), spec)
        assert scaled.iterations == plain.iterations
        np.testing.assert_array_equal(scaled.beta * 2.0 ** k, plain.beta)

    @pytest.mark.parametrize("kz, kw", [(0, 0), (-10, 10), (-20, 0), (0, 20)])
    def test_degenerate_flag_is_unit_free(self, s2, kz, kw):
        # z with a subject-level N(0, 1) column w: a well-conditioned fit
        # in any units, as its information scaled to unit diagonal shows
        ds = compose_outcome(s2)
        w = np.random.default_rng(0).standard_normal(len(ds.ids))[ds.row_subject]
        schema = CovariateSchema(baseline=ds.schema.baseline + ("w",),
                                 time_varying=ds.schema.time_varying)
        spec = cox.CoxSpec(covariates=("z", "w"))
        plain = cox.fit(with_columns(ds, schema, w=w), spec)
        scaled = cox.fit(with_columns(ds, schema, z=ds.columns["z"] * 2.0 ** kz,
                                      w=w * 2.0 ** kw), spec)
        # the two-column solve rounds differently in other units
        np.testing.assert_allclose(scaled.beta * [2.0 ** kz, 2.0 ** kw], plain.beta,
                                   rtol=1e-12, atol=0)
        assert (scaled.degenerate, plain.degenerate) == (False, False)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_constant_covariate_held_at_zero(self, seed):
        # the baseline hazard absorbs a constant column, so it leaves the
        # other coefficients as they are and makes the information singular
        ds = compose_outcome(simulate(builtin("s2"), 2000, seed=seed))
        alone = cox.fit(ds, cox.CoxSpec(covariates=("z",)))
        schema = CovariateSchema(baseline=ds.schema.baseline + ("k",),
                                 time_varying=ds.schema.time_varying)
        for value in (0.7, 5.0, 123.0):
            model = cox.fit(with_columns(ds, schema, k=np.full(ds.n_rows, value)),
                            cox.CoxSpec(covariates=("z", "k")))
            assert (model.beta[1], model.degenerate) == (0.0, True), value
            np.testing.assert_allclose(model.beta[0], alone.beta[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c, d", [(2.0, 1.0), (-0.5, 3.0), (7.0, -2.0)])
    def test_collinear_column_held_at_zero(self, s2, c, d):
        # w = c z + d is aliased with z: the later of the two is held, so
        # the fit is the z-only fit, and in any units of w
        ds = compose_outcome(s2)
        alone = cox.fit(ds, cox.CoxSpec(covariates=("z",)))
        schema = CovariateSchema(baseline=ds.schema.baseline,
                                 time_varying=ds.schema.time_varying + ("w",))
        w = c * ds.columns["z"] + d
        for k in (0, -20, 20):
            model = cox.fit(with_columns(ds, schema, w=w * 2.0 ** k),
                            cox.CoxSpec(covariates=("z", "w")))
            assert (model.beta[1], model.degenerate) == (0.0, True), k
            np.testing.assert_allclose([model.loglik, model.beta[0]],
                                       [alone.loglik, alone.beta[0]], rtol=1e-12, atol=0)
        model = cox.fit(with_columns(ds, schema, w=w), cox.CoxSpec(covariates=("w", "z")))
        assert (model.beta[1], model.degenerate) == (0.0, True)
        np.testing.assert_allclose(model.beta[0] * c, alone.beta[0], rtol=1e-12, atol=0)


class TestTreatmentTerm:
    def fit_benefit_model(self, cuts=()):
        subjects = (
            treated_subject("1", 1.0, 9.0, Status.CENSORED),
            treated_subject("2", 1.5, 10.0, Status.CENSORED),
            treated_subject("3", 2.0, 8.0, Status.EVENT),
            one_episode_subject("4", 2.0, Status.EVENT),
            one_episode_subject("5", 3.0, Status.EVENT),
            one_episode_subject("6", 4.0, Status.EVENT),
            one_episode_subject("7", 10.0, Status.CENSORED),
        )
        ds = dataset(subjects, CovariateSchema())
        model = cox.fit(ds, cox.CoxSpec(treatment=cox.TreatmentTerm(cuts)))
        return ds, model

    def test_protective_treatment_orders_survival(self):
        _, model = self.fit_benefit_model()
        assert model.beta[0] < 0
        s0 = cox.predict_survival(model, {}, treated=False)
        s1 = cox.predict_survival(model, {}, treated=True)
        assert np.all(s1.surv >= s0.surv - 1e-12)

    def test_segment_columns_match_naive_scan(self):
        ds, _ = self.fit_benefit_model()
        spec = cox.CoxSpec(treatment=cox.TreatmentTerm((3.0, 6.0)))
        beta = np.array([-0.4, 0.2, -0.1])

        def naive_with_segments(beta):
            rows = []
            for sub in ds.subjects:
                rows += [(ep.tstart, ep.tstop, ep.status == Status.EVENT, ep.treated)
                         for ep in sub.episodes]
            times = sorted({stop for _, stop, ev, _ in rows if ev})
            ll = 0.0
            for t in times:
                seg = 0 if t <= 3.0 else (1 if t <= 6.0 else 2)
                risk = [r for r in rows if r[0] < t <= r[1]]
                dead = [r for r in risk if r[1] == t and r[2]]
                s0 = sum(math.exp(beta[seg] * r[3]) for r in risk)
                s0d = sum(math.exp(beta[seg] * r[3]) for r in dead)
                d = len(dead)
                ll += sum(beta[seg] * r[3] for r in dead)
                ll -= sum(math.log(s0 - (j / d) * s0d) for j in range(d))
            return ll

        assert cox.partial_loglik(ds, spec, beta) == pytest.approx(
            naive_with_segments(beta), rel=1e-10)

    def test_cuts_beyond_follow_up_rejected(self):
        ds, _ = self.fit_benefit_model()
        from predictimands.errors import DataError
        with pytest.raises(DataError, match="follow-up"):
            cox.fit(ds, cox.CoxSpec(treatment=cox.TreatmentTerm((50.0,))))

    def test_prediction_uses_segment_active_at_jump(self):
        # treated deaths on both sides of the cut keep every segment finite
        subjects = (
            treated_subject("1", 1.0, 4.0, Status.EVENT),
            treated_subject("2", 1.5, 8.0, Status.EVENT),
            treated_subject("3", 2.0, 10.0, Status.CENSORED),
            one_episode_subject("4", 2.0, Status.EVENT),
            one_episode_subject("5", 3.0, Status.EVENT),
            one_episode_subject("6", 6.0, Status.EVENT),
            one_episode_subject("7", 10.0, Status.CENSORED),
        )
        ds = dataset(subjects, CovariateSchema())
        # at cut 4.0 a death falls on the cut, in the segment the cut closes
        for cut, on_death in ((5.0, False), (4.0, True)):
            model = cox.fit(ds, cox.CoxSpec(treatment=cox.TreatmentTerm((cut,))))
            assert (cut in model.baseline_times) == on_death
            always = cox.predict_survival(model, {}, treated=True)
            g_early, g_late = model.beta
            h = model.baseline_increments
            expected = np.exp(-np.cumsum(
                h * np.exp(np.where(model.baseline_times <= cut, g_early, g_late))))
            np.testing.assert_allclose(always.surv, expected, rtol=1e-12)

    def test_overflowing_treated_hazard_raises(self):
        # the treatment coefficient alone can overflow the hazard
        _, model = self.fit_benefit_model()
        model = replace(model, beta=np.array([710.0]))
        cox.predict_survival(model, {}, treated=False)
        with pytest.raises(NumericError, match=r"at profile \{\} overflows \(linear "
                                               r"predictor up to 710\)"):
            cox.predict_survival(model, {}, treated=True)
