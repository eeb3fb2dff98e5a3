import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predictimands import competing, scenarios, simulate
from predictimands.data import (
    CountingProcessDataset,
    CovariateSchema,
    DesignFlavor,
    Episode,
    ImputePolicy,
    Status,
    SubjectRecord,
    compose_outcome,
    impute_tv_covariates,
    infer_schema,
    ingest_csv,
    split_at_treatment,
    write_csv,
)
from predictimands.errors import (
    DataError,
    MalformedRow,
    NegativeTime,
    NoEvents,
    NoObservationsAnywhere,
    NonContiguousEpisodes,
    UnknownCovariate,
)
from tests.conftest import one_episode_subject
from tests.records import dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_single_row(self, tmp_path):
        path = write(tmp_path, "id,tstart,tstop,status,treated,age\n1,0,5,1,0,50\n")
        ds = ingest_csv(path, CovariateSchema(baseline=("age",)))
        assert ds.n_subjects == 1
        (sub,) = ds.subjects
        assert sub.baseline == {"age": 50.0}
        (ep,) = sub.episodes
        assert (ep.tstart, ep.tstop, ep.status) == (0.0, 5.0, Status.EVENT)

    def test_gap_between_episodes(self, tmp_path):
        path = write(tmp_path,
                     "id,tstart,tstop,status,treated\n1,0,2,0,0\n1,3,5,1,0\n")
        with pytest.raises(NonContiguousEpisodes):
            ingest_csv(path, CovariateSchema())

    def test_negative_time(self, tmp_path):
        path = write(tmp_path, "id,tstart,tstop,status,treated\n1,-1,5,1,0\n")
        with pytest.raises(NegativeTime):
            ingest_csv(path, CovariateSchema())

    def test_unknown_covariate_column(self, tmp_path):
        path = write(tmp_path, "id,tstart,tstop,status,treated,bmi\n1,0,5,1,0,22\n")
        with pytest.raises(UnknownCovariate):
            ingest_csv(path, CovariateSchema())

    def test_bad_status(self, tmp_path):
        path = write(tmp_path, "id,tstart,tstop,status,treated\n1,0,5,7,0\n")
        with pytest.raises(MalformedRow) as err:
            ingest_csv(path, CovariateSchema())
        assert err.value.line == 2

    def test_event_treatment_tie_rejected(self, tmp_path):
        path = write(tmp_path,
                     "id,tstart,tstop,status,treated\n1,0,3,2,0\n1,0,3,1,0\n")
        with pytest.raises(MalformedRow, match="tied"):
            ingest_csv(path, CovariateSchema())

    def test_baseline_varying_across_rows_rejected(self, tmp_path):
        path = write(tmp_path, "id,tstart,tstop,status,treated,age\n"
                               "1,0,2,0,0,50\n1,2,5,1,0,51\n")
        with pytest.raises(MalformedRow, match="vary across rows") as err:
            ingest_csv(path, CovariateSchema(baseline=("age",)))
        assert err.value.line == 3

    def test_first_failing_line_is_reported(self, tmp_path):
        # a bad status on line 3 comes before the short row on line 4
        path = write(tmp_path, "id,tstart,tstop,status,treated\n"
                               "1,0,2,0,0\n2,0,5,7,0\n3,0\n")
        with pytest.raises(MalformedRow, match="status") as err:
            ingest_csv(path, CovariateSchema())
        assert err.value.line == 3

    def test_subject_checks_run_in_subject_order(self, tmp_path):
        # subject 1 appears first, so its varying baseline on line 5 is
        # reported before subject 2's tie on line 4
        path = write(tmp_path, "id,tstart,tstop,status,treated,age\n"
                               "1,0,2,0,0,50\n2,0,3,2,0,60\n2,0,3,1,0,60\n"
                               "1,2,5,1,0,51\n")
        with pytest.raises(MalformedRow, match="vary across rows") as err:
            ingest_csv(path, CovariateSchema(baseline=("age",)))
        assert err.value.line == 5

    def test_d1_round_trip_against_hand_built(self, tmp_path, d1):
        text = ("id,tstart,tstop,status,treated,x\n"
                "1,0,1,1,0,1\n2,0,2,1,0,0\n3,0,3,0,0,1\n4,0,4,1,0,0\n")
        ds = ingest_csv(write(tmp_path, text), CovariateSchema(baseline=("x",)))
        assert ds == d1

    def test_wide_format_expands(self, tmp_path):
        path = write(tmp_path, "id,time,status,age\n1,5,1,50\n2,3.5,0,61\n")
        ds = ingest_csv(path, CovariateSchema(baseline=("age",)))
        assert ds.n_subjects == 2
        assert ds.subjects[1].episodes[0].tstop == 3.5
        assert ds.subjects[1].episodes[0].status == Status.CENSORED

    def test_levels_encode_and_round_trip(self, tmp_path):
        schema = CovariateSchema(baseline=("dialysis",),
                                 levels={"dialysis": ("HD", "PD")})
        path = write(tmp_path,
                     "id,tstart,tstop,status,treated,dialysis\n1,0,5,1,0,PD\n")
        ds = ingest_csv(path, schema)
        assert ds.subjects[0].baseline["dialysis"] == 1.0
        out = tmp_path / "echo.csv"
        write_csv(ds, out)
        assert "PD" in out.read_text()
        assert ingest_csv(out, schema) == ds

    def test_design_inference(self, tmp_path):
        stops = write(tmp_path, "id,tstart,tstop,status,treated\n1,0,3,2,0\n",
                      "a.csv")
        assert ingest_csv(stops, CovariateSchema()).design == DesignFlavor.STOPS_AT_TREATMENT
        continues = write(tmp_path,
                          "id,tstart,tstop,status,treated\n1,0,3,2,0\n1,3,9,1,1\n",
                          "b.csv")
        assert ingest_csv(continues, CovariateSchema()).design == DesignFlavor.CONTINUES_AFTER_TREATMENT


class TestInvariants:
    def test_event_must_be_final(self):
        eps = (Episode(0.0, 1.0, Status.EVENT), Episode(1.0, 2.0, Status.CENSORED))
        with pytest.raises(DataError, match="event before the final"):
            dataset((SubjectRecord("1", eps),), CovariateSchema())

    def test_treated_requires_prior_start(self):
        eps = (Episode(0.0, 1.0, Status.EVENT, treated=True),)
        with pytest.raises(DataError, match="without a prior treatment start"):
            dataset((SubjectRecord("1", eps),), CovariateSchema())

    def test_treatment_monotone(self):
        eps = (Episode(0.0, 1.0, Status.TREATMENT_START),
               Episode(1.0, 2.0, Status.CENSORED, treated=True),
               Episode(2.0, 3.0, Status.EVENT, treated=False))
        with pytest.raises(DataError, match="stay on"):
            dataset((SubjectRecord("1", eps),), CovariateSchema())

    def test_stops_design_rejects_treated_time(self):
        eps = (Episode(0.0, 1.0, Status.TREATMENT_START),
               Episode(1.0, 2.0, Status.EVENT, treated=True))
        with pytest.raises(DataError, match="stops-at-treatment"):
            dataset((SubjectRecord("1", eps),), CovariateSchema(),
                    DesignFlavor.STOPS_AT_TREATMENT)

    def test_first_episode_starts_at_zero(self):
        eps = (Episode(1.0, 2.0, Status.EVENT),)
        with pytest.raises(DataError, match="start at time 0"):
            dataset((SubjectRecord("1", eps),), CovariateSchema())


def columnar(**changes):
    """Two one-row subjects with a baseline covariate x, built by the
    constructor with ``changes`` to its arguments."""
    args = dict(schema=CovariateSchema(baseline=("x",)),
                design=DesignFlavor.CONTINUES_AFTER_TREATMENT, ids=["1", "2"],
                offsets=[0, 1, 2], tstart=[0.0, 0.0], tstop=[1.0, 2.0], status=[1, 0],
                treated=[False, False], columns={"x": [0.0, 1.0]})
    return CountingProcessDataset(**{**args, **changes})


class TestColumnarConstructor:
    def test_builds_what_the_records_give(self):
        ds = columnar()
        assert ds == dataset((one_episode_subject("1", 1.0, Status.EVENT, x=0.0),
                              one_episode_subject("2", 2.0, Status.CENSORED, x=1.0)),
                             CovariateSchema(baseline=("x",)))
        assert ds.subjects[1].baseline == {"x": 1.0}

    def test_duplicate_id(self):
        with pytest.raises(DataError) as exc:
            columnar(ids=["1", "1"])
        assert (type(exc.value), str(exc.value)) == (DataError, "duplicate subject id '1'")

    def test_nan_baseline_value(self):
        with pytest.raises(DataError) as exc:
            columnar(columns={"x": [math.nan, 1.0]})
        assert (type(exc.value), str(exc.value)) == (
            DataError, "subject 1: missing baseline covariates ['x']")

    @pytest.mark.parametrize("columns", [{}, {"x": [0.0, 1.0], "w": [0.0, 0.0]}])
    def test_columns_other_than_the_schema(self, columns):
        with pytest.raises(UnknownCovariate, match="are not the schema's covariates"):
            columnar(columns=columns)

    @pytest.mark.parametrize("changes", [
        {"tstop": [1.0]}, {"status": [1, 0, 0]}, {"columns": {"x": [0.0]}},
        {"offsets": [0, 2]}, {"offsets": [0, 2, 1]}, {"offsets": [1, 1, 2]},
        {"offsets": [[0, 1, 2]]},
    ])
    def test_lengths_that_do_not_match_offsets(self, changes):
        with pytest.raises(DataError, match="offsets rising from 0 to the length"):
            columnar(**changes)

    @pytest.mark.parametrize("changes, message", [
        ({"tstop": [1.0, math.inf]}, "times must be finite and status codes 0, 1 or 2"),
        ({"tstart": [math.nan, 0.0]}, "times must be finite and status codes 0, 1 or 2"),
        ({"status": [1, 7]}, "times must be finite and status codes 0, 1 or 2"),
        ({"ids": ["1"], "offsets": [0, 2], "columns": {"x": [0.0, 1.0]}},
         "baseline covariate 'x' varies within a subject"),
        ({"ids": ["1"], "offsets": [0, 2], "columns": {"x": [0.0, math.nan]}},
         "baseline covariate 'x' varies within a subject"),
    ], ids=["inf-tstop", "nan-tstart", "status-7", "varying-baseline", "partly-nan-baseline"])
    def test_values_outside_their_domain(self, changes, message):
        with pytest.raises(DataError) as exc:
            columnar(**changes)
        assert str(exc.value) == message


def continues_subject(sid, v, t, status, **baseline):
    eps = (Episode(0.0, v, Status.TREATMENT_START),
           Episode(v, t, status, treated=True))
    return SubjectRecord(sid, eps, baseline)


class TestTransforms:
    def test_split_truncates_at_treatment(self):
        sub = continues_subject("1", 3.0, 7.0, Status.EVENT)
        ds = dataset((sub,), CovariateSchema())
        out = split_at_treatment(ds)
        assert out.design == DesignFlavor.STOPS_AT_TREATMENT
        (eps,) = [s.episodes for s in out.subjects]
        assert eps == (Episode(0.0, 3.0, Status.TREATMENT_START),)

    def test_split_idempotent_on_untreated(self):
        ds = dataset(
            (SubjectRecord("1", (Episode(0.0, 5.0, Status.EVENT),)),),
            CovariateSchema())
        assert split_at_treatment(ds).subjects == ds.subjects
        assert split_at_treatment(split_at_treatment(ds)) == split_at_treatment(ds)
        base = split_at_treatment(ds)
        assert split_at_treatment(base) is base

    def test_split_person_time_on_simulated(self):
        spec = scenarios.builtin("s1")
        ds = simulate.simulate(spec, 200, seed=7)
        trajs = simulate.simulate_trajectories(spec, 200, seed=7)
        out = split_at_treatment(ds)
        assert not out.treated.any()
        expected = np.minimum(np.minimum(trajs.latent_death, trajs.treat_time),
                              trajs.censor_time).sum()
        assert out.person_time() == pytest.approx(expected, rel=1e-12)

    def test_compose_recodes_treatment(self):
        ds = dataset(
            (SubjectRecord("1", (Episode(0.0, 3.0, Status.TREATMENT_START),)),),
            CovariateSchema(), DesignFlavor.STOPS_AT_TREATMENT)
        out = compose_outcome(ds)
        assert out.subjects[0].episodes == (Episode(0.0, 3.0, Status.EVENT),)

    def test_compose_leaves_untreated_alone(self):
        ds = dataset(
            (SubjectRecord("1", (Episode(0.0, 5.0, Status.CENSORED),)),),
            CovariateSchema())
        assert compose_outcome(ds).subjects == ds.subjects

    def test_compose_d4_event_count(self, d4):
        out = compose_outcome(d4)
        events = sum(ep.status == Status.EVENT for sub in out.subjects for ep in sub.episodes)
        assert events == 3

    def test_split_then_compose_equals_compose(self):
        spec = scenarios.builtin("s1")
        ds = simulate.simulate(spec, 150, seed=3)
        assert compose_outcome(split_at_treatment(ds)) == compose_outcome(ds)

    def test_person_time_never_increases(self):
        spec = scenarios.builtin("s1")
        ds = simulate.simulate(spec, 150, seed=4)
        pt = ds.person_time()
        assert split_at_treatment(ds).person_time() <= pt
        assert compose_outcome(ds).person_time() <= pt


def tv_subject(sid, values, status=Status.EVENT):
    eps = []
    for k, v in enumerate(values):
        last = k == len(values) - 1
        eps.append(Episode(float(k), float(k + 1),
                           status if last else Status.CENSORED,
                           tv={"bmi": v}))
    return SubjectRecord(sid, tuple(eps))


class TestImpute:
    schema = CovariateSchema(time_varying=("bmi",))

    def test_locf_fills_forward(self):
        ds = dataset(
            (tv_subject("1", [22.0, None, None]),), self.schema)
        out = impute_tv_covariates(ds, ImputePolicy.LOCF)
        assert [ep.tv["bmi"] for ep in out.subjects[0].episodes] == [22.0, 22.0, 22.0]

    def test_median_fallback(self):
        ds = dataset(
            (tv_subject("1", [2.0]), tv_subject("2", [2.4]),
             tv_subject("3", [3.0]), tv_subject("4", [None, None])),
            self.schema)
        out = impute_tv_covariates(ds, ImputePolicy.MEDIAN_FALLBACK)
        assert [ep.tv["bmi"] for ep in out.subjects[3].episodes] == [2.4, 2.4]

    def test_locf_rejects_fully_missing_subject(self):
        ds = dataset(
            (tv_subject("1", [2.0]), tv_subject("2", [None])), self.schema)
        with pytest.raises(DataError, match="median-fallback"):
            impute_tv_covariates(ds, ImputePolicy.LOCF)

    def test_no_observations_anywhere(self):
        ds = dataset(
            (tv_subject("1", [None]), tv_subject("2", [None])), self.schema)
        with pytest.raises(NoObservationsAnywhere):
            impute_tv_covariates(ds, ImputePolicy.MEDIAN_FALLBACK)

    def test_fully_observed_is_identity(self):
        ds = dataset(
            (tv_subject("1", [1.0, 2.0]), tv_subject("2", [3.0, 4.0])),
            self.schema)
        assert impute_tv_covariates(ds, ImputePolicy.LOCF) == ds

    def test_idempotent(self):
        ds = dataset(
            (tv_subject("1", [2.0, None, 4.0, None]), tv_subject("2", [None, 5.0])),
            self.schema)
        once = impute_tv_covariates(ds, ImputePolicy.MEDIAN_FALLBACK)
        assert impute_tv_covariates(once, ImputePolicy.MEDIAN_FALLBACK) == once
        # leading gap takes the first observation
        assert once.subjects[1].episodes[0].tv["bmi"] == 5.0


class TestRoundTrip:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           name=st.sampled_from(["s1", "s2", "age_gap"]))
    def test_write_ingest_round_trip(self, tmp_path_factory, seed, name):
        spec = scenarios.builtin(name)
        ds = simulate.simulate(spec, 25, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        write_csv(ds, path)
        again = ingest_csv(path, ds.schema, design=ds.design)
        assert again == ds

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           name=st.sampled_from(["s1", "s2", "age_gap"]),
           design=st.sampled_from(["stops", "continues"]))
    def test_ingest_infers_the_schema_of_infer_schema(self, tmp_path_factory, seed,
                                                      name, design):
        spec = simulate.IntensitySpec.from_dict({**scenarios.BUILTIN[name], "design": design})
        path = tmp_path_factory.mktemp("inf") / "ds.csv"
        write_csv(simulate.simulate(spec, 25, seed=seed), path)
        assert ingest_csv(path) == ingest_csv(path, infer_schema(path))

    @pytest.mark.parametrize("text", [
        "id,time,status,age\n1,5,1,50\n2,3.5,0,61\n",
        "id,tstart,tstop,status,treated,dialysis\n1,0,5,1,0,PD\n2,0,3,0,0,HD\n",
    ], ids=["wide", "label-coded"])
    def test_ingest_infers_the_schema_of_infer_schema_on_files(self, tmp_path, text):
        path = write(tmp_path, text)
        assert outcome(ingest_csv, path) == outcome(ingest_csv, path, infer_schema(path))

    def test_infer_schema(self, tmp_path):
        spec = scenarios.builtin("s2")
        ds = simulate.simulate(spec, 40, seed=11)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        inferred = infer_schema(path)
        assert inferred.time_varying == ("z",)
        assert inferred.baseline == ()


# ---------------------------------------------------------------------------
# record-by-record references for the columnar validation and transforms


def reference_validate(subjects, schema, design):
    """Validate records subject by subject, episode by episode."""
    seen = set()
    for sub in subjects:
        sid = sub.subject_id
        if sid in seen:
            raise DataError(f"duplicate subject id {sid!r}")
        seen.add(sid)
        if not sub.episodes:
            raise DataError(f"subject {sid}: no episodes")
        if sub.episodes[0].tstart != 0.0:
            raise DataError(f"subject {sid}: first episode must start at time 0")
        seen_treatment = False
        for k, ep in enumerate(sub.episodes):
            if ep.tstart < 0 or ep.tstop < 0:
                raise NegativeTime(f"subject {sid}: negative time in episode {k}")
            if not ep.tstart < ep.tstop:
                raise DataError(f"subject {sid}: episode {k} has tstart >= tstop")
            if k > 0 and ep.tstart != sub.episodes[k - 1].tstop:
                raise NonContiguousEpisodes(
                    f"subject {sid}: episode starting at {ep.tstart} does not "
                    f"continue from {sub.episodes[k - 1].tstop}")
            if ep.status == Status.EVENT and k != len(sub.episodes) - 1:
                raise DataError(f"subject {sid}: event before the final episode")
            if ep.status == Status.TREATMENT_START:
                if seen_treatment:
                    raise DataError(f"subject {sid}: more than one treatment start")
                if ep.treated:
                    raise DataError(f"subject {sid}: episode ending at treatment "
                                    "start must be untreated")
                seen_treatment = True
            elif seen_treatment and not ep.treated:
                raise DataError(
                    f"subject {sid}: untreated episode after treatment start "
                    "(treatment indicator must stay on once treatment began)")
            if ep.treated and not seen_treatment:
                raise DataError(
                    f"subject {sid}: treated episode without a prior treatment start")
            unknown = set(ep.tv) - set(schema.time_varying)
            if unknown:
                raise UnknownCovariate(
                    f"subject {sid}: episode covariates {sorted(unknown)} not in schema")
        missing = set(schema.baseline) - set(sub.baseline)
        if missing:
            raise DataError(f"subject {sid}: missing baseline covariates {sorted(missing)}")
        unknown = set(sub.baseline) - set(schema.baseline)
        if unknown:
            raise UnknownCovariate(
                f"subject {sid}: baseline covariates {sorted(unknown)} not in schema")
        if design == DesignFlavor.STOPS_AT_TREATMENT and any(ep.treated for ep in sub.episodes):
            raise DataError(f"subject {sid}: treated person-time in a "
                            "stops-at-treatment design")


def reference_split(subjects, design):
    if design == DesignFlavor.STOPS_AT_TREATMENT:
        return tuple(subjects)
    out = []
    for sub in subjects:
        episodes = []
        for ep in sub.episodes:
            episodes.append(ep)
            if ep.status == Status.TREATMENT_START:
                break
        out.append(replace(sub, episodes=tuple(episodes)))
    return tuple(out)


def reference_compose(subjects):
    out = []
    for sub in subjects:
        episodes = []
        for ep in sub.episodes:
            if ep.status == Status.TREATMENT_START:
                episodes.append(replace(ep, status=Status.EVENT))
                break
            episodes.append(ep)
            if ep.status == Status.EVENT:
                break
        out.append(replace(sub, episodes=tuple(episodes)))
    return tuple(out)


def reference_impute(subjects, schema, policy):
    tv_names = schema.time_varying
    first_obs = {name: [] for name in tv_names}
    for sub in subjects:
        for name in tv_names:
            for ep in sub.episodes:
                if ep.tv.get(name) is not None:
                    first_obs[name].append(ep.tv[name])
                    break
    medians = {name: statistics.median(v) for name, v in first_obs.items() if v}
    out = []
    for sub in subjects:
        filled = {name: [ep.tv.get(name) for ep in sub.episodes] for name in tv_names}
        for name in tv_names:
            values = filled[name]
            if all(v is None for v in values):
                if name not in medians:
                    raise NoObservationsAnywhere(
                        f"covariate {name!r} has no observed value for any subject")
                if policy == ImputePolicy.LOCF:
                    raise DataError(f"subject {sub.subject_id}: no observations of "
                                    f"{name!r} (use the median-fallback policy)")
                filled[name] = [medians[name]] * len(values)
                continue
            last = next(v for v in values if v is not None)
            for k, v in enumerate(values):
                values[k] = last = last if v is None else v
        out.append(replace(sub, episodes=tuple(
            replace(ep, tv={name: filled[name][k] for name in tv_names})
            for k, ep in enumerate(sub.episodes))))
    return tuple(out)


def outcome(fn, *args):
    """The call's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except DataError as exc:
        return type(exc), str(exc)


RECORD_SCHEMA = CovariateSchema(baseline=("x",), time_varying=("z",))


@st.composite
def record_datasets(draw):
    """1-8 valid subjects of 1-5 episodes on a half-unit grid, in either
    design, with at most one treatment start and gaps in the covariate z."""
    design = draw(st.sampled_from(list(DesignFlavor)))
    subjects = []
    for i in range(draw(st.integers(1, 8))):
        ends = sorted(draw(st.sets(st.integers(1, 20), min_size=1, max_size=5)))
        bounds = [0.0] + [e / 2 for e in ends]
        k = len(ends)
        start = draw(st.sampled_from([None, *range(k)]))
        if design == DesignFlavor.STOPS_AT_TREATMENT and start is not None:
            k = start + 1
        final = draw(st.sampled_from([Status.EVENT, Status.CENSORED]))
        episodes = tuple(
            Episode(bounds[j], bounds[j + 1],
                    Status.TREATMENT_START if j == start
                    else final if j == k - 1 else Status.CENSORED,
                    treated=start is not None and j > start,
                    tv={"z": draw(st.sampled_from([None, -1.0, 0.5, 2.0]))})
            for j in range(k))
        subjects.append(SubjectRecord(str(i + 1), episodes,
                                      {"x": draw(st.sampled_from([0.0, 1.0]))}))
    return tuple(subjects), design


def check_against_references(subjects, design):
    ds = dataset(subjects, RECORD_SCHEMA, design)
    assert ds.subjects == subjects
    split = split_at_treatment(ds)
    assert split.subjects == reference_split(subjects, design)
    assert split.design == DesignFlavor.STOPS_AT_TREATMENT
    assert compose_outcome(ds).subjects == reference_compose(subjects)
    for policy in ImputePolicy:
        got = outcome(impute_tv_covariates, ds, policy)
        want = outcome(reference_impute, subjects, RECORD_SCHEMA, policy)
        assert (got.subjects if isinstance(got, CountingProcessDataset) else got) == want
    treated_time = sum(ep.tstop - ep.tstart for sub in subjects for ep in sub.episodes
                       if ep.treated)
    assert split.person_time() + treated_time == pytest.approx(ds.person_time(), rel=1e-12)
    try:
        pair = competing.fit_cause_specific_pair(ds)
    except NoEvents:
        return
    _, f_ev, f_tr, surv = competing.aalen_johansen(pair)
    assert np.abs(f_ev + f_tr + surv - 1.0).max() <= 1e-12


@pytest.mark.filterwarnings("ignore:hazard increment exceeds:RuntimeWarning")
class TestColumnarAgainstRecords:
    @settings(max_examples=150, deadline=None)
    @given(data=record_datasets())
    def test_transforms_match_record_references(self, data):
        check_against_references(*data)

    @pytest.mark.parametrize("case", [
        "single-subject", "no-treatment-starts", "start-on-last-row", "all-missing-tv"])
    @pytest.mark.parametrize("design", list(DesignFlavor))
    def test_adversarial(self, case, design):
        def sub(sid, statuses, treated=(), z=(1.0, None, 2.0, None)):
            return SubjectRecord(sid, tuple(
                Episode(float(j), float(j + 1), s, j in treated, {"z": z[j % len(z)]})
                for j, s in enumerate(statuses)), {"x": float(sid == "2")})

        C, E, T = Status.CENSORED, Status.EVENT, Status.TREATMENT_START
        subjects = {
            "single-subject": (sub("1", (C, T, E), treated={2}),),
            "no-treatment-starts": (sub("1", (C, E)), sub("2", (C, C, C)), sub("3", (E,))),
            "start-on-last-row": (sub("1", (C, C, T)), sub("2", (T,)), sub("3", (C, E))),
            "all-missing-tv": (sub("1", (C, E), z=(None,)), sub("2", (T,), z=(None,))),
        }[case]
        if design == DesignFlavor.STOPS_AT_TREATMENT:
            subjects = reference_split(subjects, DesignFlavor.CONTINUES_AFTER_TREATMENT)
        check_against_references(subjects, design)

    @pytest.mark.parametrize("rows", [
        # (tstart, tstop, status, treated, tv) per episode; each case breaks
        # two checks at once, so the order of the checks decides the error
        [(0, 1, 2, False, {}), (1, 2, 2, True, {})],
        [(0, 1, 2, False, {}), (1, 2, 1, False, {}), (2, 3, 0, True, {})],
        [(0, 1, 0, True, {"w": 1.0}), (1, 2, 1, False, {})],
        [(0, -1, 1, False, {"w": 1.0})],
        [(0, 1, 2, True, {}), (2, 3, 1, True, {})],
        [(0.5, 1, 1, False, {})],
        [],
    ])
    @pytest.mark.parametrize("design", list(DesignFlavor))
    def test_validation_order_on_double_faults(self, rows, design):
        subjects = (SubjectRecord("1", (Episode(0.0, 1.0, Status.CENSORED),), {"x": 1.0}),
                    SubjectRecord("2", tuple(Episode(*row) for row in rows), {}))
        got = outcome(dataset, subjects, RECORD_SCHEMA, design)
        want = outcome(reference_validate, subjects, RECORD_SCHEMA, design)
        assert want is not None
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_validation_matches_record_reference(self, data):
        """Arbitrary, mostly invalid records raise what the record-by-record
        validation raises, naming the same subject and episode. Covariate
        names outside the schema are not drawn: columns cannot carry them."""
        times = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])

        def episodes():
            # mostly contiguous from 0, so the treatment checks are reached
            bounds = [0.0] + sorted(data.draw(st.lists(times, min_size=0, max_size=4)))
            if data.draw(st.integers(0, 3)) == 0:
                bounds[data.draw(st.integers(0, len(bounds) - 1))] = data.draw(times)
            return tuple(
                Episode(a, b, data.draw(st.sampled_from(list(Status))),
                        data.draw(st.booleans()),
                        data.draw(st.sampled_from([{}, {"z": 1.0}])))
                for a, b in zip(bounds[:-1], bounds[1:]))

        subjects = tuple(
            SubjectRecord(data.draw(st.sampled_from(["1", "2", "3", "4"])), episodes(),
                          data.draw(st.sampled_from([{"x": 1.0}, {}])))
            for _ in range(data.draw(st.integers(1, 4))))
        design = data.draw(st.sampled_from(list(DesignFlavor)))
        got = outcome(dataset, subjects, RECORD_SCHEMA, design)
        want = outcome(reference_validate, subjects, RECORD_SCHEMA, design)
        assert (None if isinstance(got, CountingProcessDataset) else got) == want
