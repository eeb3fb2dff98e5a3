import csv
import gc
import math
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predictimands import competing, scenarios, simulate
from predictimands import data as data_mod
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
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_off_while_reading_then_restored(self, tmp_path, monkeypatch,
                                                       enabled):
        seen, reader = [], csv.reader
        monkeypatch.setattr(data_mod.csv, "reader",
                            lambda fh: seen.append(gc.isenabled()) or reader(fh))
        good = write(tmp_path, "id,tstart,tstop,status,treated\n1,0,5,1,0\n")
        bad = write(tmp_path, "id,tstart,tstop,status,treated\n1,0,5\n", "bad.csv")
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            ingest_csv(good)
            assert gc.isenabled() is enabled
            with pytest.raises(MalformedRow):
                ingest_csv(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]

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

    def test_repeated_column_name_rejected(self, tmp_path):
        path = write(tmp_path, "id,tstart,tstop,status,treated,x,x\n1,0,5,1,0,1,2\n")
        for read in (ingest_csv, infer_schema):
            with pytest.raises(MalformedRow, match="column 7 repeats the name 'x'") as err:
                read(path)
            assert err.value.line == 1

    def test_empty_column_name_rejected(self, tmp_path):
        path = write(tmp_path, "id,tstart,tstop,status,treated,,x\n1,0,5,1,0,1,2\n")
        with pytest.raises(MalformedRow, match="header column 6 has no name") as err:
            ingest_csv(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("content", [
        None,
        b"id,tstart,tstop,status,treated\n\xe9,0,5,1,0\n",
        b"id,tstart,tstop,status,treated,x\n1,0,5,1,0," + b"1" * 200_000 + b"\n",
    ], ids=["missing", "not-utf8", "field-over-csv-limit"])
    def test_unreadable_file_is_a_data_error(self, tmp_path, content):
        path = tmp_path / "data.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match=f"cannot read {path}: "):
            ingest_csv(path)

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


class TestSchema:
    @pytest.mark.parametrize("kwargs", [{"baseline": ("x", "x")},
                                        {"time_varying": ("z", "x", "z")}],
                             ids=["baseline", "time-varying"])
    def test_name_listed_twice_rejected(self, kwargs):
        with pytest.raises(DataError, match="listed more than once"):
            CovariateSchema(**kwargs)


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

    def test_write_rows_writes_each_float_as_its_repr(self, tmp_path):
        values = [5e-324, 1e-320, 2.5e-07, 1e16, 1e22, -0.0,
                  1.7976931348623157e308, math.inf]
        path = tmp_path / "floats.csv"
        data_mod.write_rows(path, ("label", "value"), (("x", v) for v in values))
        assert path.read_text().splitlines() == (
            ["label,value"] + [f"x,{v!r}" for v in values])

    def test_write_rows_creates_missing_directories(self, tmp_path):
        path = tmp_path / "new" / "deeper" / "rows.csv"
        data_mod.write_rows(path, ("a", "b"), [(1, 0.5), ("", 2.0)])
        assert path.read_text() == "a,b\n1,0.5\n,2.0\n"

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
        models = competing.fit_cause_specific_pair(ds)
    except NoEvents:
        return
    _, f_ev, f_tr, surv = competing.aalen_johansen(models)
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


# ---------------------------------------------------------------------------
# a row-by-row reference for the columnar CSV reader


def reference_read(path):
    """Header, wide flag, line numbers and fields of the non-blank rows up to
    the first row with the wrong number of fields, and that row's error."""
    with data_mod.reading(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "empty file")
        header = [h.strip() for h in header]
        wide = tuple(header[:3]) == ("id", "time", "status")
        if not wide and tuple(header[:5]) != ("id", "tstart", "tstop", "status", "treated"):
            raise MalformedRow(1, f"unrecognized header {header!r}")
        for j, name in enumerate(header):
            if not name or name in header[:j]:
                problem = f"repeats the name {name!r}" if name else "has no name"
                raise MalformedRow(1, f"header column {j + 1} {problem}")
        lines, rows = [], []
        for line, row in enumerate(reader, start=2):
            if all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                return header, wide, lines, rows, MalformedRow(
                    line, f"expected {len(header)} fields, got {len(row)}")
            lines.append(line)
            rows.append(row)
    return header, wide, lines, rows, None


def reference_classify(header, wide, rows):
    if wide:
        return CovariateSchema(baseline=tuple(header[3:]))
    ids = [row[0].strip() for row in rows]
    baseline, tv = [], []
    for j, name in enumerate(header[5:], start=5):
        values = [row[j].strip() for row in rows]
        constant = "" not in values and len(set(zip(ids, values))) == len(set(ids))
        (baseline if constant else tv).append(name)
    return CovariateSchema(baseline=tuple(baseline), time_varying=tuple(tv))


def reference_ingest(path, schema=None, design=None, levels=None):
    """``ingest_csv`` one row at a time: each row parsed and checked field by
    field, raising at the first failure."""
    header, wide, lines, rows, short_row = reference_read(path)
    if schema is None:
        schema = reference_classify(header, wide, rows)
    if levels:
        schema = replace(schema, levels=levels)
    fixed = 3 if wide else 5
    cov_cols = header[fixed:]
    unknown = set(cov_cols) - set(schema.names())
    if unknown:
        raise UnknownCovariate(f"columns {sorted(unknown)} not in schema")
    missing = set(schema.names()) - set(cov_cols)
    if missing:
        raise MalformedRow(1, f"schema covariates {sorted(missing)} missing from header")
    if wide and schema.time_varying:
        raise MalformedRow(1, "wide format cannot carry time-varying covariates")

    def parse(raw, line, rule, message):
        try:
            return rule(raw)
        except ValueError:
            raise MalformedRow(line, message.format(raw)) from None

    status_message = "status must be 0, 1 or 2, got {!r}"
    ids, parsed = [], []
    for line, row in zip(lines, rows):
        sid = row[0].strip()
        if not sid:
            raise MalformedRow(line, "empty subject id")
        if wide:
            tstart, tstop = 0.0, parse(row[1], line, float, "cannot parse time {!r}")
            code = parse(row[2], line, lambda raw: (0, 1, 2).index(int(raw)), status_message)
            on = 0
        else:
            tstart = parse(row[1], line, float, "cannot parse tstart {!r}")
            tstop = parse(row[2], line, float, "cannot parse tstop {!r}")
            code = parse(row[3], line, lambda raw: (0, 1, 2).index(int(raw)), status_message)
            on = parse(row[4], line, lambda raw: ("0", "1").index(raw.strip()),
                       "treated must be 0 or 1, got {!r}")
        if not math.isfinite(tstart + tstop):
            col = 2 if math.isfinite(tstart) and not wide else 1
            raise MalformedRow(line, f"{header[col]} must be finite, got {row[col]!r}")
        if tstart < 0 or tstop < 0:
            raise NegativeTime(f"line {line}: negative time")
        if not tstart < tstop:
            raise MalformedRow(line, f"tstart {tstart} must be below tstop {tstop}")
        values = [tstart, tstop, code, on]
        for name, raw in zip(cov_cols, row[fixed:]):
            raw = raw.strip()
            if not raw and name not in schema.time_varying:
                raise MalformedRow(line, f"baseline covariate {name!r} is empty")
            try:
                values.append(schema.encode(name, raw) if raw else math.nan)
            except DataError as exc:
                raise MalformedRow(line, str(exc)) from None
            if raw and not math.isfinite(values[-1]):
                raise MalformedRow(line, f"covariate {name!r} must be finite, got {raw!r}")
        ids.append(sid)
        parsed.append(values)
    if short_row is not None:
        raise short_row

    index = {}
    subject = np.array([index.setdefault(sid, len(index)) for sid in ids], int)
    table = np.array(parsed, float).reshape(len(parsed), 4 + len(cov_cols))
    order = np.lexsort((table[:, 0], subject))
    table, lines = table[order], np.asarray(lines)[order]
    if design is None:
        only_starts = (table[:, 2] == Status.TREATMENT_START).any() and not table[:, 3].any()
        design = (DesignFlavor.STOPS_AT_TREATMENT if only_starts
                  else DesignFlavor.CONTINUES_AFTER_TREATMENT)
    ds = CountingProcessDataset._of(
        schema, design, index, np.cumsum([0, *np.bincount(subject, minlength=len(index))]),
        *table[:, :4].T, dict(zip(cov_cols, table[:, 4:].T)))
    # subject by subject: a tie of an event and a treatment start, then a
    # baseline value that varies, each at its subject's first such row
    sub = ds.row_subject
    for s in range(ds.n_subjects):
        rows_of = range(ds.offsets[s], ds.offsets[s + 1])
        by_stop = sorted(rows_of, key=lambda r: (ds.tstop[r], r))
        tied = [b for a, b in zip(by_stop, by_stop[1:])
                if ds.tstop[a] == ds.tstop[b] and {ds.status[a], ds.status[b]} == {1, 2}]
        if tied:
            r = min(tied)
            raise MalformedRow(int(lines[r]), f"subject {ds.ids[s]}: event and treatment "
                                              f"start tied at t={float(ds.tstop[r])}")
        for r in rows_of:
            if any(ds.columns[name][r] != ds.columns[name][ds.offsets[s]]
                   for name in schema.baseline):
                raise MalformedRow(int(lines[r]), f"subject {ds.ids[sub[r]]}: baseline "
                                                  "covariates vary across rows")
    data_mod._validate(ds)
    return ds


#: tokens planted in a field: spellings that float(), int() and the 0/1 rule
#: read differently (a NUL that numpy's string cast drops), non-finite
#: values, labels and junk; and values planted in a time field
TOKENS = ["", " ", "x", "0", "1", "2", "3", "-1", "0.5", "1.0", "01", "+1", " 1 ", "1_0",
          "1_000", "１", "1\x00", "nan", "NaN", "inf", "-inf", "1e400", "a", "b"]
TIMES = ["", "x", "-1", "-0.5", "-2", "0", "0.5", "9", "nan", "-inf", "1e308"]


@st.composite
def csv_files(draw):
    """The text of a small long or wide CSV with up to three planted faults,
    and the schema, design and levels to read it with."""
    wide = draw(st.integers(0, 3)) == 0
    header = ["id", "time", "status", "x", "arm"] if wide else \
        ["id", "tstart", "tstop", "status", "treated", "x", "z", "arm"]
    lines = [header]
    for i in range(draw(st.integers(1, 5))):
        x, arm = draw(st.sampled_from(["0", "1", "2.5", "-1"])), draw(st.sampled_from("ab"))
        if wide:
            lines.append([str(i + 1), draw(st.sampled_from(["0.5", "1", "2", "3.5"])),
                          draw(st.sampled_from("012")), x, arm])
            continue
        ends = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))
        start = draw(st.sampled_from([None, *range(len(ends))]))
        for k, (a, b) in enumerate(zip([0, *ends], ends)):
            status = "2" if k == start else draw(st.sampled_from("01")) \
                if k == len(ends) - 1 else "0"
            treated = "1" if start is not None and k > start else "0"
            z = draw(st.sampled_from(["", "0.5", "1", "-2"]))
            lines.append([str(i + 1), str(a / 2), str(b / 2), status, treated, x, z, arm])
    for fault in draw(st.lists(st.sampled_from(
            ["token", "time", "short", "blank", "tie", "vary", "respell", "move"]), max_size=3)):
        k = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else None
        row = lines[k] if k is not None and lines[k] else None
        if fault == "blank":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(
                [[], [""] * len(header), ["  "] * len(header), [" "], [""] * 3])))
        elif row is None or len(row) != len(header):
            continue
        elif fault == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(TOKENS))
        elif fault == "time":
            row[draw(st.sampled_from([1] if wide else [1, 2]))] = draw(st.sampled_from(TIMES))
        elif fault == "short":
            lines[k] = row[:draw(st.integers(0, len(row) - 1))] + \
                draw(st.sampled_from([[], ["1"]]))
        elif fault == "tie" and not wide and row[3] in "12":
            lines.insert(k, [*row[:3], "2" if row[3] == "1" else "1", *row[4:]])
        elif fault in ("vary", "respell"):
            j = header.index("x")
            respelt = {"0": "0.0", "1": "1.0", "2.5": "2.50", "-1": "-1.0"}.get(row[j], row[j])
            row[j] = "7" if fault == "vary" else respelt
        elif fault == "move":
            lines.insert(draw(st.integers(1, len(lines) - 1)), lines.pop(k))
    text = "".join(",".join(line) + "\n" for line in lines)
    schema = draw(st.sampled_from([
        None,
        CovariateSchema(baseline=("x", "arm"), time_varying=() if wide else ("z",),
                        levels={"arm": ("a", "b")}),
        CovariateSchema(baseline=("x", "arm") if wide else ("x",),
                        time_varying=() if wide else ("z", "arm"),
                        levels={"arm": ("b", "a")}),
    ]))
    design = draw(st.sampled_from([None, None, DesignFlavor.STOPS_AT_TREATMENT]))
    levels = draw(st.sampled_from([{"arm": ("a", "b")}, {"arm": ("b", "a")}, None]))
    return text, schema, design, levels


class TestReaderAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(case=csv_files())
    def test_same_dataset_or_first_error(self, tmp_path_factory, case):
        text, schema, design, levels = case
        path = tmp_path_factory.mktemp("ref") / "data.csv"
        path.write_text(text, encoding="utf-8")
        assert outcome(ingest_csv, path, schema, design, levels) == \
            outcome(reference_ingest, path, schema, design, levels)

    @pytest.mark.parametrize("text, expected", [
        # a bad status on line 3 comes before the short row on line 4 and
        # the field over the csv module's limit after it
        ("id,tstart,tstop,status,treated\n1,0,2,0,0\n2,0,5,7,0\n3,0\n4,0,1,0,0,"
         + "1" * 200_000 + "\n", (MalformedRow, "line 3: status must be 0, 1 or 2, got '7'")),
        ("id,tstart,tstop,status,treated\n1,0,2,0,0\n3,0\n4,0,1,0,0,"
         + "1" * 200_000 + "\n", (MalformedRow, "line 3: expected 5 fields, got 2")),
        ("id,tstart,tstop,status,treated\n1,0,2,0,0\n,,,\n4,0,1,0,"
         + "1" * 200_000 + "\n", DataError),
        # the first failing row, with its first failing check
        ("id,tstart,tstop,status,treated,x\n1,0,2,0,0,1\n ,0,2,0,0,1\n3,0,x,0,0,1\n",
         (MalformedRow, "line 3: empty subject id")),
        ("id,tstart,tstop,status,treated,x\n1,0,2,0,2,1\n2,x,2,0,0,1\n",
         (MalformedRow, "line 2: treated must be 0 or 1, got '2'")),
        ("id,tstart,tstop,status,treated\n1,0,-1,1,0\n", (NegativeTime, "line 2: negative time")),
        ("id,tstart,tstop,status,treated,x\n1,0,1e308,0,0,1\n1,1e308,1e308,0,0,1\n",
         (MalformedRow, "line 3: tstop must be finite, got '1e308'")),
        ("id,tstart,tstop,status,treated,x\n1,0,1_000,+1,0,１\n", None),
        # float() rejects a NUL that numpy's string cast would drop
        ("id,tstart,tstop,status,treated\n1,0,1\x00,1,0\n",
         (MalformedRow, "line 2: cannot parse tstop '1\\x00'")),
        ("id,time,status,x\n1,nan,1,1\n", (MalformedRow, "line 2: time must be finite, got 'nan'")),
        # a wide file's covariates are baseline, so never empty, and may take
        # the names of the long format's fields
        ("id,time,status,x\n1,5,1,\n", (MalformedRow, "line 2: baseline covariate 'x' is empty")),
        ("id,time,status,tstart,treated\n1,5,1,50,1\n2,3.5,0,61,0\n", None),
        # read a few rows at a time (TestReaderInSmallBlocks), these put a
        # row error, and then another, a short row or a read fault, in
        # different blocks: the first row error wins over a later one and
        # over a short row, a read fault over every row error
        ("id,tstart,tstop,status,treated\n1,0,2,0,0\n2,0,5,7,0\n3,0,1,0,0\n4,0,x,0,0\n",
         (MalformedRow, "line 3: status must be 0, 1 or 2, got '7'")),
        ("id,tstart,tstop,status,treated\n1,0,2,0,0\n2,0,5,7,0\n3,0,1,0,0\n4,0,1,0,0\n5,0\n",
         (MalformedRow, "line 3: status must be 0, 1 or 2, got '7'")),
        ("id,tstart,tstop,status,treated\n1,0,2,0,0\n2,0,5,7,0\n3,0,1,0,0\n4,0,1,0,"
         + "1" * 200_000 + "\n", DataError),
        # past the first 8 kB the text stream decodes
        (b"id,tstart,tstop,status,treated\n1,0,2,0,0\n2,0,5,7,0\n"
         + b"".join(b"%d,0,1,0,0\n" % i for i in range(3, 1003)) + b"\xe9,0,5,1,0\n",
         DataError),
        # ... one subject's rows in several blocks, its x respelt in a later one
        ("id,tstart,tstop,status,treated,x,z,w\n1,0,1,0,0,5,0.5,1\n2,0,2,2,0,3,1,2\n"
         "1,1,2,0,0,5,,1\n2,2,4,1,1,3,2,2\n1,2,3,1,0,5,1.5,1.0\n", None),
        # ... and blank rows of every shape on both sides of a block boundary
        ("id,tstart,tstop,status,treated\n1,0,2,0,0\n\n,,,,\n  ,  ,,,\n \n2,0,3,1,0\n"
         ",,,,\n\n3,0,x,0,0\n", (MalformedRow, "line 10: cannot parse tstop 'x'")),
    ], ids=["bad-row-first", "short-row-first", "csv-limit-first", "empty-id", "treated",
            "negative-and-reversed", "overflowing-sum", "underscores-and-full-width",
            "nul-in-time", "wide-nan", "wide-empty", "wide-long-names", "row-errors-apart", "row-error-then-short-row",
            "row-error-then-csv-limit", "row-error-then-not-utf8", "subject-across-blocks",
            "blank-rows-across-blocks"])
    def test_files(self, tmp_path, text, expected):
        path = tmp_path / "data.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        got = outcome(ingest_csv, path)
        assert got == outcome(reference_ingest, path)
        if expected is DataError:
            assert got[0] is DataError and got[1].startswith(f"cannot read {path}")
        elif expected is not None:
            assert got == expected

    def test_classifies_strings_not_values(self, tmp_path):
        # "1" and "1.0" are one value but two strings: time-varying
        path = write(tmp_path, "id,tstart,tstop,status,treated,x\n1,0,1,0,0,1\n1,1,2,1,0,1.0\n")
        assert ingest_csv(path).schema.time_varying == ("x",)


class TestReaderInSmallBlocks(TestReaderAgainstReference):
    """The reader's tests with the file read one, two or three rows at a
    time, so that errors, faults, blank rows and a subject's rows fall in
    different blocks."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 2, 3])
    def block(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_mod, "_BLOCK", request.param)
            yield


class TestReadMemory:
    def test_traced_peak_is_the_arrays_and_a_block(self, tmp_path):
        """Reading s2 at n = 5000 (45k rows) holds the dataset's arrays and
        the strings of one block, never the whole file's rows."""
        path = tmp_path / "s2.csv"
        write_csv(simulate.simulate(scenarios.builtin("s2"), 5000, seed=1), path)
        ds = ingest_csv(path)  # anything loaded on a first call, loaded untraced
        tracemalloc.start()
        try:
            ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(a.nbytes for a in (ds.offsets, ds.tstart, ds.tstop, ds.status,
                                        ds.treated, *ds.columns.values()))
        assert peak < 4 * nbytes + 2**20

    def test_read_columns_are_adopted_not_copied(self, tmp_path, monkeypatch):
        """The ``_of`` call in ``ingest_csv`` keeps the float columns it is
        handed: on s2 at n = 5000 it allocates the int status and bool
        treated columns, not a second copy of all the columns."""
        path = tmp_path / "s2.csv"
        write_csv(simulate.simulate(scenarios.builtin("s2"), 5000, seed=1), path)
        of, added = CountingProcessDataset._of.__func__, []

        def measured(cls, *columns):
            before = tracemalloc.get_traced_memory()[0]
            ds = of(cls, *columns)
            added.append(tracemalloc.get_traced_memory()[0] - before)
            return ds

        monkeypatch.setattr(CountingProcessDataset, "_of", classmethod(measured))
        ingest_csv(path)  # anything loaded on a first call, loaded untraced
        tracemalloc.start()
        try:
            ds = ingest_csv(path)
        finally:
            tracemalloc.stop()
        copies = sum(a.nbytes for a in (ds.offsets, ds.tstart, ds.tstop, ds.status,
                                        ds.treated, *ds.columns.values()))
        converted = ds.status.nbytes + ds.treated.nbytes
        assert copies > 1.4e6
        assert added[-1] < converted + 2**16

    def test_adopted_columns_are_read_only(self):
        tstart = np.array([0.0, 1.0])
        ds = CountingProcessDataset._of(
            CovariateSchema(), DesignFlavor.CONTINUES_AFTER_TREATMENT, ["1"], [0, 2],
            tstart, np.array([1.0, 2.0]), [0, 1], [False, False], {})
        assert ds.tstart is tstart and not tstart.flags.writeable
        copied = np.array([0.0, 1.0])
        built = CountingProcessDataset(
            CovariateSchema(), DesignFlavor.CONTINUES_AFTER_TREATMENT, ["1"], [0, 2],
            copied, np.array([1.0, 2.0]), [0, 1], [False, False], {})
        assert built.tstart is not copied and copied.flags.writeable


def _shuffled(lines, draw):
    """The rows of ``lines`` (one subject's rows per id) shuffled within
    each subject and interleaved, each id first appearing in its old order."""
    by_id = {}
    for line in lines:
        by_id.setdefault(line.split(",")[0], []).append(line)
    pending = [draw(st.permutations(rows)) for rows in by_id.values()]
    started, out = [], []
    while pending or any(started):
        open_ = [rows for rows in started if rows]
        if pending and (not open_ or draw(st.booleans())):
            started.append(list(pending.pop(0)))
            out.append(started[-1].pop(0))
        else:
            out.append(draw(st.sampled_from(open_)).pop(0))
    return out


class TestRowOrder:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), name=st.sampled_from(["s1", "s2", "age_gap"]),
           data=st.data())
    def test_row_order_and_id_labels_do_not_matter(self, tmp_path_factory, seed, name,
                                                   data):
        ds = simulate.simulate(scenarios.builtin(name), 12, seed=seed)
        work = tmp_path_factory.mktemp("order")
        write_csv(ds, work / "ds.csv")
        header, *lines = (work / "ds.csv").read_text().splitlines()
        shuffled = _shuffled(lines, data.draw)
        (work / "shuffled.csv").write_text("\n".join([header, *shuffled]) + "\n")
        assert ingest_csv(work / "shuffled.csv") == ingest_csv(work / "ds.csv")
        relabel = {sid: f"p{len(ds.ids) - k}" for k, sid in enumerate(ds.ids)}
        (work / "relabelled.csv").write_text("\n".join(
            [header, *(relabel[sid] + "," + rest for sid, _, rest in
                       (line.partition(",") for line in shuffled))]) + "\n")
        again = ingest_csv(work / "relabelled.csv")
        assert again.ids == tuple(relabel[sid] for sid in ds.ids)
        assert again == CountingProcessDataset._of(
            ds.schema, ds.design, again.ids, ds.offsets, ds.tstart, ds.tstop, ds.status,
            ds.treated, ds.columns)
