import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predictimands import scenarios, simulate
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
    NoObservationsAnywhere,
    NonContiguousEpisodes,
    UnknownCovariate,
)


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
            CountingProcessDataset((SubjectRecord("1", eps),), CovariateSchema())

    def test_treated_requires_prior_start(self):
        eps = (Episode(0.0, 1.0, Status.EVENT, treated=True),)
        with pytest.raises(DataError, match="without a prior treatment start"):
            CountingProcessDataset((SubjectRecord("1", eps),), CovariateSchema())

    def test_treatment_monotone(self):
        eps = (Episode(0.0, 1.0, Status.TREATMENT_START),
               Episode(1.0, 2.0, Status.CENSORED, treated=True),
               Episode(2.0, 3.0, Status.EVENT, treated=False))
        with pytest.raises(DataError, match="stay on"):
            CountingProcessDataset((SubjectRecord("1", eps),), CovariateSchema())

    def test_stops_design_rejects_treated_time(self):
        eps = (Episode(0.0, 1.0, Status.TREATMENT_START),
               Episode(1.0, 2.0, Status.EVENT, treated=True))
        with pytest.raises(DataError, match="stops-at-treatment"):
            CountingProcessDataset((SubjectRecord("1", eps),), CovariateSchema(),
                                   DesignFlavor.STOPS_AT_TREATMENT)

    def test_first_episode_starts_at_zero(self):
        eps = (Episode(1.0, 2.0, Status.EVENT),)
        with pytest.raises(DataError, match="start at time 0"):
            CountingProcessDataset((SubjectRecord("1", eps),), CovariateSchema())


def continues_subject(sid, v, t, status, **baseline):
    eps = (Episode(0.0, v, Status.TREATMENT_START),
           Episode(v, t, status, treated=True))
    return SubjectRecord(sid, eps, baseline)


class TestTransforms:
    def test_split_truncates_at_treatment(self):
        sub = continues_subject("1", 3.0, 7.0, Status.EVENT)
        ds = CountingProcessDataset((sub,), CovariateSchema())
        out = split_at_treatment(ds)
        assert out.design == DesignFlavor.STOPS_AT_TREATMENT
        (eps,) = [s.episodes for s in out.subjects]
        assert eps == (Episode(0.0, 3.0, Status.TREATMENT_START),)

    def test_split_idempotent_on_untreated(self):
        ds = CountingProcessDataset(
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
        assert not any(ep.treated for _, ep in out.iter_episodes())
        expected = sum(min(tr.latent_death, tr.treat_time, tr.censor_time)
                       for tr in trajs)
        assert out.person_time() == pytest.approx(expected, rel=1e-12)

    def test_compose_recodes_treatment(self):
        ds = CountingProcessDataset(
            (SubjectRecord("1", (Episode(0.0, 3.0, Status.TREATMENT_START),)),),
            CovariateSchema(), DesignFlavor.STOPS_AT_TREATMENT)
        out = compose_outcome(ds)
        assert out.subjects[0].episodes == (Episode(0.0, 3.0, Status.EVENT),)

    def test_compose_leaves_untreated_alone(self):
        ds = CountingProcessDataset(
            (SubjectRecord("1", (Episode(0.0, 5.0, Status.CENSORED),)),),
            CovariateSchema())
        assert compose_outcome(ds).subjects == ds.subjects

    def test_compose_d4_event_count(self, d4):
        out = compose_outcome(d4)
        events = sum(ep.status == Status.EVENT for _, ep in out.iter_episodes())
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
        ds = CountingProcessDataset(
            (tv_subject("1", [22.0, None, None]),), self.schema)
        out = impute_tv_covariates(ds, ImputePolicy.LOCF)
        assert [ep.tv["bmi"] for ep in out.subjects[0].episodes] == [22.0, 22.0, 22.0]

    def test_median_fallback(self):
        ds = CountingProcessDataset(
            (tv_subject("1", [2.0]), tv_subject("2", [2.4]),
             tv_subject("3", [3.0]), tv_subject("4", [None, None])),
            self.schema)
        out = impute_tv_covariates(ds, ImputePolicy.MEDIAN_FALLBACK)
        assert [ep.tv["bmi"] for ep in out.subjects[3].episodes] == [2.4, 2.4]

    def test_locf_rejects_fully_missing_subject(self):
        ds = CountingProcessDataset(
            (tv_subject("1", [2.0]), tv_subject("2", [None])), self.schema)
        with pytest.raises(DataError, match="median-fallback"):
            impute_tv_covariates(ds, ImputePolicy.LOCF)

    def test_no_observations_anywhere(self):
        ds = CountingProcessDataset(
            (tv_subject("1", [None]), tv_subject("2", [None])), self.schema)
        with pytest.raises(NoObservationsAnywhere):
            impute_tv_covariates(ds, ImputePolicy.MEDIAN_FALLBACK)

    def test_fully_observed_is_identity(self):
        ds = CountingProcessDataset(
            (tv_subject("1", [1.0, 2.0]), tv_subject("2", [3.0, 4.0])),
            self.schema)
        assert impute_tv_covariates(ds, ImputePolicy.LOCF) == ds

    def test_idempotent(self):
        ds = CountingProcessDataset(
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

    def test_infer_schema(self, tmp_path):
        spec = scenarios.builtin("s2")
        ds = simulate.simulate(spec, 40, seed=11)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        inferred = infer_schema(path)
        assert inferred.time_varying == ("z",)
        assert inferred.baseline == ()
