import json
import math
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predictimands import scenarios, simulate
from predictimands.data import (
    CovariateSchema,
    DesignFlavor,
    Episode,
    Status,
    SubjectRecord,
    write_csv,
)
from predictimands.errors import InvalidIntensity, ScenarioError
from predictimands.simulate import (
    IntensitySpec,
    constant_intensity_risks,
    simulate_trajectories,
    true_risks,
    validate,
)
from predictimands.strategies import HypotheticalMethod, Strategy, StrategySpec
from tests.records import dataset

# ---------------------------------------------------------------------------
# per-subject reference: the simulator written one subject at a time, which
# the array passes must reproduce bit for bit


@dataclass
class Trajectory:
    """One subject's latent and observed path."""

    x0: dict
    tv_path: dict
    censor_time: float
    latent_death: float
    treat_time: float
    death_time: float
    observed_end: float
    observed_status: Status
    treatment_observed: bool


def _path(process, rng, n_points):
    z = np.empty(n_points)
    z[0] = process.init.draw(rng)
    for j in range(1, n_points):
        z[j] = process.drift + process.rho * z[j - 1] + process.sd * rng.normal()
    return z


def _invert_piecewise(segments, target):
    acc = 0.0
    for t0, t1, rate in segments:
        cap = rate * (t1 - t0)
        if cap > 0 and acc + cap >= target:
            return t0 + (target - acc) / rate
        acc += cap
    return math.inf


def _segments(spec, intensity, x0, tv_path, start=0.0, treat_time=None):
    grid = spec.grid
    bounds = [start] + [g for g in grid if g > start]
    if treat_time is not None and intensity.tst_cuts:
        extra = [treat_time + c for c in intensity.tst_cuts
                 if start < treat_time + c < bounds[-1]]
        bounds = sorted(set(bounds) | set(extra))
    segs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        j = int(np.searchsorted(grid, a, side="right")) - 1
        x = dict(x0)
        for name, path in tv_path.items():
            x[name] = path[min(j, len(path) - 1)]
        tst = a - treat_time if treat_time is not None else None
        segs.append((a, b, intensity.rate(x, tst)))
    return segs


def _simulate_one(spec, rng, x0_override=None):
    x0 = {name: spec.baseline_covariates[name].draw(rng)
          for name in sorted(spec.baseline_covariates)}
    if x0_override:
        x0.update(x0_override)
    n_seg = spec.grid.size - 1
    tv_path = {name: _path(spec.tv_covariates[name], rng, n_seg)
               for name in sorted(spec.tv_covariates)}
    censor = spec.admin_censor
    if spec.dropout_rate > 0:
        censor = min(censor, float(rng.exponential(1.0 / spec.dropout_rate)))
    t0 = _invert_piecewise(
        _segments(spec, spec.death_untreated, x0, tv_path), rng.exponential())
    v = _invert_piecewise(
        _segments(spec, spec.treatment, x0, tv_path), rng.exponential())
    if v < t0:
        death = _invert_piecewise(
            _segments(spec, spec.death_treated, x0, tv_path, start=v,
                      treat_time=v), rng.exponential())
    else:
        death = t0
    if spec.design == DesignFlavor.STOPS_AT_TREATMENT:
        end = min(t0, v, censor)
        if end == t0:
            status = Status.EVENT
        elif end == v:
            status = Status.TREATMENT_START
        else:
            status = Status.CENSORED
        treat_obs = False
    else:
        end = min(death, censor)
        status = Status.EVENT if death <= censor else Status.CENSORED
        treat_obs = v < t0 and v < end
    return Trajectory(x0, tv_path, censor, t0, v, death, end, status, treat_obs)


def _episodes(spec, traj):
    grid = spec.grid
    end = traj.observed_end
    stops_at_v = (spec.design == DesignFlavor.STOPS_AT_TREATMENT
                  and traj.observed_status == Status.TREATMENT_START)
    v = traj.treat_time if (traj.treatment_observed or stops_at_v) else None
    bounds = {float(g) for g in grid if 0.0 < g < end}
    if v is not None and v < end:
        bounds.add(v)
    bounds = [0.0] + sorted(bounds) + [end]
    episodes = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b == end:
            status = traj.observed_status
        elif v is not None and b == v:
            status = Status.TREATMENT_START
        else:
            status = Status.CENSORED
        j = int(np.searchsorted(grid, a, side="right")) - 1
        tv = {name: float(path[min(j, len(path) - 1)])
              for name, path in traj.tv_path.items()}
        treated = v is not None and a >= v and not stops_at_v
        episodes.append(Episode(a, b, status, treated, tv))
    return tuple(episodes)


def reference_trajectories(spec, n, seed, x0_override=None):
    return [_simulate_one(spec, np.random.default_rng(child), x0_override)
            for child in np.random.SeedSequence(seed).spawn(n)]


def reference_simulate(spec, n, seed):
    schema = CovariateSchema(baseline=tuple(sorted(spec.baseline_covariates)),
                             time_varying=tuple(sorted(spec.tv_covariates)))
    subjects = tuple(SubjectRecord(str(i + 1), _episodes(spec, tr), dict(tr.x0))
                     for i, tr in enumerate(reference_trajectories(spec, n, seed)))
    return dataset(subjects, schema, spec.design)


def reference_risks(spec, profile, t_hor, mc_reps, mc_seed):
    trajs = reference_trajectories(spec, mc_reps, mc_seed, profile)
    hyp = comp = wu = ign = 0
    for tr in trajs:
        hyp += tr.latent_death <= t_hor
        comp += min(tr.latent_death, tr.treat_time) <= t_hor
        wu += tr.latent_death <= t_hor and tr.latent_death < tr.treat_time
        ign += tr.death_time <= t_hor
    return {"hypothetical": hyp / mc_reps, "composite": comp / mc_reps,
            "while-untreated": wu / mc_reps, "ignore": ign / mc_reps}


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


# z = -1000 on the first grid segment and 0 after it: exp(-1000) underflows,
# so an intensity with log_hr {"g": 1} is exactly zero on that segment
ZERO_THEN_ONE = {"init": {"dist": "constant", "value": -1000.0}, "rho": 0.0}

MIXED = {
    "name": "mixed", "admin_censor": 8.0, "grid_step": 0.75, "dropout_rate": 0.1,
    "baseline_covariates": {"b": {"dist": "bernoulli", "p": 0.4},
                            "u": {"dist": "uniform", "low": -1.0, "high": 2.0}},
    "tv_covariates": {"z": {"init": {"dist": "normal", "mean": 0.0, "sd": 1.0},
                            "rho": 0.9, "sd": 0.4, "drift": 0.05}},
    "treatment": {"base": 0.15, "log_hr": {"z": 0.7, "b": 0.5}},
    "death_untreated": {"base": 0.1, "log_hr": {"z": 0.6, "u": 0.3}},
    "death_treated": {"base": 0.07, "log_hr": {"z": 0.6, "u": 0.3},
                      "tst_cuts": [0.7, 2.0], "tst_log_hr": [0.4, -0.2, 0.1]},
}

ADVERSARIAL = {
    "no-treatment": no_treatment_spec().to_dict(),
    "zero-rate-segments": {
        "admin_censor": 6.0, "grid_step": 0.5,
        "tv_covariates": {"g": ZERO_THEN_ONE,
                          "z": {"init": {"dist": "normal", "mean": 0.0, "sd": 1.0},
                                "sd": 0.3}},
        "treatment": {"base": 0.3, "log_hr": {"g": 1.0, "z": 0.5}},
        "death_untreated": {"base": 0.2, "log_hr": {"g": 1.0}},
        "death_treated": {"base": 0.1, "tst_cuts": [1.0], "tst_log_hr": [-800.0, 0.0]}},
    # a treatment rate of 1e300 after a zero first segment puts V on the
    # grid point 0.5, and V + tst_cuts on the grid points 1.0 and 2.0
    "cut-on-grid": {
        "admin_censor": 6.0, "grid_step": 0.5,
        "tv_covariates": {"g": ZERO_THEN_ONE},
        "treatment": {"base": 1e300, "log_hr": {"g": 1.0}},
        "death_untreated": {"base": 0.1},
        "death_treated": {"base": 0.2, "tst_cuts": [0.5, 1.5],
                          "tst_log_hr": [0.3, -0.4, 0.2]}},
    "dropout": {**scenarios.BUILTIN["s1"], "dropout_rate": 0.3},
    "mixed": MIXED,
    "s2": dict(scenarios.BUILTIN["s2"]),
    "age_gap": dict(scenarios.BUILTIN["age_gap"]),
}


def assert_same_trajectories(tr, ref):
    assert len(tr) == len(ref)
    for name in ("censor_time", "latent_death", "treat_time", "death_time"):
        assert np.array_equal(getattr(tr, name), [getattr(r, name) for r in ref]), name
    assert list(tr.x0) == list(ref[0].x0)
    for name, col in tr.x0.items():
        assert np.array_equal(col, [r.x0[name] for r in ref]), name
    assert list(tr.tv) == list(ref[0].tv_path)
    for name, z in tr.tv.items():
        assert np.array_equal(z, [r.tv_path[name] for r in ref]), name


def assert_same_output(spec, n, seed):
    assert_same_trajectories(simulate_trajectories(spec, n, seed),
                             reference_trajectories(spec, n, seed))
    ds, ref = simulate.simulate(spec, n, seed), reference_simulate(spec, n, seed)
    assert ds == ref
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "ours.csv"), Path(tmp, "ref.csv")
        write_csv(ds, ours)
        write_csv(ref, theirs)
        assert ours.read_bytes() == theirs.read_bytes()


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_DISTS = st.one_of(
    st.builds(lambda m, s: {"dist": "normal", "mean": m, "sd": s},
              _floats(-1, 1), _floats(0, 1.5)),
    st.builds(lambda lo, w: {"dist": "uniform", "low": lo, "high": lo + w},
              _floats(-2, 1), _floats(0, 3)),
    st.builds(lambda p: {"dist": "bernoulli", "p": p}, _floats(0, 1)),
    st.builds(lambda v: {"dist": "constant", "value": v}, _floats(-1, 1)))


@st.composite
def random_scenarios(draw):
    step = draw(st.sampled_from([None, 0.5, 0.7, 1.0, 2.5, 12.0]))
    baseline = {name: draw(_DISTS)
                for name in sorted(draw(st.sets(st.sampled_from(["a", "b"]))))}
    tv = {}
    if step:
        tv = {name: {"init": draw(_DISTS), "rho": draw(_floats(-1.1, 1.1)),
                     "sd": draw(_floats(0, 0.5)), "drift": draw(_floats(-0.2, 0.2))}
              for name in sorted(draw(st.sets(st.sampled_from(["w", "z"]))))}
    names = sorted(baseline) + sorted(tv)

    def intensity():
        chosen = sorted(draw(st.sets(st.sampled_from(names)))) if names else []
        return {"base": draw(st.sampled_from([0.0, 0.05, 0.2, 0.7])),
                "log_hr": {name: draw(_floats(-1, 1)) for name in chosen}}

    treated = intensity()
    cuts = sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 1.7, 3.0]), max_size=3)))
    if cuts or draw(st.booleans()):
        treated["tst_cuts"] = cuts
        treated["tst_log_hr"] = [draw(_floats(-1, 1)) for _ in range(len(cuts) + 1)]
    return IntensitySpec.from_dict({
        "admin_censor": draw(st.sampled_from([2.0, 6.0, 10.0])),
        "grid_step": step, "dropout_rate": draw(st.sampled_from([0.0, 0.15])),
        "design": draw(st.sampled_from(["continues", "stops"])),
        "baseline_covariates": baseline, "tv_covariates": tv,
        "treatment": intensity(), "death_untreated": intensity(),
        "death_treated": treated})


class TestArrayPassesMatchReference:
    """Trajectories, datasets, CSV bytes and Monte Carlo truths equal those of
    the per-subject reference exactly."""

    @pytest.mark.parametrize("design", ["continues", "stops"])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_scenarios(self, name, design):
        spec = IntensitySpec.from_dict({**ADVERSARIAL[name], "design": design})
        assert_same_output(spec, 150, seed=21)

    def test_adversarial_cases_are_adversarial(self):
        zero = simulate_trajectories(IntensitySpec.from_dict(
            ADVERSARIAL["zero-rate-segments"]), 150, seed=21)
        assert (zero.treat_time >= 0.5).all() and (zero.latent_death >= 0.5).all()
        on_grid = simulate_trajectories(IntensitySpec.from_dict(
            ADVERSARIAL["cut-on-grid"]), 150, seed=21)
        treated = on_grid.treat_time < on_grid.latent_death
        assert treated.sum() > 100 and (on_grid.treat_time[treated] == 0.5).all()

    @pytest.mark.parametrize("name", ["s2", "age_gap", "mixed"])
    def test_single_subject(self, name):
        assert_same_output(IntensitySpec.from_dict(ADVERSARIAL[name]), 1, seed=5)

    @pytest.mark.parametrize("name, profile", [
        ("s2", {"z": 0.3}), ("age_gap", {"age": 55.0}),
        ("mixed", {"u": 0.5, "b": 1.0, "unused": 2.0})])
    def test_x0_override(self, name, profile):
        spec = IntensitySpec.from_dict(ADVERSARIAL[name])
        assert_same_trajectories(
            simulate_trajectories(spec, 120, seed=8, x0_override=profile),
            reference_trajectories(spec, 120, seed=8, x0_override=profile))

    def test_blocked_truth_matches_reference(self, monkeypatch):
        monkeypatch.setattr(simulate, "TRUTH_BLOCK", 7)
        spec = IntensitySpec.from_dict(MIXED)
        oracle = true_risks(spec, {"u": 0.5}, t_hor=3.0, mc_reps=50, mc_seed=4)
        assert oracle.method == "monte-carlo"
        assert oracle.risks == reference_risks(spec, {"u": 0.5}, 3.0, 50, 4)

    @settings(max_examples=60, deadline=None)
    @given(spec=random_scenarios(), n=st.integers(1, 25),
           seed=st.integers(0, 2**63),
           profile=st.dictionaries(st.sampled_from(["a", "w"]), _floats(-1, 1),
                                   max_size=2))
    def test_random_scenarios(self, spec, n, seed, profile):
        assert_same_output(spec, n, seed)
        assert_same_trajectories(
            simulate_trajectories(spec, n, seed, x0_override=profile),
            reference_trajectories(spec, n, seed, x0_override=profile))


class TestTrajectoryLaw:
    def test_no_treatment_intensity_means_no_starts(self):
        ds = simulate.simulate(no_treatment_spec(), 300, seed=3)
        assert not ds.has_treatment_starts
        assert not ds.treated.any()

    def test_counterfactual_consistency(self):
        tr = simulate_trajectories(no_treatment_spec(), 300, seed=3)
        assert (tr.treat_time == math.inf).all()
        assert np.array_equal(tr.death_time, tr.latent_death)

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
        d = {**scenarios.BUILTIN["s1"], "dropout_rate": 0.3}
        spec = IntensitySpec.from_dict(d)
        tr = simulate_trajectories(spec, 2000, seed=14)
        early = tr.censor_time < spec.admin_censor
        # dropout hazard 0.3 over 10 units: most subjects draw a finite time
        assert early.sum() > 1500
        # the dropout clock matches its exponential law (3-sigma)
        mean_draw = np.minimum(tr.censor_time, spec.admin_censor).mean()
        expected = (1 - math.exp(-0.3 * 10)) / 0.3
        assert abs(mean_draw - expected) < 3 * (1 / 0.3) / math.sqrt(2000)
        ds = simulate.simulate(spec, 500, seed=14)
        assert ds.n_subjects == 500

    def test_stops_design_truncates_at_treatment(self):
        d = {**scenarios.BUILTIN["s1"], "design": "stops"}
        spec = IntensitySpec.from_dict(d)
        ds = simulate.simulate(spec, 300, seed=8)
        tr = simulate_trajectories(spec, 300, seed=8)
        assert ds.design.value == "stops"
        assert not ds.treated.any()
        assert ds.has_treatment_starts
        last = ds.offsets[1:] - 1
        end = ds.tstop[last]
        assert end == pytest.approx(np.minimum(np.minimum(tr.latent_death, tr.treat_time),
                                               tr.censor_time))
        starts = ds.status[last] == Status.TREATMENT_START
        assert tr.treat_time[starts] == pytest.approx(end[starts])

    def test_transition_rates_match_spec(self):
        # occurrence / exposure estimates with 3-sigma Poisson bounds
        spec = scenarios.builtin("s1")
        tr = simulate_trajectories(spec, 100_000, seed=77)
        t0, v, c, d = tr.latent_death, tr.treat_time, tr.censor_time, tr.death_time
        switched = v < np.minimum(t0, c)
        pt_untreated = np.minimum(np.minimum(t0, v), c).sum()
        n_treat = switched.sum()
        n_death0 = (t0 < np.minimum(v, c)).sum()
        pt_treated = (np.minimum(d, c) - v)[switched].sum()
        n_death1 = (switched & (d <= c)).sum()
        for n, pt, rate in ((n_treat, pt_untreated, 0.1),
                            (n_death0, pt_untreated, 0.2),
                            (n_death1, pt_treated, 0.05)):
            assert abs(n / pt - rate) < 3 * math.sqrt(rate / pt)

    def test_empirical_composite_risk_matches_analytic(self):
        tr = simulate_trajectories(scenarios.builtin("s1"), 100_000, seed=42)
        p = np.mean(np.minimum(tr.latent_death, tr.treat_time) <= 5.0)
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
        d = dict(scenarios.BUILTIN["s1"])
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

    @pytest.mark.parametrize("where, value, message", [
        ("baseline", {"dist": "normal", "mean": 0.0, "sd": -1.0}, "sd must be >= 0"),
        ("baseline", {"dist": "normal", "mean": 0.0, "sd": "nan"}, "must be finite"),
        ("baseline", {"dist": "normal", "mean": "inf", "sd": 1.0}, "must be finite"),
        ("baseline", {"dist": "normal", "mean": "abc", "sd": 1.0}, "expected a number"),
        ("baseline", {"dist": "uniform", "low": 2.0, "high": 1.0}, "must not exceed"),
        ("baseline", {"dist": "bernoulli", "p": 1.5}, "p must lie in [0, 1]"),
        ("baseline", {"dist": "bernoulli", "p": -0.1}, "p must lie in [0, 1]"),
        ("baseline", {"dist": "constant", "value": float("nan")}, "must be finite"),
        ("tv", {"init": {"dist": "normal", "mean": 0, "sd": 1}, "sd": -0.3},
         "sd must be >= 0"),
        ("tv", {"init": {"dist": "normal", "mean": 0, "sd": 1}, "rho": "nan"},
         "must be finite"),
        ("tv", {"init": {"dist": "normal", "mean": 0, "sd": -1}}, "sd must be >= 0"),
    ])
    def test_bad_covariate_parameters_rejected(self, where, value, message):
        d = {"treatment": {"base": 0.1}, "death_untreated": {"base": 0.2},
             "death_treated": {"base": 0.05}}
        if where == "baseline":
            d["baseline_covariates"] = {"x": value}
        else:
            d.update(grid_step=1.0, tv_covariates={"x": value})
        with pytest.raises(ScenarioError, match=re.escape(message)):
            IntensitySpec.from_dict(d)

    @pytest.mark.parametrize("extra", [
        {"dropout_rate": "nan"}, {"dropout_rate": float("inf")},
        {"grid_step": "nan"}, {"admin_censor": "abc"},
        {"death_treated": {"base": 0.05, "tst_cuts": [1.0],
                           "tst_log_hr": [0.0, float("nan")]}},
    ])
    def test_non_finite_scenario_values_rejected(self, extra):
        d = {"treatment": {"base": 0.1}, "death_untreated": {"base": 0.2},
             "death_treated": {"base": 0.05}, **extra}
        with pytest.raises(ScenarioError):
            IntensitySpec.from_dict(d)

    def test_boundary_parameters_accepted(self):
        spec = IntensitySpec.from_dict({
            "baseline_covariates": {
                "a": {"dist": "normal", "mean": 1.0, "sd": 0.0},
                "b": {"dist": "uniform", "low": 2.0, "high": 2.0},
                "c": {"dist": "bernoulli", "p": 1.0}},
            "treatment": {"base": 0.1}, "death_untreated": {"base": 0.2},
            "death_treated": {"base": 0.05}})
        tr = simulate_trajectories(spec, 20, seed=1)
        assert (tr.x0["a"] == 1.0).all() and (tr.x0["b"] == 2.0).all()
        assert (tr.x0["c"] == 1.0).all()

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

    def test_bias_mcse(self):
        report = validate(scenarios.builtin("s1"), n=200, seeds=[1, 2, 3],
                          strategy_specs=self.strategy_specs(), t_hor=5.0,
                          tolerance=0.5)
        for entry in report["strategies"].values():
            est = entry["estimates"]
            assert len(est) == 3
            sd = math.sqrt(sum((e - sum(est) / 3) ** 2 for e in est) / 2)
            assert entry["bias_mcse"] == pytest.approx(sd / math.sqrt(3), rel=1e-12)
            assert entry["truth_se"] == 0.0
        one = validate(scenarios.builtin("s1"), n=200, seeds=[1],
                       strategy_specs=self.strategy_specs(), t_hor=5.0,
                       tolerance=0.5)
        assert all(e["bias_mcse"] is None for e in one["strategies"].values())
        # the pass rule reads the bias alone
        assert one["all_passed"] and report["all_passed"]

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
