import importlib.util
import json
import math
import multiprocessing
import os
import re
import signal
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predictimands import scenarios, simulate, ziggurat
from predictimands.data import (
    CovariateSchema,
    DesignFlavor,
    Episode,
    Status,
    SubjectRecord,
    split_at_treatment,
    write_csv,
)
from predictimands.errors import DataError, InvalidIntensity, ScenarioError
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
        # a treatment start at the end of follow-up is not recorded: the
        # continued follow-up, split at treatment start, censors there
        elif end == v < censor:
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


def numpy_states(root, first, n):
    """numpy's own PCG64 (state, inc) of children first, ..., first + n - 1
    of ``root``. numpy keeps ``n_children_spawned`` in 32 bits, so ``spawn``
    cannot reach a child at 2**32 or above; those are built as ``spawn``
    builds them."""
    if first + n < 2**32:
        children = np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key, pool_size=root.pool_size,
            n_children_spawned=first).spawn(n)
    else:
        children = [np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (i,),
                                           pool_size=root.pool_size)
                    for i in range(first, first + n)]
    states = [np.random.PCG64(child).state["state"] for child in children]
    return [(state["state"], state["inc"]) for state in states]


def state_pairs(limbs):
    """The (state, inc) ints of ``_child_states``' four limb arrays."""
    s_hi, s_lo, i_hi, i_lo = (limb.tolist() for limb in limbs)
    return [(a << 64 | b, c << 64 | d) for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo)]


_ENTROPY = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5, 2**130, 2**200 + 3]),
    st.integers(0, 2**140),
    st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**70)), max_size=7))

# first child indices on both sides of 2**32 and of 2**64
_FIRST = st.one_of(st.integers(0, 40), st.integers(2**32 - 12, 2**32 + 12),
                   st.integers(2**64 - 12, 2**64 + 12), st.just(2**70))


class TestSeedStreamPort:
    """The array port of SeedSequence and of PCG64's seeding gives numpy's
    own generator state to every child."""

    @settings(max_examples=150, deadline=None)
    @given(entropy=_ENTROPY,
           spawn_key=st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
           pool_size=st.sampled_from([4, 4, 5, 8]), first=_FIRST, n=st.integers(1, 16))
    def test_port_matches_numpy(self, entropy, spawn_key, pool_size, first, n):
        root = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        assert state_pairs(simulate._child_states(root, first, n)) == numpy_states(root, first, n)

    def test_seed_sequence_is_read_not_advanced(self):
        spec = IntensitySpec.from_dict(MIXED)
        for first in (5, 2**32 - 2):
            root = np.random.SeedSequence(13, n_children_spawned=first)
            tr = simulate_trajectories(spec, 4, root)
            assert root.n_children_spawned == first
            ref = [_simulate_one(spec, np.random.default_rng(
                np.random.SeedSequence(13, spawn_key=(i,)))) for i in range(first, first + 4)]
            assert_same_trajectories(tr, ref)
        assert_same_trajectories(
            simulate_trajectories(spec, 4, np.random.SeedSequence(13, n_children_spawned=5)),
            reference_trajectories(spec, 9, 13)[5:])

    def test_numpy_that_seeds_otherwise_raises(self, monkeypatch):
        spec = scenarios.builtin("s2")
        unpatched = simulate.simulate(spec, 3, seed=1)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_MULT_B", simulate._MULT_B ^ 2)
            with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__} ")):
                simulate.simulate(spec, 3, seed=1)
        # zero bounds send every word down the slow paths, which numpy takes
        # only past its own bounds: every subject leaves a fast path, so
        # subject 0 is the one checked, and its numbers differ
        monkeypatch.setattr(ziggurat, "KI", np.zeros_like(ziggurat.KI))
        monkeypatch.setattr(ziggurat, "KE", np.zeros_like(ziggurat.KE))
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__} ")):
            simulate.simulate(spec, 3, seed=1)
        monkeypatch.undo()
        assert simulate.simulate(spec, 3, seed=1) == unpatched


MASK64 = 2**64 - 1


@pytest.fixture(scope="module")
def probe():
    """tools/ziggurat_tables.py, which reads the tables from numpy and
    confirms them against its draws."""
    path = Path(__file__).resolve().parent.parent / "tools" / "ziggurat_tables.py"
    spec = importlib.util.spec_from_file_location("ziggurat_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def limbs_of(pairs):
    """``_Streams``' four limb arrays of (state, inc) ints."""
    return [np.array([value >> shift & MASK64 for value in values], np.uint64)
            for values in zip(*pairs) for shift in (64, 0)]


def generator_at(state, inc):
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def same_bits(ours, theirs):
    return np.float64(ours).tobytes() == np.float64(theirs).tobytes()


# 128-bit values whose low limb is often near 0 or 2**64, where the
# multiply-add carries into the high limb or does not
_U128 = st.tuples(
    st.integers(0, MASK64),
    st.one_of(st.integers(0, MASK64), st.integers(0, 8), st.integers(MASK64 - 8, MASK64)),
).map(lambda limbs: limbs[0] << 64 | limbs[1])


class TestDrawPort:
    """The array PCG64 and the draws of ``_Streams`` give numpy's words and
    numbers, on the ziggurat tables read from numpy."""

    def test_tables_are_numpy_s(self, probe):
        """Every table entry and constant, read again from numpy's library
        and confirmed against its draws on chosen words."""
        found = probe.tables()
        assert sorted(found) == sorted(module_tables())
        for name, values in found.items():
            assert np.asarray(getattr(ziggurat, name)).tolist() == values, name

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(_U128, _U128), min_size=1, max_size=6),
           m=st.integers(1, 20))
    def test_pcg64_matches_random_raw(self, pairs, m):
        streams = simulate._Streams(*limbs_of(pairs))
        words = np.stack([streams._next() for _ in range(m)], axis=1)
        for row, (state, inc) in zip(words, pairs):
            bitgen = generator_at(state, inc).bit_generator
            assert row.tolist() == bitgen.random_raw(m).tolist()

    @pytest.mark.parametrize("kind, layout, bound", [
        ("standard_normal", "NORMAL", "KI"), ("standard_exponential", "EXPONENTIAL", "KE")])
    def test_crafted_words(self, probe, kind, layout, bound):
        layout, k = getattr(probe, layout), getattr(ziggurat, bound)
        unused = int(np.flatnonzero(k == 0)[0])
        assert unused > 0 and k[0] > 0
        # r just below and at each layer's bound: on the tail layer 0, on a
        # layer that is never fast, on two ordinary layers; and both ends of r
        cases = [(layer, r) for layer in (0, unused, 7, 255)
                 for r in (max(int(k[layer]) - 1, 0), int(k[layer]))]
        cases += [(7, 0), (7, 1), (255, 2**layout["r_bits"] - 1)]
        words = [probe.word_of(layer, r, layout) for layer, r in cases]
        streams = simulate._Streams(*limbs_of(
            [(probe.crafted_state(word), probe.INC) for word in words]))
        values = getattr(streams, kind)()
        for j, (word, (layer, r)) in enumerate(zip(words, cases)):
            value, steps = probe.draw(word, kind)
            assert (steps > 1) == (r >= k[layer]), (layer, r)
            assert same_bits(values[j], value), (layer, r)
        assert streams.first_slow == min(j for j, (layer, r) in enumerate(cases)
                                         if r >= k[layer])

    def test_first_slow_is_the_lowest_subject(self, probe):
        # subject 0 leaves the fast path on the first draw only, subject 1
        # on the second only
        slow = probe.word_of(7, int(ziggurat.KI[7]), probe.NORMAL)
        fast = probe.word_of(7, 1, probe.NORMAL)
        pairs = [(probe.crafted_state(slow), probe.INC), probe.crafted_pair(fast, slow)]
        words_per_draw = []
        for pair in pairs:
            stream, taken = probe._counted(probe.words(*pair))
            counts = []
            for _ in range(2):
                probe.reference("standard_normal", stream, module_tables())
                counts.append(taken[0] - sum(counts))
            words_per_draw.append(counts)
        assert words_per_draw[0][0] > 1 == words_per_draw[0][1]
        assert words_per_draw[1][0] == 1 < words_per_draw[1][1]
        streams = simulate._Streams(*limbs_of(pairs))
        streams.standard_normal()
        streams.standard_normal()
        assert streams.first_slow == 0

    @pytest.mark.parametrize("mean, sd", [(0.0, 1.0), (-0.0, 1.0), (0.0, 0.0),
                                          (-0.0, 0.0), (2.5, 0.0), (-1.0, 2.0)])
    def test_signed_zero_and_zero_sd(self, probe, mean, sd):
        # r = 0 with the sign bit set: standard_normal draws -0.0
        words = [probe.word_of(7, 0, probe.NORMAL) | 0x100,
                 probe.word_of(7, 0, probe.NORMAL),
                 probe.word_of(200, 12345, probe.NORMAL) | 0x100]
        pairs = [(probe.crafted_state(word), probe.INC) for word in words]
        standard = simulate._Streams(*limbs_of(pairs)).standard_normal()
        assert standard[0] == 0.0 and np.signbit(standard[0])
        dist = simulate.Dist("normal", {"mean": mean, "sd": sd})
        streams = simulate._Streams(*limbs_of(pairs))
        values = dist.draw(streams)
        assert streams.first_slow is None
        for j, pair in enumerate(pairs):
            assert same_bits(standard[j], generator_at(*pair).standard_normal())
            assert same_bits(values[j], dist.draw(generator_at(*pair)))

    @pytest.mark.parametrize("dist", [
        {"dist": "uniform", "low": -1.0, "high": 2.0},
        {"dist": "uniform", "low": 3.0, "high": 3.0},
        {"dist": "bernoulli", "p": 0.5}, {"dist": "bernoulli", "p": 0.0},
        {"dist": "bernoulli", "p": 1.0}])
    def test_one_word_draws(self, probe, dist):
        dist = simulate.Dist.from_dict(dist, "x")
        # 2**63 gives random() = 0.5 exactly
        words = [0, 1, 2**11, 2**63, 2**63 - 1, MASK64, 0x9E3779B97F4A7C15]
        pairs = [(probe.crafted_state(word, salt), probe.INC)
                 for salt, word in enumerate(words)]
        values = dist.draw(simulate._Streams(*limbs_of(pairs)))
        for j, pair in enumerate(pairs):
            assert same_bits(values[j], dist.draw(generator_at(*pair)))

    def test_exponential_scale(self, probe):
        words = [probe.word_of(layer, r, probe.EXPONENTIAL) for layer, r in
                 ((3, 1), (100, 2**40 + 7), (255, 0))]
        pairs = [(probe.crafted_state(word), probe.INC) for word in words]
        values = simulate._Streams(*limbs_of(pairs)).exponential(1 / 0.15)
        for j, pair in enumerate(pairs):
            assert same_bits(values[j], generator_at(*pair).exponential(1 / 0.15))

    def test_table_numpy_does_not_use_raises(self, monkeypatch):
        # none of seed 1's first three subjects leaves a fast path on s2's
        # draws, so the check compares subject 0; its first word is its
        # initial z
        limbs = simulate._child_states(np.random.SeedSequence(1), 0, 3)
        layer = int(simulate._Streams(*limbs)._next()[0] & 0xFF)
        streams = simulate._Streams(*limbs)
        streams.standard_normal(out=np.empty((3, 12)))
        streams.standard_exponential(out=np.empty((3, 3)))
        assert streams.first_slow is None
        table = ziggurat.WI.copy()
        table[layer] = np.nextafter(table[layer], 1.0)
        monkeypatch.setattr(ziggurat, "WI", table)
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__} ")):
            simulate.simulate(scenarios.builtin("s2"), 3, seed=1)

    def test_check_is_on_the_first_slow_subject(self, probe, monkeypatch):
        # numpy's own draws of s2's numbers: a subject that takes more words
        # than it draws numbers has a word off a fast path
        spec, n = scenarios.builtin("s2"), 40
        took = []
        for child in np.random.SeedSequence(1).spawn(n):
            bitgen = np.random.PCG64(child)
            state, inc = bitgen.state["state"]["state"], bitgen.state["state"]["inc"]
            rng = np.random.Generator(bitgen)
            rng.normal(0.0, 1.0), rng.standard_normal(11), rng.standard_exponential(3)
            end, words = bitgen.state["state"]["state"], 0
            while state != end:
                state, words = (state * probe.MULT + inc) & probe.MASK128, words + 1
            took.append(words)
        first = next(i for i, words in enumerate(took) if words > 15)
        assert first > 0
        checked, default_rng = [], np.random.default_rng

        def spy(seed):
            checked.append(seed.spawn_key[-1])
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        simulate.simulate(spec, n, seed=1)
        assert checked == [first]


def module_tables() -> dict:
    """The tables and constants of ``predictimands.ziggurat`` as the lists
    and floats of tools/ziggurat_tables.py."""
    return {name: np.asarray(getattr(ziggurat, name)).tolist()
            for name in ("WI", "KI", "FI", "WE", "KE", "FE",
                         "NORMAL_R", "NORMAL_INV_R", "EXPONENTIAL_R")}


KINDS = ("standard_normal", "standard_exponential")


def differing_subjects(pairs, first) -> list:
    """The subjects, PCG64 (state, inc) pairs, whose numbers from
    ``_Streams`` differ from those of their own numpy ``Generator``, bit for
    bit, or who end in another state: 50 draws of kind ``first``, 50 of the
    other kind, then a ``normal``, an ``exponential`` and a ``random``."""
    second = KINDS[1 - KINDS.index(first)]
    streams = simulate._Streams(*limbs_of(pairs))
    ours = np.column_stack([getattr(streams, first)(out=np.empty((len(pairs), 50))),
                            getattr(streams, second)(out=np.empty((len(pairs), 50))),
                            streams.normal(1.0, 2.0), streams.exponential(3.0),
                            streams.random()])
    after = streams._next().tolist()
    differ = []
    for i, pair in enumerate(pairs):
        rng = generator_at(*pair)
        theirs = np.concatenate([getattr(rng, first)(50), getattr(rng, second)(50),
                                 [rng.normal(1.0, 2.0), rng.exponential(3.0), rng.random()]])
        if (ours[i].tobytes() != theirs.tobytes()
                or after[i] != int(rng.bit_generator.random_raw())):
            differ.append(i)
    return differ


class TestSlowPaths:
    """The ziggurat's tail and wedge paths of ``_Streams`` give numpy's
    numbers, bit for bit, and consume numpy's words."""

    @pytest.mark.parametrize("first", KINDS)
    def test_streams_match_numpy_generators(self, probe, first):
        # every chosen word of the tool: both sides of each fast-path bound,
        # both sides of each wedge test, and tails on chosen uniforms
        chosen = [(state, inc) for kind, state, inc in probe.cases(module_tables())
                  if kind == first]
        paths = set()
        for state, inc in chosen:
            word = next(probe.words(state, inc)) >> (0 if first == KINDS[0] else 3)
            steps = probe.numpy_draw(state, inc, first)[1]
            paths.add("tail" if word & 0xFF == 0 and steps > 1 else
                      "wedge accept" if steps == 2 else "restart" if steps > 2 else "fast")
            if word & 0xFF == 0 and steps > 3:
                paths.add("tail again")
        assert paths == {"fast", "tail", "wedge accept", "restart"} | (
            {"tail again"} if first == "standard_normal" else set())
        words = np.random.default_rng(7).integers(0, 2**64, (2000, 4), np.uint64).tolist()
        drawn = [(a << 64 | b, c << 64 | d | 1) for a, b, c, d in words]
        assert len(chosen) + len(drawn) > 3000
        assert differing_subjects(chosen + drawn, first) == []

    @pytest.mark.parametrize("name, entry, direction", [
        ("FI", 0, -1), ("FI", 1, 1), ("FI", 100, -1), ("FI", 100, 1), ("FI", 255, 1),
        ("FE", 0, -1), ("FE", 255, -1)])
    def test_one_ulp_in_a_density_entry_is_caught(self, probe, monkeypatch, name, entry,
                                                  direction):
        """A planted change of one ULP in one ``FI`` / ``FE`` entry fails
        test_streams_match_numpy_generators and test_tables_are_numpy_s."""
        table = getattr(ziggurat, name).copy()
        table[entry] = np.nextafter(table[entry], direction * np.inf)
        monkeypatch.setattr(ziggurat, name, table)
        kind = KINDS[name == "FE"]
        chosen = [(state, inc) for k, state, inc in probe.cases(module_tables())
                  if k == kind]
        assert differing_subjects(chosen, kind)
        assert module_tables()[name] != probe.tables()[name]


class TestExp:
    """``_exp`` is ``math.exp``, bit for bit, in array passes."""

    def test_matches_math_exp_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, 400_000, np.uint64).view(np.float64)
        edges = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
                 709.0, np.nextafter(709.0, np.inf), np.nextafter(709.0, 0.0), 709.78,
                 -745.0, np.nextafter(-745.0, -np.inf), -745.1332191019412, -746.0,
                 -1e300]
        values = np.concatenate([
            edges,
            rng.uniform(-745.2, 709.78, 400_000),  # the whole range of finite results
            rng.normal(0.0, 3.0, 200_000),  # where log intensities lie
            rng.uniform(-745.2, -708.3, 100_000),  # subnormal results
            rng.uniform(709.0, 709.78, 100_000),  # where cexp scales by exp(709)
            bits[np.abs(bits) < 709.78]])  # every exponent down to subnormal arguments
        values = values[:values.size - values.size % 4]
        assert values.size > 1_000_000
        theirs = np.fromiter(map(math.exp, values.tolist()), float, values.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = simulate._exp(values.reshape(-1, 4))
        assert ours.tobytes() == theirs.reshape(-1, 4).tobytes()
        assert simulate._exp(0.5) == math.exp(0.5)

    def test_overflow_is_the_same_invalid_intensity(self):
        spec = scenarios.builtin("s2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidIntensity, match=re.escape(
                    "treatment: log intensity above about 709.78, beyond the range of exp")):
                spec.rate("treatment", {"z": np.array([[0.0, 600.0], [1.0, 2.0]])})
            rates = spec.rate("treatment", {"z": np.array([[591.0, -640.0]])})
        assert rates.tolist() == [[0.1 * math.exp(1.2 * 591.0), 0.1 * math.exp(-1.2 * 640.0)]]

    def test_import_check_raises_on_a_mismatch(self, monkeypatch):
        simulate._check_exp()
        exact = simulate._exp
        monkeypatch.setattr(simulate, "_exp", lambda lp: np.nextafter(exact(lp), np.inf))
        with pytest.raises(RuntimeError, match="complex exp is not the C library's exp"):
            simulate._check_exp()
        # the probe holds arguments where numpy's real exp misses libm's, on
        # processors where it misses at all
        probe = simulate._EXP_PROBE
        misses = np.exp(probe).tobytes() != simulate._libm(math.exp, probe).tobytes()
        monkeypatch.setattr(simulate, "_exp", np.exp)
        if misses:
            with pytest.raises(RuntimeError):
                simulate._check_exp()


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

    @pytest.mark.parametrize("name", ["s1", "s2", "age_gap", "mixed"])
    def test_stops_design_is_continued_follow_up_split(self, name):
        d = {**scenarios.BUILTIN, "mixed": MIXED}[name]
        stops = IntensitySpec.from_dict({**d, "design": "stops"})
        continues = IntensitySpec.from_dict({**d, "design": "continues"})
        for seed in (1, 2, 3):
            assert (simulate.simulate(stops, 300, seed)
                    == split_at_treatment(simulate.simulate(continues, 300, seed)))

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

    @pytest.mark.parametrize("t_hor", [-1.0, 0.0, math.nan])
    @pytest.mark.parametrize("name", ["s1", "s2"])
    def test_horizon_not_positive_and_finite_rejected(self, monkeypatch, name, t_hor):
        # s1's truth is analytic, s2's Monte Carlo; neither may draw a block
        blocks = []
        monkeypatch.setattr(simulate, "simulate_trajectories",
                            lambda *args, **kwargs: blocks.append(args) or 1 / 0)
        with pytest.raises(ScenarioError, match="t_hor must be positive and finite"):
            true_risks(scenarios.builtin(name), {}, t_hor=t_hor, mc_reps=100)
        assert blocks == []

    @pytest.mark.parametrize("name, profile, message", [
        pytest.param("s2", {"z": 3.0}, "not baseline covariates", id="s2-time-varying"),
        pytest.param("s2", {"bogus": 3.0}, "not baseline covariates", id="s2-unknown"),
        pytest.param("age_gap", {"age": 60.0, "z": 0.0}, "not baseline covariates",
                     id="age_gap-extra"),
        pytest.param("age_gap", {"age": math.nan}, "profile.age: must be finite",
                     id="age_gap-nan"),
        pytest.param("age_gap", {"age": math.inf}, "profile.age: must be finite",
                     id="age_gap-inf"),
    ])
    def test_profile_the_truth_would_ignore_rejected(self, name, profile, message):
        with pytest.raises(ScenarioError, match=message):
            true_risks(scenarios.builtin(name), profile, t_hor=5.0, mc_reps=100)


#: a scenario that sets every key a scenario file may hold
EVERY_KEY = {
    "name": "every-key", "design": "stops", "admin_censor": 8.0, "dropout_rate": 0.05,
    "grid_step": 1.0,
    "baseline_covariates": {"a": {"dist": "normal", "mean": 0.0, "sd": 1.0},
                            "b": {"dist": "uniform", "low": 0.0, "high": 1.0},
                            "c": {"dist": "bernoulli", "p": 0.3},
                            "d": {"dist": "constant", "value": 2.0}},
    "tv_covariates": {"z": {"init": {"dist": "normal", "mean": 0.0, "sd": 1.0},
                            "rho": 0.9, "sd": 0.2, "drift": 0.1}},
    "treatment": {"base": 0.1, "log_hr": {"a": 0.5, "z": 1.0}},
    "death_untreated": {"base": 0.2, "log_hr": {"b": 0.3}},
    "death_treated": {"base": 0.05, "log_hr": {"c": -0.2},
                      "tst_cuts": [1.0], "tst_log_hr": [0.0, 0.5]},
}


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
        ("baseline", {"dist": "uniform", "low": -1e308, "high": 1e308},
         "the width of uniform(-1e+308, 1e+308) overflows"),
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

    def test_grid_over_the_cap_rejected_before_any_array(self):
        # 2e9 points would be 15 GiB; only the spec is built here
        with pytest.raises(ScenarioError, match=r"grid of 2e\+09 points, more than "
                                                r"MAX_GRID_POINTS = 10000"):
            IntensitySpec.from_dict({
                "admin_censor": 1e9, "grid_step": 0.5,
                "treatment": {"base": 0.1}, "death_untreated": {"base": 0.2},
                "death_treated": {"base": 0.05}})

    def test_grid_at_the_cap_accepted(self):
        d = {"treatment": {"base": 0.1}, "death_untreated": {"base": 0.2},
             "death_treated": {"base": 0.05}}
        spec = IntensitySpec.from_dict({**d, "admin_censor": 9999.0, "grid_step": 1.0})
        assert spec.grid.size == simulate.MAX_GRID_POINTS
        with pytest.raises(ScenarioError, match="grid of 10001 points"):
            IntensitySpec.from_dict({**d, "admin_censor": 10000.0, "grid_step": 1.0})

    def test_round_trip(self):
        spec = scenarios.builtin("s2")
        assert IntensitySpec.from_dict(spec.to_dict()) == spec

    def test_every_builtin_and_key_round_trips(self):
        for d in (*scenarios.BUILTIN.values(), EVERY_KEY):
            spec = IntensitySpec.from_dict(d)
            assert IntensitySpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("path, value, message", [
        (("treatment",), {"base": 0.1, "log_hrs": {"z": 1.0}},
         "treatment: unknown keys ['log_hrs']"),
        (("death_treated", "tst_cut"), [1.0], "death_treated: unknown keys ['tst_cut']"),
        (("tv_covariates", "z", "rh0"), 0.5, "tv_covariates.z: unknown keys ['rh0']"),
        (("tv_covariates", "z", "init", "sdd"), 2.0,
         "tv_covariates.z.init: unknown keys ['sdd']"),
        (("baseline_covariates", "b", "value"), 1.0,
         "baseline_covariates.b: unknown keys ['value']"),
        (("treatment", "log_hr"), [1.0], "treatment.log_hr: expected an object, got [1.0]"),
        (("baseline_covariates",), [], "baseline_covariates: expected an object, got []"),
        (("tv_covariates",), 3, "tv_covariates: expected an object, got 3"),
    ])
    def test_unknown_or_misshapen_nested_key_rejected(self, path, value, message):
        d = json.loads(json.dumps(EVERY_KEY))
        inner = d
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = value
        with pytest.raises(ScenarioError, match=re.escape(message)):
            IntensitySpec.from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("tst_cuts", "12"), ("tst_cuts", "2"), ("tst_cuts", 2.0),
        ("tst_log_hr", "0.5"), ("tst_log_hr", {"a": 1.0})])
    def test_tst_fields_must_be_lists(self, key, value):
        treated = {"base": 0.05, "tst_cuts": [1.0], "tst_log_hr": [0.0, 1.0], key: value}
        with pytest.raises(ScenarioError, match=re.escape(
                f"death_treated.{key}: expected a list, got {value!r}")):
            IntensitySpec.from_dict({"treatment": {"base": 0.1},
                                     "death_untreated": {"base": 0.2},
                                     "death_treated": treated})

    @pytest.mark.parametrize("tv", [False, True])
    @pytest.mark.parametrize("step", [0, 0.0, -0.5])
    def test_grid_step_zero_or_negative_rejected(self, tv, step):
        d = {"treatment": {"base": 0.1}, "death_untreated": {"base": 0.2},
             "death_treated": {"base": 0.05}, "grid_step": step}
        if tv:
            d["tv_covariates"] = {"z": {"init": {"dist": "normal", "mean": 0, "sd": 1}}}
        with pytest.raises(ScenarioError, match="^grid_step must be positive and finite$"):
            IntensitySpec.from_dict(d)

    def test_grid_step_null_is_absent(self):
        spec = scenarios.builtin("s1")
        assert spec.to_dict()["grid_step"] is None
        assert IntensitySpec.from_dict(spec.to_dict()).grid_step is None

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


class TestScenarioObjects:
    """Distributions and covariate processes built directly, not parsed,
    reject bad parameters when built, before numpy sees them."""

    @pytest.mark.parametrize("kind, params, message", [
        ("normal", {"mean": 0, "sd": -1}, "sd must be >= 0"),
        ("uniform", {"low": 2, "high": 1}, "low 2.0 must not exceed high 1.0"),
        ("bernoulli", {"p": 1.5}, "p must lie in [0, 1]"),
        ("normal", {"mean": 0}, "distribution 'normal' missing ['sd']"),
        ("normal", {"mean": 0, "sd": math.inf}, "sd: must be finite"),
        ("poisson", {"lam": 1}, "unknown distribution 'poisson'"),
    ])
    def test_bad_dist_rejected_when_built(self, kind, params, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            simulate.Dist(kind, params)

    def test_negative_process_sd_rejected_when_built(self):
        with pytest.raises(ScenarioError, match="sd must be >= 0, got -0.5"):
            simulate.TVProcess(simulate.Dist("constant", {"value": 0}), sd=-0.5)

    @pytest.mark.parametrize("build, message", [
        (lambda: simulate.TVProcess(simulate.Dist("constant", {"value": 0}), rho=math.nan),
         "rho: must be finite"),
        (lambda: simulate.TVProcess(simulate.Dist("constant", {"value": 0}), drift="abc"),
         "drift: expected a number"),
        (lambda: simulate.LogLinearIntensity(0.1, {"z": "abc"}),
         "log_hr.z: expected a number, got 'abc'"),
        (lambda: simulate.LogLinearIntensity("abc"), "base: expected a number"),
        (lambda: simulate.LogLinearIntensity(0.1, [("z", 1.0)]),
         "log_hr must map covariates to numbers"),
        (lambda: simulate.LogLinearIntensity(0.1, tst_cuts=[None], tst_log_hr=[0, 1]),
         "tst_cuts: expected a number"),
    ])
    def test_non_number_rejected_when_built(self, build, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            build()


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


class TestValidateHorizon:
    def test_spec_horizon_must_be_the_truth_horizon(self):
        # the composite risk at 2 against the truth at 5 is no comparison
        specs = [StrategySpec(Strategy.IGNORE_TREATMENT, t_hor=5.0),
                 StrategySpec(Strategy.COMPOSITE, t_hor=2.0)]
        with pytest.raises(DataError, match="strategy composite .* horizon 2"):
            simulate.validate(scenarios.builtin("s1"), n=200, seeds=[1],
                              strategy_specs=specs, t_hor=5.0, mc_reps=1000)

    def test_labels_must_differ(self):
        # two specs of one label would pool their estimates under it
        specs = [StrategySpec(Strategy.COMPOSITE, t_hor=5.0),
                 StrategySpec(Strategy.HYPOTHETICAL, t_hor=5.0),
                 StrategySpec(Strategy.COMPOSITE, t_hor=5.0)]
        with pytest.raises(DataError, match=r"\['composite'\] are listed more than once"):
            simulate.validate(scenarios.builtin("s1"), n=200, seeds=[1],
                              strategy_specs=specs, t_hor=5.0, mc_reps=1000)


def cpus(monkeypatch, n):
    """Make this process's CPU affinity hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def forbid(monkeypatch, *names) -> list:
    """Make each of ``simulate``'s functions ``names`` record its call here
    and fail; the calls."""
    calls = []
    fail = lambda *args, **kwargs: calls.append(args) or 1 / 0  # noqa: E731
    for name in names:
        monkeypatch.setattr(simulate, name, fail)
    return calls


def block_pids(monkeypatch, path):
    """Make ``simulate_trajectories`` append the first rep of each Monte
    Carlo truth block it draws, and the pid of the process that draws it,
    to ``path``; the (rep, pid) pairs it has written."""
    original = simulate.simulate_trajectories

    def recorded(spec, n, seed, x0_override=None):
        if isinstance(seed, np.random.SeedSequence):  # a truth block's root
            with open(path, "a") as f:
                f.write(f"{seed.n_children_spawned} {os.getpid()}\n")
        return original(spec, n, seed, x0_override)

    monkeypatch.setattr(simulate, "simulate_trajectories", recorded)
    return lambda: [tuple(map(int, line.split())) for line in
                    Path(path).read_text().splitlines()]


#: a Monte Carlo truth that raises: w enters the treatment intensity, and
#: its AR(1) path overflows
OVERFLOWING = {
    "grid_step": 0.5,
    "tv_covariates": {"w": {"init": {"dist": "normal", "mean": 0.0, "sd": 1.0},
                            "rho": 1e30}},
    "treatment": {"base": 0.1, "log_hr": {"w": 0.0}},
    "death_untreated": {"base": 0.12}, "death_treated": {"base": 0.06}}


@pytest.mark.skipif(sys.platform != "linux", reason="the worker is forked on Linux only")
class TestTruthWorker:
    """A Monte Carlo truth's blocks are spread like the replicate seeds: the
    caller draws the first chunk of blocks and forked children the others,
    where more than one CPU can run them. ``validate`` takes the truth
    before any replicate starts; the report is the one the caller alone
    gives, and no process is left running."""

    @staticmethod
    def specs(*labels, t_hor=5.0):
        out = []
        for label in labels:
            name, _, method = label.partition(":")
            kwargs = {"hypothetical_method": HypotheticalMethod(method)} if method else {}
            if method == "censor-ipcw":
                kwargs["weight_covariates"] = ("z",)
            out.append(StrategySpec(Strategy(name), t_hor=t_hor, **kwargs))
        return out

    @pytest.mark.parametrize("name, n, seeds, profile, labels, mc_reps", [
        # nine truth blocks of 5,000 reps
        pytest.param("s2", 200, [1, 2], {}, ["composite", "hypothetical:censor"], 45_000,
                     id="s2-nine-blocks"),
        pytest.param("age_gap", 200, [1], {"age": 50.0}, ["composite", "while-untreated"],
                     1_000, id="age_gap-age-50"),
        # censor-ipcw diverges on seed 2
        pytest.param("s2", 15, [1, 2, 3], {}, ["ignore", "hypothetical:censor-ipcw"], 2_000,
                     id="s2-failing-seed"),
    ])
    def test_same_report_as_one_cpu(self, monkeypatch, truth_memo, name, n, seeds, profile,
                                    labels, mc_reps):
        def report(n_cpus):
            cpus(monkeypatch, n_cpus)
            truth_memo.cache_clear()  # so that each call draws its truth
            return json.dumps(validate(scenarios.builtin(name), n=n, seeds=seeds,
                                       strategy_specs=self.specs(*labels), profile=profile,
                                       t_hor=5.0, mc_reps=mc_reps))

        alone = report(1)
        assert report(2) == report(4) == alone
        alone = json.loads(alone)
        if name == "s2":
            assert alone["truth_method"] == "monte-carlo"
        if len(seeds) == 3:
            assert [e["seed"] for e in alone["strategies"]["hypothetical:censor-ipcw"]
                    ["errors"]] == [2]

    @pytest.mark.parametrize("n_cpus, in_child", [(2, True), (1, False)])
    def test_truth_runs_in_a_child_given_two_cpus(self, monkeypatch, tmp_path, n_cpus,
                                                  in_child, truth_memo):
        cpus(monkeypatch, n_cpus)
        pids = block_pids(monkeypatch, tmp_path / "pids")
        validate(scenarios.builtin("s2"), n=20, seeds=[1], strategy_specs=self.specs("ignore"),
                 t_hor=5.0, mc_reps=20_000)
        drawn = dict(pids())
        assert sorted(drawn) == [0, 5_000, 10_000, 15_000]
        # the caller draws the first chunk of blocks, a child the second
        caller = {rep for rep, pid in drawn.items() if pid == os.getpid()}
        assert caller == ({0, 5_000} if in_child else set(drawn))
        assert len(set(drawn.values())) == 1 + in_child
        # the caller remembers the truth either way
        assert truth_memo.cache_info().currsize == 1

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"t_hor": 7.0}, "t_hor must not exceed", id="t_hor-past-admin_censor"),
        pytest.param({"profile": {"bogus": 1.0}}, "not baseline covariates",
                     id="unknown-profile-key"),
        pytest.param({"mc_reps": 0}, "mc_reps must be between", id="zero-mc_reps"),
        pytest.param({"mc_reps": 2**32 + 1}, "mc_reps must be between", id="mc_reps-over-cap"),
        pytest.param({"n": 0}, "n must be between", id="zero-n"),
        pytest.param({"n": 2**62}, "n must be between", id="n-over-cap"),
    ])
    def test_errors_before_any_replicate(self, monkeypatch, kwargs, message):
        cpus(monkeypatch, 2)
        calls = forbid(monkeypatch, "simulate", "simulate_trajectories", "_in_child")
        kwargs = {"n": 20, "t_hor": 5.0, "mc_reps": 500, **kwargs}
        with pytest.raises(ScenarioError, match=message):
            validate(scenarios.builtin("s2"), seeds=[1],
                     strategy_specs=self.specs("ignore", t_hor=kwargs["t_hor"]), **kwargs)
        assert calls == []

    def test_truth_error_from_the_child_wins(self, monkeypatch, truth_memo):
        # the truth's second chunk of blocks fails in its child; no
        # replicate starts, and the truth is not remembered
        caller, original = os.getpid(), simulate.simulate_trajectories
        replicates = []

        def block(spec, n, seed, x0_override=None):
            if os.getpid() != caller:
                raise ScenarioError(f"block from rep {seed.n_children_spawned} failed")
            return original(spec, n, seed, x0_override)

        monkeypatch.setattr(simulate, "simulate_trajectories", block)
        monkeypatch.setattr(simulate, "simulate", lambda *args: replicates.append(args))
        cpus(monkeypatch, 2)
        with pytest.raises(ScenarioError, match="block from rep 10000 failed"):
            validate(scenarios.builtin("s2"), n=20, seeds=[1, 2],
                     strategy_specs=self.specs("ignore"), t_hor=5.0, mc_reps=20_000)
        assert replicates == []
        assert truth_memo.cache_info().currsize == 0

    def test_killed_truth_child(self, monkeypatch):
        caller, original = os.getpid(), simulate.simulate_trajectories

        def killed(*args, **kwargs):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "simulate_trajectories", killed)
        cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="the process of the Monte Carlo truth from "
                                               "rep 10000 was killed"):
            true_risks(scenarios.builtin("s2"), {}, t_hor=5.0, mc_reps=20_000)


def replicate_pids(monkeypatch, path, warn=False, fail=None):
    """Make ``simulate``, a replicate's draw, append its seed and the pid of
    the process that runs it to ``path``, warn with its seed from its
    caller if ``warn`` and, if ``fail(seed)`` gives an exception, raise it; the (seed, pid)
    pairs it has written, in the order each process wrote them."""
    original = simulate.simulate

    def recorded(spec, n, seed):
        with open(path, "a") as f:
            f.write(f"{seed} {os.getpid()}\n")
        if warn:  # from simulate's module, as the package's warnings name their caller
            warnings.warn(f"replicate {seed}", UserWarning, stacklevel=2)
        exc = fail and fail(seed)
        if exc:
            raise exc
        return original(spec, n, seed)

    monkeypatch.setattr(simulate, "simulate", recorded)
    return lambda: [tuple(map(int, line.split())) for line in
                    Path(path).read_text().splitlines()]


@pytest.mark.skipif(sys.platform != "linux", reason="the workers are forked on Linux only")
class TestReplicateWorkers:
    """``validate`` estimates its replicate seeds in contiguous chunks, one
    per CPU: the caller the first, forked children the others. The report,
    the warnings and the error raised are those of the caller alone."""

    SPECS = TestTruthWorker.specs("ignore", "hypothetical:censor-ipcw")

    @staticmethod
    def run(monkeypatch, n_cpus, seeds, n=15, **kwargs):
        cpus(monkeypatch, n_cpus)
        return validate(scenarios.builtin("s2"), n=n, seeds=seeds,
                        strategy_specs=TestReplicateWorkers.SPECS, t_hor=5.0, mc_reps=500,
                        **kwargs)

    @pytest.mark.parametrize("seeds", [[1], [1, 2], [1, 2, 3]])
    def test_same_report_at_any_cpu_count(self, monkeypatch, seeds):
        reports = [json.dumps(self.run(monkeypatch, n_cpus, seeds)) for n_cpus in (1, 2, 4)]
        assert reports[1:] == reports[:1] * 2
        errors = json.loads(reports[0])["strategies"]["hypothetical:censor-ipcw"]["errors"]
        # censor-ipcw diverges on seed 2
        assert [e["seed"] for e in errors] == [2] * (len(seeds) > 1)

    def test_caller_runs_the_first_seed(self, monkeypatch, tmp_path):
        pids = replicate_pids(monkeypatch, tmp_path / "pids")
        self.run(monkeypatch, 2, [1, 2])
        ran = dict(pids())
        assert ran[1] == os.getpid() != ran[2]

    def test_no_more_chunks_than_seeds(self, monkeypatch, tmp_path):
        self.run(monkeypatch, 1, [4])  # remembers the truth: no truth child
        pids = replicate_pids(monkeypatch, tmp_path / "pids")
        started, original = [], simulate._in_child
        monkeypatch.setattr(simulate, "_in_child",
                            lambda *args: started.append(args[0]) or original(*args))
        self.run(monkeypatch, 64, [1, 2, 3])
        assert started == ["the replicates from seed 2", "the replicates from seed 3"]
        ran = dict(pids())
        assert ran[1] == os.getpid() and len(set(ran.values())) == 3

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_warnings_in_seed_order(self, monkeypatch, tmp_path, capfd, action):
        def caught(n_cpus):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter(action)
                self.run(monkeypatch, n_cpus, [1, 2, 3, 1])
            return [(str(w.message), w.category, w.filename, w.lineno) for w in log]

        replicate_pids(monkeypatch, tmp_path / "pids", warn=True)
        alone = caught(1)
        assert caught(2) == caught(4) == alone
        expected = ["replicate 1", "replicate 2", "replicate 3"]
        assert [w[0] for w in alone if w[0].startswith("replicate")] == (
            expected + ["replicate 1"] * (action == "always"))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("failing", [(2, 3), (1, 3), (3,)])
    def test_earliest_error_wins(self, monkeypatch, tmp_path, capfd, failing):
        replicate_pids(monkeypatch, tmp_path / "pids", warn=True,
                       fail=lambda seed: ValueError(f"seed {seed} failed") if seed in failing
                       else None)

        def raised(n_cpus):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                with pytest.raises(ValueError) as caught:
                    self.run(monkeypatch, n_cpus, [1, 2, 3])
            return str(caught.value), [str(w.message) for w in log]

        alone = raised(1)
        assert alone[0] == f"seed {failing[0]} failed"
        # no warning of a seed after the failing one, as with one CPU
        assert raised(3) == alone
        assert capfd.readouterr() == ("", "")

    def test_killed_child(self, monkeypatch):
        caller, original = os.getpid(), simulate.simulate

        def killed(spec, n, seed):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(spec, n, seed)

        monkeypatch.setattr(simulate, "simulate", killed)
        with pytest.raises(RuntimeError, match="the process of the replicates from seed 2 "
                                               "was killed"):
            self.run(monkeypatch, 2, [1, 2])

    def test_truth_error_wins_over_a_childs(self, monkeypatch):
        # the truth raises in the caller before any replicate starts, so no
        # child's replicate error can take its place
        caller, original = os.getpid(), simulate.simulate
        started = []

        def replicate(_, n, seed):
            started.append(seed)
            if os.getpid() != caller:
                raise TypeError(f"replicate {seed} failed")
            return original(scenarios.builtin("s2"), n, seed)

        monkeypatch.setattr(simulate, "simulate", replicate)
        cpus(monkeypatch, 2)
        with pytest.raises(ScenarioError, match="not finite"):
            validate(IntensitySpec.from_dict(OVERFLOWING), n=20, seeds=[1, 2],
                     strategy_specs=TestTruthWorker.specs("ignore"), t_hor=5.0,
                     mc_reps=500)
        assert started == []


#: s2 with a baseline covariate in the untreated death rate, so that a
#: profile changes its Monte Carlo truth
S2_AGE = {**scenarios.BUILTIN["s2"], "name": "s2-age",
          "baseline_covariates": {"age": {"dist": "uniform", "low": 40.0, "high": 80.0}},
          "death_untreated": {"base": 0.12, "log_hr": {"z": 0.8, "age": 0.01}}}


class TestTruthMemo:
    """``true_risks`` remembers the hits of each Monte Carlo truth it draws
    in this process (``simulate._memo_hits``, emptied for each test by the
    ``truth_memo`` fixture) and reads them again instead of drawing, for
    ``validate`` too: a recalled truth gives the report of a draw."""

    @staticmethod
    def report(spec=None, profile=None, t_hor=5.0, mc_reps=500) -> dict:
        return validate(
            spec or scenarios.builtin("s2"), n=20, seeds=[1],
            strategy_specs=[StrategySpec(Strategy.IGNORE_TREATMENT, t_hor=t_hor)],
            profile=profile, t_hor=t_hor, mc_reps=mc_reps)

    @staticmethod
    def draws(monkeypatch) -> list:
        """Make the truth's draw record its calls here; the calls."""
        calls, original = [], simulate._truth_hits
        monkeypatch.setattr(simulate, "_truth_hits",
                            lambda *args: calls.append(args) or original(*args))
        return calls

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_recalled_truth_starts_no_process_and_draws_nothing(self, monkeypatch,
                                                                truth_memo, n_cpus):
        cpus(monkeypatch, n_cpus)
        drawn = json.dumps(self.report())
        calls = forbid(monkeypatch, "_truth_hits", "_in_child")
        assert json.dumps(self.report()) == drawn
        assert calls == []
        assert truth_memo.cache_info().currsize == 1

    def test_truth_of_true_risks_is_recalled_by_validate(self, monkeypatch, truth_memo):
        cpus(monkeypatch, 2)
        truth = true_risks(scenarios.builtin("s2"), {}, t_hor=5.0, mc_reps=500)
        calls = forbid(monkeypatch, "_truth_hits", "_in_child")
        entry = self.report()["strategies"]["ignore"]
        assert (entry["truth"], entry["truth_se"]) == (truth.risks["ignore"],
                                                       truth.se["ignore"])
        assert calls == []
        assert truth_memo.cache_info().currsize == 1

    def test_each_input_keys_its_own_truth(self, monkeypatch, truth_memo):
        cpus(monkeypatch, 1)
        base = {"spec": IntensitySpec.from_dict(S2_AGE), "profile": {"age": 50.0}}
        other = IntensitySpec.from_dict({**S2_AGE, "treatment": {"base": 0.11,
                                                                 "log_hr": {"z": 1.2}}})
        cases = [{}, {"spec": other}, {"profile": {"age": 60.0}}, {"t_hor": 4.0},
                 {"mc_reps": 600}]
        drawn = [json.dumps(self.report(**{**base, **case})) for case in cases]
        assert len(set(drawn)) == truth_memo.cache_info().currsize == len(cases)
        calls = self.draws(monkeypatch)
        assert [json.dumps(self.report(**{**base, **case})) for case in cases] == drawn
        assert calls == []

    def test_mc_seed_keys_its_own_truth(self, monkeypatch, truth_memo):
        cpus(monkeypatch, 1)
        spec = scenarios.builtin("s2")
        drawn = [true_risks(spec, {}, t_hor=5.0, mc_reps=500, mc_seed=seed).risks
                 for seed in (1, 2)]
        assert drawn[0] != drawn[1]
        assert truth_memo.cache_info().currsize == 2
        calls = self.draws(monkeypatch)
        assert [true_risks(spec, {}, t_hor=5.0, mc_reps=500, mc_seed=seed).risks
                for seed in (1, 2)] == drawn
        assert calls == []

    def test_least_recently_used_truth_is_forgotten(self, monkeypatch, truth_memo):
        cpus(monkeypatch, 1)
        calls = self.draws(monkeypatch)
        spec = scenarios.builtin("s2")
        reps = list(range(10, 11 + simulate.TRUTH_MEMO))
        for mc_reps in reps:
            true_risks(spec, {}, t_hor=5.0, mc_reps=mc_reps)
        assert truth_memo.cache_info().currsize == simulate.TRUTH_MEMO == 64
        del calls[:]
        # the first truth was forgotten; recalling the second makes the
        # third the least recently used, which the first then displaces
        for mc_reps in (reps[-1], reps[1], reps[0], reps[2]):
            true_risks(spec, {}, t_hor=5.0, mc_reps=mc_reps)
        assert [args[3] for args in calls] == [reps[0], reps[2]]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_truth_that_raises_is_not_remembered(self, monkeypatch, truth_memo, n_cpus):
        cpus(monkeypatch, n_cpus)
        spec = IntensitySpec.from_dict(OVERFLOWING)
        for _ in range(2):
            with pytest.raises(ScenarioError, match="not finite"):
                self.report(spec)
        assert truth_memo.cache_info().currsize == 0

    def test_profile_that_is_not_json_is_drawn_each_time(self, monkeypatch, truth_memo):
        cpus(monkeypatch, 1)
        calls = self.draws(monkeypatch)
        spec = IntensitySpec.from_dict(S2_AGE)
        profile = {"age": np.float32(50.0)}
        first, second = (self.report(spec, profile) for _ in range(2))
        assert first["strategies"] == second["strategies"]
        assert (len(calls), truth_memo.cache_info().currsize) == (2, 0)


class TestSeedChecks:
    """A seed that is not a nonnegative integer is a ScenarioError naming it,
    raised before anything is drawn or forked."""

    @pytest.mark.parametrize("seeds, bad", [([1, -2], "-2"), ([1.5], "1.5"),
                                            ([3, "4"], "'4'")],
                             ids=["negative", "float", "string"])
    def test_validate(self, monkeypatch, seeds, bad):
        cpus(monkeypatch, 2)
        calls = forbid(monkeypatch, "_draw", "_in_child", "_truth_hits")
        with pytest.raises(ScenarioError,
                           match=re.escape(f"seed must be a nonnegative integer, got {bad}")):
            validate(scenarios.builtin("s2"), n=20, seeds=seeds,
                     strategy_specs=TestTruthWorker.specs("ignore"), t_hor=5.0,
                     mc_reps=20_000)
        assert calls == []

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_simulate(self, monkeypatch, seed):
        calls = forbid(monkeypatch, "_draw", "_in_child", "_truth_hits")
        with pytest.raises(ScenarioError,
                           match=re.escape(f"seed must be a nonnegative integer, got {seed}")):
            simulate.simulate(scenarios.builtin("s2"), 5, seed)
        assert calls == []

    @pytest.mark.parametrize("mc_seed", [-1, 1.5])
    @pytest.mark.parametrize("name", ["s1", "s2"])
    def test_true_risks(self, monkeypatch, name, mc_seed):
        # s1's truth is analytic and never reads mc_seed, as with mc_reps
        cpus(monkeypatch, 2)
        calls = forbid(monkeypatch, "_draw", "_in_child", "_truth_hits")
        with pytest.raises(ScenarioError, match=re.escape(
                f"mc_seed must be a nonnegative integer, got {mc_seed}")):
            true_risks(scenarios.builtin(name), {}, t_hor=5.0, mc_reps=20_000,
                       mc_seed=mc_seed)
        assert calls == []

    def test_numpy_integers_are_seeds(self):
        spec = scenarios.builtin("s2")
        assert (simulate.simulate(spec, 5, np.uint32(3)).tstop.tobytes()
                == simulate.simulate(spec, 5, 3).tstop.tobytes())
        assert (true_risks(spec, {}, mc_reps=100, mc_seed=np.int64(7)).risks
                == true_risks(spec, {}, mc_reps=100, mc_seed=7).risks)

    def test_numpy_seeds_are_reported_as_ints(self, monkeypatch):
        """A numpy integer seed goes into the report as a Python int, in
        ``seeds`` and in each error's ``seed``, so the report is JSON."""
        from predictimands import strategies

        def broken(ds, spec, profile):
            raise DataError("no fit")

        cpus(monkeypatch, 1)
        monkeypatch.setattr(strategies, "estimate", broken)
        report = validate(scenarios.builtin("s1"), n=20, seeds=[np.int64(1), np.uint32(2)],
                          strategy_specs=TestTruthWorker.specs("ignore"), t_hor=5.0)
        errors = report["strategies"]["ignore"]["errors"]
        assert [type(s) for s in report["seeds"]] == [int, int]
        assert [(type(e["seed"]), e["seed"]) for e in errors] == [(int, 1), (int, 2)]
        json.dumps(report)


class TestValidateArguments:
    """A tolerance or a seed count that the CLI rejects is a ScenarioError
    from ``validate`` too, naming the value, raised before the truth is
    drawn or anything forks."""

    def run(self, monkeypatch, seeds=(1,), tolerance=0.02) -> tuple:
        """``validate``'s error, the calls it made to the forbidden
        functions before raising it."""
        cpus(monkeypatch, 2)
        calls = forbid(monkeypatch, "_draw", "_in_child", "_truth_hits", "true_risks")
        with pytest.raises(Exception) as exc:
            validate(scenarios.builtin("s2"), n=20, seeds=seeds,
                     strategy_specs=TestTruthWorker.specs("ignore"), t_hor=5.0,
                     tolerance=tolerance, mc_reps=20_000)
        return exc.value, calls

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_tolerance(self, monkeypatch, tolerance):
        error, calls = self.run(monkeypatch, tolerance=tolerance)
        assert (type(error), str(error), calls) == (
            ScenarioError, f"tolerance must be finite and nonnegative, got {tolerance}", [])

    @pytest.mark.parametrize("seeds, count", [([], 0), (range(simulate.MAX_SEEDS + 1),
                                                        simulate.MAX_SEEDS + 1),
                                              (range(2**63), math.inf)],
                             ids=["none", "past-the-cap", "past-maxsize"])
    def test_seed_count(self, monkeypatch, seeds, count):
        # range(2**63) cannot be listed: the count comes first
        error, calls = self.run(monkeypatch, seeds=seeds)
        assert (type(error), str(error), calls) == (
            ScenarioError, f"validate takes 1 to 2**20 seeds, got {count}", [])

    def test_edge_values_pass(self, monkeypatch):
        error, calls = self.run(monkeypatch, seeds=[0], tolerance=0.0)
        assert type(error) is ZeroDivisionError and len(calls) == 1  # at the truth
