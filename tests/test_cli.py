import argparse
import codecs
import csv
import contextlib
import functools
import io
import json
import math
import operator
import os
import stat
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predictimands import cli as cli_mod
from predictimands import cache, cox, scenarios, simulate
from predictimands import data as data_mod
from predictimands.cli import _parse_strategy_tokens, build_parser, main
from predictimands.curves import RiskCurve
from predictimands.strategies import HypotheticalMethod, Strategy, StrategySpec, estimate
from tests.test_data import SPECIAL_FLOATS
from tests.test_simulator import reference_risks, reference_simulate


def run(argv):
    return main(argv)


@pytest.fixture
def d4_csv(tmp_path):
    path = tmp_path / "d4.csv"
    path.write_text("id,tstart,tstop,status,treated\n"
                    "1,0,1,1,0\n2,0,2,2,0\n3,0,3,1,0\n4,0,4,0,0\n")
    return path


@pytest.fixture
def s2_data(tmp_path):
    out = tmp_path / "s2.csv"
    code = run(["simulate", "--scenario", "s2", "--n", "300", "--seed", "3",
                "--out", str(out)])
    assert code == 0
    return out


class TestUsageErrors:
    def test_missing_strategy_exits_2(self, d4_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--data", str(d4_csv), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--strategy" in capsys.readouterr().err

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"treatment": {"base": 0.1},')
        code = run(["simulate", "--scenario", str(bad), "--n", "5",
                    "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ScenarioError"
        assert "line" in err["message"]

    @pytest.mark.parametrize("token, message", [
        ("hypothetical:bogus", "unknown method 'bogus'"),
        ("bogus", "unknown strategy 'bogus'"),
        ("composite,hypothetical:", "unknown method ''"),
        ("", "names no strategy"),
        (",", "names no strategy"),
        ("composite,composite", "names ['composite'] more than once"),
        # the default method and an ignored suffix repeat a label too
        ("ignore,hypothetical,hypothetical:censor",
         "names ['hypothetical:censor'] more than once"),
        ("composite,composite:model", "names ['composite'] more than once"),
    ])
    def test_unknown_strategy_token_exits_2(self, tmp_path, capsys, token, message):
        out = tmp_path / "report.json"
        code = run(["validate", "--scenario", "s1", "--n", "20", "--seeds", "1",
                    "--strategies", token, "--out", str(out)])
        assert code == 2
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        err = json.loads(stdout)
        assert err["error"] == "UsageError"
        assert message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("token", ["composite:bogus", "composite:censor-ipcw"])
    def test_method_suffix_ignored_off_hypothetical(self, token):
        args = argparse.Namespace(covariates="age", tie="breslow", tv_cuts=None,
                                  weight_covariates=None, truncate_weights=None)
        (spec,) = _parse_strategy_tokens(token, args, 5.0)
        assert spec.strategy == Strategy.COMPOSITE
        assert spec.hypothetical_method is None

    @pytest.mark.parametrize("baseline, message", [
        ({"dist": "normal", "mean": 0.0, "sd": -1}, "sd must be >= 0"),
        ({"dist": "normal", "mean": 0.0, "sd": "nan"}, "must be finite"),
        ({"dist": "normal", "mean": 0.0, "sd": 1.0, "sdd": 2.0},
         "baseline_covariates.x: unknown keys ['sdd']"),
    ])
    def test_bad_scenario_parameter_exits_2(self, tmp_path, capsys, baseline, message):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({
            "baseline_covariates": {"x": baseline},
            "treatment": {"base": 0.1}, "death_untreated": {"base": 0.2},
            "death_treated": {"base": 0.05}}))
        out = tmp_path / "x.csv"
        code = run(["simulate", "--scenario", str(scenario), "--n", "5",
                    "--seed", "1", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ScenarioError"
        assert message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("covariates", [
        {"tv_covariates": {"w": {"init": {"dist": "normal", "mean": 0.0, "sd": 1.0},
                                 "rho": 1e30}}, "grid_step": 0.5},
        {"baseline_covariates": {"w": {"dist": "normal", "mean": 0.0, "sd": 1e308}}},
    ], ids=["ar1-rho-1e30", "normal-sd-1e308"])
    def test_overflowing_covariate_exits_2(self, tmp_path, capsys, covariates):
        scenario = tmp_path / "overflow.json"
        scenario.write_text(json.dumps({
            **covariates, "treatment": {"base": 0.1}, "death_untreated": {"base": 0.12},
            "death_treated": {"base": 0.06}}))
        out = tmp_path / "x.csv"
        code = run(["simulate", "--scenario", str(scenario), "--n", "50",
                    "--seed", "1", "--out", str(out)])
        assert code == 2
        stdout, stderr = capsys.readouterr()
        assert (json.loads(stdout), stderr) == ({
            "error": "ScenarioError",
            "message": "covariate 'w' draws values that are not finite: its "
                       "distribution or process overflows"}, "")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10", "--seed", "1"],
        # a profile that fixes x makes the truth analytic
        ["validate", "--n", "10", "--seeds", "1", "--profile", "x=800"],
    ], ids=["simulate", "analytic-truth"])
    def test_log_intensity_overflow_exits_2(self, tmp_path, capsys, argv):
        scenario = tmp_path / "overflow.json"
        scenario.write_text(json.dumps({
            "baseline_covariates": {"x": {"dist": "constant", "value": 800}},
            "treatment": {"base": 0.1, "log_hr": {"x": 1.0}},
            "death_untreated": {"base": 0.2}, "death_treated": {"base": 0.05}}))
        out = tmp_path / "out"
        code = run(argv + ["--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "InvalidIntensity"
        assert err["message"].startswith("treatment: log intensity above")
        assert not out.exists()

    @pytest.mark.parametrize("text, extra, message", [
        ("id,tstart,tstop,status,treated\n"
         "1,0,1,1,0\n2,0,2,2,0\n3,0,3,1,0\n4,0,inf,0,0\n",
         ["--horizon", "1.5"], "line 5: tstop must be finite, got 'inf'"),
        ("id,tstart,tstop,status,treated\n1,0,1,0,0\n1,nan,2,1,0\n",
         [], "line 3: tstart must be finite, got 'nan'"),
        ("id,tstart,tstop,status,treated,x\n"
         "1,0,1,1,0,nan\n2,0,2,2,0,1\n3,0,3,1,0,0\n4,0,4,0,0,1\n",
         ["--covariates", "x"], "line 2: covariate 'x' must be finite, got 'nan'"),
        # the empty field on line 2 is a missing value, not an error
        ("id,tstart,tstop,status,treated,z\n"
         "1,0,1,0,0,\n1,1,2,1,0,-inf\n2,0,3,1,0,0.5\n",
         [], "line 3: covariate 'z' must be finite, got '-inf'"),
    ], ids=["inf-tstop", "nan-tstart", "nan-baseline", "inf-time-varying"])
    def test_non_finite_field_exits_3(self, tmp_path, capsys, text, extra, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code = run(["fit", "--data", str(data), "--strategy", "composite",
                    "--out", str(tmp_path / "o")] + extra)
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {"error": "MalformedRow",
                                                       "message": message}

    @pytest.mark.parametrize("text, message", [
        ("id,tstart,tstop,status,treated,z\n"
         "1,0,1,0,0,0.5\n1,1,2,1,0,abc\n2,0,3,1,0,0.5\n",
         "line 3: cannot parse value 'abc' for covariate 'z'"),
        # with the schema inferred, the short row on line 4 comes second
        ("id,tstart,tstop,status,treated,x\n1,0,1,1,0,1\n2,0,2,7,0,0\n3,0,3\n",
         "line 3: status must be 0, 1 or 2, got '7'"),
    ], ids=["unparsable-covariate", "bad-status-before-short-row"])
    def test_malformed_row_names_its_line(self, tmp_path, capsys, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code = run(["fit", "--data", str(data), "--strategy", "composite",
                    "--out", str(tmp_path / "o")])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {"error": "MalformedRow",
                                                       "message": message}

    def test_huge_covariate_is_named_before_newton(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("id,tstart,tstop,status,treated,x\n"
                        "1,0,1,1,0,1e308\n2,0,2,1,0,0\n3,0,3,0,0,1\n4,0,4,1,0,0\n")
        code = run(["fit", "--data", str(data), "--strategy", "ignore",
                    "--covariates", "x", "--out", str(tmp_path / "o")])
        assert code == 4
        captured = capsys.readouterr()
        err = json.loads(captured.out)
        assert err["error"] == "SingularInformation"
        assert err["message"].startswith("covariate 'x' is too large")
        assert captured.err == ""

    def test_spent_newton_budget_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cox, "MAX_ITER", 1)
        data = tmp_path / "d1.csv"
        data.write_text("id,tstart,tstop,status,treated,x\n"
                        "1,0,1,1,0,1\n2,0,2,1,0,0\n3,0,3,0,0,1\n4,0,4,1,0,0\n")
        out = tmp_path / "o"
        code = run(["fit", "--data", str(data), "--strategy", "composite",
                    "--covariates", "x", "--out", str(out)])
        assert code == 4
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        err = json.loads(stdout)
        assert err["error"] == "ConvergenceFailure"
        assert err["message"].startswith("no convergence in 1 iterations")
        assert not out.exists()

    def test_data_error_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,tstart,tstop,status,treated\n1,0,2,0,0\n1,3,5,1,0\n")
        code = run(["fit", "--data", str(bad), "--strategy", "composite",
                    "--out", str(tmp_path / "o")])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == "NonContiguousEpisodes"

    def test_profile_error_exits_3(self, tmp_path, d4_csv, capsys):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(d4_csv), "--strategy", "composite",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        code = run(["predict", "--run", str(out), "--profile", "x=oops",
                    "--out", str(tmp_path / "p")])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": "DataError", "message": "cannot parse value 'oops' for covariate 'x'"}

    @pytest.mark.parametrize("extra, message", [
        (["--tv-cuts", "3,abc"], "cannot parse '3,abc'"),
        (["--truncate-weights", "abc"], "cannot parse 'abc'"),
        (["--truncate-weights", "1"], "two percentiles"),
        (["--truncate-weights", "99,1"], "0 <= lo < hi <= 100"),
        (["--horizon", "nan"], "positive and finite"),
    ])
    def test_malformed_values_exit_3(self, s2_data, tmp_path, capsys, extra, message):
        capsys.readouterr()
        code = run(["fit", "--data", str(s2_data), "--strategy", "hypothetical",
                    "--method", "model-iptw", "--weight-covariates", "z",
                    "--out", str(tmp_path / "o")] + extra)
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "DataError"
        assert message in err["message"]

    @pytest.mark.parametrize("cuts", ["nan", "inf", "2,inf", "nan,2"])
    def test_non_finite_tv_cuts_exit_3(self, s2_data, tmp_path, capsys, cuts):
        capsys.readouterr()
        code = run(["fit", "--data", str(s2_data), "--strategy", "hypothetical",
                    "--method", "model", "--tv-cuts", cuts, "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "DataError"
        assert err["message"].startswith("tv_cuts must be finite")
        assert not (tmp_path / "o" / "model.json").exists()

    def test_predict_nan_horizon_exits_3(self, d4_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(d4_csv), "--strategy", "composite",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        code = run(["predict", "--run", str(out), "--horizon", "nan",
                    "--out", str(tmp_path / "p")])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == "DataError"
        assert not (tmp_path / "p" / "curve.csv").exists()

    def test_negative_increment_exits_3(self, tmp_path, d4_csv, capsys):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(d4_csv), "--strategy", "composite",
                    "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        # a negative hazard increment would drive the risk below zero
        model["baseline_cumhaz"][0][1] = -0.5
        (out / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        code = run(["predict", "--run", str(out), "--out", str(tmp_path / "p")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "DataError"
        assert "baseline_cumhaz increments must be nonnegative" in err["message"]
        assert not (tmp_path / "p" / "curve.csv").exists()


_AGE_CSV = ("id,tstart,tstop,status,treated,age\n1,0,1,1,0,50\n2,0,2,1,0,62\n"
            "3,0,3,0,0,55\n4,0,4,1,0,70\n5,0,5,1,0,45\n")


class TestNonFiniteModelInputs:
    """A non-finite number in a model file or a profile is a data error:
    exit 3 with one JSON line and no curve."""

    @pytest.fixture
    def fit_dir(self, tmp_path):
        data = tmp_path / "age.csv"
        data.write_text(_AGE_CSV)
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--strategy", "hypothetical",
                    "--covariates", "age", "--out", str(out)]) == 0
        return out

    def assert_exits_3(self, argv, tmp_path, capsys, message):
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "p")]) == 3
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "DataError"
        assert message in err["message"]
        assert not (tmp_path / "p" / "curve.csv").exists()

    @pytest.mark.parametrize("where, value, message", [
        pytest.param(("baseline_cumhaz", 0, 1), math.nan, "baseline_cumhaz",
                     id="nan-increment"),
        pytest.param(("coefficients", "age"), math.nan, "coefficients",
                     id="nan-coefficient"),
        pytest.param(("baseline_cumhaz", 0, 0), math.nan, "baseline_cumhaz",
                     id="nan-baseline-time"),
        pytest.param(("coefficients", "age"), math.inf, "coefficients",
                     id="inf-coefficient"),
        pytest.param(("information", 0, 0), math.nan, "information",
                     id="nan-information"),
    ])
    def test_non_finite_model_file_exits_3(self, fit_dir, tmp_path, capsys,
                                           where, value, message):
        model = json.loads((fit_dir / "model.json").read_text())
        *keys, last = where
        functools.reduce(operator.getitem, keys, model)[last] = value
        (fit_dir / "model.json").write_text(json.dumps(model))
        self.assert_exits_3(["predict", "--run", str(fit_dir), "--profile", "age=50"],
                            tmp_path, capsys, f"{message} must hold finite numbers")

    @pytest.mark.parametrize("key, value, message", [
        ("ties", "bogus", "ties must be 'efron' or 'breslow', got 'bogus'"),
        ("event_code", "x", "event_code must be one of [1, 2], got 'x'"),
        ("event_code", 0, "event_code must be one of [1, 2], got 0"),
        ("event_code", 1.0, "event_code must be one of [1, 2], got 1.0"),
    ], ids=["bogus-ties", "text-event-code", "censored-event-code", "float-event-code"])
    def test_unknown_ties_or_event_code_exits_3(self, fit_dir, tmp_path, capsys,
                                                key, value, message):
        model = json.loads((fit_dir / "model.json").read_text())
        model[key] = value
        (fit_dir / "model.json").write_text(json.dumps(model))
        self.assert_exits_3(["predict", "--run", str(fit_dir), "--profile", "age=50"],
                            tmp_path, capsys, message)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_profile_exits_3(self, fit_dir, tmp_path, capsys, value):
        self.assert_exits_3(["predict", "--run", str(fit_dir), "--profile", f"age={value}"],
                            tmp_path, capsys, "covariate 'age' is not finite")


class TestModelsWithoutAValidCurve:
    """A model file whose baseline no fit writes is a data error at read
    (exit 3); a profile or coefficient whose hazard overflows is a numeric
    error (exit 4). Either way: one JSON line, an empty stderr and no
    curve."""

    @pytest.fixture
    def fit_dir(self, s2_data, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(s2_data), "--strategy", "composite",
                    "--covariates", "z", "--out", str(out)]) == 0
        return out

    def edit_model(self, fit_dir, edit):
        model = json.loads((fit_dir / "model.json").read_text())
        edit(model)
        (fit_dir / "model.json").write_text(json.dumps(model))

    def assert_exits(self, fit_dir, tmp_path, capsys, profile, code, error, message):
        capsys.readouterr()
        assert run(["predict", "--run", str(fit_dir), "--profile", profile,
                    "--horizon", "5", "--out", str(tmp_path / "p")]) == code
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        err = json.loads(stdout)
        assert err["error"] == error
        assert message in err["message"]
        assert not (tmp_path / "p" / "curve.csv").exists()

    @pytest.mark.parametrize("value", ["700", "1e300"])
    def test_overflowing_profile_exits_4(self, fit_dir, tmp_path, capsys, value):
        self.assert_exits(fit_dir, tmp_path, capsys, f"z={value}", 4, "NumericError",
                          f"the cumulative hazard at profile {{'z': {float(value)!r}}} "
                          "overflows")

    def test_overflowing_coefficient_exits_4(self, fit_dir, tmp_path, capsys):
        self.edit_model(fit_dir, lambda m: m["coefficients"].update(z=1e308))
        self.assert_exits(fit_dir, tmp_path, capsys, "z=1", 4, "NumericError",
                          "the cumulative hazard at profile {'z': 1.0} overflows")

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda m: m.update(baseline_cumhaz=[]),
                     "baseline_cumhaz has 0 jump times, but the model has 192 events",
                     id="empty-baseline"),
        pytest.param(lambda m: m.update(n_events=len(m["baseline_cumhaz"]) - 1),
                     "jump times, but the model has", id="more-jump-times-than-events"),
        pytest.param(lambda m: m["baseline_cumhaz"][-1].__setitem__(1, -1e-9),
                     "baseline_cumhaz increments must be nonnegative",
                     id="negative-increment"),
    ])
    def test_baseline_no_fit_writes_exits_3(self, fit_dir, tmp_path, capsys, edit,
                                            message):
        self.edit_model(fit_dir, edit)
        self.assert_exits(fit_dir, tmp_path, capsys, "z=0", 3, "DataError", message)

    def test_large_finite_hazard_still_predicts(self, fit_dir, tmp_path, capsys):
        # the hazard at z = 600 is huge but finite: every risk after the
        # first event time is 1
        capsys.readouterr()
        assert run(["predict", "--run", str(fit_dir), "--profile", "z=600",
                    "--horizon", "5", "--out", str(tmp_path / "p")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "p" / "curve.csv").exists()


class TestRejectedBeforeRunning:
    """Inputs that ``validate`` and ``simulate`` reject before they simulate."""

    BASE = {"validate": ["--scenario", "s1", "--n", "20", "--seeds", "1",
                         "--mc-reps", "1000"],
            "simulate": ["--scenario", "s1", "--n", "20", "--seed", "1"]}

    @pytest.mark.parametrize("command, extra, message", [
        ("validate", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("validate", ["--seeds", "0"], "--seeds must be >= 1, got 0"),
        ("validate", ["--seeds", "-3"], "--seeds must be >= 1, got -3"),
        ("simulate", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ], ids=["validate-negative-seed", "zero-seeds", "negative-seeds",
            "simulate-negative-seed"])
    def test_exits_2(self, tmp_path, capsys, command, extra, message):
        out = tmp_path / "out"
        code = run([command] + self.BASE[command] + extra + ["--out", str(out)])
        assert code == 2
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        err = json.loads(stdout)
        assert err["error"] == "UsageError"
        assert message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_n_over_the_cap_exits_2(self, tmp_path, monkeypatch, capsys, command):
        # nothing may be drawn or allocated and no truth process started
        calls = []
        fail = lambda *args, **kwargs: calls.append(args) or 1 / 0  # noqa: E731
        for attr in ("_draw", "_in_child"):
            monkeypatch.setattr(simulate, attr, fail)
        if command == "validate":
            monkeypatch.setattr(simulate, "simulate_trajectories", fail)
        argv = {"validate": ["--scenario", "s2", "--seeds", "1", "--mc-reps", "1000"],
                "simulate": ["--scenario", "s2", "--seed", "1"]}[command]
        out = tmp_path / "out"
        code = run([command] + argv + ["--n", str(2**62), "--out", str(out)])
        assert (code, calls) == (2, [])
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        assert json.loads(stdout) == {
            "error": "ScenarioError",
            "message": f"n must be between 1 and 2**32, got {2**62}"}
        assert not out.exists()

    @pytest.mark.parametrize("seeds", [2**20 + 1, 2**62, 2**63])
    def test_seeds_over_the_cap_exits_2(self, tmp_path, monkeypatch, capsys, seeds):
        # before the seeds are listed: at 2**63 range() overflowed, and 2**62
        # seeds do not fit in memory
        calls = []
        fail = lambda *args, **kwargs: calls.append(args) or 1 / 0  # noqa: E731
        for attr in ("simulate", "_truth_hits", "_in_child"):
            monkeypatch.setattr(simulate, attr, fail)
        out = tmp_path / "out"
        code = run(["validate"] + self.BASE["validate"] + ["--seeds", str(seeds),
                                                          "--out", str(out)])
        assert (code, calls) == (2, [])
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        assert json.loads(stdout) == {
            "error": "UsageError", "message": f"--seeds must be at most 2**20, got {seeds}"}
        assert simulate.MAX_SEEDS == 2**20
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_mc_reps_out_of_range_on_an_analytic_truth_exits_2(self, tmp_path, capsys,
                                                               reps):
        # s1's truth is analytic and never reads mc_reps
        out = tmp_path / "out"
        code = run(["validate"] + self.BASE["validate"] + ["--mc-reps", reps,
                                                          "--out", str(out)])
        assert code == 2
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        assert json.loads(stdout) == {
            "error": "ScenarioError",
            "message": f"mc_reps must be between 1 and 2**32, got {reps}"}
        assert not out.exists()

    def test_grid_over_the_cap_exits_2(self, tmp_path, capsys):
        # 10 / 0.001 gives 10,001 points, one over the cap
        scenario = tmp_path / "fine.json"
        scenario.write_text(json.dumps({
            "admin_censor": 10.0, "grid_step": 0.001,
            "treatment": {"base": 0.1}, "death_untreated": {"base": 0.2},
            "death_treated": {"base": 0.05}}))
        out = tmp_path / "out.csv"
        code = run(["simulate", "--scenario", str(scenario), "--n", "5",
                    "--seed", "1", "--out", str(out)])
        assert code == 2
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        err = json.loads(stdout)
        assert err["error"] == "ScenarioError"
        assert "grid of 10001 points" in err["message"]
        assert not out.exists()

    def test_mc_reps_over_the_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        # s2's truth is Monte Carlo; past 2**32 reps a block root would overflow
        blocks = []
        monkeypatch.setattr(simulate, "simulate_trajectories",
                            lambda *args, **kwargs: blocks.append(args) or 1 / 0)
        out = tmp_path / "out.json"
        code = run(["validate", "--scenario", "s2", "--n", "20", "--seeds", "1",
                    "--mc-reps", "5000000000", "--out", str(out)])
        assert (code, blocks) == (2, [])
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        assert json.loads(stdout) == {
            "error": "ScenarioError",
            "message": "mc_reps must be between 1 and 2**32, got 5000000000"}
        assert not out.exists()


class TestFitPredict:
    def test_while_untreated_writes_both_models(self, d4_csv, tmp_path):
        out = tmp_path / "wu"
        assert run(["fit", "--data", str(d4_csv), "--strategy",
                    "while-untreated", "--out", str(out)]) == 0
        assert (out / "model_event.json").exists()
        assert (out / "model_treatment.json").exists()
        run_echo = json.loads((out / "run.json").read_text())
        assert run_echo["command"] == "fit"
        assert run_echo["models"] == {"event": "model_event.json",
                                      "treatment": "model_treatment.json"}

    def test_predict_d4_while_untreated(self, d4_csv, tmp_path):
        out = tmp_path / "wu"
        assert run(["fit", "--data", str(d4_csv), "--strategy",
                    "while-untreated", "--out", str(out)]) == 0
        pred = tmp_path / "pred"
        assert run(["predict", "--run", str(out), "--horizon", "4",
                    "--out", str(pred)]) == 0
        report = json.loads((pred / "report.json").read_text())
        assert report["risk_at_horizon"] == pytest.approx(0.5, abs=1e-12)

    def test_predict_d1_profile(self, tmp_path):
        data = tmp_path / "d1.csv"
        data.write_text("id,tstart,tstop,status,treated,x\n"
                        "1,0,1,1,0,1\n2,0,2,1,0,0\n3,0,3,0,0,1\n4,0,4,1,0,0\n")
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--strategy", "hypothetical",
                    "--method", "censor", "--covariates", "x",
                    "--out", str(out)]) == 0
        pred = tmp_path / "pred"
        assert run(["predict", "--run", str(out), "--profile", "x=1",
                    "--horizon", "2", "--out", str(pred)]) == 0
        report = json.loads((pred / "report.json").read_text())
        curve = report["curve"]
        assert curve["risk"][0] == pytest.approx(1 - 0.746, abs=5e-4)

    def test_null_model_prediction_ignores_profile(self, d4_csv, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(d4_csv), "--strategy", "composite",
                    "--out", str(out)]) == 0
        plain, profiled = tmp_path / "p0", tmp_path / "p1"
        assert run(["predict", "--run", str(out), "--out", str(plain)]) == 0
        assert run(["predict", "--run", str(out), "--profile", "age=99",
                    "--out", str(profiled)]) == 0
        a = json.loads((plain / "report.json").read_text())["curve"]
        b = json.loads((profiled / "report.json").read_text())["curve"]
        assert a["risk"] == b["risk"]

    def test_predict_report_carries_diagnostics(self, s2_data, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(s2_data), "--strategy", "hypothetical",
                    "--method", "censor-ipcw", "--weight-covariates", "z",
                    "--horizon", "5", "--out", str(out)]) == 0
        pred = tmp_path / "pred"
        assert run(["predict", "--run", str(out), "--out", str(pred)]) == 0
        report = json.loads((pred / "report.json").read_text())
        assert report["strategy"] == "hypothetical:censor-ipcw"
        assert "n_events" in report["diagnostics"]["models"]["main"]
        assert "ess" in report["diagnostics"]["weights"]

    def test_label_coded_profile_round_trip(self, tmp_path):
        data = tmp_path / "lv.csv"
        data.write_text("id,tstart,tstop,status,treated,dialysis\n"
                        "1,0,1,1,0,HD\n2,0,2,1,0,PD\n3,0,3,0,0,HD\n"
                        "4,0,4,1,0,PD\n5,0,5,1,0,HD\n")
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--strategy", "ignore",
                    "--covariates", "dialysis", "--levels", "dialysis=HD|PD",
                    "--out", str(out)]) == 0
        by_label, by_code = tmp_path / "p0", tmp_path / "p1"
        assert run(["predict", "--run", str(out), "--profile", "dialysis=PD",
                    "--out", str(by_label)]) == 0
        assert run(["predict", "--run", str(out), "--profile", "dialysis=1",
                    "--out", str(by_code)]) == 0
        a = json.loads((by_label / "report.json").read_text())
        b = json.loads((by_code / "report.json").read_text())
        assert a["curve"]["risk"] == b["curve"]["risk"]
        assert a["profile"] == {"dialysis": 1.0}

    def test_horizon_beyond_data_warns(self, d4_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(d4_csv), "--strategy", "composite",
                    "--out", str(out)]) == 0
        assert run(["predict", "--run", str(out), "--horizon", "40",
                    "--out", str(tmp_path / "p")]) == 0
        assert "flat" in capsys.readouterr().err

    def test_horizon_before_first_event_gives_zero_risk(self, tmp_path):
        data = tmp_path / "late.csv"
        data.write_text("id,tstart,tstop,status,treated\n"
                        "1,0,3,1,0\n2,0,4,0,0\n3,0,5,1,0\n")
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--strategy", "ignore",
                    "--horizon", "1", "--out", str(out)]) == 0
        pred = tmp_path / "pred"
        assert run(["predict", "--run", str(out), "--out", str(pred)]) == 0
        report = json.loads((pred / "report.json").read_text())
        assert report["risk_at_horizon"] == 0
        assert report["curve"]["time"] == []

    def test_ipcw_fit_writes_weights(self, s2_data, tmp_path):
        out = tmp_path / "ipcw"
        assert run(["fit", "--data", str(s2_data), "--strategy", "hypothetical",
                    "--method", "censor-ipcw", "--weight-covariates", "z",
                    "--out", str(out)]) == 0
        assert (out / "weights.csv").exists()
        diag = json.loads((out / "weights_diagnostics.json").read_text())
        assert diag["n_rows"] > 0

    def test_all_strategies_overlay(self, s2_data, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(s2_data), "--strategy", "hypothetical",
                    "--method", "censor", "--horizon", "5",
                    "--out", str(out)]) == 0
        pred = tmp_path / "overlay"
        assert run(["predict", "--run", str(out), "--all-strategies",
                    "--out", str(pred)]) == 0
        overlay = (pred / "overlay.csv").read_text().splitlines()
        assert overlay[0] == "strategy,time,risk"
        strategies = {line.split(",")[0] for line in overlay[1:]}
        assert strategies == {"ignore", "composite", "while-untreated",
                              "hypothetical"}
        # plain parseable floats in every cell
        for line in overlay[1:]:
            _, t, r = line.split(",")
            assert 0.0 <= float(r) <= 1.0 and float(t) >= 0.0


    @pytest.mark.parametrize("strategy, models", [
        ("composite", {"other": "model.json"}),
        ("composite", {"main": "model.json", "event": "model.json"}),
        ("while-untreated", {"main": "model_event.json"}),
        ("while-untreated", {"treatment": "model_treatment.json"}),
    ], ids=["composite-other", "composite-extra", "wu-main", "wu-no-event"])
    def test_predict_unexpected_model_names_exit_3(self, d4_csv, tmp_path, capsys,
                                                   strategy, models):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(d4_csv), "--strategy", strategy,
                    "--out", str(out)]) == 0
        echo = json.loads((out / "run.json").read_text())
        (out / "run.json").write_text(json.dumps({**echo, "models": models}))
        capsys.readouterr()
        assert run(["predict", "--run", str(out), "--out", str(tmp_path / "p")]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "DataError"
        assert f"lists models {sorted(models)}" in err["message"]

    @pytest.mark.parametrize("profile, error", [
        ("x=nan", "DataError"), ("x=inf", "DataError"), ("other=1", "ProfileIncomplete")])
    def test_all_strategies_unusable_profile_exits_3(self, tmp_path, capsys, profile,
                                                     error):
        data = tmp_path / "d1.csv"
        data.write_text("id,tstart,tstop,status,treated,x\n"
                        "1,0,1,1,0,1\n2,0,2,1,0,0\n3,0,3,0,0,1\n4,0,4,1,0,0\n")
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--strategy", "hypothetical",
                    "--covariates", "x", "--out", str(out)]) == 0
        for extra in ([], ["--all-strategies"]):
            pred = tmp_path / f"pred{len(extra)}"
            capsys.readouterr()
            assert run(["predict", "--run", str(out), "--profile", profile,
                        "--out", str(pred)] + extra) == 3
            assert json.loads(capsys.readouterr().out)["error"] == error
            assert not (pred / "overlay.csv").exists()


@pytest.fixture
def reads(monkeypatch):
    """The paths ``data._read`` is called with."""
    calls, read = [], data_mod._read
    monkeypatch.setattr(data_mod, "_read", lambda path: calls.append(path) or read(path))
    return calls


class TestOneRead:
    @pytest.mark.parametrize("argv, n_reads", [
        (["fit", "--strategy", "hypothetical", "--method", "censor-ipcw",
          "--weight-covariates", "z"], 1),
        (["weights", "--weight-covariates", "z"], 1),
        (["fit", "--strategy", "ignore", "--levels", "z=lo|hi"], 1),
    ], ids=["fit", "weights", "fit-levels"])
    def test_reads_per_command(self, s2_data, tmp_path, reads, argv, n_reads):
        out = tmp_path / "o"
        assert run(argv[:1] + ["--data", str(s2_data), "--out", str(out)] + argv[1:]) == 0
        assert len(reads) == n_reads

    def test_unknown_level_name_exits_3_after_one_read(self, s2_data, tmp_path, reads,
                                                        capsys):
        capsys.readouterr()
        assert run(["fit", "--data", str(s2_data), "--strategy", "ignore", "--levels",
                    "q=lo|hi", "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": "DataError", "message": "levels declared for unknown covariate 'q'"}
        assert reads == [str(s2_data)]

    def test_all_strategies_reads_once(self, s2_data, tmp_path, reads, monkeypatch):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(s2_data), "--strategy", "composite",
                    "--out", str(out)]) == 0
        # an empty cache, without the entry the fit stored
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh"))
        reads.clear()
        assert run(["predict", "--run", str(out), "--all-strategies",
                    "--out", str(tmp_path / "p")]) == 0
        assert reads == [str(s2_data)]
        # the entry that read stored serves the next one
        reads.clear()
        assert run(["predict", "--run", str(out), "--all-strategies",
                    "--out", str(tmp_path / "p2")]) == 0
        assert reads == []
        assert ((tmp_path / "p" / "overlay.csv").read_bytes()
                == (tmp_path / "p2" / "overlay.csv").read_bytes())


@pytest.fixture
def slot_builds(monkeypatch):
    """The number of rows of each ``cox._slots`` call, in order."""
    calls, slots = [], cox._slots
    monkeypatch.setattr(cox, "_slots", lambda times, start, stop: calls.append(
        start.size) or slots(times, start, stop))
    return calls


class TestSlotBuilds:
    """The strategies fitted on one dataset share its views and risk-set
    slots: one build per view and status code."""

    FITS = {
        "ignore": (["--strategy", "ignore"], 1),
        "composite": (["--strategy", "composite"], 1),
        "while-untreated": (["--strategy", "while-untreated"], 2),
        "censor": (["--strategy", "hypothetical", "--method", "censor"], 1),
        "model": (["--strategy", "hypothetical", "--method", "model"], 1),
        "censor-ipcw": (["--strategy", "hypothetical", "--method", "censor-ipcw",
                         "--weight-covariates", "z"], 2),
        "model-iptw": (["--strategy", "hypothetical", "--method", "model-iptw",
                        "--weight-covariates", "z"], 3),
    }

    def test_replicate_builds_four(self, slot_builds):
        """An s2 replicate (n = 2000) by ignore, composite, while-untreated,
        censor and censor-ipcw on z, the five strategies of the s2-validate
        benchmark: the full, split and composed rows over the event times,
        and the split rows over the treatment starts."""
        S, H = Strategy, HypotheticalMethod
        specs = [StrategySpec(S.IGNORE_TREATMENT, 5.0), StrategySpec(S.COMPOSITE, 5.0),
                 StrategySpec(S.WHILE_UNTREATED, 5.0),
                 StrategySpec(S.HYPOTHETICAL, 5.0, hypothetical_method=H.CENSOR_BASELINE),
                 StrategySpec(S.HYPOTHETICAL, 5.0, hypothetical_method=H.CENSOR_IPCW,
                              weight_covariates=("z",))]
        ds = simulate.simulate(scenarios.builtin("s2"), 2000, 1)
        for spec in specs:
            estimate(ds, spec)
        base, composed = data_mod.split_at_treatment(ds), data_mod.compose_outcome(ds)
        assert sorted(slot_builds) == sorted(
            [ds.n_rows, composed.n_rows, base.n_rows, base.n_rows])

    def test_cli_operation_builds_fifteen(self, s2_data, tmp_path, slot_builds):
        """The 15 commands of an s2-cli benchmark operation: each reads its
        dataset anew, so each command builds its own."""
        builds = {}
        for label, (extra, _) in self.FITS.items():
            assert run(["fit", "--data", str(s2_data), "--horizon", "5",
                        "--out", str(tmp_path / label)] + extra) == 0
            builds[label], slot_builds[:] = len(slot_builds), []
        for label in self.FITS:
            assert run(["predict", "--run", str(tmp_path / label),
                        "--out", str(tmp_path / f"predict-{label}")]) == 0
        assert slot_builds == []
        assert run(["predict", "--run", str(tmp_path / "censor-ipcw"), "--all-strategies",
                    "--out", str(tmp_path / "all")]) == 0
        assert builds == {label: n for label, (_, n) in self.FITS.items()}
        assert len(slot_builds) == 4
        assert sum(builds.values()) + len(slot_builds) == 15


class TestByteOrderMark:
    def test_marked_file_reads_as_the_unmarked_one(self, s2_data, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark, as spreadsheets save
        "CSV UTF-8", gives the same dataset, schema and fit as without it."""
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + s2_data.read_bytes())
        assert data_mod.ingest_csv(marked) == data_mod.ingest_csv(s2_data)
        assert data_mod.infer_schema(marked) == data_mod.infer_schema(s2_data)

        def fit(path):
            out = tmp_path / f"fit-{path.stem}"
            assert run(["fit", "--data", str(path), "--strategy", "hypothetical",
                        "--method", "censor-ipcw", "--weight-covariates", "z",
                        "--out", str(out)]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            echo = json.loads(files.pop("run.json"))
            return files, {k: v for k, v in echo.items() if k not in ("data", "out")}

        assert fit(marked) == fit(s2_data)


class TestSeedValues:
    """``--seed`` values on both sides of the 32-, 64- and 128-bit word
    boundaries of SeedSequence's entropy give the per-subject reference
    simulator's output; a negative seed is a usage error (TestUsageErrors)."""

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1, 2**130])
    def test_simulate(self, tmp_path, capsys, seed):
        out, ref = tmp_path / "s.csv", tmp_path / "ref.csv"
        assert run(["simulate", "--scenario", "s2", "--n", "25", "--seed", str(seed),
                    "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        data_mod.write_csv(reference_simulate(scenarios.builtin("s2"), 25, seed), ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1, 2**130])
    def test_validate(self, tmp_path, monkeypatch, seed):
        argv = ["validate", "--scenario", "s2", "--n", "40", "--seeds", "1",
                "--seed", str(seed), "--mc-reps", "30", "--tolerance", "1",
                "--strategies", "composite,ignore"]
        ours, theirs = tmp_path / "ours.json", tmp_path / "ref.json"
        assert run(argv + ["--out", str(ours)]) == 0
        truth = reference_risks(scenarios.builtin("s2"), {}, 5.0, 30, 977_001)
        report = json.loads(ours.read_text())
        assert report["seeds"] == [seed]
        assert {label: entry["truth"] for label, entry in report["strategies"].items()} == {
            "composite": truth["composite"], "ignore": truth["ignore"]}
        monkeypatch.setattr(simulate, "simulate", reference_simulate)
        assert run(argv + ["--out", str(theirs)]) == 0
        assert ours.read_bytes() == theirs.read_bytes()


class TestSimulateDeterminism:
    def test_identical_files_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "--scenario", "s1", "--n", "200",
                        "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--scenario", "s2", "--n", "100", "--seed", "5",
                    "--out", str(a), "--workers", "1"]) == 0
        assert run(["simulate", "--scenario", "s2", "--n", "100", "--seed", "5",
                    "--out", str(b), "--workers", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scenario_file_equals_builtin(self, tmp_path):
        from predictimands import scenarios
        ref = tmp_path / "s1.json"
        ref.write_text(json.dumps(dict(scenarios.BUILTIN["s1"])))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--scenario", "s1", "--n", "50", "--seed", "2",
                    "--out", str(a)]) == 0
        assert run(["simulate", "--scenario", str(ref), "--n", "50",
                    "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_echo_reproduces_run(self, tmp_path):
        a = tmp_path / "a.csv"
        assert run(["simulate", "--scenario", "s1", "--n", "60", "--seed", "4",
                    "--out", str(a)]) == 0
        first = a.read_bytes()
        echo = json.loads((tmp_path / "a.csv.run.json").read_text())
        echo.pop("scenario_spec")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(echo))
        assert run(["simulate", "--config", str(cfg)]) == 0
        assert a.read_bytes() == first


class TestValidate:
    def test_smoke_validate_passes_loose_tolerance(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run(["validate", "--scenario", "s1", "--n", "400", "--seeds", "2",
                    "--t-hor", "5", "--tolerance", "0.2", "--mc-reps", "1000",
                    "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["all_passed"]
        assert set(report["strategies"]) == {"ignore", "composite",
                                             "while-untreated",
                                             "hypothetical:censor"}

    def test_validate_fails_with_nonzero_exit(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(["validate", "--scenario", "s1", "--n", "50", "--seeds", "1",
                    "--t-hor", "5", "--tolerance", "1e-9", "--mc-reps", "1000",
                    "--out", str(report_path)])
        assert code == 1


    @pytest.mark.parametrize("profile", ["z=3", "bogus=3"])
    def test_profile_outside_the_baseline_covariates_exits_2(self, tmp_path, capsys,
                                                             profile):
        capsys.readouterr()
        code = run(["validate", "--scenario", "s2", "--n", "50", "--seeds", "1",
                    "--profile", profile, "--mc-reps", "100",
                    "--out", str(tmp_path / "report.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ScenarioError"
        assert "not baseline covariates" in err["message"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.01"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, tolerance):
        report_path = tmp_path / "report.json"
        code = run(["validate", "--scenario", "s1", "--n", "50", "--seeds", "1",
                    "--mc-reps", "1000", f"--tolerance={tolerance}",
                    "--out", str(report_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert (len(out.splitlines()), err) == (1, "")
        assert json.loads(out)["error"] == "UsageError"
        assert "--tolerance" in json.loads(out)["message"]
        assert not report_path.exists()

    @pytest.mark.parametrize("t_hor, error, message", [
        *[(value, "UsageError", "--t-hor must be positive and finite")
          for value in ("0", "-1", "nan", "inf")],
        ("7", "ScenarioError", "t_hor must not exceed the scenario's admin_censor")])
    def test_bad_horizon_exits_2(self, tmp_path, capsys, t_hor, error, message):
        report_path = tmp_path / "report.json"
        code = run(["validate", "--scenario", "s2", "--n", "50", "--seeds", "1",
                    "--mc-reps", "100", f"--t-hor={t_hor}", "--out", str(report_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert (len(out.splitlines()), err) == (1, "")
        assert json.loads(out)["error"] == error
        assert message in json.loads(out)["message"]
        assert not report_path.exists()


class TestValidateOptionValues:
    """Each numeric option of ``validate`` given each of a fixed list of
    edge values, one at a time, on a tiny base run: every case exits 0, 1,
    2 or 3 and none raises or warns. A 2 or 3 from the package is one JSON
    line on stdout and nothing on stderr; argparse's own type errors exit 2
    with its usage on stderr. No edge value is a valid ``--t-hor``, and each
    is a usage error (exit 2), never a data error."""

    BASE = ["validate", "--scenario", "s2", "--n", "10", "--seeds", "1", "--mc-reps", "100",
            "--strategies", "composite"]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "", str(2**63)])
    @pytest.mark.parametrize("option", ["--n", "--seeds", "--mc-reps", "--t-hor",
                                        "--tolerance", "--seed"])
    def test_exits_0_to_3(self, tmp_path, capfd, option, value):
        out = tmp_path / "report.json"
        parsed = True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = run(self.BASE + [f"{option}={value}", "--out", str(out)])
            except SystemExit as exc:
                code, parsed = exc.code, False
        stdout, stderr = capfd.readouterr()
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2, 3)
        if option == "--t-hor":
            assert code == 2
        if not parsed:
            assert (code, stdout) == (2, "")
            assert stderr.startswith("usage: predictimands validate")
        elif code in (2, 3):
            assert (len(stdout.splitlines()), stderr) == (1, "")
            assert set(json.loads(stdout)) == {"error", "message"}
            assert not out.exists()
        else:
            assert stderr == ""
            assert json.loads(out.read_text())["all_passed"] == (code == 0)


class TestOptionValues:
    """The numeric options of ``fit``, ``predict``, ``simulate`` and
    ``weights`` given ``TestValidateOptionValues``'s edge values, one at a
    time, on one shared n = 200 file: every case exits 0, 2 or 3. A 2 or 3
    from the package is one JSON line on stdout, nothing on stderr and no
    output; argparse's own type errors exit 2 with its usage on stderr. A
    simulation past its cap draws nothing. On success the only warning is
    the positivity warning and stderr holds at most the horizon note."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("option-values")
        data_mod.write_csv(simulate.simulate(scenarios.builtin("s2"), 200, 1), work / "s2.csv")
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
            patch.setenv("XDG_CACHE_HOME", str(work / "cache"))
            assert run(self.base("fit", work) + ["--out", str(work / "run")]) == 0
        return work

    @staticmethod
    def base(command, work) -> list:
        return {
            "fit": ["fit", "--data", str(work / "s2.csv"), "--strategy", "hypothetical",
                    "--method", "model-iptw", "--weight-covariates", "z"],
            "predict": ["predict", "--run", str(work / "run")],
            "simulate": ["simulate", "--scenario", "s2", "--n", "200", "--seed", "1"],
            "weights": ["weights", "--data", str(work / "s2.csv"), "--weight-covariates", "z"],
        }[command]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "", str(2**63)])
    @pytest.mark.parametrize("command, option", [
        ("fit", "--horizon"), ("fit", "--tv-cuts"), ("fit", "--truncate-weights"),
        ("predict", "--horizon"), ("simulate", "--n"), ("simulate", "--seed"),
        ("weights", "--truncate-weights")])
    def test_exits_0_2_or_3(self, work, tmp_path, capfd, monkeypatch, command, option,
                            value):
        out = tmp_path / ("out.csv" if command == "simulate" else "out")
        drawn = []
        draw = simulate._draw
        monkeypatch.setattr(simulate, "_draw", lambda spec, n, root: (
            drawn.append(n), draw(spec, n, root))[1])
        parsed = True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = run(self.base(command, work) + [f"{option}={value}", "--out", str(out)])
            except SystemExit as exc:
                code, parsed = exc.code, False
        stdout, stderr = capfd.readouterr()
        assert code in (0, 2, 3)
        assert {type(w.message).__name__ for w in caught} <= (
            {"PositivityWarning"} if code == 0 else set())
        if not parsed:
            assert (code, stdout) == (2, "")
            assert stderr.startswith(f"usage: predictimands {command}")
        elif code in (2, 3):
            assert (len(stdout.splitlines()), stderr) == (1, "")
            assert set(json.loads(stdout)) == {"error", "message"}
            assert not out.exists()
            assert drawn == []
        else:
            assert out.exists()
            assert drawn == ([200] if command == "simulate" else [])
            assert stderr == "" or (command == "predict"
                                    and stderr.startswith("warning: horizon "))


class TestWeightsCommand:
    def test_weight_export(self, s2_data, tmp_path):
        out = tmp_path / "w"
        assert run(["weights", "--data", str(s2_data), "--weight-covariates",
                    "z", "--mode", "ipcw", "--out", str(out)]) == 0
        lines = (out / "weights.csv").read_text().splitlines()
        assert lines[0] == "id,tstart,tstop,weight"
        assert len(lines) > 1
        diag = json.loads((out / "weights_diagnostics.json").read_text())
        assert "ess" in diag

    def test_truncation_flag(self, s2_data, tmp_path):
        out = tmp_path / "w"
        assert run(["weights", "--data", str(s2_data), "--weight-covariates",
                    "z", "--truncate-weights", "5,95", "--out", str(out)]) == 0
        weights = [float(line.split(",")[3]) for line in
                   (out / "weights.csv").read_text().splitlines()[1:]]
        diag = json.loads((out / "weights_diagnostics.json").read_text())
        assert diag["max"] == pytest.approx(max(weights))

    def test_ids_written_exactly(self, tmp_path):
        """``1`` and ``"1\\x00"`` are two subjects, and each row of
        weights.csv carries its data row's id, from a parse and from a hit."""
        data = tmp_path / "nul.csv"
        data.write_text('id,tstart,tstop,status,treated,z\n1,0,1,2,0,0.5\n1,1,3,1,1,0.5\n'
                        '"1\x00",0,2,2,0,1.5\n"1\x00",2,4,0,1,1.5\n2,0,1.5,1,0,-1\n'
                        '3,0,2.5,2,0,2\n3,2.5,3.5,1,1,2\n4,0,5,0,0,0\n')
        with open(data, newline="") as fh:
            ids = [row[0] for row in csv.reader(fh)][1:]
        for out in ("cold", "warm"):
            assert run(["weights", "--data", str(data), "--weight-covariates", "z",
                        "--mode", "iptw", "--out", str(tmp_path / out)]) == 0
            with open(tmp_path / out / "weights.csv", newline="") as fh:
                assert [row[0] for row in csv.reader(fh)][1:] == ids


def edit_z(path, out, edit):
    """Copy the simulated CSV at ``path`` to ``out`` with ``edit(row, fields)``
    applied to the fields of each data row, ``row`` counted from 0; it
    returns the row's new ``z`` field or None to keep it."""
    lines = Path(path).read_bytes().split(b"\r\n")
    header = lines[0].decode().split(",")
    z = header.index("z")
    for i, line in enumerate(lines[1:-1], 1):
        fields = dict(zip(header, line.decode().split(",")))
        value = edit(i - 1, fields)
        if value is not None:
            lines[i] = b",".join(value.encode() if j == z else f
                                 for j, f in enumerate(line.split(b",")))
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_bytes(b"\r\n".join(lines))


class TestPostStartOutlier:
    """s2 (n = 300, seed 1) with the z of its first treated row set to 1000.
    IPTW fits and weights read no covariate after a treatment start, so both
    commands write what they write for the unedited file, with an empty
    stderr; a value on a row they use whose hazard overflows exp is a
    NumericError."""

    @pytest.fixture
    def s2_seed1(self, tmp_path):
        path = tmp_path / "unedited" / "s2.csv"
        assert run(["simulate", "--scenario", "s2", "--n", "300", "--seed", "1",
                    "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("argv", [
        ["weights", "--mode", "iptw", "--weight-covariates", "z"],
        ["fit", "--strategy", "hypothetical", "--method", "model-iptw",
         "--weight-covariates", "z"]], ids=["weights", "fit"])
    def test_outputs_match_unedited(self, s2_seed1, tmp_path, monkeypatch, capsys, argv):
        with open(s2_seed1, newline="") as fh:
            first = next(r for r, row in enumerate(csv.DictReader(fh)) if row["treated"] == "1")
        edit_z(s2_seed1, tmp_path / "edited" / "s2.csv",
               lambda row, fields: "1000" if row == first else None)
        outputs = []
        for name in ("unedited", "edited"):
            # relative paths, so that run.json and stdout echo the same names
            monkeypatch.chdir(tmp_path / name)
            capsys.readouterr()
            assert run(argv + ["--data", "s2.csv", "--out", "out"]) == 0
            stdout, stderr = capsys.readouterr()
            assert stderr == ""
            outputs.append((stdout, {p.name: p.read_bytes()
                                     for p in Path("out").iterdir()}))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode", ["ipcw", "iptw"])
    def test_overflowing_hazard_exits_4(self, s2_seed1, tmp_path, capsys, mode):
        # z measured from an origin 1000 below: beta z passes 709 on every row
        data = tmp_path / "shifted.csv"
        edit_z(s2_seed1, data, lambda row, fields: repr(float(fields["z"]) + 1000))
        capsys.readouterr()
        assert run(["weights", "--data", str(data), "--weight-covariates", "z",
                    "--mode", mode, "--out", str(tmp_path / "w")]) == 4
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        err = json.loads(stdout)
        assert err["error"] == "NumericError"
        assert err["message"].startswith("the cumulative hazard of subject 1 at {'z': ")


@functools.cache
def small_s2() -> bytes:
    """A simulated s2 file of 50 subjects."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "s2.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["simulate", "--scenario", "s2", "--n", "50", "--seed", "2",
                        "--out", str(path)]) == 0
        return path.read_bytes()


#: a z field far out, not finite or empty
Z_VALUES = ["0", "1000", "-1000", "1e6", "-1e6", "1e300", "-1e300", "nan", "inf", "-inf", ""]


def small_s2_edited(work, row, value):
    """``small_s2`` in ``work`` with the z of data row ``row`` (modulo the
    number of rows) set to ``value``."""
    (work / "s2.csv").write_bytes(small_s2())
    n_rows = small_s2().count(b"\r\n") - 1
    edit_z(work / "s2.csv", work / "edited.csv",
           lambda r, fields: value if r == row % n_rows else None)
    return work / "edited.csv"


def contract_run(argv) -> int:
    """Exit code of ``argv``, asserting an empty stderr, no warning and, for
    exit 3 or 4, one JSON line on stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(argv)
    assert (stderr.getvalue(), [str(w.message) for w in caught]) == ("", [])
    if code != 0:
        assert code in (3, 4)
        assert set(json.loads(stdout.getvalue())) == {"error", "message"}
        assert len(stdout.getvalue().splitlines()) == 1
    return code


class TestWeightsErrorContract:
    """``weights`` in both modes on a small s2 file with one z field edited
    to a value far out, not finite or empty: exit 0 with every weight
    finite, or exit 3 or 4 with one JSON line; stderr stays empty and no
    warning is raised."""

    @settings(max_examples=60, deadline=None)
    @given(row=st.integers(0, 10**6), value=st.sampled_from(Z_VALUES))
    def test_exit_0_with_finite_weights_or_3_or_4(self, tmp_path_factory, row, value):
        work = tmp_path_factory.mktemp("contract")
        data = small_s2_edited(work, row, value)
        for mode in ("ipcw", "iptw"):
            if contract_run(["weights", "--data", str(data), "--mode", mode,
                             "--weight-covariates", "z", "--out", str(work / mode)]) == 0:
                with open(work / mode / "weights.csv", newline="") as fh:
                    weights = [float(r["weight"]) for r in csv.DictReader(fh)]
                assert all(map(math.isfinite, weights))


class TestFitErrorContract:
    """``fit`` by each of the seven methods, z a covariate of the outcome
    model (of the weights only, for model-iptw, whose outcome model takes no
    time-varying covariate), on the edited files of
    ``TestWeightsErrorContract``: exit 0 with every model readable, or exit
    3 or 4 with one JSON line; stderr stays empty and no warning is raised.
    The methods share one dataset's views and slots within a command, and
    the error a command raises first is still its own."""

    METHODS = {
        "ignore": ["--strategy", "ignore", "--covariates", "z"],
        "composite": ["--strategy", "composite", "--covariates", "z"],
        "while-untreated": ["--strategy", "while-untreated", "--covariates", "z"],
        "censor": ["--strategy", "hypothetical", "--method", "censor", "--covariates", "z"],
        "model": ["--strategy", "hypothetical", "--method", "model", "--covariates", "z"],
        "censor-ipcw": ["--strategy", "hypothetical", "--method", "censor-ipcw",
                        "--covariates", "z", "--weight-covariates", "z"],
        "model-iptw": ["--strategy", "hypothetical", "--method", "model-iptw",
                       "--weight-covariates", "z"],
    }

    @settings(max_examples=20, deadline=None)
    @given(row=st.integers(0, 10**6), value=st.sampled_from(Z_VALUES))
    def test_exit_0_with_readable_models_or_3_or_4(self, tmp_path_factory, row, value):
        work = tmp_path_factory.mktemp("contract")
        data = small_s2_edited(work, row, value)
        for method, extra in self.METHODS.items():
            out = work / method
            if contract_run(["fit", "--data", str(data), "--out", str(out)] + extra) == 0:
                models = sorted(out.glob("model*.json"))
                assert models
                for path in models:
                    cox.CoxModel.from_dict(json.loads(path.read_text()))


class TestCollinearColumn:
    """s2 (n = 300, seed 1) with w = 2z + 1: the fits hold w, the later
    column of the aliased pair, at 0 and flag the model degenerate, where
    both commands used to exit 4."""

    @pytest.fixture
    def s2_with_copy(self, tmp_path):
        data = tmp_path / "s2.csv"
        assert run(["simulate", "--scenario", "s2", "--n", "300", "--seed", "1",
                    "--out", str(data)]) == 0
        rows = list(csv.reader(data.read_text().splitlines()))
        z = rows[0].index("z")
        out = tmp_path / "s2w.csv"
        out.write_text("\n".join(",".join(row + [name]) for row, name in zip(
            rows, ["w"] + [repr(2 * float(row[z]) + 1) for row in rows[1:]])) + "\n")
        return out

    def test_fit_holds_the_copy(self, s2_with_copy, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(s2_with_copy), "--strategy", "hypothetical",
                    "--method", "model", "--covariates", "z,w", "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert (model["coefficients"]["w"], model["degenerate"]) == (0.0, True)

    def test_weights_equal_those_without_the_copy(self, s2_with_copy, tmp_path):
        for covariates, out in (("z,w", tmp_path / "zw"), ("z", tmp_path / "z")):
            assert run(["weights", "--data", str(s2_with_copy), "--weight-covariates",
                        covariates, "--out", str(out)]) == 0
        zw, z = (np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1,
                            usecols=(1, 2, 3)) for out in (tmp_path / "zw", tmp_path / "z"))
        np.testing.assert_allclose(zw, z, rtol=1e-12, atol=0)


class TestConfigEcho:
    @pytest.fixture
    def fit_dir(self, d4_csv, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(d4_csv), "--strategy", "composite",
                    "--out", str(out)]) == 0
        return out

    def write_config(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        return cfg

    def test_fit_echo_rewrites_identical_files(self, fit_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_bytes((fit_dir / "run.json").read_bytes())
        before = {p.name: p.read_bytes() for p in fit_dir.iterdir()}
        assert run(["fit", "--config", str(cfg)]) == 0
        assert {p.name: p.read_bytes() for p in fit_dir.iterdir()} == before

    def test_explicit_flags_win(self, fit_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_bytes((fit_dir / "run.json").read_bytes())
        out = tmp_path / "again"
        assert run(["fit", "--config", str(cfg), "--tie", "breslow",
                    "--out", str(out)]) == 0
        echo = json.loads((out / "run.json").read_text())
        assert (echo["tie"], echo["out"]) == ("breslow", str(out))

    @pytest.mark.parametrize("text", ["[]", '"x"', '{"command": "predict"}'],
                             ids=["list", "string", "other-command"])
    def test_config_that_is_not_an_echo_of_the_command(self, d4_csv, tmp_path, capsys,
                                                       text):
        cfg = self.write_config(tmp_path, text)
        code = run(["fit", "--config", str(cfg), "--data", str(d4_csv),
                    "--strategy", "composite", "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "ConfigError",
            "message": f"{cfg} is not a run.json echo of 'fit'"}

    @pytest.mark.parametrize("echo, option", [
        ({"strategy": "bogus"}, "--strategy"),
        ({"strategy": "hypothetical", "method": "bogus"}, "--method"),
        ({"tie": "foo"}, "--tie"),
    ], ids=["strategy", "method", "tie"])
    def test_config_value_is_checked_like_a_flag(self, d4_csv, tmp_path, capsys,
                                                 echo, option):
        cfg = self.write_config(tmp_path, json.dumps(echo))
        argv = ["fit", "--config", str(cfg), "--data", str(d4_csv),
                "--out", str(tmp_path / "o")]
        if "strategy" not in echo:
            argv += ["--strategy", "composite"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"argument {option}: invalid choice" in capsys.readouterr().err

    def test_predict_checks_the_fit_echo_like_fit(self, fit_dir, tmp_path, capsys):
        # the fit parser's verdict on a file under --run is a data error
        echo = json.loads((fit_dir / "run.json").read_text())
        (fit_dir / "run.json").write_text(json.dumps({**echo, "strategy": "bogus"}))
        capsys.readouterr()
        assert run(["predict", "--run", str(fit_dir), "--out", str(tmp_path / "p")]) == 3
        out, err = capsys.readouterr()
        assert (len(out.splitlines()), err) == (1, "")
        assert json.loads(out)["error"] == "DataError"
        assert "argument --strategy: invalid choice" in json.loads(out)["message"]

    @pytest.mark.parametrize("case, message", [
        ("no-horizon", "is not the run.json of a fit run"),
        ("no-models", "is not the run.json of a fit run"),
        ("invalid-json", "invalid JSON at line 1, column 2"),
        ("list", "is not the run.json of a fit run"),
    ])
    def test_predict_on_a_broken_fit_echo_exits_3(self, fit_dir, tmp_path, capsys,
                                                  case, message):
        echo = json.loads((fit_dir / "run.json").read_text())
        (fit_dir / "run.json").write_text({
            "no-horizon": json.dumps({k: v for k, v in echo.items() if k != "horizon"}),
            "no-models": json.dumps({k: v for k, v in echo.items() if k != "models"}),
            "invalid-json": "{bad",
            "list": "[]",
        }[case])
        capsys.readouterr()
        code = run(["predict", "--run", str(fit_dir), "--out", str(tmp_path / "p")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "DataError"
        assert message in err["message"]


_FIT = ["fit", "--strategy", "composite", "--out", "o"]
_WEIGHTS = ["weights", "--weight-covariates", "z", "--out", "o"]
_PREDICT = ["predict", "--run", "fit", "--out", "p"]
_SIMULATE = ["simulate", "--scenario", "s1", "--n", "5", "--seed", "1", "--out", "x.csv"]
_NOT_UTF8 = b"id,tstart,tstop,status,treated,z\n1,0,1,1,0,0\n2,0,2,1,0,caf\xe9\n"


class TestUnreadableInputs:
    """Every file the CLI reads fails through the error contract: one JSON
    error line on stdout, nothing on stderr. ``files`` maps a path under the
    working directory, which holds ``d4.csv``, a directory ``adir`` and the
    composite fit ``fit`` of ``d4.csv``, to new content; None deletes it."""

    @pytest.mark.parametrize("argv, files, code, error", [
        *(pytest.param(command + ["--data", data], files, 3, "DataError",
                       id=f"{command[0]}-data-{case}")
          for command in (_FIT, _WEIGHTS)
          for case, data, files in [("missing", "missing.csv", {}),
                                    ("directory", "adir", {}),
                                    ("not-utf8", "latin1.csv", {"latin1.csv": _NOT_UTF8})]),
        pytest.param(_PREDICT, {"fit/run.json": None}, 3, "DataError", id="run-json-missing"),
        pytest.param(_PREDICT, {"fit/model.json": None}, 3, "DataError", id="model-missing"),
        pytest.param(_PREDICT, {"fit/model.json": b"{"}, 3, "DataError", id="model-invalid"),
        pytest.param(_PREDICT, {"fit/model.json": b"[]"}, 3, "DataError", id="model-list"),
        pytest.param(_PREDICT, {"fit/model.json": b"{}"}, 3, "DataError", id="model-empty"),
        pytest.param(_PREDICT + ["--all-strategies", "--horizon", "3"], {"d4.csv": None}, 3,
                     "DataError", id="all-strategies-data-missing"),
        pytest.param(_SIMULATE + ["--config", "missing.json"], {}, 2, "ConfigError",
                     id="config-missing"),
        pytest.param(_SIMULATE + ["--config", "adir"], {}, 2, "ConfigError",
                     id="config-directory"),
        pytest.param(_SIMULATE + ["--config=missing.json"], {}, 2, "ConfigError",
                     id="config-equals-form"),
        pytest.param(_SIMULATE + ["--conf", "missing.json"], {}, 2, "ConfigError",
                     id="config-abbreviated"),
        pytest.param(["simulate", "--scenario", "adir", "--n", "5", "--seed", "1",
                      "--out", "x.csv"], {}, 2, "ScenarioError", id="scenario-directory"),
    ])
    def test_one_json_error_line(self, d4_csv, tmp_path, monkeypatch, capsys,
                                 argv, files, code, error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert run(["fit", "--data", "d4.csv", "--strategy", "composite", "--out", "fit"]) == 0
        for name, content in files.items():
            if content is None:
                (tmp_path / name).unlink()
            else:
                (tmp_path / name).write_bytes(content)
        capsys.readouterr()
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert (len(out.splitlines()), err) == (1, "")
        assert json.loads(out)["error"] == error


class TestUnwritableOutput:
    """An output below a regular file ``F`` cannot be written: exit 2 with
    one UsageError line naming the path, nothing on stderr."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["fit", "--data", "s2.csv", "--strategy", "composite", "--out", "F"],
                     id="fit"),
        pytest.param(["predict", "--run", "fit", "--horizon", "5", "--out", "F"],
                     id="predict"),
        pytest.param(["simulate", "--scenario", "s1", "--n", "5", "--seed", "1",
                      "--out", "F/x.csv"], id="simulate"),
        pytest.param(["validate", "--scenario", "s1", "--n", "50", "--seeds", "1",
                      "--strategies", "composite", "--out", "F/r.json"], id="validate"),
        pytest.param(["weights", "--data", "s2.csv", "--weight-covariates", "z",
                      "--out", "F"], id="weights"),
    ])
    def test_exits_2(self, s2_data, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(["fit", "--data", "s2.csv", "--strategy", "composite",
                    "--horizon", "5", "--out", "fit"]) == 0
        Path("F").write_text("a file\n")
        capsys.readouterr()
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert (len(out.splitlines()), err) == (1, "")
        error = json.loads(out)
        assert error["error"] == "UsageError"
        assert error["message"].startswith("cannot write F: ")
        assert Path("F").read_text() == "a file\n"


class TestDatasetCache:
    """``--data`` is read through the dataset cache, here each test's own
    ``dataset_cache`` directory: a hit gives the dataset and outputs of a
    parse, and a fault of the cache is a miss or a skipped store that
    prints nothing and changes no exit code."""

    @staticmethod
    def fit(data, out) -> tuple:
        """The exit code and output files of a censor-ipcw fit of ``data``
        into ``out``, the run.json echo without ``data`` and ``out``."""
        code = run(["fit", "--data", str(data), "--strategy", "hypothetical", "--method",
                    "censor-ipcw", "--weight-covariates", "z", "--out", str(out)])
        files = {p.name: p.read_bytes() for p in Path(out).iterdir()} if code == 0 else {}
        if files:
            files["run.json"] = {k: v for k, v in json.loads(files["run.json"]).items()
                                 if k not in ("data", "out")}
        return code, files

    @staticmethod
    def load(argv):
        """``cli._load_dataset`` of the ``fit`` options ``argv``."""
        return cli_mod._load_dataset(cli_mod._parsers()[1]["fit"].parse_args(
            argv + ["--strategy", "ignore", "--out", "o"]))

    @pytest.mark.parametrize("name, content", [
        ("missing.csv", None), ("adir", "directory"), ("latin1.csv", _NOT_UTF8)],
        ids=["missing", "directory", "not-utf8"])
    def test_unreadable_data_exits_3_with_the_readers_message(
            self, tmp_path, monkeypatch, capsys, dataset_cache, name, content):
        monkeypatch.chdir(tmp_path)
        if content == "directory":
            Path(name).mkdir()
        elif content is not None:
            Path(name).write_bytes(content)
        with pytest.raises(data_mod.DataError) as raised:
            data_mod.ingest_csv(name)
        for command in (_FIT, _WEIGHTS):
            capsys.readouterr()
            assert run(command[:1] + ["--data", name] + command[1:]) == 3
            out, err = capsys.readouterr()
            assert err == ""
            assert json.loads(out) == {"error": type(raised.value).__name__,
                                       "message": str(raised.value)}
        assert not dataset_cache.exists() or list(dataset_cache.iterdir()) == []

    def test_failed_parse_stores_nothing(self, tmp_path, capsys, dataset_cache):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,tstart,tstop,status,treated,z\n1,0,1,1,0,0\n2,0,2,7,0,1\n")
        outputs = []
        for _ in range(2):
            capsys.readouterr()
            assert run(["fit", "--data", str(bad), "--strategy", "composite",
                        "--out", str(tmp_path / "o")]) == 3
            outputs.append(capsys.readouterr())
            assert list(dataset_cache.iterdir()) == []
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0].out)["error"] == "MalformedRow"

    @pytest.mark.parametrize("damage", ["empty", "truncated", "array-missing",
                                        "invalid-rows", "ids-not-strings",
                                        "label-repeated", "label-empty"])
    def test_damaged_entry_is_parsed_again_and_replaced(
            self, s2_data, tmp_path, capsys, reads, dataset_cache, damage):
        expected = self.fit(s2_data, tmp_path / "a")
        [entry] = dataset_cache.iterdir()
        stored = entry.read_bytes()
        if damage in ("empty", "truncated"):
            entry.write_bytes(stored[:len(stored) // 2 if damage == "truncated" else 0])
        else:
            with np.load(entry) as archive:
                arrays = dict(archive)
            if damage == "array-missing":
                del arrays["tstart"]
            elif damage == "invalid-rows":  # the first row no longer starts at 0
                arrays["tstart"] = arrays["tstart"] + 0.5
            else:
                meta = json.loads(arrays["meta"].tobytes())
                if damage == "ids-not-strings":
                    meta["ids"] = list(range(len(meta["ids"])))
                else:
                    meta["levels"] = {"z": ["lo", "lo" if damage == "label-repeated" else ""]}
                arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
            with open(entry, "wb") as fh:
                np.savez(fh, **arrays)
        reads.clear()
        capsys.readouterr()
        assert self.fit(s2_data, tmp_path / "b") == expected
        assert capsys.readouterr().err == ""
        assert reads == [str(s2_data)]
        assert list(dataset_cache.iterdir()) == [entry]
        assert entry.read_bytes() == stored

    @pytest.mark.parametrize("blocked", ["cache-home", "cache-directory"])
    def test_file_in_place_of_the_cache_directory(
            self, s2_data, tmp_path, monkeypatch, capsys, reads, blocked):
        expected = self.fit(s2_data, tmp_path / "a")
        home = tmp_path / "blocked"
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        if blocked == "cache-directory":
            home.mkdir()
        path = home if blocked == "cache-home" else home / "predictimands"
        path.write_text("a file\n")
        reads.clear()
        for out in ("b", "c"):
            capsys.readouterr()
            assert self.fit(s2_data, tmp_path / out) == expected
            assert capsys.readouterr().err == ""
        assert reads == [str(s2_data)] * 2
        assert path.read_text() == "a file\n"

    def test_failed_store_is_skipped(self, s2_data, tmp_path, monkeypatch, capsys, reads,
                                     dataset_cache):
        """A store that meets a full disk leaves no file behind."""
        expected = self.fit(s2_data, tmp_path / "a")
        for entry in dataset_cache.iterdir():
            entry.unlink()

        def full(ds, file):
            file.write(b"PK")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "_save", full)
        reads.clear()
        capsys.readouterr()
        assert self.fit(s2_data, tmp_path / "b") == expected
        assert capsys.readouterr().err == ""
        assert list(dataset_cache.iterdir()) == []
        assert stat.S_IMODE(dataset_cache.stat().st_mode) == 0o700

    def test_fifo_is_parsed(self, s2_data, tmp_path, reads, dataset_cache):
        """A FIFO is read once, by the reader, and never stored, though its
        bytes are those of a file with an entry."""
        expected = self.fit(s2_data, tmp_path / "a")
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        text = s2_data.read_bytes()

        def write():
            with open(fifo, "wb") as fh:
                fh.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        reads.clear()
        assert self.fit(fifo, tmp_path / "b") == expected
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert reads == [str(fifo)]
        assert len(list(dataset_cache.iterdir())) == 1

    def test_ids_come_back_exactly_from_a_hit(self, tmp_path, reads):
        ids = ["1", "1\x00", "a,b", 'say "hi"', "Zoë", "患者", " x"]
        rows = [["id", "tstart", "tstop", "status", "treated", "z"]]
        for k, sid in enumerate(ids):
            rows += [[sid, 0, 1, 2 * (k % 2), 0, k], [sid, 1, 2 + k, 1, k % 2, k]]
        path = tmp_path / "ids.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        parsed = self.load(["--data", str(path)])
        hit = self.load(["--data", str(path)])
        assert reads == [str(path)]
        assert hit == parsed
        assert hit.ids == parsed.ids == ("1", "1\x00", "a,b", 'say "hi"', "Zoë", "患者", "x")

    def test_options_get_their_own_entries(self, tmp_path, reads, dataset_cache):
        """Each set of read options has its own entry, and each hit equals
        the parse it stored."""
        path = tmp_path / "options.csv"
        path.write_text("id,tstart,tstop,status,treated,x,z\n"
                        "1,0,1,2,0,0,0.5\n2,0,2,1,0,1,1.5\n3,0,1,0,0,1,2\n3,1,3,1,0,1,3\n")
        options = [[], ["--baseline-cols", "x", "--tv-cols", "z"], ["--tv-cols", "x,z"],
                   ["--levels", "x=1|0"], ["--baseline-cols", "x", "--tv-cols", "z",
                                           "--levels", "x=1|0"],
                   ["--design", "continues"], ["--design", "stops"]]
        parsed = {}
        for extra in options:
            parsed[tuple(extra)] = self.load(["--data", str(path)] + extra)
        for extra in options:
            assert self.load(["--data", str(path)] + extra) == parsed[tuple(extra)]
        assert reads == [str(path)] * len(options)
        assert len(list(dataset_cache.iterdir())) == len(options)
        plain = parsed[()]
        assert (plain.schema.baseline, plain.design.value) == (("x",), "stops")
        assert parsed["--tv-cols", "x,z"].schema.time_varying == ("x", "z")
        assert parsed["--levels", "x=1|0"].columns["x"].tolist() == [1, 0, 0, 0]
        assert parsed["--design", "continues"].design.value == "continues"

    @pytest.mark.parametrize("part", ["file-bytes", "python", "numpy", "data-source",
                                      "cache-source"])
    def test_each_key_part_misses(self, tmp_path, monkeypatch, reads, dataset_cache, part):
        """A change to any one part of the key gives a new entry and a
        parse: the file's bytes (at the same size and mtime), the Python
        and numpy versions, and the sources of data.py and cache.py."""
        path = tmp_path / "key.csv"
        path.write_text("id,tstart,tstop,status,treated,z\n1,0,1,1,0,0\n2,0,2,0,0,1\n")
        first = self.load(["--data", str(path)])
        if part == "file-bytes":
            st = path.stat()
            path.write_text("id,tstart,tstop,status,treated,z\n1,0,1,1,0,0\n2,0,2,0,0,2\n")
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        elif part == "python":
            monkeypatch.setattr(sys, "version", sys.version + " (changed)")
        elif part == "numpy":
            monkeypatch.setattr(np, "__version__", np.__version__ + ".changed")
        else:
            module = data_mod if part == "data-source" else cache
            source = tmp_path / "source.py"
            source.write_bytes(Path(module.__file__).read_bytes() + b"# changed\n")
            monkeypatch.setattr(module, "__file__", str(source))
        second = self.load(["--data", str(path)])
        assert reads == [str(path)] * 2
        assert len(list(dataset_cache.iterdir())) == 2
        assert second.columns["z"].tolist() == [0, 2 if part == "file-bytes" else 1]
        assert first.columns["z"].tolist() == [0, 1]

    def test_least_recently_used_entries_go_first(self, tmp_path, monkeypatch,
                                                  dataset_cache):
        """Past ``CACHE_BYTES`` a store removes the entries used longest ago:
        ``a`` was stored first but used last, so ``b`` goes."""
        entries, args = {}, {}
        for k, name in enumerate("abcd"):
            if name == "d":
                monkeypatch.setattr(cache, "CACHE_BYTES", 3 * size)
            path = tmp_path / f"{name}.csv"
            path.write_text(f"id,tstart,tstop,status,treated,z\n1,0,1,1,0,{k}\n2,0,2,0,0,1\n")
            before = set(dataset_cache.glob("*")) if dataset_cache.exists() else set()
            args[name] = ["--data", str(path)]
            self.load(args[name])
            [entries[name]] = set(dataset_cache.glob("*")) - before
            size = entries[name].stat().st_size
            if name == "c":
                for j, entry in enumerate(entries.values()):
                    os.utime(entry, ns=(10**9 * (j + 1),) * 2)
                self.load(args["a"])  # a hit: its use time is now
                assert entries["a"].stat().st_mtime_ns > 3 * 10**9
        assert {entry.stat().st_size for entry in entries.values() if entry.exists()} == {size}
        assert sorted(dataset_cache.iterdir()) == sorted(entries[n] for n in "acd")


class TestTamperedRun:
    """A file under ``--run`` that the fit would not have written is a data
    error: exit 3 with one strict JSON line, nothing on stderr and no
    report. ``fit`` holds a ``censor-ipcw`` fit of ``s2.csv``."""

    def reject(self, constant):
        raise ValueError(f"{constant} is not JSON")

    @pytest.mark.parametrize("name, change, message", [
        pytest.param("run.json", {"tie": "bogus"}, "argument --tie: invalid choice",
                     id="run-tie"),
        pytest.param("run.json", {"horizon": "abc"}, "argument --horizon: invalid float",
                     id="run-horizon"),
        pytest.param("run.json", {"data": None}, "arguments are required: --data",
                     id="run-no-data"),
        pytest.param("model.json", {"score_norm": math.nan}, "score_norm must be a finite",
                     id="model-score-norm"),
        pytest.param("model.json", {"iterations": "many"}, "iterations must be a nonnegative",
                     id="model-iterations"),
        pytest.param("model.json", {"information": [[10**400]]},
                     "OverflowError: int too large", id="model-huge-int"),
        pytest.param("weights_diagnostics.json", {"ess": math.nan},
                     "must map each diagnostic to a finite number", id="weights-diagnostics"),
        pytest.param("model.json", {"schema_levels": {"z": ["lo", "hi", "lo"]}},
                     "levels of covariate 'z' list 'lo' more than once",
                     id="model-label-repeated"),
        pytest.param("model.json", {"schema_levels": {"z": ["", "hi"]}},
                     "levels of covariate 'z' include an empty label", id="model-label-empty"),
    ])
    def test_exits_3(self, s2_data, tmp_path, monkeypatch, capsys, name, change, message):
        monkeypatch.chdir(tmp_path)
        assert run(["fit", "--data", "s2.csv", "--strategy", "hypothetical", "--method",
                    "censor-ipcw", "--weight-covariates", "z", "--horizon", "5",
                    "--out", "fit"]) == 0
        path = Path("fit") / name
        content = {**json.loads(path.read_text()), **change}
        path.write_text(json.dumps({k: v for k, v in content.items() if v is not None}))
        capsys.readouterr()
        assert run(["predict", "--run", "fit", "--out", "p"]) == 3
        out, err = capsys.readouterr()
        assert (len(out.splitlines()), err) == (1, "")
        error = json.loads(out, parse_constant=self.reject)
        assert error["error"] == "DataError"
        assert message in error["message"]
        assert not Path("p").exists()


class TestTermsNamedOnce:
    """A model's terms are its covariates and its treatment segments, each
    named once. ``fit`` holds a ``composite --covariates z`` fit of ``s2.csv``
    whose model.json names the coefficient ``q``."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["predict", "--run", "fit", "--profile", "z=1", "--out", "p"],
                     "model file 'model.json'", id="coefficient-not-a-term"),
        pytest.param(["fit", "--data", "s2.csv", "--strategy", "composite",
                      "--covariates", "z,z", "--out", "o"], "listed more than once",
                     id="fit-covariate-twice"),
        pytest.param(["weights", "--data", "s2.csv", "--weight-covariates", "z,z",
                      "--out", "o"], "listed more than once",
                     id="weights-covariate-twice"),
    ])
    def test_exits_3(self, s2_data, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(["fit", "--data", "s2.csv", "--strategy", "composite",
                    "--covariates", "z", "--out", "fit"]) == 0
        model = json.loads(Path("fit/model.json").read_text())
        model["coefficients"] = {"q": model["coefficients"]["z"]}
        Path("fit/model.json").write_text(json.dumps(model))
        capsys.readouterr()
        assert run(argv) == 3
        out, err = capsys.readouterr()
        assert (len(out.splitlines()), err) == (1, "")
        assert message in json.loads(out)["message"]


class TestNamedOnce:
    """An option that names one covariate twice is a data error: exit 3,
    one JSON line naming the covariate, an empty stderr and no output. The
    last value does not silently win."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["predict", "--run", "fit", "--profile", "z=1,z=2", "--out", "p"],
                     "profile gives covariate 'z' more than once", id="predict-profile"),
        pytest.param(["validate", "--scenario", "age_gap", "--n", "10", "--seeds", "1",
                      "--profile", "age=50,age=60", "--out", "p"],
                     "profile gives covariate 'age' more than once", id="validate-profile"),
        pytest.param(["fit", "--data", "lv.csv", "--strategy", "ignore", "--covariates", "x",
                      "--levels", "x=A|B,x=B|A", "--out", "p"],
                     "levels given more than once for covariate 'x'", id="fit-levels"),
        pytest.param(["fit", "--data", "lv.csv", "--strategy", "ignore", "--covariates", "x",
                      "--levels", "x=A|A|B", "--out", "p"],
                     "levels of covariate 'x' list 'A' more than once", id="fit-label-repeated"),
        pytest.param(["fit", "--data", "lv.csv", "--strategy", "ignore", "--covariates", "x",
                      "--baseline-cols", "x", "--levels", "x=A|", "--out", "p"],
                     "levels of covariate 'x' include an empty label", id="fit-label-empty"),
    ])
    def test_exits_3(self, s2_data, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        Path("lv.csv").write_text("id,tstart,tstop,status,treated,x\n"
                                  "1,0,1,1,0,A\n2,0,2,1,0,B\n3,0,3,0,0,A\n4,0,4,1,0,B\n")
        assert run(["fit", "--data", "s2.csv", "--strategy", "composite",
                    "--covariates", "z", "--out", "fit"]) == 0
        capsys.readouterr()
        assert run(argv) == 3
        out, err = capsys.readouterr()
        assert (len(out.splitlines()), err) == (1, "")
        assert json.loads(out) == {"error": "DataError", "message": message}
        assert not Path("p").exists()


class TestStrictJson:
    def test_every_json_output_is_strict(self, s2_data, tmp_path, monkeypatch):
        """A small s2 round of every command that writes JSON: fit and
        predict for all seven strategies, ``--all-strategies``, weights and
        validate."""
        monkeypatch.chdir(tmp_path)
        fits = {s.value: ["--strategy", s.value] for s in Strategy
                if s != Strategy.HYPOTHETICAL}
        fits.update({m.value: ["--strategy", "hypothetical", "--method", m.value,
                               "--weight-covariates", "z"]
                     for m in HypotheticalMethod})
        for name, extra in fits.items():
            assert run(["fit", "--data", "s2.csv", "--horizon", "5",
                        "--out", f"fit-{name}"] + extra) == 0, name
            assert run(["predict", "--run", f"fit-{name}", "--out", f"predict-{name}"]) == 0
        assert run(["predict", "--run", "fit-censor-ipcw", "--all-strategies",
                    "--out", "predict-all"]) == 0
        assert run(["weights", "--data", "s2.csv", "--weight-covariates", "z",
                    "--out", "weights"]) == 0
        labels = [s.value for s in Strategy if s != Strategy.HYPOTHETICAL] + [
            f"hypothetical:{m.value}" for m in HypotheticalMethod]
        validate = ["validate", "--scenario", "s2", "--n", "300", "--seeds", "1",
                    "--mc-reps", "1000", "--strategies", ",".join(labels),
                    "--weight-covariates", "z"]
        assert run(validate + ["--out", "validate.json"]) in (0, 1)
        # a report with a NaN tolerance would not be JSON
        run(validate + ["--tolerance", "nan", "--out", "validate-nan.json"])

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        written = sorted(Path(".").rglob("*.json"))
        for path in written:
            json.loads(path.read_text(), parse_constant=reject)
        assert len(written) == 38


#: numbers, and numbers JSON spells as constants or that repr writes
#: shortest or in exponent form
NUMBERS = st.one_of(st.integers(), st.floats(),
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=4), NUMBERS,
              st.lists(NUMBERS, max_size=6),
              st.lists(st.lists(NUMBERS, max_size=3), max_size=4),
              st.lists(st.tuples(NUMBERS, NUMBERS), max_size=4)),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=24)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(payload=st.one_of(JSON_VALUES, st.dictionaries(
        st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans(), st.none()),
        JSON_VALUES, max_size=3)))
    def test_writes_what_json_dump_writes(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("json") / "out.json"
        cli_mod._write_json(path, payload)
        expected = io.StringIO()
        json.dump(payload, expected, indent=2)
        assert path.read_text() == expected.getvalue() + "\n"


    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_curve_texts_write_what_the_standard_writers_write(self, tmp_path_factory,
                                                              data):
        """A curve's time and risk texts, made once, give ``curve.csv`` the
        bytes of ``csv.writer`` and ``report.json`` those of ``json.dump``:
        times in exponent form and infinite, risks that repeat, both zeros
        and NaNs of several bit patterns."""
        times = sorted(data.draw(st.sets(st.sampled_from(
            [5e-324, 1e-5, 0.5, 1.0, 1e16, 1e22, math.inf]), max_size=6)))
        risk = sorted(data.draw(st.lists(st.sampled_from([0.0, 1e-5, 0.25, 1.0]),
                                         min_size=len(times), max_size=len(times))))
        risk = [data.draw(st.sampled_from([r, -0.0] if r == 0.0 else [r])) for r in risk]
        for k in data.draw(st.sets(st.integers(0, max(len(risk) - 1, 0)), max_size=2)):
            if k < len(risk):
                risk[k] = data.draw(st.sampled_from(SPECIAL_FLOATS[-4:]))
        with np.errstate(invalid="ignore"):  # the checks compare the NaNs
            curve = RiskCurve(np.array(times, float), np.array(risk, float),
                              strategy="composite", profile={"z": -0.0}, horizon=5.0)
        time, risk = cli_mod._curve_texts(curve)
        work = tmp_path_factory.mktemp("curve")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_mod, "_BLOCK", 2)
            data_mod.write_columns(work / "curve.csv", ("time", "risk"), [time, risk])
        cli_mod._write_json(work / "report.json",
                            {"curve": cli_mod._curve_json(curve, time, risk), "n": 1})
        rows = io.StringIO()
        csv.writer(rows).writerows(
            [("time", "risk"), *zip(curve.times.tolist(), curve.risk.tolist())])
        assert (work / "curve.csv").read_bytes() == rows.getvalue().encode()
        report = io.StringIO()
        json.dump({"curve": curve.to_dict(), "n": 1}, report, indent=2)
        assert (work / "report.json").read_text() == report.getvalue() + "\n"


class TestConfigForms:
    @pytest.mark.parametrize("argv, echo", [
        (["simulate", "--scenario", "s2", "--n", "50", "--seed", "4", "--out", "out/x.csv"],
         "out/x.csv.run.json"),
        (["fit", "--data", "../s2.csv", "--strategy", "hypothetical", "--method",
          "censor-ipcw", "--weight-covariates", "z", "--out", "out"], "out/run.json"),
    ], ids=["simulate", "fit"])
    def test_every_form_writes_the_same_files(self, s2_data, tmp_path, monkeypatch,
                                              argv, echo):
        """The explicit flags, then their echo as ``--config FILE``,
        ``--config=FILE`` and ``--conf FILE``, each run in its own directory
        next to ``s2.csv``."""
        config = str(tmp_path / "config.json")
        written = []
        for i, form in enumerate([argv, [argv[0], "--config", config],
                                  [argv[0], f"--config={config}"],
                                  [argv[0], "--conf", config]]):
            work = tmp_path / str(i)
            work.mkdir()
            monkeypatch.chdir(work)
            assert run(form) == 0, form
            if i == 0:
                Path(config).write_bytes(Path(echo).read_bytes())
            written.append({p.name: p.read_bytes() for p in Path("out").iterdir()})
        assert written[1:] == [written[0]] * 3


class TestHeaderOnly:
    @pytest.mark.parametrize("header", ["id,tstart,tstop,status,treated,x",
                                        "id,time,status,x"], ids=["long", "wide"])
    @pytest.mark.parametrize("extra", [[], ["--horizon", "5"]], ids=["default", "given"])
    def test_fit_exits_3_with_no_events(self, tmp_path, capsys, header, extra):
        data = tmp_path / "data.csv"
        data.write_text(header + "\n")
        code = run(["fit", "--data", str(data), "--strategy", "composite",
                    "--out", str(tmp_path / "o")] + extra)
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": "NoEvents", "message": "no episode carries event code 1"}


class TestPositivityAfterFit:
    def test_failed_fit_gives_no_warning(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("id,tstart,tstop,status,treated\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fit", "--data", str(data), "--strategy", "hypothetical",
                        "--horizon", "5", "--out", str(tmp_path / "o")])
        assert code == 3
        stdout, stderr = capsys.readouterr()
        assert (len(stdout.splitlines()), stderr) == (1, "")
        assert json.loads(stdout)["error"] == "NoEvents"
        assert [str(w.message) for w in caught] == []


@functools.cache
def valid_csv_lines() -> tuple:
    """A small s2 file, as lines: a header and 25 subjects' rows."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "s2.csv"
        data_mod.write_csv(simulate.simulate(scenarios.builtin("s2"), 25, seed=9), path)
        return tuple(path.read_text().splitlines())


@st.composite
def broken_csvs(draw):
    """The valid file with one to three of: a non-finite token, a bad
    status, a short row, a blank line, a duplicated row, no rows, a
    non-UTF-8 byte or a repeated header name; as bytes, and whether one of
    the last two, which always fail, was drawn."""
    lines = [line.split(",") for line in valid_csv_lines()]
    header = lines[0]
    numeric = [j for j, name in enumerate(header) if name not in ("id", "status", "treated")]
    kinds = draw(st.lists(st.sampled_from(["non-finite", "status", "short", "blank",
                                           "duplicate", "header-only", "non-utf8",
                                           "repeated-name"]),
                          min_size=1, max_size=3))
    for kind in kinds:
        rows = range(1, len(lines))
        if kind == "non-utf8":
            line = lines[draw(st.integers(0, len(lines) - 1))]
            if line:
                line[draw(st.integers(0, len(line) - 1))] += "\xe9"
            else:
                line.append("\xe9")
        elif kind == "repeated-name":
            # a copy of a covariate column under the same name
            j = draw(st.integers(5, len(header) - 1))
            for line in lines:
                if len(line) > j:
                    line.append(line[j])
        elif kind == "header-only" or not rows:
            del lines[1:]
        elif kind in ("non-finite", "status"):
            row = lines[draw(st.sampled_from(rows))]
            col, tokens = ((draw(st.sampled_from(numeric)), ["nan", "inf", "-inf", "NaN"])
                           if kind == "non-finite"
                           else (header.index("status"), ["3", "-1", "x", "1.5", ""]))
            if col < len(row):
                row[col] = draw(st.sampled_from(tokens))
        elif kind == "short":
            row = draw(st.sampled_from(rows))
            lines[row] = lines[row][:draw(st.integers(0, max(len(lines[row]) - 1, 0)))]
        elif kind == "blank":
            lines.insert(draw(st.integers(1, len(lines))), [])
        else:
            row = draw(st.sampled_from(rows))
            lines.insert(draw(st.integers(1, len(lines))), list(lines[row]))
    text = "\n".join(",".join(line) for line in lines) + "\n"
    return text.encode("latin-1"), bool({"non-utf8", "repeated-name"} & set(kinds))


class TestBrokenCsvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(case=broken_csvs())
    def test_fit_and_weights_exit_0_or_3(self, tmp_path_factory, case):
        content, must_fail = case
        work = tmp_path_factory.mktemp("fuzz")
        data = work / "data.csv"
        data.write_bytes(content)
        for argv in (["fit", "--strategy", "hypothetical", "--method", "censor-ipcw",
                      "--weight-covariates", "z"],
                     ["weights", "--weight-covariates", "z", "--mode", "iptw"]):
            out, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(argv + ["--data", str(data), "--out", str(work / argv[0])])
            assert code in ((3,) if must_fail else (0, 3)), out.getvalue()
            assert stderr.getvalue() == ""
            assert [str(w.message) for w in caught] == []
            if code == 3:
                err = json.loads(out.getvalue().splitlines()[-1])
                assert set(err) == {"error", "message"}


SUPPRESS = argparse.SUPPRESS
HELP = (("-h", "--help"), "help", SUPPRESS, None, False)
CONFIG = (("--config",), "config", None, None, False)
DATA = [
    (("--data",), "data", None, None, True),
    (("--baseline-cols",), "baseline_cols", None, None, False),
    (("--tv-cols",), "tv_cols", None, None, False),
    (("--levels",), "levels", None, None, False),
    (("--design",), "design", None, ("stops", "continues"), False),
]
TIE = (("--tie",), "tie", "efron", ("efron", "breslow"), False)
STRATEGY_OPTIONS = [
    (("--covariates",), "covariates", None, None, False),
    TIE,
    (("--tv-cuts",), "tv_cuts", None, None, False),
    (("--weight-covariates",), "weight_covariates", None, None, False),
    (("--truncate-weights",), "truncate_weights", None, None, False),
]
#: per subcommand, each option's strings, dest, default, choices and
#: whether it is required, in parser order
CLI_CONTRACT = {
    "fit": [
        HELP, *DATA,
        (("--strategy",), "strategy", None,
         ("ignore", "composite", "while-untreated", "hypothetical"), True),
        (("--method",), "method", "censor", ("censor", "model", "censor-ipcw", "model-iptw"),
         False),
        *STRATEGY_OPTIONS,
        (("--horizon",), "horizon", None, None, False),
        (("--out",), "out", None, None, True),
        CONFIG,
    ],
    "predict": [
        HELP,
        (("--run",), "run", None, None, True),
        (("--profile",), "profile", None, None, False),
        (("--horizon",), "horizon", None, None, False),
        (("--all-strategies",), "all_strategies", False, None, False),
        (("--out",), "out", None, None, True),
        CONFIG,
    ],
    "simulate": [
        HELP,
        (("--scenario",), "scenario", None, None, True),
        (("--n",), "n", None, None, True),
        (("--seed",), "seed", None, None, True),
        (("--workers",), "workers", 1, None, False),
        (("--out",), "out", None, None, True),
        CONFIG,
    ],
    "validate": [
        HELP,
        (("--scenario",), "scenario", None, None, True),
        (("--n",), "n", None, None, True),
        (("--seeds",), "seeds", None, None, True),
        (("--seed",), "seed", 1, None, False),
        (("--strategies",), "strategies", "ignore,composite,while-untreated,hypothetical",
         None, False),
        *STRATEGY_OPTIONS,
        (("--profile",), "profile", None, None, False),
        (("--t-hor",), "t_hor", 5.0, None, False),
        (("--tolerance",), "tolerance", 0.02, None, False),
        (("--mc-reps",), "mc_reps", 200_000, None, False),
        (("--workers",), "workers", 1, None, False),
        (("--out",), "out", None, None, True),
        CONFIG,
    ],
    "weights": [
        HELP, *DATA,
        (("--weight-covariates",), "weight_covariates", None, None, True),
        (("--numerator-covariates",), "numerator_covariates", None, None, False),
        (("--mode",), "mode", "ipcw", ("ipcw", "iptw"), False),
        TIE,
        (("--truncate-weights",), "truncate_weights", None, None, False),
        (("--out",), "out", None, None, True),
        CONFIG,
    ],
}


def test_cli_contract():
    """Every knob of every subcommand. A change to this table changes the
    CLI contract and belongs in CHANGES.md."""
    _, subparsers = build_parser()
    actual = {name: [(tuple(a.option_strings), a.dest, a.default,
                      tuple(a.choices) if a.choices else None, a.required)
                     for a in p._actions if a.option_strings]
              for name, p in subparsers.items()}
    assert actual == CLI_CONTRACT
