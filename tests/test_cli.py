import argparse
import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predictimands import cox, scenarios, simulate
from predictimands import data as data_mod
from predictimands.cli import _parse_strategy_tokens, build_parser, main
from predictimands.strategies import HypotheticalMethod, Strategy


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

    def test_broken_curve_exits_4(self, tmp_path, d4_csv, capsys):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(d4_csv), "--strategy", "composite",
                    "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        # a negative hazard increment drives the risk below zero
        model["baseline_cumhaz"][0][1] = -0.5
        (out / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        code = run(["predict", "--run", str(out), "--out", str(tmp_path / "p")])
        assert code == 4
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "InvalidCurve"
        assert "[0, 1]" in err["message"]


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


class TestOneRead:
    @pytest.fixture
    def reads(self, monkeypatch):
        """The paths ``data._read`` is called with."""
        calls, read = [], data_mod._read
        monkeypatch.setattr(data_mod, "_read", lambda path: calls.append(path) or read(path))
        return calls

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

    def test_all_strategies_reads_once(self, s2_data, tmp_path, reads):
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(s2_data), "--strategy", "composite",
                    "--out", str(out)]) == 0
        reads.clear()
        assert run(["predict", "--run", str(out), "--all-strategies",
                    "--out", str(tmp_path / "p")]) == 0
        assert reads == [str(s2_data)]


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
        echo = json.loads((fit_dir / "run.json").read_text())
        (fit_dir / "run.json").write_text(json.dumps({**echo, "strategy": "bogus"}))
        with pytest.raises(SystemExit) as exc:
            run(["predict", "--run", str(fit_dir), "--out", str(tmp_path / "p")])
        assert exc.value.code == 2
        assert "argument --strategy: invalid choice" in capsys.readouterr().err

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
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv + ["--data", str(data), "--out", str(work / argv[0])])
            assert code in ((3,) if must_fail else (0, 3)), out.getvalue()
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
