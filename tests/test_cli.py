import argparse
import json

import pytest

from predictimands.cli import _parse_strategy_tokens, main
from predictimands.strategies import Strategy


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
    ])
    def test_unknown_strategy_token_exits_2(self, tmp_path, capsys, token, message):
        out = tmp_path / "report.json"
        code = run(["validate", "--scenario", "s1", "--n", "20", "--seeds", "1",
                    "--strategies", token, "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
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
        ref.write_text(json.dumps(scenarios.builtin_dict("s1")))
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
