"""Smoke test of tools/cli_round.py, the fixed byte-identity round of the CLI."""

import importlib.util
from pathlib import Path

ROUND = Path(__file__).resolve().parent.parent / "tools" / "cli_round.py"


def load_round():
    spec = importlib.util.spec_from_file_location("cli_round", ROUND)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_round_writes_every_output(tmp_path):
    cli_round = load_round()
    out = tmp_path / "round"
    codes = cli_round.run_round(out, n=200)
    # every command succeeds; validate may miss its tolerance at this size
    assert len(codes) == len(cli_round.commands(200))
    assert set(codes[:-1]) == {0} and codes[-1] in (0, 1)
    fits = ["ignore", "composite", "while-untreated", "censor", "model",
            "censor-ipcw", "model-iptw", "model-tv-cuts", "ignore-breslow",
            "censor-ipcw-truncated", "age_gap", "wide", "labelled"]
    expected = ([f"{s}.csv" for s in ("s1", "s2", "age_gap", "wide", "labelled")]
                + [f"{s}.csv.run.json" for s in ("s1", "s2", "age_gap")]
                + [f"fit-{f}/run.json" for f in fits]
                + [f"predict-{f}/{name}" for f in fits
                   for name in ("curve.csv", "report.json", "run.json")]
                + ["fit-while-untreated/model_event.json",
                   "fit-censor-ipcw/weights.csv", "fit-model-iptw/weights.csv",
                   "predict-all/overlay.csv", "weights-ipcw/weights.csv",
                   "weights-iptw/weights.csv", "validate.json", "round.log"])
    missing = [name for name in expected if not (out / name).is_file()]
    assert missing == []
    log = (out / "round.log").read_text()
    assert log.count("$ predictimands ") == len(codes)
