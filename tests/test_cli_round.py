"""Smoke test of tools/cli_round.py, the fixed byte-identity round of the CLI."""

import importlib.util
from pathlib import Path

ROUND = Path(__file__).resolve().parent.parent / "tools" / "cli_round.py"


def load_round():
    spec = importlib.util.spec_from_file_location("cli_round", ROUND)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(root: Path) -> dict:
    """The bytes of every file under ``root``, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_small_round_writes_every_output(tmp_path, dataset_cache, truth_memo):
    cli_round = load_round()
    out = tmp_path / "round"
    codes = cli_round.run_round(out, n=200)
    # a second round, whose reads find the first round's cache entries and
    # whose validates find the Monte Carlo truths it drew, writes the same
    # bytes
    assert {p.suffix for p in dataset_cache.iterdir()} == {".npz"}
    assert truth_memo.cache_info().currsize
    assert cli_round.run_round(tmp_path / "again", n=200) == codes
    assert tree(tmp_path / "again") == tree(out)
    # every command succeeds; validate may miss its tolerance at this size
    assert len(codes) == len(cli_round.commands(200))
    assert set(codes[:-1]) == {0} and codes[-1] in (0, 1)
    fits = ["ignore", "composite", "while-untreated", "censor", "model",
            "censor-ipcw", "model-iptw", "model-tv-cuts", "ignore-breslow",
            "censor-ipcw-truncated", "stops-composite", "stops-while-untreated",
            "stops-censor", "wide", "labelled", "mixed"]
    # the outputs under nested/ go to directories that did not exist
    fit_dirs = [f"fit-{f}" for f in fits] + ["nested/fit/age_gap"]
    predict_dirs = [f"predict-{f}" for f in fits] + ["nested/predict/age_gap"]
    expected = ([f"{s}.csv" for s in ("s2", "s2_outlier", "age_gap", "s2_stops", "draws",
                                      "wide", "labelled", "mixed")]
                + [f"{s}.csv.run.json" for s in ("s2", "age_gap", "s2_stops")]
                + ["nested/sim/s1.csv", "nested/sim/s1.csv.run.json"]
                + [f"{d}/run.json" for d in fit_dirs]
                + [f"{d}/{name}" for d in predict_dirs
                   for name in ("curve.csv", "report.json", "run.json")]
                + ["fit-while-untreated/model_event.json",
                   "fit-stops-while-untreated/model_treatment.json",
                   "fit-censor-ipcw/weights.csv", "fit-model-iptw/weights.csv",
                   "predict-all/overlay.csv", "weights-ipcw/weights.csv",
                   "weights-iptw/weights.csv", "weights-iptw-outlier/weights.csv",
                   "weights-mixed-ipcw/weights.csv", "weights-mixed-iptw/weights.csv",
                   "validate.json", "validate-s2.json",
                   "validate-age_gap.json", "round.log"])
    missing = [name for name in expected if not (out / name).is_file()]
    assert missing == []
    # no IPTW weight reads the outlier after a treatment start
    assert (out / "s2_outlier.csv").read_bytes() != (out / "s2.csv").read_bytes()
    for name in ("weights.csv", "weights_diagnostics.json"):
        assert ((out / "weights-iptw-outlier" / name).read_bytes()
                == (out / "weights-iptw" / name).read_bytes())
    # the quoted id of mixed.csv is written after weights.csv's first block
    for mode in ("ipcw", "iptw"):
        lines = (out / f"weights-mixed-{mode}" / "weights.csv").read_bytes().split(b"\r\n")
        assert [i for i, line in enumerate(lines) if line.startswith(b'"p,900",')][0] > 2048
    log = (out / "round.log").read_text()
    assert log.count("$ predictimands ") == len(codes)
