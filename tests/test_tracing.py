"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` patches the package's functions by module
attribute and counts rows through ``ds.subjects``; a refactor that drops a
traced name or the record view fails here first.
"""

import importlib.util
from pathlib import Path

import predictimands
import predictimands.cli
from predictimands.data import infer_schema, ingest_csv, split_at_treatment


def load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_fit_and_predict_count_rows(tmp_path):
    data = tmp_path / "s2.csv"
    assert predictimands.cli.main(["simulate", "--scenario", "s2", "--n", "200",
                                   "--seed", "1", "--out", str(data)]) == 0
    ds = ingest_csv(data, infer_schema(data))
    split_rows = split_at_treatment(ds).n_rows
    main = predictimands.cli.main
    tracer = load_tracer()()
    tracer.install(predictimands)
    try:
        assert predictimands.cli.main is not main
        tracer.phase = "censor-ipcw"
        assert predictimands.cli.main(
            ["fit", "--data", str(data), "--strategy", "hypothetical", "--method",
             "censor-ipcw", "--weight-covariates", "z", "--horizon", "5",
             "--out", str(tmp_path / "fit")]) == 0
        assert predictimands.cli.main(["predict", "--run", str(tmp_path / "fit"),
                                       "--out", str(tmp_path / "pred")]) == 0
        tracer.phase = "model-iptw"
        assert predictimands.cli.main(
            ["fit", "--data", str(data), "--strategy", "hypothetical", "--method",
             "model-iptw", "--weight-covariates", "z", "--horizon", "5",
             "--out", str(tmp_path / "fit_iptw")]) == 0
    finally:
        tracer.uninstall()
    assert predictimands.cli.main is main
    counts, iptw = ({name: value for (phase, name), value in tracer.counts.items()
                     if phase == which} for which in ("censor-ipcw", "model-iptw"))
    assert counts["data.rows_ingested"] == ds.n_rows
    # numerator and denominator treatment hazards, then the weighted outcome
    assert counts["cox.fit_calls"] == 3
    assert counts["cox.rows"] == 3 * split_rows
    assert counts["weights.rows"] == split_rows
    assert counts["strategies.predict_risk_calls"] == 1
    # IPTW weighs every row of the data; the hazards still fit the split data
    assert iptw["cox.fit_calls"] == 3
    assert iptw["cox.rows"] == 2 * split_rows + ds.n_rows
    assert iptw["weights.rows"] == ds.n_rows
