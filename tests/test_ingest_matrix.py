"""Smoke test of tools/ingest_matrix.py, the ingest timing and memory matrix."""

import importlib.util
import json
from pathlib import Path

MATRIX = Path(__file__).resolve().parent.parent / "tools" / "ingest_matrix.py"


def load_matrix():
    spec = importlib.util.spec_from_file_location("ingest_matrix", MATRIX)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_small_cell(tmp_path, capsys):
    assert load_matrix().main([str(tmp_path), "--n", "200", "--scenarios", "s2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"python", "numpy", "nproc", "cells"}
    [cell] = report["cells"]
    assert set(cell) == {"scenario", "n", "file_mb", "ingest_s", "runs", "rows",
                         "rss_growth_mb", "array_mb", "cli_cold_s", "cli_warm_s",
                         "cache_mb"}
    assert cell["cache_mb"] > 0
    assert (cell["scenario"], cell["n"], cell["runs"]) == ("s2", 200, 3)
    assert (tmp_path / "s2_200.csv").is_file()
