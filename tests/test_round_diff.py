"""Smoke test of tools/round_diff.py on two small hand-made trees."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "round_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("round_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_reports_each_kind_of_difference(tmp_path, capsys):
    round_diff = load_tool()
    same = {"run.json": '{\n  "n": 300,\n  "data": "s2.csv"\n}\n'}
    old = write(tmp_path / "old", {
        **same, "fit/model.json": '{"beta": [0.5, -2.0e-05, 7]}\n',
        "curve.csv": "time,risk\n1.0,0.25\n2.0,0.5\n", "report.json": '{"passed": true}\n',
        "gone.csv": "x\n"})
    new = write(tmp_path / "new", {
        **same, "fit/model.json": '{"beta": [0.5000000001, -2.0e-05, 7.0]}\n',
        "curve.csv": "time,risk\n1.0,0.25\n2.0,-0.5\n", "report.json": '{"passed": false}\n',
        "added.csv": "x\n"})
    assert round_diff.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"added.csv: only in {new}",
        "curve.csv: largest relative change 2",
        "fit/model.json: largest relative change 2e-10",
        f"gone.csv: only in {old}",
        "report.json: structure change"]
    assert round_diff.main([str(old), str(old)]) == 0
    assert capsys.readouterr().out == "no file differs\n"
