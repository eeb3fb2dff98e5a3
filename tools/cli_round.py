"""A fixed round of CLI commands whose outputs are compared byte for byte.

    python tools/cli_round.py OUT [--n N]

Runs every command in ``OUT`` (created if missing) with relative paths,
from the ``src`` tree next to this script: simulate s1, s2, age_gap and
``s2_stops.json`` (s2 observed until treatment start); on s2, fit and
predict each of the seven strategies, ``--all-strategies``, fits with
``--covariates z --tv-cuts 2``, ``--tie breslow`` and ``--truncate-weights
1,99`` (predicted at ``--profile z=0``), and ``weights`` in both modes and,
with ``--mode iptw``, on ``s2_outlier.csv``, a copy of s2 whose first
treated row has ``z`` 1000, a value no IPTW weight reads; an age_gap fit
and predict at ``--profile age=50``; on the stops-at-treatment data, fit
and predict composite, while-untreated and ``hypothetical --method
censor``; a fit and predict of three fixed files, one in the
wide format, one with a label-coded covariate read with ``--levels`` and a
3,000-row one with an empty ``z`` and a quoted id with a comma after row
2,048; a simulate of ``draws.json``, which draws every kind of baseline
covariate and a dropout clock; a validate of s2 on 45,000 Monte Carlo
reps, past two truth blocks; an age_gap validate at ``--profile age=50``;
and a small validate of all seven labels. The s1 data and the age_gap fit
and predict go to ``nested/sim``, ``nested/fit`` and ``nested/predict``,
directories that the writers create. ``N`` (default 5000) is the size
of the five simulated datasets; the fixed files and the validate runs do
not depend on it. ``round.log`` records each command's argv, exit code,
standard output and standard error, warnings as their category and
message. Run it from two checkouts and ``diff -r`` the two directories:
no output means the CLI wrote the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from predictimands.cli import main as cli_main  # noqa: E402
from predictimands.scenarios import BUILTIN  # noqa: E402

LABELS = (("ignore", []), ("composite", []), ("while-untreated", []),
          ("hypothetical:censor", []), ("hypothetical:model", []),
          ("hypothetical:censor-ipcw", ["--weight-covariates", "z"]),
          ("hypothetical:model-iptw", ["--weight-covariates", "z"]))

#: s2.csv with a post-start outlier, written from it by ``write_outlier``
OUTLIER = "s2_outlier.csv"


def fixed_files() -> dict:
    """Name and text of the fixed input files of the round: 40 subjects in
    the wide format (``id,time,status,age``); 40 in the long format with a
    ``dialysis`` covariate coded HD or PD, every fourth starting treatment
    and followed on; ``mixed.csv``, 1,000 such subjects of three rows each
    with a time-varying ``z``, whose rows after the 2,048th, the reader's
    first block, hold an empty ``z`` and a quoted id with a comma;
    ``s2_stops.json``, the s2 scenario observed until
    treatment start with a dropout rate of 0.05; and ``draws.json``, whose
    baseline covariates are normal, uniform, Bernoulli and constant."""
    wide = ["id,time,status,age"]
    long = ["id,tstart,tstop,status,treated,dialysis"]
    for i in range(1, 41):
        wide.append(f"{i},{0.5 + i * 7 % 19 / 2},{(0, 1, 1, 2)[i % 4]},{40 + i * 13 % 30}")
        arm = "PD" if i % 3 == 0 else "HD"
        stop = 1 + i * 7 % 11 / 2
        if i % 4 == 0:
            start = 1 + i % 5
            long += [f"{i},0,{start},2,0,{arm}",
                     f"{i},{start},{start + 1 + i % 3},{i % 8 // 4},1,{arm}"]
        else:
            long.append(f"{i},0,{stop},{int(i % 5 > 1)},0,{arm}")
    mixed = ["id,tstart,tstop,status,treated,dialysis,z"]
    for i in range(1, 1001):
        sid, arm = '"p,900"' if i == 900 else f"p{i}", "PD" if i % 3 == 0 else "HD"
        z = [f"{i * k % 13 / 4 - 1}" for k in (1, 2, 3)]
        z[1] = "" if i == 950 else z[1]
        if i % 4 == 0:
            start = 1 + (i % 5 + 1) / 4
            rows = [(0, 1, 0, 0), (1, start, 2, 0), (start, 3.5, i % 8 // 4, 1)]
        else:
            rows = [(0, 1, 0, 0), (1, 2, 0, 0), (2, 2 + (i % 9 + 1) / 4, int(i % 5 > 1), 0)]
        mixed += [f"{sid},{a},{b},{status},{on},{arm},{v}"
                  for (a, b, status, on), v in zip(rows, z)]
    stops = {**BUILTIN["s2"], "name": "s2_stops", "design": "stops", "dropout_rate": 0.05}
    draws = {**BUILTIN["s2"], "name": "draws", "dropout_rate": 0.1,
             "baseline_covariates": {
                 "x": {"dist": "normal", "mean": 1.5, "sd": 2.0},
                 "u": {"dist": "uniform", "low": -1.0, "high": 2.0},
                 "b": {"dist": "bernoulli", "p": 0.3},
                 "c": {"dist": "constant", "value": 0.5}},
             "treatment": {"base": 0.1, "log_hr": {"z": 1.2, "b": 0.5, "c": 1.0}},
             "death_untreated": {"base": 0.12, "log_hr": {"z": 0.8, "x": 0.1, "u": 0.3}}}
    return {"wide.csv": "\n".join(wide) + "\n", "labelled.csv": "\n".join(long) + "\n",
            "mixed.csv": "\n".join(mixed) + "\n",
            **{f"{name}.json": json.dumps(scenario, indent=2) + "\n"
               for name, scenario in (("s2_stops", stops), ("draws", draws))}}


def commands(n: int) -> list:
    """The round's argv lists, in the order they run."""
    cmds = [["simulate", "--scenario", scenario, "--n", str(n), "--seed", "1",
             "--out", path]
            for path, scenario in (("nested/sim/s1.csv", "s1"), ("s2.csv", "s2"),
                                   ("age_gap.csv", "age_gap"),
                                   ("s2_stops.csv", "s2_stops.json"),
                                   ("draws.csv", "draws.json"))]
    fits = {}
    for label, extra in LABELS:
        strategy, _, method = label.partition(":")
        name = method or strategy
        fits[name] = ["--strategy", strategy] + (
            ["--method", method] if method else []) + extra
    fits.update({
        "model-tv-cuts": ["--strategy", "hypothetical", "--method", "model",
                          "--covariates", "z", "--tv-cuts", "2"],
        "ignore-breslow": ["--strategy", "ignore", "--covariates", "z",
                           "--tie", "breslow"],
        "censor-ipcw-truncated": ["--strategy", "hypothetical", "--method",
                                  "censor-ipcw", "--weight-covariates", "z",
                                  "--truncate-weights", "1,99"],
    })
    for name, extra in fits.items():
        cmds.append(["fit", "--data", "s2.csv", "--horizon", "5",
                     "--out", f"fit-{name}"] + extra)
        profile = ["--profile", "z=0"] if "--covariates" in extra else []
        cmds.append(["predict", "--run", f"fit-{name}", "--out", f"predict-{name}"]
                    + profile)
    cmds.append(["predict", "--run", "fit-censor-ipcw", "--all-strategies",
                 "--out", "predict-all"])
    cmds += [["weights", "--data", data, "--weight-covariates", "z", "--mode", mode,
              "--out", out] for data, mode, out in (
                  ("s2.csv", "ipcw", "weights-ipcw"), ("s2.csv", "iptw", "weights-iptw"),
                  (OUTLIER, "iptw", "weights-iptw-outlier"))]
    cmds += [["fit", "--data", "age_gap.csv", "--strategy", "hypothetical",
              "--covariates", "age", "--horizon", "10", "--out", "nested/fit/age_gap"],
             ["predict", "--run", "nested/fit/age_gap", "--profile", "age=50",
              "--out", "nested/predict/age_gap"]]
    for name, extra in (("composite", ["--strategy", "composite"]),
                        ("while-untreated", ["--strategy", "while-untreated"]),
                        ("censor", ["--strategy", "hypothetical", "--method", "censor"])):
        cmds += [["fit", "--data", "s2_stops.csv", "--horizon", "5",
                  "--out", f"fit-stops-{name}"] + extra,
                 ["predict", "--run", f"fit-stops-{name}", "--out", f"predict-stops-{name}"]]
    cmds += [["fit", "--data", "wide.csv", "--strategy", "composite", "--covariates", "age",
              "--out", "fit-wide"],
             ["predict", "--run", "fit-wide", "--profile", "age=50", "--horizon", "5",
              "--out", "predict-wide"],
             ["fit", "--data", "labelled.csv", "--levels", "dialysis=HD|PD", "--strategy",
              "hypothetical", "--covariates", "dialysis", "--out", "fit-labelled"],
             ["predict", "--run", "fit-labelled", "--profile", "dialysis=PD", "--out",
              "predict-labelled"],
             ["fit", "--data", "mixed.csv", "--levels", "dialysis=HD|PD", "--strategy",
              "hypothetical", "--covariates", "dialysis", "--out", "fit-mixed"],
             ["predict", "--run", "fit-mixed", "--profile", "dialysis=PD", "--out",
              "predict-mixed"]]
    cmds += [["validate", "--scenario", "s2", "--n", "300", "--seeds", "1",
              "--mc-reps", "45000", "--strategies", "composite,ignore,while-untreated",
              "--tolerance", "1", "--out", "validate-s2.json"],
             ["validate", "--scenario", "age_gap", "--n", "300", "--seeds", "1",
              "--profile", "age=50", "--covariates", "age", "--strategies",
              "composite,hypothetical", "--tolerance", "1", "--out", "validate-age_gap.json"]]
    cmds.append(["validate", "--scenario", "s2", "--n", "300", "--seeds", "2",
                 "--mc-reps", "2000", "--strategies", ",".join(l for l, _ in LABELS),
                 "--weight-covariates", "z", "--out", "validate.json"])
    return cmds


def write_outlier(path, out):
    """Copy the CSV at ``path`` to ``out`` with the ``z`` field of its first
    treated row, a row after a treatment start, set to 1000."""
    lines = Path(path).read_bytes().split(b"\r\n")
    header = lines[0].split(b",")
    treated, z = header.index(b"treated"), header.index(b"z")
    for i, line in enumerate(lines[1:], 1):
        fields = line.split(b",")
        if fields[treated:treated + 1] == [b"1"]:
            fields[z] = b"1000"
            lines[i] = b",".join(fields)
            break
    Path(out).write_bytes(b"\r\n".join(lines))


def _show(message, category, filename, lineno, file=None, line=None):
    # category and message only: the source location differs between checkouts
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run_round(out, n: int = 5000) -> list:
    """Run the round in ``out``; the exit code of each command."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    codes, log = [], []
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, text in fixed_files().items():
            Path(name).write_text(text)
        for argv in commands(n):
            if OUTLIER in argv:
                write_outlier("s2.csv", OUTLIER)
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                warnings.showwarning = _show
                code = cli_main(argv)
            codes.append(code)
            log += [f"$ predictimands {' '.join(argv)}", f"exit {code}",
                    stdout.getvalue() + stderr.getvalue()]
        Path("round.log").write_text("\n".join(log))
    finally:
        os.chdir(cwd)
    return codes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", help="output directory")
    p.add_argument("--n", type=int, default=5000,
                   help="subjects per simulated dataset (default 5000)")
    args = p.parse_args(argv)
    if args.n < 1:
        p.error("--n must be >= 1")
    codes = run_round(args.out, args.n)
    print(f"{len(codes)} commands, exit codes {sorted(set(codes))}, in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
