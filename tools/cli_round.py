"""A fixed round of CLI commands whose outputs are compared byte for byte.

    python tools/cli_round.py OUT [--n N]

Runs every command in ``OUT`` (created if missing) with relative paths,
from the ``src`` tree next to this script: simulate s1, s2 and age_gap;
on s2, fit and predict each of the seven strategies, ``--all-strategies``,
fits with ``--covariates z --tv-cuts 2``, ``--tie breslow`` and
``--truncate-weights 1,99`` (predicted at ``--profile z=0``), and
``weights`` in both modes; an age_gap fit and predict at ``--profile
age=50``; a fit and predict of two small fixed files, one in the wide
format and one with a label-coded covariate read with ``--levels``; and a
small validate of all seven labels. ``N`` (default 5000) is the size of
the three simulated datasets; the fixed files and the validate run do not
depend on it. ``round.log`` records each command's argv, exit
code, standard output and standard error, warnings as their category and
message. Run it from two checkouts and ``diff -r`` the two directories:
no output means the CLI wrote the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from predictimands.cli import main as cli_main  # noqa: E402

LABELS = (("ignore", []), ("composite", []), ("while-untreated", []),
          ("hypothetical:censor", []), ("hypothetical:model", []),
          ("hypothetical:censor-ipcw", ["--weight-covariates", "z"]),
          ("hypothetical:model-iptw", ["--weight-covariates", "z"]))


def fixed_files() -> dict:
    """Name and text of the two small fixed data files of the round: 40
    subjects in the wide format (``id,time,status,age``), and 40 in the
    long format with a ``dialysis`` covariate coded HD or PD, every fourth
    starting treatment and followed on."""
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
    return {"wide.csv": "\n".join(wide) + "\n", "labelled.csv": "\n".join(long) + "\n"}


def commands(n: int) -> list:
    """The round's argv lists, in the order they run."""
    cmds = [["simulate", "--scenario", name, "--n", str(n), "--seed", "1",
             "--out", f"{name}.csv"] for name in ("s1", "s2", "age_gap")]
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
    cmds += [["weights", "--data", "s2.csv", "--weight-covariates", "z",
              "--mode", mode, "--out", f"weights-{mode}"] for mode in ("ipcw", "iptw")]
    cmds += [["fit", "--data", "age_gap.csv", "--strategy", "hypothetical",
              "--covariates", "age", "--horizon", "10", "--out", "fit-age_gap"],
             ["predict", "--run", "fit-age_gap", "--profile", "age=50",
              "--out", "predict-age_gap"]]
    cmds += [["fit", "--data", "wide.csv", "--strategy", "composite", "--covariates", "age",
              "--out", "fit-wide"],
             ["predict", "--run", "fit-wide", "--profile", "age=50", "--horizon", "5",
              "--out", "predict-wide"],
             ["fit", "--data", "labelled.csv", "--levels", "dialysis=HD|PD", "--strategy",
              "hypothetical", "--covariates", "dialysis", "--out", "fit-labelled"],
             ["predict", "--run", "fit-labelled", "--profile", "dialysis=PD", "--out",
              "predict-labelled"]]
    cmds.append(["validate", "--scenario", "s2", "--n", "300", "--seeds", "2",
                 "--mc-reps", "2000", "--strategies", ",".join(l for l, _ in LABELS),
                 "--weight-covariates", "z", "--out", "validate.json"])
    return cmds


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
