"""Time ``ingest_csv`` on simulated files and report how far it grows memory.

    python tools/ingest_matrix.py DIR [--n 1000,5000,50000] [--scenarios s1,s2,age_gap]

Simulates each scenario at each size once (seed 1) into ``DIR`` with the
``src`` tree next to this script. Then, for each file, a fresh Python
process imports the package, notes its resident set size, reads the file
with ``ingest_csv`` (best of 3 runs, one run at 50,000 subjects or more)
and reports how far its peak resident set size rose above that, and the
bytes of the dataset's arrays. The child then points ``XDG_CACHE_HOME``
at an empty directory and times the CLI's dataset load of the file: once
cold, a parse that stores a cache entry (``cli_cold_s``), then warm, the
best of 3 hits (``cli_warm_s``), and reports the cache's size
(``cache_mb``). Linux only: both sizes are read from
``/proc/self/status`` (``VmRSS``, ``VmHWM``), whose peak, unlike
``ru_maxrss``, does not carry over the parent's. Prints one JSON object:
the Python and numpy versions, the processor count and one cell per file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from predictimands import data, scenarios, simulate  # noqa: E402

#: the child process: argv is the file and the number of runs
CHILD = """
import json, os, sys, tempfile, time
from pathlib import Path
from predictimands import cli
from predictimands.data import ingest_csv

def kb(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

def seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start

path, runs = sys.argv[1], int(sys.argv[2])
before, times = kb("VmRSS"), []
for _ in range(runs):
    start = time.perf_counter()
    ds = ingest_csv(path)
    times.append(time.perf_counter() - start)
grown = kb("VmHWM") - before
arrays = [ds.offsets, ds.tstart, ds.tstop, ds.status, ds.treated, *ds.columns.values()]
with tempfile.TemporaryDirectory() as cache:
    os.environ["XDG_CACHE_HOME"] = cache
    args = cli._parsers()[1]["fit"].parse_args(
        ["--data", path, "--strategy", "ignore", "--out", "unused"])
    cold = seconds(lambda: cli._load_dataset(args))
    warm = min(seconds(lambda: cli._load_dataset(args)) for _ in range(3))
    entries = sum(p.stat().st_size for p in Path(cache).rglob("*") if p.is_file())
print(json.dumps({"ingest_s": min(times), "runs": runs, "rows": ds.n_rows,
                  "rss_growth_mb": round(grown / 1024, 1),
                  "array_mb": round(sum(a.nbytes for a in arrays) / 2**20, 2),
                  "cli_cold_s": cold, "cli_warm_s": warm,
                  "cache_mb": round(entries / 2**20, 2)}))
"""


def cell(path: Path, n: int) -> dict:
    """One file's timing and memory, measured in a fresh process."""
    runs = 1 if n >= 50_000 else 3
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", CHILD, str(path), str(runs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return {"file_mb": round(path.stat().st_size / 2**20, 2), **json.loads(out)}


def matrix(out, sizes=(1000, 5000, 50_000), names=("s1", "s2", "age_gap")) -> dict:
    """Simulate every (scenario, size) into ``out``, then measure each file."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        for n in sizes:
            paths[name, n] = out / f"{name}_{n}.csv"
            data.write_csv(simulate.simulate(scenarios.builtin(name), n, seed=1),
                           paths[name, n])
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cells": [{"scenario": name, "n": n, **cell(path, n)}
                      for (name, n), path in paths.items()]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", help="directory for the simulated files")
    p.add_argument("--n", default="1000,5000,50000",
                   help="comma list of subject counts (default 1000,5000,50000)")
    p.add_argument("--scenarios", default="s1,s2,age_gap",
                   help="comma list of builtin scenarios (default s1,s2,age_gap)")
    args = p.parse_args(argv)
    sizes = [int(s) for s in args.n.split(",")]
    if min(sizes) < 1:
        p.error("--n must be >= 1")
    print(json.dumps(matrix(args.out, sizes, args.scenarios.split(",")), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
