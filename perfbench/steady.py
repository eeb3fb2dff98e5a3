"""Steadiness of the end-to-end metrics: repeat a workload over seeds.

    python3 perfbench/steady.py --workload s2-cli

Runs ``run.py`` for ``run_seconds`` once per seed 1, 2, ... ``RUNS``, one
after another, and repeats that set ``SETS`` times. For each set and
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next to
the metric's bound from ``BENCHMARK.json``; for the second set, the shift of
its median from the first set's, as a share of the first; and the failed
shares, nproc and the Python and numpy versions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS, SETS = 10, 2


def one_set(workload, runs, seconds, shares):
    values = {}
    for seed in range(1, runs + 1):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"seed {seed}: run.py exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True)
    return values


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    args = p.parse_args(argv)

    shares = []
    sets = [one_set(args.workload, RUNS, bench["run_seconds"], shares)
            for _ in range(SETS)]

    import numpy
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"workload": args.workload, "runs": RUNS,
               "seconds": bench["run_seconds"],
               "failed_shares": sorted(set(shares)),
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "metrics": {}}
    for name in sets[0]:
        rows = []
        for values in sets:
            vals = values[name]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows.append({"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median})
        first = rows[0]["median"]
        for row in rows[1:]:
            row["shift"] = (row["median"] - first) / first
        summary["metrics"][name] = {"bound": bounds.get(name), "sets": rows}
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
