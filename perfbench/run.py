"""Benchmark of predictimands: one workload per run.

    python3 perfbench/run.py --workload s2-cli --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``src/predictimands``).
Set-up (importing numpy and the package in a fresh interpreter, then the
workload's input generation) is timed ``SETUP_REPS`` times and reported as
its median; operations then repeat until ``--seconds`` have passed, each
checked against the references. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (medians over the run's
operations); with ``--trace 1`` they are the per-layer ones from a traced
run. A detail line (per-operation times, warnings, versions) goes to
standard error.
"""

import os
import time

T_START = time.perf_counter()
# one thread: BLAS is pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["s2-cli", "s2-validate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import the package from the checkout's ``src``; (namespace, seconds)."""
    src = ROOT / "src"
    if not (src / "predictimands" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source under {src}; run from a "
                         "source checkout")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import predictimands
    import predictimands.cli  # noqa: F401
    elapsed = time.perf_counter() - T_START
    if Path(predictimands.__file__).resolve().parent != src / "predictimands":
        raise SystemExit(f"run.py: imported {predictimands.__file__}, not the "
                         "checkout's package")
    return predictimands, elapsed


def fresh_import_s() -> float:
    """Wall time for a new interpreter to import numpy and the package."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import numpy, predictimands.cli")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.ops = []          # (op_s, steps) of operations that completed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.warnings = {}
        self.problems = []

    def _attempt(self, index):
        """(wall time, steps, problems, wrong) of one operation."""
        start = time.perf_counter()
        try:
            steps, outputs = self.workload.operation(index)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return None, None, [f"{type(exc).__name__}: {exc}"], False
        elapsed = time.perf_counter() - start
        try:
            problems = self.workload.check(outputs)
        except Exception as exc:  # a missing or malformed output is wrong
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        return elapsed, steps, problems, bool(problems)

    def operation(self, index):
        """Run, time and check one operation; returns its wall time or None."""
        self.attempted += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            elapsed, steps, problems, wrong = self._attempt(index)
        for w in caught:
            name = w.category.__name__
            self.warnings[name] = self.warnings.get(name, 0) + 1
        if problems:
            self.failed += 1
            self.wrong += wrong
            self.problems += [f"op {index}: {p}" for p in problems]
            return None
        self.ops.append((elapsed, steps))
        return elapsed

    def loop(self, seconds):
        start = time.perf_counter()
        index = 0
        while True:
            self.operation(index)
            index += 1
            if time.perf_counter() - start >= seconds:
                return


def end_to_end(run, setup_s):
    if not run.ops:
        return None
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s": {"value": statistics.median(t for t, _ in run.ops), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MB"},
    }


def per_layer(tracer, n_ops, overhead_s):
    """Set-up spans once plus operation spans averaged per operation; the
    two probe calls as they are."""
    sd, ss = tracer.totals("setup")
    od, os_ = tracer.totals("op")
    pd, _ = tracer.totals("probe")

    def dur(name):
        return sd[name] + od[name] / n_ops

    def self_(name):
        return ss[name] + os_[name] / n_ops

    def count(name):
        return (tracer.counts[("setup", name)]
                + tracer.counts[("op", name)] / n_ops)

    draw_s = dur("simulate.simulate_trajectories")
    values = {
        "simulate.simulate_s": (dur("simulate.simulate"), "s"),
        "simulate.true_risks_s": (dur("simulate.true_risks"), "s"),
        "simulate.subjects_per_s": (count("simulate.subjects") / draw_s
                                    if draw_s else 0.0, "1/s"),
        "data.ingest_csv_s": (dur("data.ingest_csv"), "s"),
        "data.infer_schema_s": (dur("data.infer_schema"), "s"),
        "data.rows_ingested": (count("data.rows_ingested"), "count"),
        "data.write_csv_s": (dur("data.write_csv"), "s"),
        "data.split_at_treatment_s": (dur("data.split_at_treatment"), "s"),
        "data.split_at_treatment_calls": (
            count("data.split_at_treatment_calls"), "count"),
        "data.compose_outcome_s": (dur("data.compose_outcome"), "s"),
        "cox.fit_s": (dur("cox.fit"), "s"),
        "cox.fit_calls": (count("cox.fit_calls"), "count"),
        "cox.newton_iters": (count("cox.newton_iters"), "count"),
        "cox.event_times": (count("cox.event_times"), "count"),
        "cox.rows": (count("cox.rows"), "count"),
        "cox.loglik_s": (pd["cox.loglik"], "s"),
        "cox.information_s": (pd["cox.information"], "s"),
        "cox.predict_survival_s": (dur("cox.predict_survival"), "s"),
        "competing.cuminc_s": (dur("competing.cuminc"), "s"),
        "competing.cuminc_calls": (count("competing.cuminc_calls"), "count"),
        "weights.fit_treatment_hazard_s": (dur("weights.fit_treatment_hazard"), "s"),
        "weights.stabilized_weights_s": (dur("weights.stabilized_weights"), "s"),
        "weights.rows": (count("weights.rows"), "count"),
        "competing.fit_cause_specific_pair_s": (
            dur("competing.fit_cause_specific_pair"), "s"),
        "strategies.fit_strategy_models_self_s": (
            self_("strategies.fit_strategy_models"), "s"),
        "strategies.predict_risk_self_s": (self_("strategies.predict_risk"), "s"),
        "cli.fit_self_s": (self_("cli.fit"), "s"),
        "cli.predict_self_s": (self_("cli.predict"), "s"),
        "cli.bytes_written": (count("cli.bytes_written"), "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_traced(pm, run, tracer, seconds, spans_path):
    """One untraced operation, traced operations for ``seconds``, then the
    two probe calls; writes the spans and returns the per-layer metrics
    (None if no operation completed)."""
    tracer.uninstall()
    untraced_s = run.operation(0)
    run.ops.clear()
    tracer.phase = "op"
    tracer.install(pm)
    run.loop(seconds)
    tracer.phase = "probe"
    if tracer.captured is None:
        run.problems.append("the probed Cox fit was never made")
    else:
        ds, spec, beta = tracer.captured
        tracer.call("cox.loglik", pm.cox.partial_loglik, ds, spec, beta)
        tracer.call("cox.information", pm.cox.information, ds, spec, beta)
    tracer.uninstall()
    tracer.write(spans_path)
    if not run.ops or untraced_s is None:
        return None
    overhead_s = statistics.median(t for t, _ in run.ops) - untraced_s
    return per_layer(tracer, len(run.ops), overhead_s)


def main(argv=None):
    args = parse_args(argv)
    pm, import_s = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # each run has its own scratch directory, so runs never share files
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run
    work.mkdir(parents=True)
    try:
        return measure(args, pm, import_s, work,
                       base / f"{args.workload}-{os.getpid()}.spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, pm, import_s, work, spans_path):
    """Set up, run and check the workload and print the result line;
    returns the exit code."""
    import numpy
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](pm, work, args.seed)
    tracer = Tracer(capture=workload.capture) if args.trace else None

    if tracer:
        tracer.install(pm)
    setup_samples = []
    for _ in range(1 if tracer else SETUP_REPS):
        sample = 0.0 if tracer else fresh_import_s()
        start = time.perf_counter()
        workload.setup()
        setup_samples.append(sample + time.perf_counter() - start)
    setup_s = statistics.median(setup_samples)
    workload.prepare()

    run = Run(workload)
    if tracer:
        metrics = run_traced(pm, run, tracer, args.seconds, spans_path)
    else:
        run.loop(args.seconds)
        metrics = end_to_end(run, setup_s)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "import_s": import_s, "setup_samples_s": setup_samples,
        "ops": [{"op_s": t, **steps} for t, steps in run.ops],
        "warnings": run.warnings, "problems": run.problems,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(detail), file=sys.stderr)
    if metrics is None:
        print("run.py: no operation completed", file=sys.stderr)
        return 1
    correct = run.wrong == 0 and not (tracer and tracer.captured is None)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
