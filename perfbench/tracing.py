"""Spans around the package's public functions, recorded from outside.

A ``Tracer`` replaces each traced function with a wrapper at every module
name its callers look it up by (``split_at_treatment`` in ``data``,
``strategies``, ``weights`` and ``competing``, for instance), records one
span per call (name, start, end, parent, phase) in memory and restores the
originals on ``uninstall``. A span's self time is its duration minus the
time its direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path


def _rows(ds) -> int:
    return sum(len(sub.episodes) for sub in ds.subjects)


def _out_bytes(argv) -> int:
    """Bytes in the files of the ``--out`` directory of a fit or predict."""
    if "--out" not in argv:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0


class Tracer:
    """In-memory span recorder; ``phase`` tags spans as set-up, an
    operation or a probe call."""

    def __init__(self, capture=None):
        #: (name, start, end, parent index, phase)
        self.spans = []
        self.counts = defaultdict(float)
        self.phase = "setup"
        #: predicate(label, cox_spec) choosing the Cox fit to probe
        self.capture = capture
        self.captured = None
        self._stack = []
        self._labels = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1.0):
        self.counts[(self.phase, name)] += value

    # -- wrappers ----------------------------------------------------------

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + "_calls")
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _cox_fit(self, fn):
        @functools.wraps(fn)
        def wrapper(ds, spec):
            rows = _rows(ds)
            model = self.call("cox.fit", fn, ds, spec)
            self.count("cox.fit_calls")
            self.count("cox.rows", rows)
            self.count("cox.newton_iters", model.iterations)
            self.count("cox.event_times", model.baseline_times.size)
            label = self._labels[-1] if self._labels else None
            if self.capture is not None and self.capture(label, spec):
                self.captured = (ds, spec, model.beta)
            return model
        return wrapper

    def _fit_strategy(self, fn):
        @functools.wraps(fn)
        def wrapper(ds, spec):
            self._labels.append(spec.label)
            try:
                return self.call("strategies.fit_strategy_models", fn, ds, spec)
            finally:
                self._labels.pop()
        return wrapper

    def _counting(self, name, fn, counter, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self.count(counter, measure(result))
            return result
        return wrapper

    def _cli_main(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            argv = list(argv or [])
            command = argv[0] if argv else "none"
            code = self.call(f"cli.{command}", fn, argv)
            if command in ("fit", "predict"):
                self.count("cli.bytes_written", _out_bytes(argv))
            return code
        return wrapper

    def install(self, pm):
        """Wrap the traced functions of the package namespace ``pm``."""
        cli, cox, data = pm.cli, pm.cox, pm.data
        sim, strat, wts, comp = pm.simulate, pm.strategies, pm.weights, pm.competing
        plan = [
            ("simulate.simulate", [sim], "simulate"),
            ("simulate.true_risks", [sim], "true_risks"),
            ("data.infer_schema", [data, cli], "infer_schema"),
            ("data.write_csv", [data, cli], "write_csv"),
            ("data.split_at_treatment", [data, strat, wts, comp],
             "split_at_treatment"),
            ("data.compose_outcome", [data, strat], "compose_outcome"),
            ("cox.predict_survival", [cox], "predict_survival"),
            ("weights.fit_treatment_hazard", [wts], "fit_treatment_hazard"),
            ("competing.cuminc", [comp], "cuminc"),
            ("competing.fit_cause_specific_pair", [comp],
             "fit_cause_specific_pair"),
            ("strategies.predict_risk", [strat, cli], "predict_risk"),
        ]
        for name, modules, attr in plan:
            self._patch(modules, attr, self._plain(name, getattr(modules[0], attr)))
        self._patch([sim], "simulate_trajectories", self._counting(
            "simulate.simulate_trajectories", sim.simulate_trajectories,
            "simulate.subjects", len))
        self._patch([data, cli], "ingest_csv", self._counting(
            "data.ingest_csv", data.ingest_csv, "data.rows_ingested", _rows))
        self._patch([wts], "stabilized_weights", self._counting(
            "weights.stabilized_weights", wts.stabilized_weights, "weights.rows",
            lambda table: len(table.rows)))
        self._patch([cox], "fit", self._cox_fit(cox.fit))
        self._patch([strat, cli], "fit_strategy_models",
                    self._fit_strategy(strat.fit_strategy_models))
        self._patch([cli], "main", self._cli_main(cli.main))

    def _patch(self, modules, attr, wrapper):
        for module in modules:
            self._patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- summaries ---------------------------------------------------------

    def totals(self, phase) -> tuple:
        """Summed duration and self time per span name within ``phase``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        duration, self_time = defaultdict(float), defaultdict(float)
        for k, (name, start, end, _, ph) in enumerate(self.spans):
            if ph == phase:
                duration[name] += end - start
                self_time[name] += end - start - child_time[k]
        return duration, self_time

    def write(self, path):
        """Spans as CSV: name, start, end, parent, phase."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,phase\n")
            for name, start, end, parent, phase in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{phase}\n")
