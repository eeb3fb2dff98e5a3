"""The benchmark workloads.

Each workload has a ``setup`` (input generation, timed and repeated), a
``prepare`` (the reference computations its checks need, untimed), an
``operation`` that returns its step times and outputs, and a ``check`` of
those outputs. Every call into the package goes through a module
attribute looked up at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from pathlib import Path

import numpy as np

import checks
import reference


class OperationFailed(Exception):
    """A CLI command exited with a nonzero code."""


def replicate_seeds(seed: int, index: int, count: int = 2) -> list:
    """Fresh simulation seeds for operation ``index`` of a run."""
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(count)]


class _Steps:
    """Wall time of each step of one operation (one CLI command, one
    label's fit or profile grid), kept for the detail line."""

    def __init__(self):
        self.seconds = {}

    @contextlib.contextmanager
    def step(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start


def _read_curve(path) -> tuple:
    times, risk = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, r in reader:
            times.append(float(t))
            risk.append(float(r))
    return np.asarray(times), np.asarray(risk)


def _read_overlay(path) -> dict:
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for name, t, r in reader:
            rows.setdefault(name, ([], []))
            rows[name][0].append(float(t))
            rows[name][1].append(float(r))
    return {k: (np.asarray(t), np.asarray(r)) for k, (t, r) in rows.items()}


# ---------------------------------------------------------------------------


class S2Cli:
    """s2, n = 5000, through the CLI: seven ``fit`` commands, seven
    ``predict`` commands and one ``predict --all-strategies``."""

    name = "s2-cli"
    n = 5000
    t_hor = 5.0
    #: label -> extra fit arguments
    fits = {
        "ignore": ["--strategy", "ignore"],
        "composite": ["--strategy", "composite"],
        "while-untreated": ["--strategy", "while-untreated"],
        "hypothetical:censor": ["--strategy", "hypothetical", "--method", "censor"],
        "hypothetical:model": ["--strategy", "hypothetical", "--method", "model"],
        "hypothetical:censor-ipcw": ["--strategy", "hypothetical", "--method",
                                     "censor-ipcw", "--weight-covariates", "z"],
        "hypothetical:model-iptw": ["--strategy", "hypothetical", "--method",
                                    "model-iptw", "--weight-covariates", "z"],
    }

    def __init__(self, pm, work: Path, seed: int):
        self.pm, self.work, self.seed = pm, work, seed
        self.data = work / "s2.csv"

    @staticmethod
    def capture(label, spec):
        return label == "hypothetical:model-iptw" and spec.treatment is not None

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.pm.cli.main(argv)
        if code != 0:
            raise OperationFailed(f"{' '.join(argv[:2])} exited {code}: "
                                  f"{err.getvalue().strip()}")

    def setup(self):
        self._cli(["simulate", "--scenario", "s2", "--n", str(self.n),
                   "--seed", str(self.seed), "--out", str(self.data)])

    def prepare(self):
        rows = reference.read_counting_csv(self.data)
        split = reference.censored_at_treatment(rows)
        times, f_event, _ = reference.aalen_johansen(split, self.t_hor)
        risks, _ = reference.s2_monte_carlo(
            reference.S2_T_HOR, reference.S2_REPS, reference.S2_SEED)
        self.ref = {
            "km_censor": reference.product_limit(split, reference.EVENT, self.t_hor),
            "km_composite": reference.product_limit(
                reference.first_of_event_or_treatment(rows), reference.EVENT,
                self.t_hor),
            "aj_event": (times, f_event),
            "hypothetical": risks["hypothetical"],
        }

    def _dir(self, kind, label):
        return str(self.work / f"{kind}_{label.replace(':', '_')}")

    def operation(self, index):
        steps = _Steps()
        for label, extra in self.fits.items():
            with steps.step(f"fit {label}"):
                self._cli(["fit", "--data", str(self.data), "--horizon",
                           str(self.t_hor), "--out", self._dir("fit", label)]
                          + extra)
        for label in self.fits:
            with steps.step(f"predict {label}"):
                self._cli(["predict", "--run", self._dir("fit", label),
                           "--out", self._dir("predict", label)])
        with steps.step("predict --all-strategies"):
            self._cli(["predict", "--run",
                       self._dir("fit", "hypothetical:censor-ipcw"),
                       "--all-strategies", "--out", self._dir("predict", "all")])
        return steps.seconds, None

    def check(self, _):
        curves = {label: _read_curve(Path(self._dir("predict", label)) / "curve.csv")
                  for label in self.fits}
        overlay = _read_overlay(Path(self._dir("predict", "all")) / "overlay.csv")
        return checks.s2_cli(curves, overlay, self.ref, self.t_hor)


class S2Validate:
    """One ``simulate.validate`` call per operation: s2, n = 2000, two fresh
    replicate seeds, five strategies at t_hor = 5, mc_reps = 20000."""

    name = "s2-validate"
    n = 2000
    t_hor = 5.0
    mc_reps = 20_000

    def __init__(self, pm, work: Path, seed: int):
        self.pm, self.work, self.seed = pm, work, seed

    @staticmethod
    def capture(label, spec):
        return label == "hypothetical:censor-ipcw" and spec.covariates == ("z",)

    def setup(self):
        pm = self.pm
        S, H = pm.strategies.Strategy, pm.strategies.HypotheticalMethod
        spec = pm.strategies.StrategySpec
        self.scenario = pm.scenarios.builtin("s2")
        self.specs = [spec(S.IGNORE_TREATMENT, self.t_hor),
                      spec(S.COMPOSITE, self.t_hor),
                      spec(S.WHILE_UNTREATED, self.t_hor),
                      spec(S.HYPOTHETICAL, self.t_hor,
                           hypothetical_method=H.CENSOR_BASELINE),
                      spec(S.HYPOTHETICAL, self.t_hor,
                           hypothetical_method=H.CENSOR_IPCW,
                           weight_covariates=("z",))]

    def prepare(self):
        self.ref_risks, self.ref_se = reference.s2_monte_carlo(
            reference.S2_T_HOR, reference.S2_REPS, reference.S2_SEED)

    def operation(self, index):
        report = self.pm.simulate.validate(
            self.scenario, n=self.n, seeds=replicate_seeds(self.seed, index),
            strategy_specs=self.specs, t_hor=self.t_hor, tolerance=0.02,
            mc_reps=self.mc_reps)
        return {}, report

    def check(self, report):
        return checks.s2_validate(report, [s.label for s in self.specs],
                                  self.ref_risks, self.ref_se, self.mc_reps)


WORKLOADS = {w.name: w for w in (S2Cli, S2Validate)}
