"""Step-function curves: cumulative hazards, survival curves, risk curves."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCurve


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function with a flat value before the first jump.

    ``values[k]`` is the value on ``[times[k], times[k+1])``; ``initial`` is
    the value on ``[0, times[0])``.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise InvalidCurve("times and values must be 1-d arrays of equal length")
        if t.size and np.any(np.diff(t) <= 0):
            raise InvalidCurve("jump times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # position 0 holds ``initial``, so a function with no jumps works too
        steps = np.concatenate([[self.initial], self.values])
        out = steps[np.searchsorted(self.times, t, side="right")]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SurvivalCurve:
    """S(t) for one covariate profile; S(0) = 1 and nonincreasing."""

    times: np.ndarray
    surv: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.surv, dtype=float)
        if t.size and np.any(np.diff(t) <= 0):
            raise InvalidCurve("jump times must be strictly increasing")
        if np.any(s < -1e-12) or np.any(s > 1 + 1e-12):
            raise InvalidCurve("survival probabilities must lie in [0, 1]")
        if s.size and np.any(np.diff(s) > 1e-12):
            raise InvalidCurve("survival must be nonincreasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "surv", np.clip(s, 0.0, 1.0))

    def __call__(self, t):
        return StepFunction(self.times, self.surv, initial=1.0)(t)


@dataclass(frozen=True)
class RiskCurve:
    """F(t) = P(outcome by t) for one profile under one strategy.

    F(0) = 0 implicitly; jumps are cut at the horizon and the curve extends
    flat beyond its last jump.
    """

    times: np.ndarray
    risk: np.ndarray
    strategy: str = ""
    profile: dict = field(default_factory=dict)
    horizon: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        r = np.asarray(self.risk, dtype=float)
        if t.size and np.any(np.diff(t) <= 0):
            raise InvalidCurve("jump times must be strictly increasing")
        if t.size and t[0] <= 0:
            raise InvalidCurve("risk jumps must occur at positive times")
        if np.any(r < -1e-12) or np.any(r > 1 + 1e-12):
            raise InvalidCurve("risks must lie in [0, 1]")
        if r.size and np.any(np.diff(r) < -1e-12):
            raise InvalidCurve("risk must be nondecreasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "risk", np.clip(r, 0.0, 1.0))

    @classmethod
    def from_survival(cls, curve: SurvivalCurve, strategy="", profile=None,
                      horizon=None) -> "RiskCurve":
        times, surv = curve.times, curve.surv
        if horizon is not None:
            keep = times <= horizon
            times, surv = times[keep], surv[keep]
        return cls(times, 1.0 - surv, strategy=strategy,
                   profile=dict(profile or {}), horizon=horizon)

    def value_at(self, t) -> float:
        return StepFunction(self.times, self.risk, initial=0.0)(t)

    __call__ = value_at

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "risk"])
            for t, r in zip(self.times, self.risk):
                w.writerow([repr(float(t)), repr(float(r))])

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "profile": self.profile,
            "horizon": self.horizon,
            "time": [float(t) for t in self.times],
            "risk": [float(r) for r in self.risk],
        }
