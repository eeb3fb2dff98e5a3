"""Illness-death simulator with treatment decisions driven by covariates.

Subjects move event-free -> treated -> event (or straight to the event),
with log-linear transition intensities in baseline covariates and
piecewise-constant time-dependent covariates updated on a grid. Latent clocks
are sampled by inverting the piecewise-constant cumulative hazards, so the
untreated event time exists for every subject and equals the factual event
time whenever the treatment intensity is zero.

Randomness: subject i uses the i-th spawn of SeedSequence(seed), so output
depends only on (spec, n, seed) and never on worker scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import (
    CountingProcessDataset,
    CovariateSchema,
    DesignFlavor,
    Episode,
    Status,
    SubjectRecord,
)
from .errors import DataError, InvalidIntensity, NumericError, ScenarioError

STRATEGY_KEYS = ("hypothetical", "composite", "while-untreated", "ignore")


@dataclass(frozen=True)
class Dist:
    """Baseline covariate distribution: normal, uniform, bernoulli or constant."""

    kind: str
    params: dict = field(default_factory=dict)

    def draw(self, rng) -> float:
        p = self.params
        if self.kind == "normal":
            return float(rng.normal(p["mean"], p["sd"]))
        if self.kind == "uniform":
            return float(rng.uniform(p["low"], p["high"]))
        if self.kind == "bernoulli":
            return float(rng.random() < p["p"])
        if self.kind == "constant":
            return float(p["value"])
        raise ScenarioError(f"unknown distribution {self.kind!r}")

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "Dist":
        if not isinstance(d, dict) or "dist" not in d:
            raise ScenarioError(f"{where}: expected a distribution object with a 'dist' key")
        kind = d["dist"]
        required = {"normal": ("mean", "sd"), "uniform": ("low", "high"),
                    "bernoulli": ("p",), "constant": ("value",)}
        if kind not in required:
            raise ScenarioError(f"{where}: unknown distribution {kind!r}")
        missing = [k for k in required[kind] if k not in d]
        if missing:
            raise ScenarioError(f"{where}: distribution {kind!r} missing {missing}")
        return cls(kind, {k: float(d[k]) for k in required[kind]})

    def to_dict(self) -> dict:
        return {"dist": self.kind, **self.params}


@dataclass(frozen=True)
class TVProcess:
    """Piecewise-constant covariate updated at every grid point:
    z_j = drift + rho * z_{j-1} + sd * N(0,1)."""

    init: Dist
    rho: float = 1.0
    sd: float = 0.0
    drift: float = 0.0

    def path(self, rng, n_points: int) -> np.ndarray:
        z = np.empty(n_points)
        z[0] = self.init.draw(rng)
        for j in range(1, n_points):
            z[j] = self.drift + self.rho * z[j - 1] + self.sd * rng.normal()
        return z

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "TVProcess":
        if not isinstance(d, dict) or "init" not in d:
            raise ScenarioError(f"{where}: expected an object with an 'init' distribution")
        return cls(init=Dist.from_dict(d["init"], f"{where}.init"),
                   rho=float(d.get("rho", 1.0)), sd=float(d.get("sd", 0.0)),
                   drift=float(d.get("drift", 0.0)))

    def to_dict(self) -> dict:
        return {"init": self.init.to_dict(), "rho": self.rho, "sd": self.sd,
                "drift": self.drift}


@dataclass(frozen=True)
class LogLinearIntensity:
    """rate(t) = base * exp(sum log_hr[c] * x_c(t) [+ step in time since
    treatment])."""

    base: float
    log_hr: dict = field(default_factory=dict)
    tst_cuts: tuple = ()
    tst_log_hr: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.base) or self.base < 0:
            raise InvalidIntensity(f"base intensity must be finite and >= 0, got {self.base}")
        if any(not math.isfinite(v) for v in self.log_hr.values()):
            raise InvalidIntensity("log hazard ratios must be finite")
        cuts = tuple(float(c) for c in self.tst_cuts)
        coefs = tuple(float(c) for c in self.tst_log_hr)
        if cuts and list(cuts) != sorted(set(cuts)):
            raise InvalidIntensity("tst_cuts must be strictly increasing")
        if cuts and len(coefs) != len(cuts) + 1:
            raise InvalidIntensity("tst_log_hr needs one entry per segment "
                                   "(len(tst_cuts) + 1)")
        if coefs and not cuts and len(coefs) != 1:
            raise InvalidIntensity("tst_log_hr without cuts must have one entry")
        object.__setattr__(self, "tst_cuts", cuts)
        object.__setattr__(self, "tst_log_hr", coefs)

    @property
    def covariate_names(self) -> set:
        return set(self.log_hr)

    def rate(self, x: dict, tst: float | None = None) -> float:
        lp = sum(coef * x[name] for name, coef in self.log_hr.items())
        if self.tst_log_hr and tst is not None:
            lp += self.tst_log_hr[bisect_right(self.tst_cuts, tst)]
        return self.base * math.exp(lp)

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "LogLinearIntensity":
        if not isinstance(d, dict) or "base" not in d:
            raise ScenarioError(f"{where}: expected an object with a 'base' rate")
        try:
            return cls(base=float(d["base"]),
                       log_hr={k: float(v) for k, v in d.get("log_hr", {}).items()},
                       tst_cuts=tuple(d.get("tst_cuts", ())),
                       tst_log_hr=tuple(d.get("tst_log_hr", ())))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    def to_dict(self) -> dict:
        out = {"base": self.base, "log_hr": dict(self.log_hr)}
        if self.tst_cuts or self.tst_log_hr:
            out["tst_cuts"] = list(self.tst_cuts)
            out["tst_log_hr"] = list(self.tst_log_hr)
        return out


@dataclass(frozen=True)
class IntensitySpec:
    """Full generating law: three transition intensities, covariate
    processes, censoring and the observation design."""

    treatment: LogLinearIntensity
    death_untreated: LogLinearIntensity
    death_treated: LogLinearIntensity
    baseline_covariates: dict = field(default_factory=dict)
    tv_covariates: dict = field(default_factory=dict)
    admin_censor: float = 10.0
    dropout_rate: float = 0.0
    grid_step: float | None = None
    design: DesignFlavor = DesignFlavor.CONTINUES_AFTER_TREATMENT
    name: str = "scenario"

    def __post_init__(self):
        object.__setattr__(self, "design", DesignFlavor(self.design))
        if not (self.admin_censor > 0 and math.isfinite(self.admin_censor)):
            raise ScenarioError("admin_censor must be positive and finite")
        if self.dropout_rate < 0:
            raise ScenarioError("dropout_rate must be >= 0")
        if self.tv_covariates and not self.grid_step:
            raise ScenarioError("grid_step is required with time-varying covariates")
        if self.grid_step is not None and self.grid_step <= 0:
            raise ScenarioError("grid_step must be positive")
        known = set(self.baseline_covariates) | set(self.tv_covariates)
        for which in ("treatment", "death_untreated", "death_treated"):
            unknown = getattr(self, which).covariate_names - known
            if unknown:
                raise ScenarioError(
                    f"{which} references undeclared covariates {sorted(unknown)}")
        if self.death_untreated.tst_log_hr or self.treatment.tst_log_hr:
            raise ScenarioError("time-since-treatment terms only apply to "
                                "death_treated")

    @property
    def grid(self) -> np.ndarray:
        """Boundaries of the piecewise-constant segments, ending at the
        administrative censoring time."""
        if not self.grid_step:
            return np.array([0.0, self.admin_censor])
        pts = list(np.arange(0.0, self.admin_censor, self.grid_step))
        if pts[-1] < self.admin_censor:
            pts.append(self.admin_censor)
        return np.asarray(pts)

    @classmethod
    def from_dict(cls, d: dict) -> "IntensitySpec":
        if not isinstance(d, dict):
            raise ScenarioError("scenario must be a JSON object")
        for key in ("treatment", "death_untreated", "death_treated"):
            if key not in d:
                raise ScenarioError(f"scenario misses the {key!r} intensity")
        allowed = {"name", "design", "admin_censor", "dropout_rate", "grid_step",
                   "baseline_covariates", "tv_covariates", "treatment",
                   "death_untreated", "death_treated"}
        unknown = set(d) - allowed
        if unknown:
            raise ScenarioError(f"unknown scenario keys {sorted(unknown)}")
        baseline = {name: Dist.from_dict(v, f"baseline_covariates.{name}")
                    for name, v in d.get("baseline_covariates", {}).items()}
        tv = {name: TVProcess.from_dict(v, f"tv_covariates.{name}")
              for name, v in d.get("tv_covariates", {}).items()}
        try:
            design = DesignFlavor(d.get("design", "continues"))
        except ValueError:
            raise ScenarioError(f"design must be 'continues' or 'stops', "
                                f"got {d.get('design')!r}") from None
        return cls(
            treatment=LogLinearIntensity.from_dict(d["treatment"], "treatment"),
            death_untreated=LogLinearIntensity.from_dict(
                d["death_untreated"], "death_untreated"),
            death_treated=LogLinearIntensity.from_dict(
                d["death_treated"], "death_treated"),
            baseline_covariates=baseline, tv_covariates=tv,
            admin_censor=float(d.get("admin_censor", 10.0)),
            dropout_rate=float(d.get("dropout_rate", 0.0)),
            grid_step=(float(d["grid_step"]) if d.get("grid_step") else None),
            design=design, name=str(d.get("name", "scenario")))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "design": self.design.value,
            "admin_censor": self.admin_censor,
            "dropout_rate": self.dropout_rate,
            "grid_step": self.grid_step,
            "baseline_covariates": {k: v.to_dict()
                                    for k, v in self.baseline_covariates.items()},
            "tv_covariates": {k: v.to_dict() for k, v in self.tv_covariates.items()},
            "treatment": self.treatment.to_dict(),
            "death_untreated": self.death_untreated.to_dict(),
            "death_treated": self.death_treated.to_dict(),
        }


@dataclass
class Trajectory:
    """One subject's latent and observed path."""

    x0: dict
    tv_path: dict
    censor_time: float
    latent_death: float     # untreated event time T0, the counterfactual target
    treat_time: float       # V, inf when never treated
    death_time: float       # factual event time (post-treatment clock if treated)
    observed_end: float
    observed_status: Status
    treatment_observed: bool


def _invert_piecewise(segments, target: float) -> float:
    """First time the piecewise-constant cumulative hazard reaches target."""
    acc = 0.0
    for t0, t1, rate in segments:
        cap = rate * (t1 - t0)
        if cap > 0 and acc + cap >= target:
            return t0 + (target - acc) / rate
        acc += cap
    return math.inf


def _segments(spec: IntensitySpec, intensity, x0, tv_path, start=0.0,
              treat_time=None):
    """Hazard segments from `start` to the grid end; rates use the covariate
    values in force and, for the treated clock, the time since treatment."""
    grid = spec.grid
    bounds = [start] + [g for g in grid if g > start]
    if treat_time is not None and intensity.tst_cuts:
        extra = [treat_time + c for c in intensity.tst_cuts
                 if start < treat_time + c < bounds[-1]]
        bounds = sorted(set(bounds) | set(extra))
    segs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        j = int(np.searchsorted(grid, a, side="right")) - 1
        x = dict(x0)
        for name, path in tv_path.items():
            x[name] = path[min(j, len(path) - 1)]
        tst = a - treat_time if treat_time is not None else None
        segs.append((a, b, intensity.rate(x, tst)))
    return segs


def _simulate_one(spec: IntensitySpec, rng, x0_override=None) -> Trajectory:
    x0 = {name: spec.baseline_covariates[name].draw(rng)
          for name in sorted(spec.baseline_covariates)}
    if x0_override:
        x0.update(x0_override)
    n_seg = spec.grid.size - 1
    tv_path = {name: spec.tv_covariates[name].path(rng, n_seg)
               for name in sorted(spec.tv_covariates)}
    censor = spec.admin_censor
    if spec.dropout_rate > 0:
        censor = min(censor, float(rng.exponential(1.0 / spec.dropout_rate)))

    t0 = _invert_piecewise(
        _segments(spec, spec.death_untreated, x0, tv_path), rng.exponential())
    v = _invert_piecewise(
        _segments(spec, spec.treatment, x0, tv_path), rng.exponential())
    if v < t0:
        death = _invert_piecewise(
            _segments(spec, spec.death_treated, x0, tv_path, start=v,
                      treat_time=v), rng.exponential())
    else:
        death = t0

    if spec.design == DesignFlavor.STOPS_AT_TREATMENT:
        end = min(t0, v, censor)
        if end == t0:
            status = Status.EVENT
        elif end == v:
            status = Status.TREATMENT_START
        else:
            status = Status.CENSORED
        treat_obs = False
    else:
        end = min(death, censor)
        status = Status.EVENT if death <= censor else Status.CENSORED
        treat_obs = v < t0 and v < end

    return Trajectory(x0=x0, tv_path=tv_path, censor_time=censor,
                      latent_death=t0, treat_time=v, death_time=death,
                      observed_end=end, observed_status=status,
                      treatment_observed=treat_obs)


def _episodes(spec: IntensitySpec, traj: Trajectory) -> tuple:
    grid = spec.grid
    end = traj.observed_end
    stops_at_v = (spec.design == DesignFlavor.STOPS_AT_TREATMENT
                  and traj.observed_status == Status.TREATMENT_START)
    v = traj.treat_time if (traj.treatment_observed or stops_at_v) else None
    bounds = {float(g) for g in grid if 0.0 < g < end}
    if v is not None and v < end:
        bounds.add(v)
    bounds = [0.0] + sorted(bounds) + [end]
    episodes = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b == end:
            status = traj.observed_status
        elif v is not None and b == v:
            status = Status.TREATMENT_START
        else:
            status = Status.CENSORED
        j = int(np.searchsorted(grid, a, side="right")) - 1
        tv = {name: float(path[min(j, len(path) - 1)])
              for name, path in traj.tv_path.items()}
        treated = v is not None and a >= v and not stops_at_v
        episodes.append(Episode(a, b, status, treated, tv))
    return tuple(episodes)


def simulate_trajectories(spec: IntensitySpec, n: int, seed: int,
                          x0_override=None, workers: int = 1) -> list:
    if n < 1:
        raise ScenarioError("n must be >= 1")
    children = np.random.SeedSequence(seed).spawn(n)

    def one(child):
        return _simulate_one(spec, np.random.default_rng(child), x0_override)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, children))
    return [one(c) for c in children]


def simulate(spec: IntensitySpec, n: int, seed: int,
             workers: int = 1) -> CountingProcessDataset:
    """Draw n subjects and emit them as a counting-process dataset."""
    trajectories = simulate_trajectories(spec, n, seed, workers=workers)
    schema = CovariateSchema(baseline=tuple(sorted(spec.baseline_covariates)),
                             time_varying=tuple(sorted(spec.tv_covariates)))
    subjects = tuple(
        SubjectRecord(str(i + 1), _episodes(spec, traj), dict(traj.x0))
        for i, traj in enumerate(trajectories))
    return CountingProcessDataset(subjects, schema, spec.design)


# ---------------------------------------------------------------------------
# ground truth


@dataclass(frozen=True)
class TruthOracle:
    """True risks per strategy for a profile, analytic when the law is
    constant given baseline covariates, Monte Carlo otherwise."""

    method: str
    risks: dict
    se: dict
    t_hor: float
    profile: dict
    reps: int | None = None


def _is_constant_given(spec: IntensitySpec, profile: dict) -> bool:
    for intensity in (spec.treatment, spec.death_untreated, spec.death_treated):
        if intensity.covariate_names - set(profile):
            return False
        if intensity.covariate_names & set(spec.tv_covariates):
            return False
        if intensity.tst_log_hr:
            return False
    return True


def constant_intensity_risks(l_treat: float, l_death: float,
                             l_death_treated: float, t: float) -> dict:
    """Closed forms for constant intensities.

    hypothetical = 1 - exp(-l_death t); composite = 1 - exp(-(l_treat +
    l_death) t); while-untreated = the death share of the composite; ignore
    adds the treated-path integral."""
    a = l_treat + l_death
    b = l_death_treated
    composite = -math.expm1(-a * t)
    wu = (l_death / a) * composite if a > 0 else 0.0
    if a > 0:
        if abs(a - b) > 1e-12:
            treated_path = l_treat * (composite / a - math.exp(-b * t)
                                      * -math.expm1(-(a - b) * t) / (a - b))
        else:
            treated_path = l_treat * (composite / a - math.exp(-b * t) * t)
    else:
        treated_path = 0.0
    return {
        "hypothetical": -math.expm1(-l_death * t),
        "composite": composite,
        "while-untreated": wu,
        "ignore": wu + treated_path,
    }


def true_risks(spec: IntensitySpec, profile=None, t_hor: float = 5.0,
               mc_reps: int = 200_000, mc_seed: int = 977_001) -> TruthOracle:
    profile = dict(profile or {})
    if t_hor > spec.admin_censor:
        raise ScenarioError("t_hor must not exceed the scenario's admin_censor "
                            "(the covariate grid ends there)")
    if _is_constant_given(spec, profile):
        risks = constant_intensity_risks(
            spec.treatment.rate(profile), spec.death_untreated.rate(profile),
            spec.death_treated.rate(profile, tst=0.0), t_hor)
        return TruthOracle("analytic", risks,
                           {k: 0.0 for k in STRATEGY_KEYS}, t_hor, profile)

    trajs = simulate_trajectories(spec, mc_reps, mc_seed, x0_override=profile)
    hyp = comp = wu = ign = 0
    for tr in trajs:
        hyp += tr.latent_death <= t_hor
        comp += min(tr.latent_death, tr.treat_time) <= t_hor
        wu += tr.latent_death <= t_hor and tr.latent_death < tr.treat_time
        ign += tr.death_time <= t_hor
    risks = {"hypothetical": hyp / mc_reps, "composite": comp / mc_reps,
             "while-untreated": wu / mc_reps, "ignore": ign / mc_reps}
    se = {k: math.sqrt(max(v * (1 - v), 1e-12) / mc_reps)
          for k, v in risks.items()}
    return TruthOracle("monte-carlo", risks, se, t_hor, profile, reps=mc_reps)


def validate(spec: IntensitySpec, n: int, seeds, strategy_specs,
             profile=None, t_hor: float = 5.0, tolerance: float = 0.02,
             mc_reps: int = 200_000, workers: int = 1) -> dict:
    """Simulate-then-estimate across seeds and compare to the truth oracle.

    Per-strategy entries report bias and RMSE at the horizon plus a pass flag
    against the declared tolerance; data and numeric errors in estimation are
    collected per seed rather than raised, anything else propagates.
    """
    from . import strategies as strat

    profile = dict(profile or {})
    seeds = list(seeds)
    truth = true_risks(spec, profile, t_hor, mc_reps=mc_reps)
    report = {
        "scenario": spec.name,
        "n": n,
        "seeds": seeds,
        "t_hor": t_hor,
        "profile": profile,
        "truth_method": truth.method,
        "strategies": {},
        "all_passed": True,
    }

    estimates = {s.label: [] for s in strategy_specs}
    errors = {s.label: [] for s in strategy_specs}
    for seed in seeds:
        ds = simulate(spec, n, seed, workers=workers)
        for sspec in strategy_specs:
            label = sspec.label
            try:
                curve = strat.estimate(ds, sspec, profile)
                estimates[label].append(float(curve.value_at(t_hor)))
            except (DataError, NumericError) as exc:
                errors[label].append(
                    {"seed": seed, "error": f"{type(exc).__name__}: {exc}"})

    for sspec in strategy_specs:
        label = sspec.label
        truth_key = sspec.strategy.value
        entry = {
            "truth": truth.risks[truth_key],
            "truth_se": truth.se[truth_key],
            "estimates": estimates[label],
            "errors": errors[label],
            "tolerance": tolerance,
        }
        if estimates[label]:
            arr = np.asarray(estimates[label])
            entry["mean"] = float(arr.mean())
            entry["bias"] = float(arr.mean() - truth.risks[truth_key])
            entry["rmse"] = float(np.sqrt(((arr - truth.risks[truth_key]) ** 2).mean()))
            entry["passed"] = bool(abs(entry["bias"]) <= tolerance
                                   and not errors[label])
        else:
            entry["passed"] = False
        report["strategies"][label] = entry
        report["all_passed"] = report["all_passed"] and entry["passed"]
    return report
