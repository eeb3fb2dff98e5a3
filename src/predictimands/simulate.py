"""Illness-death simulator with treatment decisions driven by covariates.

Subjects move event-free -> treated -> event (or straight to the event),
with log-linear transition intensities in baseline covariates and
piecewise-constant time-dependent covariates updated on a grid. Latent clocks
are sampled by inverting the piecewise-constant cumulative hazards, so the
untreated event time exists for every subject and equals the factual event
time whenever the treatment intensity is zero.

Randomness: subject i draws from its own generator on the i-th spawn of
SeedSequence(seed), so output depends only on (spec, n, seed). One short
loop draws each subject's numbers; the covariate paths, the intensities and
the inversion of the cumulative hazards are array passes over all subjects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    CountingProcessDataset,
    CovariateSchema,
    DesignFlavor,
    Status,
)
from .errors import DataError, InvalidIntensity, NumericError, ScenarioError

STRATEGY_KEYS = ("hypothetical", "composite", "while-untreated", "ignore")
#: subjects per block of the Monte Carlo truth
TRUTH_BLOCK = 20_000


def _number(value, where: str) -> float:
    """``value`` as a finite float, else a ScenarioError naming ``where``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: must be finite, got {value!r}")
    return number


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
        p = {k: _number(d[k], f"{where}.{k}") for k in required[kind]}
        if kind == "normal" and p["sd"] < 0:
            raise ScenarioError(f"{where}: sd must be >= 0, got {p['sd']}")
        if kind == "uniform" and p["low"] > p["high"]:
            raise ScenarioError(f"{where}: low {p['low']} must not exceed high {p['high']}")
        if kind == "bernoulli" and not 0.0 <= p["p"] <= 1.0:
            raise ScenarioError(f"{where}: p must lie in [0, 1], got {p['p']}")
        return cls(kind, p)

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

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "TVProcess":
        if not isinstance(d, dict) or "init" not in d:
            raise ScenarioError(f"{where}: expected an object with an 'init' distribution")
        rho, sd, drift = (_number(d.get(k, default), f"{where}.{k}")
                          for k, default in (("rho", 1.0), ("sd", 0.0), ("drift", 0.0)))
        if sd < 0:
            raise ScenarioError(f"{where}: sd must be >= 0, got {sd}")
        return cls(init=Dist.from_dict(d["init"], f"{where}.init"),
                   rho=rho, sd=sd, drift=drift)

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
        if any(not math.isfinite(c) for c in cuts + coefs):
            raise InvalidIntensity("tst_cuts and tst_log_hr must be finite")
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

    def rate(self, x: dict, tst=None):
        """The intensity at covariate values ``x`` (numbers, or arrays that
        broadcast to the segments) and time since treatment ``tst``."""
        lp = 0.0
        for name, coef in self.log_hr.items():
            lp = lp + coef * x[name]
        if self.tst_log_hr and tst is not None:
            steps = np.searchsorted(self.tst_cuts, tst, side="right")
            lp = lp + np.asarray(self.tst_log_hr)[steps]
        return self.base * _exp(lp)

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
        if not (math.isfinite(self.dropout_rate) and self.dropout_rate >= 0):
            raise ScenarioError("dropout_rate must be finite and >= 0")
        if self.tv_covariates and not self.grid_step:
            raise ScenarioError("grid_step is required with time-varying covariates")
        if self.grid_step is not None and not (math.isfinite(self.grid_step)
                                               and self.grid_step > 0):
            raise ScenarioError("grid_step must be positive and finite")
        known = set(self.baseline_covariates) | set(self.tv_covariates)
        for which in ("treatment", "death_untreated", "death_treated"):
            unknown = getattr(self, which).covariate_names - known
            if unknown:
                raise ScenarioError(
                    f"{which} references undeclared covariates {sorted(unknown)}")
        if self.death_untreated.tst_log_hr or self.treatment.tst_log_hr:
            raise ScenarioError("time-since-treatment terms only apply to "
                                "death_treated")

    def rate(self, which: str, x: dict, tst=None):
        """``LogLinearIntensity.rate`` of the intensity named ``which``; a log
        intensity beyond the range of exp is an InvalidIntensity naming it."""
        try:
            return getattr(self, which).rate(x, tst)
        except OverflowError:
            raise InvalidIntensity(f"{which}: log intensity above about 709.78, beyond "
                                   "the range of exp") from None

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
            admin_censor=_number(d.get("admin_censor", 10.0), "admin_censor"),
            dropout_rate=_number(d.get("dropout_rate", 0.0), "dropout_rate"),
            grid_step=(_number(d["grid_step"], "grid_step")
                       if d.get("grid_step") else None),
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


@dataclass(eq=False)
class Trajectories:
    """Latent and factual clocks of n subjects, as columns.

    ``x0`` maps each baseline covariate (and each overridden name) to its
    (n,) values and ``tv`` each time-varying covariate to its (n, n_seg)
    values on the grid segments. ``latent_death`` is the untreated event
    time T0, the counterfactual target; ``treat_time`` is V, inf when never
    treated; ``death_time`` is the factual event time, on the treated clock
    when V < T0.
    """

    x0: dict
    tv: dict
    censor_time: np.ndarray
    latent_death: np.ndarray
    treat_time: np.ndarray
    death_time: np.ndarray

    def __len__(self) -> int:
        return self.censor_time.size


def _exp(lp):
    """``math.exp`` of each entry, one column at a time: ``np.exp`` rounds
    differently on some SIMD paths, which would change the drawn clocks."""
    if np.ndim(lp) == 0:
        return math.exp(lp)
    out = np.empty(lp.shape)
    for j in range(lp.shape[1]):
        out[:, j] = np.fromiter(map(math.exp, lp[:, j].tolist()), float, lp.shape[0])
    return out


def _invert(a, width, rate, target) -> np.ndarray:
    """Per row, the first time the piecewise-constant cumulative hazard
    reaches ``target``; segments start at ``a`` and have the given width and
    rate. Segments of zero width are skipped; inf when the target is never
    reached."""
    shape = (target.size, np.shape(width)[-1])
    a, width, rate = (np.broadcast_to(x, shape) for x in (a, width, rate))
    cap = np.where(width > 0, rate * width, 0.0)
    cum = np.cumsum(cap, axis=1)
    hit = (cap > 0) & (cum >= target[:, None])
    k = hit.argmax(axis=1)
    rows = np.flatnonzero(hit[np.arange(target.size), k])
    k = k[rows]
    prev = np.where(k > 0, cum[rows, k - 1], 0.0)
    out = np.full(target.size, np.inf)
    out[rows] = a[rows, k] + (target[rows] - prev) / rate[rows, k]
    return out


def _draw(spec: IntensitySpec, n: int, root) -> tuple:
    """The random numbers of n subjects. Subject i draws from its own
    generator on the next spawn of ``root``: each baseline covariate in name
    order; per time-varying covariate its initial value and n_seg - 1
    innovations; the dropout clock; three unit exponentials for T0, V and
    the treated clock (the last is unused when V >= T0)."""
    baseline = [spec.baseline_covariates[k] for k in sorted(spec.baseline_covariates)]
    processes = [spec.tv_covariates[k] for k in sorted(spec.tv_covariates)]
    n_seg = spec.grid.size - 1
    x0 = np.empty((len(baseline), n))
    z0 = np.empty((len(processes), n))
    noise = np.empty((len(processes), n, n_seg - 1))
    dropout = np.full(n, np.inf)
    clocks = np.empty((n, 3))
    scale = 1.0 / spec.dropout_rate if spec.dropout_rate > 0 else None
    for i in range(n):
        rng = np.random.default_rng(root.spawn(1)[0])
        for k, dist in enumerate(baseline):
            x0[k, i] = dist.draw(rng)
        for k, process in enumerate(processes):
            z0[k, i] = process.init.draw(rng)
            rng.standard_normal(out=noise[k, i])
        if scale is not None:
            dropout[i] = rng.exponential(scale)
        rng.standard_exponential(out=clocks[i])
    return x0, z0, noise, dropout, clocks


def simulate_trajectories(spec: IntensitySpec, n: int, seed,
                          x0_override=None) -> Trajectories:
    """Latent clocks of n subjects. Subject i draws from the i-th spawn of
    ``SeedSequence(seed)``; a ``SeedSequence`` given as ``seed`` continues
    from its next spawn, so consecutive calls extend one stream. Covariates
    named in ``x0_override`` are fixed at the given values after the draws."""
    if n < 1:
        raise ScenarioError("n must be >= 1")
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    x0_draws, z0, noise, dropout, clocks = _draw(spec, n, root)
    grid = spec.grid
    n_seg = grid.size - 1

    x0 = dict(zip(sorted(spec.baseline_covariates), x0_draws))
    x0.update({name: np.full(n, float(value))
               for name, value in (x0_override or {}).items()})
    tv = {}
    for k, name in enumerate(sorted(spec.tv_covariates)):
        process, z = spec.tv_covariates[name], np.empty((n, n_seg))
        z[:, 0] = z0[k]
        for j in range(1, n_seg):
            z[:, j] = (process.drift + process.rho * z[:, j - 1]
                       + process.sd * noise[k, :, j - 1])
        tv[name] = z
    values = {name: col[:, None] for name, col in x0.items()}
    values.update(tv)

    width = np.diff(grid)
    t0 = _invert(grid[:-1], width, spec.rate("death_untreated", values), clocks[:, 0])
    v = _invert(grid[:-1], width, spec.rate("treatment", values), clocks[:, 1])

    # the treated clock starts at V, on segments cut at the grid points after
    # V and at V + tst_cuts inside the grid; padding with the grid end gives
    # zero-width segments, which the inversion skips
    death = np.where(v < t0, np.inf, t0)
    sel = np.flatnonzero((v < t0) & (v < grid[-1]))
    if sel.size:
        vs = v[sel, None]
        after = np.where(grid[1:] > vs, grid[1:], grid[-1])
        shifted = vs + np.asarray(spec.death_treated.tst_cuts, float)
        shifted = np.where((vs < shifted) & (shifted < grid[-1]), shifted, grid[-1])
        bounds = np.sort(np.concatenate([vs, after, shifted], axis=1), axis=1)
        a = bounds[:, :-1]
        j = np.minimum(np.searchsorted(grid, a, side="right") - 1, n_seg - 1)
        treated = {name: col[sel, None] for name, col in x0.items()}
        treated.update({name: np.take_along_axis(z[sel], j, axis=1)
                        for name, z in tv.items()})
        death[sel] = _invert(a, bounds[:, 1:] - a,
                             spec.rate("death_treated", treated, a - vs),
                             clocks[sel, 2])

    censor = np.minimum(spec.admin_censor, dropout)
    return Trajectories(x0, tv, censor, t0, v, death)


def simulate(spec: IntensitySpec, n: int, seed: int,
             workers: int = 1) -> CountingProcessDataset:
    """Draw n subjects and emit them as a counting-process dataset: rows end
    at the grid points inside follow-up, at V when it is observed and at the
    end of follow-up. ``workers`` has no effect."""
    tr = simulate_trajectories(spec, n, seed)
    grid = spec.grid
    t0, v, censor = tr.latent_death, tr.treat_time, tr.censor_time
    if spec.design == DesignFlavor.STOPS_AT_TREATMENT:
        end = np.minimum(np.minimum(t0, v), censor)
        final = np.where(end == t0, Status.EVENT,
                         np.where(end == v, Status.TREATMENT_START, Status.CENSORED))
        switch = np.zeros(n, bool)
    else:
        end = np.minimum(tr.death_time, censor)
        final = np.where(tr.death_time <= censor, Status.EVENT, Status.CENSORED)
        switch = (v < t0) & (v < end)

    inner = np.concatenate([np.where(grid[1:] < end[:, None], grid[1:], np.inf),
                            np.where(switch, v, np.inf)[:, None]], axis=1)
    inner.sort(axis=1)
    keep = inner < np.inf
    keep[:, 1:] &= inner[:, 1:] != inner[:, :-1]
    tstop = np.concatenate([inner, end[:, None]], axis=1)[
        np.concatenate([keep, np.ones((n, 1), bool)], axis=1)]
    offsets = np.concatenate([[0], np.cumsum(keep.sum(axis=1) + 1)])
    tstart = np.concatenate([[0.0], tstop[:-1]])
    tstart[offsets[:-1]] = 0.0
    sub = np.repeat(np.arange(n), np.diff(offsets))
    last = np.zeros(tstop.size, bool)
    last[offsets[1:] - 1] = True
    status = np.where(last, final[sub],
                      np.where(switch[sub] & (tstop == v[sub]),
                               Status.TREATMENT_START, Status.CENSORED))
    treated = switch[sub] & (tstart >= v[sub])

    schema = CovariateSchema(baseline=tuple(sorted(spec.baseline_covariates)),
                             time_varying=tuple(sorted(spec.tv_covariates)))
    seg = np.minimum(np.searchsorted(grid, tstart, side="right") - 1, grid.size - 2)
    columns = {name: tr.x0[name][sub] for name in schema.baseline}
    columns.update({name: z[sub, seg] for name, z in tr.tv.items()})
    return CountingProcessDataset(schema, spec.design, [str(i + 1) for i in range(n)],
                                  offsets, tstart, tstop, status, treated, columns)


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
            spec.rate("treatment", profile), spec.rate("death_untreated", profile),
            spec.rate("death_treated", profile, 0.0), t_hor)
        return TruthOracle("analytic", risks,
                           {k: 0.0 for k in STRATEGY_KEYS}, t_hor, profile)

    if mc_reps < 1:
        raise ScenarioError("mc_reps must be >= 1")
    # one stream of mc_reps subjects, drawn in blocks to bound the memory
    root = np.random.SeedSequence(mc_seed)
    hits = np.zeros(4, np.int64)
    for start in range(0, mc_reps, TRUTH_BLOCK):
        tr = simulate_trajectories(spec, min(TRUTH_BLOCK, mc_reps - start),
                                   root, x0_override=profile)
        t0, v = tr.latent_death, tr.treat_time
        hits += [np.count_nonzero(t0 <= t_hor),
                 np.count_nonzero(np.minimum(t0, v) <= t_hor),
                 np.count_nonzero((t0 <= t_hor) & (t0 < v)),
                 np.count_nonzero(tr.death_time <= t_hor)]
    risks = {key: float(h / mc_reps) for key, h in zip(STRATEGY_KEYS, hits)}
    se = {k: math.sqrt(max(v * (1 - v), 1e-12) / mc_reps)
          for k, v in risks.items()}
    return TruthOracle("monte-carlo", risks, se, t_hor, profile, reps=mc_reps)


def validate(spec: IntensitySpec, n: int, seeds, strategy_specs,
             profile=None, t_hor: float = 5.0, tolerance: float = 0.02,
             mc_reps: int = 200_000, workers: int = 1) -> dict:
    """Simulate-then-estimate across seeds and compare to the truth oracle.

    Per-strategy entries report bias and RMSE at the horizon, the Monte Carlo
    SE of the bias (sd of the estimates / sqrt(seeds), None below two
    estimates) and a pass flag against the declared tolerance; data and
    numeric errors in estimation are collected per seed rather than raised,
    anything else propagates.
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
        ds = simulate(spec, n, seed)
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
        k = len(estimates[label])
        entry = {
            "truth": truth.risks[truth_key],
            "truth_se": truth.se[truth_key],
            # Monte Carlo SE of the bias (Morris, White & Crowther 2019)
            "bias_mcse": (float(np.std(estimates[label], ddof=1) / math.sqrt(k))
                          if k >= 2 else None),
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
