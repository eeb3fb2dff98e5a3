"""Cox proportional hazards on counting-process episodes.

Newton-Raphson maximization of the (optionally weighted) partial likelihood
with Efron or Breslow tie handling, nonparametric baseline cumulative hazard,
step-function time-varying treatment coefficients and Schoenfeld residuals.

Risk-set convention: a row with interval (tstart, tstop] is at risk at event
time t whenever tstart < t <= tstop; events happen at tstop.

Risk-set sums take the counting-process cumulative-sum form of ``agreg`` in
R ``survival`` (Therneau & Grambsch 2000, ch. 3): S0, S1 and S2 of
r = w exp(x'beta) at event time t are reverse cumulative sums over the rows
with tstop >= t minus those over the rows with tstart >= t. One such pass
gives the log likelihood, score, information and baseline increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import StepFunction, SurvivalCurve
from .data import CountingProcessDataset, Status
from .errors import (
    ConvergenceFailure,
    DataError,
    MonotoneLikelihood,
    NoEvents,
    ProfileIncomplete,
    SingularInformation,
)

#: Newton-Raphson stops when every score component is below this.
SCORE_TOL = 1e-9
#: fallback acceptance threshold when the log likelihood has stalled
SCORE_TOL_RELAXED = 1e-8
#: relative log-likelihood change treated as a stall
LOGLIK_RTOL = 1e-10
#: coefficients beyond this bound with a nonvanishing score flag divergence
BETA_BOUND = 15.0
MAX_ITER = 50


@dataclass(frozen=True)
class TreatmentTerm:
    """Include the treatment indicator, optionally with a step-function
    coefficient that jumps at ``tv_cuts``."""

    tv_cuts: tuple = ()

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.tv_cuts)
        if not all(map(math.isfinite, cuts)):
            raise DataError(f"tv_cuts must be finite, got {list(cuts)}")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise DataError("tv_cuts must be strictly increasing")
        if any(c <= 0 for c in cuts):
            raise DataError("tv_cuts must be positive")
        object.__setattr__(self, "tv_cuts", cuts)

    def segment_names(self) -> list:
        if not self.tv_cuts:
            return ["treated"]
        edges = ["0"] + [repr(c) for c in self.tv_cuts] + ["inf"]
        return [f"treated:({lo},{hi}]" for lo, hi in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class CoxSpec:
    """What to fit: event code, covariate terms, optional treatment term,
    tie method and optional episode weights."""

    event_code: Status = Status.EVENT
    covariates: tuple = ()
    treatment: TreatmentTerm | None = None
    ties: str = "efron"
    weights: object = None  # WeightTable with one row per dataset row

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        twice = sorted({c for c in self.covariates if self.covariates.count(c) > 1})
        if twice:
            raise DataError(f"covariates {twice} are listed more than once")
        if self.ties not in ("efron", "breslow"):
            raise DataError(f"unknown tie method {self.ties!r}")


@dataclass
class _Design:
    start: np.ndarray
    stop: np.ndarray
    event: np.ndarray
    X: np.ndarray
    w: np.ndarray
    names: tuple
    subject: np.ndarray


def _build_design(ds: CountingProcessDataset, spec: CoxSpec) -> _Design:
    """One design row per dataset row in dataset order, except that treated
    rows are split at the coefficient cut times so the active segment is
    constant within each piece."""
    cuts = np.asarray(spec.treatment.tv_cuts if spec.treatment else (), float)
    covariates = [ds.covariate(name) for name in spec.covariates]
    names = tuple(spec.covariates) + tuple(
        spec.treatment.segment_names() if spec.treatment else ())

    first_cut = np.searchsorted(cuts, ds.tstart, side="right")
    pieces = np.where(ds.treated, np.searchsorted(cuts, ds.tstop) - first_cut + 1, 1)
    row = np.repeat(np.arange(ds.n_rows), pieces)
    piece = np.arange(row.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    last = piece == pieces[row] - 1
    start, stop = ds.tstart[row], ds.tstop[row]
    start[piece > 0] = cuts[(first_cut[row] + piece - 1)[piece > 0]]
    stop[~last] = cuts[(first_cut[row] + piece)[~last]]

    X = np.zeros((row.size, len(names)))
    for j, col in enumerate(covariates):
        X[:, j] = col[row]
    if spec.treatment:
        on = np.flatnonzero(ds.treated[row])
        X[on, len(covariates) + np.searchsorted(cuts, stop[on])] = 1.0
    w = np.ones(ds.n_rows)
    if spec.weights is not None:
        # the weight table's rows must be the dataset's rows
        if not np.array_equal(spec.weights.rows.tstop, ds.tstop):
            raise DataError(f"the weight table's {len(spec.weights.rows)} rows do not "
                            f"match the dataset's {ds.n_rows} rows")
        w = spec.weights.values
    event = last & (ds.status[row] == spec.event_code)
    return _Design(start, stop, event, X, w[row], names, ds.row_subject[row])


class _RiskSets:
    """Unique event times and the index arrays a sweep sums over.

    A row joins the risk sets at its entry slot (the last event time at or
    before its stop) and leaves them after its exit slot (the first event
    time after its start); rows with no event time inside their interval
    never join. Dead rows are ordered by event time. Each event time has
    one tie slot per death under Efron (slot j of d removes j/d of the tied
    deaths' risk) and one slot with ``frac = 0`` under Breslow.
    """

    def __init__(self, design: _Design, ties: str = "efron"):
        self.design = design
        self.uft = np.unique(design.stop[design.event])
        nuft = self.uft.size
        enter = np.searchsorted(self.uft, design.stop, side="right") - 1
        exit_ = np.searchsorted(self.uft, design.start, side="right")
        self.active = np.flatnonzero(enter >= exit_)
        self.enter = enter[self.active]
        self.exit = exit_[self.active]
        dead = np.flatnonzero(design.event)
        dead_time = np.searchsorted(self.uft, design.stop[dead])
        order = np.argsort(dead_time, kind="stable")
        dead, dead_time = dead[order], dead_time[order]
        self.dead, self.dead_time = dead, dead_time
        deaths = np.bincount(dead_time, minlength=nuft)
        if ties == "efron":
            rank = np.arange(dead.size) - (np.cumsum(deaths) - deaths)[dead_time]
            self.slot_time, self.n_slots = dead_time, deaths
            self.slot_frac = rank / deaths[dead_time]
        else:
            self.slot_time, self.n_slots = np.arange(nuft), np.ones(nuft)
            self.slot_frac = np.zeros(nuft)


def _products(r: np.ndarray, X: np.ndarray):
    """Yield the columns r, rX and rXX' in row-major order."""
    p = X.shape[1]
    yield r
    for i in range(p):
        yield r * X[:, i]
    for i in range(p):
        for j in range(p):
            # one product per pair keeps S2 exactly symmetric
            yield r * X[:, min(i, j)] * X[:, max(i, j)]


def _unpack(sums: np.ndarray, p: int):
    """Split per-time column sums into S0, S1 and S2."""
    return sums[:, 0], sums[:, 1:1 + p], sums[:, 1 + p:].reshape(len(sums), p, p)


def _risk_sums(rs: _RiskSets, r: np.ndarray):
    """S0, S1 and S2 over the risk set at each unique event time: reverse
    cumulative sums of each column binned by entry slot, minus the same
    binned by exit slot."""
    X = rs.design.X[rs.active]
    n_bins = rs.uft.size + 1

    def at_risk(col):
        entered = np.bincount(rs.enter, col, n_bins)[::-1].cumsum()[::-1]
        exited = np.bincount(rs.exit, col, n_bins)[::-1].cumsum()[::-1]
        return entered[:-1] - exited[1:]

    sums = [at_risk(col) for col in _products(r[rs.active], X)]
    return _unpack(np.stack(sums, axis=1), X.shape[1])


def _risk_weights(design: _Design, beta: np.ndarray):
    """The linear predictor, its shift and the shifted risk weights
    r = w exp(lp - shift) of every design row."""
    lp = design.X @ beta
    shift = lp.max(initial=0.0)
    return lp, shift, design.w * np.exp(lp - shift)


def _sweep(rs: _RiskSets, beta: np.ndarray):
    """Log likelihood, score, information and baseline increments at beta.

    Weighted Efron handling spreads the tied event mass over within-tie
    reduced denominators.
    """
    d = rs.design
    p = d.X.shape[1]
    lp, shift, r = _risk_weights(d, beta)
    s0, s1, s2 = _risk_sums(rs, r)

    nuft = rs.uft.size
    dead, t, frac = rs.dead, rs.slot_time, rs.slot_frac
    Xd, wd_rows = d.X[dead], d.w[dead]
    rd, s1d, s2d = _unpack(np.stack(
        [np.bincount(rs.dead_time, col, nuft)
         for col in _products(r[dead], Xd)], axis=1), p)
    # each slot carries its time's event weight over its number of slots
    c = np.bincount(rs.dead_time, wd_rows, nuft) / rs.n_slots
    den = s0[t] - frac * rd[t]
    loglik = float(wd_rows @ lp[dead]) - float(c[t] @ (np.log(den) + shift))
    dH = c * np.bincount(t, np.exp(-shift) / den, nuft)
    u = (s1[t] - frac[:, None] * s1d[t]) / den[:, None]
    score = wd_rows @ Xd - c[t] @ u
    a = np.bincount(t, c[t] / den, nuft)
    b = np.bincount(t, c[t] * frac / den, nuft)
    info = (np.tensordot(a, s2, axes=1) - np.tensordot(b, s2d, axes=1)
            - (u.T * c[t]) @ u)
    return loglik, score, info, dH


@dataclass
class CoxModel:
    """A fitted model: coefficients, observed information, nonparametric
    baseline cumulative hazard and the fitting diagnostics."""

    names: tuple
    beta: np.ndarray
    info: np.ndarray
    loglik: float
    baseline_times: np.ndarray
    baseline_increments: np.ndarray
    covariates: tuple
    treatment: TreatmentTerm | None
    ties: str
    event_code: int
    iterations: int
    score_norm: float
    degenerate: bool
    n_events: int
    weighted: bool
    schema_levels: dict = field(default_factory=dict)

    @property
    def coefficients(self) -> dict:
        return dict(zip(self.names, (float(b) for b in self.beta)))

    def to_dict(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "covariates": list(self.covariates),
            "treatment_cuts": (list(self.treatment.tv_cuts)
                               if self.treatment else None),
            "ties": self.ties,
            "event_code": int(self.event_code),
            "baseline_cumhaz": [[float(t), float(h)] for t, h in
                                zip(self.baseline_times, self.baseline_increments)],
            "loglik": float(self.loglik),
            "iterations": self.iterations,
            "score_norm": float(self.score_norm),
            "degenerate": self.degenerate,
            "n_events": self.n_events,
            "weighted": self.weighted,
            "information": [[float(v) for v in row] for row in self.info],
            "schema_levels": {k: list(v) for k, v in self.schema_levels.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoxModel":
        """The model of a ``to_dict`` mapping; ``coefficients`` must name
        exactly its terms: the covariates, then the treatment segments."""
        treatment = (TreatmentTerm(tuple(d["treatment_cuts"]))
                     if d.get("treatment_cuts") is not None else None)
        names = tuple(d["covariates"]) + tuple(
            treatment.segment_names() if treatment else ())
        if sorted(d["coefficients"]) != sorted(names):
            raise ValueError(f"coefficients name {sorted(d['coefficients'])}, "
                             f"but the model's terms are {list(names)}")
        base = np.asarray(d["baseline_cumhaz"], dtype=float).reshape(-1, 2)
        return cls(
            names=names,
            beta=np.asarray([d["coefficients"][n] for n in names], float),
            info=np.asarray(d["information"], float).reshape(len(names), len(names)),
            loglik=d["loglik"],
            baseline_times=base[:, 0],
            baseline_increments=base[:, 1],
            covariates=tuple(d["covariates"]),
            treatment=treatment,
            ties=d["ties"],
            event_code=d["event_code"],
            iterations=d["iterations"],
            score_norm=d["score_norm"],
            degenerate=d["degenerate"],
            n_events=d["n_events"],
            weighted=d["weighted"],
            schema_levels={k: tuple(v) for k, v in d.get("schema_levels", {}).items()},
        )


def _prepared(ds, spec):
    design = _build_design(ds, spec)
    return design, _RiskSets(design, ties=spec.ties)


def partial_loglik(ds, spec: CoxSpec, beta) -> float:
    _, rs = _prepared(ds, spec)
    return _sweep(rs, np.asarray(beta, float))[0]


def score(ds, spec: CoxSpec, beta) -> np.ndarray:
    _, rs = _prepared(ds, spec)
    return _sweep(rs, np.asarray(beta, float))[1]


def information(ds, spec: CoxSpec, beta) -> np.ndarray:
    _, rs = _prepared(ds, spec)
    return _sweep(rs, np.asarray(beta, float))[2]


def fit(ds: CountingProcessDataset, spec: CoxSpec) -> CoxModel:
    """Newton-Raphson from beta = 0 with step-halving; one sweep per trial
    point gives its log likelihood, score, information and baseline.

    Each pass first tests convergence: every score component below 1e-9, or
    below 1e-8 once the log likelihood has stalled. Then a coefficient past
    +/-15 while the score is above 1e-8 raises MonotoneLikelihood, and a
    spent budget of MAX_ITER accepted steps raises ConvergenceFailure. A
    Newton step that no halving improves ends the fit as converged when the
    score is below 1e-8 (the stalled attempt counts as an iteration) and
    raises ConvergenceFailure otherwise. A singular information matrix with
    a coefficient past +/-15 at the end raises MonotoneLikelihood.
    """
    design, rs = _prepared(ds, spec)
    n_events = int(design.event.sum())
    if n_events == 0:
        raise NoEvents(f"no episode carries event code {int(spec.event_code)}")
    if spec.treatment and spec.treatment.tv_cuts:
        last = float(design.stop.max())
        if spec.treatment.tv_cuts[-1] >= last:
            raise DataError(
                f"tv_cuts must lie within the observed follow-up "
                f"(last cut {spec.treatment.tv_cuts[-1]:g} >= end {last:g})")
    # r x x' summed over all rows stays finite while |x| is below this
    limit = np.sqrt(np.finfo(float).max / max(float(design.w.sum()), 1.0))
    for j in np.flatnonzero(np.abs(design.X).max(axis=0, initial=0.0) > limit)[:1]:
        raise SingularInformation(
            f"covariate {design.names[j]!r} is too large for the partial likelihood "
            f"(|value| up to {np.abs(design.X[:, j]).max():g}, limit {limit:.3g})")
    p = design.X.shape[1]
    beta = np.zeros(p)
    loglik, g, info, dH = _sweep(rs, beta)
    iterations, rel = 0, np.inf
    while True:
        gmax = float(np.abs(g).max(initial=0.0))
        if gmax < SCORE_TOL or (rel < LOGLIK_RTOL and gmax < SCORE_TOL_RELAXED):
            break
        if np.any(np.abs(beta) > BETA_BOUND) and gmax > SCORE_TOL_RELAXED:
            j = int(np.abs(beta).argmax())
            raise MonotoneLikelihood(
                f"coefficient for {design.names[j]!r} diverges "
                f"(|beta| > {BETA_BOUND:g} with max |score| = {gmax:.3g})")
        if iterations == MAX_ITER:
            raise ConvergenceFailure(
                f"no convergence in {MAX_ITER} iterations (max |score| = {gmax:.3g})")
        iterations += 1
        try:
            step = np.linalg.solve(info, g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(info, g, rcond=None)
        if not np.all(np.isfinite(step)):
            raise SingularInformation("Newton step is not finite")
        for halvings in range(30):
            cand = beta + 0.5 ** halvings * step
            # a trial point whose risk sets underflow is rejected, silently
            with np.errstate(all="ignore"):
                trial = _sweep(rs, cand)
            if np.isfinite(trial[0]) and trial[0] >= loglik - 1e-12 * (abs(loglik) + 1.0):
                break
        else:
            if gmax < SCORE_TOL_RELAXED:
                break
            raise ConvergenceFailure(
                f"step-halving stalled with max |score| = {gmax:.3g}")
        rel = abs(trial[0] - loglik) / (abs(loglik) + 1e-10)
        beta = cand
        loglik, g, info, dH = trial

    eig = np.linalg.eigvalsh(info) if p else np.array([1.0])
    degenerate = bool(eig.min() <= 1e-12 * max(1.0, eig.max()))
    if degenerate and np.any(np.abs(beta) > BETA_BOUND):
        j = int(np.abs(beta).argmax())
        raise MonotoneLikelihood(
            f"coefficient for {design.names[j]!r} diverges (|beta| > {BETA_BOUND:g} "
            "with a singular information matrix)")
    return CoxModel(
        names=design.names, beta=beta, info=info, loglik=loglik,
        baseline_times=rs.uft, baseline_increments=dH,
        covariates=spec.covariates, treatment=spec.treatment, ties=spec.ties,
        event_code=int(spec.event_code), iterations=iterations,
        score_norm=gmax, degenerate=degenerate,
        n_events=n_events, weighted=spec.weights is not None,
        schema_levels=dict(ds.schema.levels))


def baseline_cumhaz(model: CoxModel) -> StepFunction:
    """Baseline cumulative hazard H0(t) as a step function, H0(0) = 0."""
    return StepFunction(model.baseline_times,
                        np.cumsum(model.baseline_increments), initial=0.0)


def _profile_lp(model: CoxModel, profile: dict) -> float:
    lp = 0.0
    for j, name in enumerate(model.covariates):
        if name not in profile:
            raise ProfileIncomplete(f"profile misses covariate {name!r}")
        lp += model.beta[j] * float(profile[name])
    return lp


def predict_survival(model: CoxModel, profile: dict,
                     treated: bool = False) -> SurvivalCurve:
    """S(t | profile) = exp(-sum dH0(t_k) exp(lp(t_k))).

    ``treated`` holds the treatment indicator at 1 from time 0 on: at each
    baseline time t_k the coefficient of the segment holding t_k enters
    the linear predictor (a model without a treatment term ignores it).
    """
    times = model.baseline_times
    lp = np.full(times.shape, _profile_lp(model, profile))
    if treated and model.treatment is not None:
        segment = np.searchsorted(model.treatment.tv_cuts, times, side="left")
        lp += model.beta[len(model.covariates) + segment]
    haz = model.baseline_increments * np.exp(lp)
    surv = np.exp(-np.cumsum(haz))
    return SurvivalCurve(times, surv)


@dataclass(frozen=True)
class SchoenfeldResiduals:
    """One row per event: observed covariates minus the risk-set weighted
    mean at the event time."""

    times: np.ndarray
    subject_ids: tuple
    names: tuple
    residuals: np.ndarray


def schoenfeld_residuals(model: CoxModel, ds: CountingProcessDataset
                         ) -> SchoenfeldResiduals:
    spec = CoxSpec(event_code=Status(model.event_code),
                   covariates=model.covariates, treatment=model.treatment,
                   ties=model.ties)
    design, rs = _prepared(ds, spec)
    s0, s1, _ = _risk_sums(rs, _risk_weights(design, model.beta)[2])
    xbar = s1 / s0[:, None]
    return SchoenfeldResiduals(
        times=rs.uft[rs.dead_time],
        subject_ids=tuple(ds.ids[s] for s in design.subject[rs.dead]),
        names=design.names,
        residuals=design.X[rs.dead] - xbar[rs.dead_time])
