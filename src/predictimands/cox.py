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
    NumericError,
    ProfileIncomplete,
    SingularInformation,
)

#: Newton-Raphson has converged when the Newton decrement g'I^-1 g is at
#: most this per unit of event weight
DECREMENT_TOL = 1e-20
#: a coefficient whose |beta| times its column's range passes this diverges,
#: unless its Newton step no longer moves it outward by 1 over that range
BETA_BOUND = 15.0
#: a column whose Cholesky pivot is at most this times its diagonal is aliased
ALIAS_TOL = np.finfo(float).eps ** 0.75
MAX_ITER = 50
#: a hazard increment adds at most this to a running sum, past which exp(-H)
#: is 0: no subject's hazard then swamps the sums of the subjects after it
SATURATED = 1e3


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
    #: the dataset whose rows these are, None when tv_cuts split some
    rows_of: CountingProcessDataset | None
    event_code: int


def _build_design(ds: CountingProcessDataset, spec: CoxSpec) -> _Design:
    """One design row per dataset row in dataset order, except that treated
    rows are split at the coefficient cut times so the active segment is
    constant within each piece. When no row is split, the design shares
    the dataset's read-only columns and the weight table's weights, and
    its risk sets the slots the dataset remembers."""
    cuts = np.asarray(spec.treatment.tv_cuts if spec.treatment else (), float)
    covariates = [ds.covariate(name) for name in spec.covariates]
    names = tuple(spec.covariates) + tuple(
        spec.treatment.segment_names() if spec.treatment else ())

    w = np.ones(ds.n_rows)
    if spec.weights is not None:
        # the weight table's rows must be the dataset's rows
        if not np.array_equal(spec.weights.rows.tstop, ds.tstop):
            raise DataError(f"the weight table's {spec.weights.rows.n_rows} rows do not "
                            f"match the dataset's {ds.n_rows} rows")
        w = spec.weights.values
    start, stop, status, treated, subject = (
        ds.tstart, ds.tstop, ds.status, ds.treated, ds.row_subject)
    last, rows_of = True, ds
    if cuts.size:
        first_cut = np.searchsorted(cuts, start, side="right")
        pieces = np.where(treated, np.searchsorted(cuts, stop) - first_cut + 1, 1)
        if (pieces > 1).any():  # else the rows are used as they are
            row = np.repeat(np.arange(ds.n_rows), pieces)
            piece = np.arange(row.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
            last, rows_of = piece == pieces[row] - 1, None
            start, stop = start[row], stop[row]
            start[piece > 0] = cuts[(first_cut[row] + piece - 1)[piece > 0]]
            stop[~last] = cuts[(first_cut[row] + piece)[~last]]
            status, treated, subject, w = status[row], treated[row], subject[row], w[row]
            covariates = [col[row] for col in covariates]

    X = np.zeros((stop.size, len(names)))
    for j, col in enumerate(covariates):
        X[:, j] = col
    if spec.treatment:
        on = np.flatnonzero(treated)
        X[on, len(covariates) + np.searchsorted(cuts, stop[on])] = 1.0
    event = last & (status == spec.event_code)
    return _Design(start, stop, event, X, w, names, subject, rows_of, int(spec.event_code))


def _slots(times: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """The risk-set slots of rows (start, stop] over sorted unique ``times``.

    A row joins the risk sets at its entry slot (the last time at or before
    its stop) and leaves them after its exit slot (the first time after its
    start), so it is at risk at time k when exit <= k <= entry. Returns
    every row's entry and exit slots and the rows at risk at some time,
    those with a time inside their interval.
    """
    enter = np.searchsorted(times, stop, side="right") - 1
    # a row that starts where the row before it stops leaves one slot after
    # that row's entry: both count the times at or before that instant
    follows = np.zeros(start.size, bool)
    follows[1:] = start[1:] == stop[:-1]
    exit_ = np.empty_like(enter)
    exit_[1:][follows[1:]] = enter[:-1][follows[1:]] + 1
    exit_[~follows] = np.searchsorted(times, start[~follows], side="right")
    return enter, exit_, np.flatnonzero(enter >= exit_)


def _event_slots(ds: CountingProcessDataset, code) -> tuple:
    """The unique stop times of the rows of ``ds`` with status ``code`` and
    the ``_slots`` of all its rows over them, as read-only arrays: built on
    the first call for each code and remembered by ``ds``."""
    def build():
        times = np.unique(ds.tstop[ds.status == code])
        arrays = (times, *_slots(times, ds.tstart, ds.tstop))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    return ds._remember(("slots", int(code)), build)


def _model_slots(model: CoxModel, ds: CountingProcessDataset) -> tuple:
    """The ``_slots`` of the rows of ``ds`` over the model's baseline
    times: those ``ds`` remembers when the times are its own grid for the
    model's event code."""
    times, *slots = _event_slots(ds, model.event_code)
    if np.array_equal(times, model.baseline_times):
        return tuple(slots)
    return _slots(model.baseline_times, ds.tstart, ds.tstop)


def _at_risk(enter: np.ndarray, exit_: np.ndarray, n_times: int, col=None) -> np.ndarray:
    """The sum of ``col`` (the count, if None) over the rows at risk at
    each of ``n_times`` times, given the slots of rows at risk at some
    time: reverse cumulative sums binned by entry slot, minus the same
    binned by exit slot."""
    entered = np.bincount(enter, col, n_times + 1)[::-1].cumsum()[::-1]
    exited = np.bincount(exit_, col, n_times + 1)[::-1].cumsum()[::-1]
    return entered[:-1] - exited[1:]


class _RiskSets:
    """Unique event times and the index arrays a sweep sums over.

    ``active``, ``enter`` and ``exit`` are the rows at risk at some event
    time and their slots, as ``_slots`` gives them, or as the design's
    dataset remembers them when they are its own rows. Dead rows are ordered
    by event time. Each event time has one tie slot per death under Efron
    (slot j of d removes j/d of the tied deaths' risk) and one slot with
    ``frac = 0`` under Breslow.
    """

    def __init__(self, design: _Design, ties: str = "efron"):
        self.design = design
        if design.rows_of is not None:
            self.uft, enter, exit_, self.active = _event_slots(design.rows_of,
                                                               design.event_code)
        else:
            self.uft = np.unique(design.stop[design.event])
            enter, exit_, self.active = _slots(self.uft, design.start, design.stop)
        nuft = self.uft.size
        self.enter = enter[self.active]
        self.exit = exit_[self.active]
        dead = np.flatnonzero(design.event)
        dead_time = enter[dead]  # a dead row's stop is an event time
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
    """S0, S1 and S2 over the risk set at each unique event time, each
    column summed by ``_at_risk``."""
    X = rs.design.X[rs.active]
    sums = [_at_risk(rs.enter, rs.exit, rs.uft.size, col)
            for col in _products(r[rs.active], X)]
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
        return dict(zip(self.names, self.beta.tolist()))

    def to_dict(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "covariates": list(self.covariates),
            "treatment_cuts": (list(self.treatment.tv_cuts)
                               if self.treatment else None),
            "ties": self.ties,
            "event_code": self.event_code,
            "baseline_cumhaz": np.column_stack(
                [self.baseline_times, self.baseline_increments]).tolist(),
            "loglik": self.loglik,
            "iterations": self.iterations,
            "score_norm": self.score_norm,
            "degenerate": self.degenerate,
            "n_events": self.n_events,
            "weighted": self.weighted,
            "information": self.info.tolist(),
            "schema_levels": {k: list(v) for k, v in self.schema_levels.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoxModel":
        """The model of a ``to_dict`` mapping; ``coefficients`` must name
        exactly its terms: the covariates, then the treatment segments.
        Coefficients, information, baseline hazard, log likelihood and score
        norm must be finite, the counts nonnegative integers and the flags
        booleans; ``ties`` is a tie method and ``event_code`` the code of an
        event or of a treatment start. The baseline's increments must be
        nonnegative, and its jump times at most ``n_events``, at least one
        when there are events."""
        if d["ties"] not in ("efron", "breslow"):
            raise ValueError(f"ties must be 'efron' or 'breslow', got {d['ties']!r}")
        codes = (int(Status.EVENT), int(Status.TREATMENT_START))
        if type(d["event_code"]) is not int or d["event_code"] not in codes:
            raise ValueError(f"event_code must be one of {list(codes)}, "
                             f"got {d['event_code']!r}")
        treatment = (TreatmentTerm(tuple(d["treatment_cuts"]))
                     if d.get("treatment_cuts") is not None else None)
        names = tuple(d["covariates"]) + tuple(
            treatment.segment_names() if treatment else ())
        if sorted(d["coefficients"]) != sorted(names):
            raise ValueError(f"coefficients name {sorted(d['coefficients'])}, "
                             f"but the model's terms are {list(names)}")
        beta = np.asarray([d["coefficients"][n] for n in names], float)
        info = np.asarray(d["information"], float).reshape(len(names), len(names))
        base = np.asarray(d["baseline_cumhaz"], dtype=float).reshape(-1, 2)
        for key, values in (("coefficients", beta), ("information", info),
                            ("baseline_cumhaz", base)):
            if not np.isfinite(values).all():
                raise ValueError(f"{key} must hold finite numbers")
        for keys, kind, valid in (
                (("loglik", "score_norm"), "a finite number",
                 lambda v: type(v) is int or type(v) is float and math.isfinite(v)),
                (("iterations", "n_events"), "a nonnegative integer",
                 lambda v: type(v) is int and v >= 0),
                (("degenerate", "weighted"), "true or false", lambda v: type(v) is bool)):
            for key in keys:
                if not valid(d[key]):
                    raise ValueError(f"{key} must be {kind}, got {d[key]!r}")
        if (base[:, 1] < 0).any():
            raise ValueError("baseline_cumhaz increments must be nonnegative")
        # the baseline jumps at distinct event times, at least one if any
        if len(base) > d["n_events"] or len(base) == 0 < d["n_events"]:
            raise ValueError(f"baseline_cumhaz has {len(base)} jump times, but the "
                             f"model has {d['n_events']} events")
        return cls(
            names=names,
            beta=beta,
            info=info,
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

    Each pass solves for the Newton step and stops when the Newton
    decrement g'I^-1 g is at most DECREMENT_TOL times the total event
    weight. Otherwise a coefficient whose |beta| times its column's range
    passes BETA_BOUND, and whose Newton step times that range still moves it
    outward by at least 1, raises MonotoneLikelihood, and a spent budget of
    MAX_ITER accepted steps raises ConvergenceFailure, as does a Newton step
    that no halving improves. Both tests are scale-free: a covariate in
    other units, or every case weight times a constant, takes the same
    steps. A column is held at beta = 0, and the fit is degenerate, when it
    is constant or aliased: its pivot in an in-order Cholesky of the
    information at beta = 0 is at most ALIAS_TOL times its diagonal, so
    the later column of a collinear pair is held, in any units.
    """
    design = _build_design(ds, spec)
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
    # column by column: an axis-0 reduction of a narrow design is far slower
    lo = np.array([col.min() for col in design.X.T], float)
    hi = np.array([col.max() for col in design.X.T], float)
    for j in np.flatnonzero(np.maximum(hi, -lo) > limit)[:1]:
        raise SingularInformation(
            f"covariate {design.names[j]!r} is too large for the partial likelihood "
            f"(|value| up to {max(hi[j], -lo[j]):g}, limit {limit:.3g})")
    span = hi - lo
    free = span > 0
    tol = DECREMENT_TOL * float(design.w[design.event].sum())
    rs = _RiskSets(design, ties=spec.ties)
    beta = np.zeros(design.X.shape[1])
    loglik, g, info, dH = _sweep(rs, beta)
    # in-order Cholesky at beta = 0: a column with no variance left after
    # the earlier free ones, relative to its own, is aliased and held at 0
    chol = np.zeros_like(info)
    for j in np.flatnonzero(free):
        col = info[j:, j] - chol[j:] @ chol[j]
        free[j] = col[0] > ALIAS_TOL * info[j, j]
        chol[j:, j] = col / np.sqrt(col[0]) if free[j] else 0.0
    iterations = 0
    while True:
        gmax = float(np.abs(g).max(initial=0.0))
        step = np.zeros_like(beta)
        try:
            step[free] = np.linalg.solve(info[np.ix_(free, free)], g[free])
        except np.linalg.LinAlgError:
            raise SingularInformation("the information is singular") from None
        if not np.all(np.isfinite(step)):
            raise SingularInformation("Newton step is not finite")
        if g @ step <= tol:
            break
        # a coefficient past the bound diverges only while the step still
        # carries it outward by a unit of linear predictor over its range
        reach = np.abs(beta) * span
        outward = step * np.sign(beta) * span
        for j in np.flatnonzero((reach > BETA_BOUND) & (outward >= 1))[:1]:
            raise MonotoneLikelihood(
                f"coefficient for {design.names[j]!r} diverges (|beta| times its "
                f"column's range = {reach[j]:.3g} > {BETA_BOUND:g} with max "
                f"|score| = {gmax:.3g})")
        if iterations == MAX_ITER:
            raise ConvergenceFailure(
                f"no convergence in {MAX_ITER} iterations (max |score| = {gmax:.3g})")
        iterations += 1
        for halvings in range(30):
            cand = beta + 0.5 ** halvings * step
            # a trial point whose risk sets underflow is rejected, silently
            with np.errstate(all="ignore"):
                trial = _sweep(rs, cand)
            if np.isfinite(trial[0]) and trial[0] >= loglik - 1e-12 * (abs(loglik) + 1.0):
                break
        else:
            raise ConvergenceFailure(f"step-halving stalled with max |score| = {gmax:.3g}")
        beta = cand
        loglik, g, info, dH = trial
    return CoxModel(
        names=design.names, beta=beta, info=info, loglik=loglik,
        baseline_times=rs.uft, baseline_increments=dH,
        covariates=spec.covariates, treatment=spec.treatment, ties=spec.ties,
        event_code=int(spec.event_code), iterations=iterations,
        score_norm=gmax, degenerate=not free.all(),
        n_events=n_events, weighted=spec.weights is not None,
        schema_levels=dict(ds.schema.levels))


def baseline_cumhaz(model: CoxModel) -> StepFunction:
    """Baseline cumulative hazard H0(t) as a step function, H0(0) = 0."""
    return StepFunction(model.baseline_times,
                        np.cumsum(model.baseline_increments), initial=0.0)


def profile_values(covariates, profile: dict) -> list:
    """The profile's value of each covariate, in order: ProfileIncomplete for
    the first one it misses, DataError for the first one not finite."""
    values = []
    for name in covariates:
        if name not in profile:
            raise ProfileIncomplete(f"profile misses covariate {name!r}")
        value = float(profile[name])
        if not math.isfinite(value):
            raise DataError(f"profile value {value} for covariate {name!r} is not finite")
        values.append(value)
    return values


def _cumulative(model: CoxModel, values, dH0, first, where, offset=0.0):
    """dH = dH0 exp(x'beta + offset), x the ``values`` (numbers, or arrays
    over dH0's positions), and H, its running sum over each run of
    positions, ``first[k]`` the first of k's run, with each increment capped
    at SATURATED. The one overflow check of a fitted hazard: a run whose own
    sum overflows is a NumericError naming ``where(k)``, k where it does."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        lp = sum(b * v for b, v in zip(model.beta, values)) + offset
        lp = np.broadcast_to(lp, dH0.shape)
        dH = dH0 * np.exp(lp)
        if not np.isfinite(dH.sum()):
            for run in np.split(np.arange(dH.size), np.flatnonzero(np.diff(first)) + 1):
                for k in run[~np.isfinite(np.cumsum(dH[run]))][:1]:
                    raise NumericError(f"the cumulative hazard {where(k)} overflows (linear "
                                       f"predictor up to {lp[run[0]:k + 1].max():.6g})")
    total = np.concatenate([[0.0], np.cumsum(np.minimum(dH, SATURATED))])
    return dH, total[1:] - total[first]


def _hazard(model: CoxModel, profile: dict, treated: bool = False) -> np.ndarray:
    """dH(t_k | profile) = dH0(t_k) exp(lp(t_k)) at each baseline time t_k.

    ``treated`` holds the treatment indicator at 1 from time 0 on: at each
    baseline time t_k the coefficient of the segment holding t_k enters
    the linear predictor (a model without a treatment term ignores it).
    """
    values = profile_values(model.covariates, profile)
    offset = 0.0
    if treated and model.treatment is not None:
        segment = np.searchsorted(model.treatment.tv_cuts, model.baseline_times,
                                  side="left")
        offset = model.beta[len(model.covariates) + segment]
    dH0 = model.baseline_increments
    dH, _ = _cumulative(model, values, dH0, np.zeros(dH0.size, int),
                        lambda k: f"at profile {dict(zip(model.covariates, values))}",
                        offset)
    return dH


def predict_survival(model: CoxModel, profile: dict,
                     treated: bool = False) -> SurvivalCurve:
    """S(t | profile) = exp(-sum dH(t_k | profile)), dH as in ``_hazard``."""
    return SurvivalCurve(model.baseline_times,
                         np.exp(-np.cumsum(_hazard(model, profile, treated))))


def path_survival(model: CoxModel, ds: CountingProcessDataset) -> np.ndarray:
    """exp(-H) at the end of each row of ``ds``, H summing over its subject's
    rows up to it the baseline hazard over the row's interval times
    exp(x'beta); an overflow names subject and covariates."""
    enter, exit_, _ = _model_slots(model, ds)
    H0 = np.concatenate([[0.0], np.cumsum(model.baseline_increments)])
    x = [ds.covariate(name) for name in model.covariates]

    def where(r):
        values = {name: float(col[r]) for name, col in zip(model.covariates, x)}
        return f"of subject {ds.ids[ds.row_subject[r]]} at {values}"

    _, H = _cumulative(model, x, H0[enter + 1] - H0[exit_],
                       ds.offsets[ds.row_subject], where)
    return np.exp(-H)


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
