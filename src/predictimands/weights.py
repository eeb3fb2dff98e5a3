"""Stabilized inverse-probability weights from treatment-hazard Cox models.

The stabilized weight for an episode ending at t is the ratio of two
staying-untreated probabilities, numerator model over denominator model,
each evaluated as exp(-cumulative hazard) accumulated over the treatment
model's event-time grid along the subject's own covariate path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import cox
from .data import CountingProcessDataset, Status, split_at_treatment
from .errors import DataError, NonPositiveProbability, NoTreatmentStarts


class WeightMode(str, Enum):
    #: weights attach to analyses that censor at treatment start
    IPCW = "ipcw"
    #: weights attach to treatment-as-covariate analyses; frozen once
    #: treatment begins
    IPTW = "iptw"


@dataclass(frozen=True)
class WeightRow:
    subject_id: str
    tstart: float
    tstop: float
    weight: float


@dataclass(frozen=True)
class WeightTable:
    """Per-episode stabilized weights plus degeneracy diagnostics."""

    rows: tuple
    mode: WeightMode
    diagnostics: dict = field(default_factory=dict)
    truncation: tuple | None = None

    def __post_init__(self):
        index = {}
        for row in self.rows:
            index.setdefault(row.subject_id, []).append(row)
        compiled = {}
        for sid, rws in index.items():
            rws.sort(key=lambda r: r.tstop)
            compiled[sid] = (np.asarray([r.tstop for r in rws]),
                            np.asarray([r.weight for r in rws]))
        object.__setattr__(self, "_index", compiled)

    def lookup(self, subject_id: str, t: float) -> float:
        """Weight of the subject's episode containing t (tstart < t <= tstop);
        beyond follow-up the last weight carries forward."""
        stops, wvals = self._index[subject_id]
        idx = min(int(np.searchsorted(stops, t, side="left")), stops.size - 1)
        return float(wvals[idx])

    @property
    def values(self) -> np.ndarray:
        return np.asarray([r.weight for r in self.rows])

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "tstart", "tstop", "weight"])
            for r in self.rows:
                w.writerow([r.subject_id, repr(r.tstart), repr(r.tstop),
                            repr(r.weight)])

    def diagnostics_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.diagnostics, fh, indent=2)


def fit_treatment_hazard(ds: CountingProcessDataset, covariates=(),
                         ties: str = "efron") -> cox.CoxModel:
    """Cox model for the treatment-start intensity; the event of interest and
    administrative censoring both censor. Empty covariates give the
    intercept-only numerator model."""
    base = split_at_treatment(ds)
    if not base.has_treatment_starts:
        raise NoTreatmentStarts("no subject ever starts treatment")
    return cox.fit(base, cox.CoxSpec(event_code=Status.TREATMENT_START,
                                     covariates=tuple(covariates), ties=ties))


def _survival_at_episode_ends(model: cox.CoxModel, start: np.ndarray,
                              stop: np.ndarray, columns: dict,
                              first: np.ndarray) -> np.ndarray:
    """Staying-untreated probability at each episode end: the model's
    cumulative baseline hazard over each episode, times exp(x'beta),
    summed along each subject's episodes (``first`` holds each episode's
    subject's first row)."""
    H = np.concatenate([[0.0], np.cumsum(model.baseline_increments)])
    lo, hi = np.searchsorted(model.baseline_times, [start, stop], side="right")
    lp = sum(b * columns[name] for b, name in zip(model.beta, model.covariates))
    inc = (H[hi] - H[lo]) * np.exp(lp)
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    return np.exp(-(cum[1:] - cum[first]))


def stabilized_weights(ds: CountingProcessDataset, numerator: cox.CoxModel,
                       denominator: cox.CoxModel,
                       mode: WeightMode = WeightMode.IPCW,
                       truncation: tuple | None = None) -> WeightTable:
    """Per-episode stabilized weights w(t) = S_num(t) / S_den(t).

    IPCW rows follow the censored-at-treatment data; IPTW rows follow the
    full data with the weight frozen at its treatment-start value once a
    subject initiates treatment. Optional percentile truncation clamps the
    extremes.
    """
    mode = WeightMode(mode)
    if not set(numerator.covariates) <= set(denominator.covariates):
        raise DataError("numerator covariates must be a subset of the "
                        "denominator covariates")
    target = split_at_treatment(ds) if mode == WeightMode.IPCW else ds
    schema = target.schema
    episodes = list(target.iter_episodes())
    n = len(episodes)
    start = np.fromiter((ep.tstart for _, ep in episodes), float, n)
    stop = np.fromiter((ep.tstop for _, ep in episodes), float, n)
    columns = {name: np.fromiter(
        (cox._covariate_value(sub, ep, name, schema) for sub, ep in episodes),
        float, n) for name in denominator.covariates}
    sizes = [len(sub.episodes) for sub in target.subjects]
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)

    s_num = _survival_at_episode_ends(numerator, start, stop, columns, first)
    s_den = _survival_at_episode_ends(denominator, start, stop, columns, first)
    index = np.arange(n)
    # IPTW rows after a treatment start copy its weight and go unchecked
    source = index
    if mode == WeightMode.IPTW:
        starts = np.fromiter((ep.status == Status.TREATMENT_START
                              for _, ep in episodes), bool, n)
        latest = np.maximum.accumulate(np.where(starts, index, -1))
        source = np.where(latest >= first, latest, index)
    checked = source == index
    bad = np.flatnonzero(checked & (s_den <= 0.0))
    if bad.size:
        sub, ep = episodes[bad[0]]
        raise NonPositiveProbability(
            f"subject {sub.subject_id}: staying-untreated "
            f"probability underflowed at t={ep.tstop}")
    values = np.divide(s_num, s_den, out=np.zeros(n), where=checked)[source]

    bounds = None
    if truncation is not None:
        lo, hi = truncation
        bounds = tuple(np.percentile(values, [lo, hi]))
        values = np.clip(values, *bounds)
    rows = tuple(WeightRow(sub.subject_id, ep.tstart, ep.tstop, w)
                 for (sub, ep), w in zip(episodes, values.tolist()))
    diagnostics = _diagnostics(start, stop, values, denominator)
    return WeightTable(rows, mode, diagnostics, bounds)


def _diagnostics(start, stop, values, denominator) -> dict:
    diag = {
        "n_rows": int(values.size),
        "mean": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
        "ess": float(values.sum() ** 2 / (values ** 2).sum()),
    }
    # mean weight among episodes at risk at each treatment event time;
    # values far from 1 signal misspecification or positivity trouble
    times = denominator.baseline_times
    if times.size:
        def below(v, weights):
            order = np.argsort(v, kind="stable")
            cumw = np.concatenate([[0.0], np.cumsum(weights[order])])
            return cumw[np.searchsorted(v[order], times, side="left")]

        wsum = below(start, values) - below(stop, values)
        count = below(start, np.ones_like(values)) - below(stop, np.ones_like(values))
        ok = count > 0
        if ok.any():
            means = wsum[ok] / count[ok]
            diag["at_risk_mean_min"] = float(means.min())
            diag["at_risk_mean_max"] = float(means.max())
    return diag
