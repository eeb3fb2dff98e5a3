"""Stabilized inverse-probability weights from treatment-hazard Cox models.

The stabilized weight for an episode ending at t is the ratio of two
staying-untreated probabilities, numerator model over denominator model,
each the ``cox.path_survival`` along the subject's own covariate path. Only
each subject's rows up to its treatment start are evaluated: an IPTW row
after it copies the weight at the start and its covariates are never read.
A used row whose hazard overflows is a NumericError naming its subject."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import cox
from .data import CountingProcessDataset, Status, split_at_treatment, write_columns
from .errors import DataError, NonPositiveProbability, NoTreatmentStarts


class WeightMode(str, Enum):
    #: weights attach to analyses that censor at treatment start
    IPCW = "ipcw"
    #: weights attach to treatment-as-covariate analyses; frozen once
    #: treatment begins
    IPTW = "iptw"


def weight_rows(ds: CountingProcessDataset, weight) -> np.recarray:
    """One read-only record per row of ``ds``, in its order: the fields
    ``subject_id``, ``tstart``, ``tstop`` and ``weight``."""
    # a fixed-width numpy string drops a trailing NUL, so ids with a NUL stay
    # Python strings, in a field about eight times slower to build
    kind = object if "\x00" in "".join(ds.ids) else str
    rows = np.rec.fromarrays(
        [np.array(ds.ids, kind)[ds.row_subject], ds.tstart, ds.tstop,
         np.asarray(weight, float)],
        names=("subject_id", "tstart", "tstop", "weight"))
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Per-episode stabilized weights plus degeneracy diagnostics;
    ``rows`` is a ``weight_rows`` record array."""

    rows: np.recarray
    mode: WeightMode
    diagnostics: dict = field(default_factory=dict)
    truncation: tuple | None = None

    @property
    def values(self) -> np.ndarray:
        return self.rows.weight

    def to_csv(self, path):
        rows = self.rows
        write_columns(path, ("id", "tstart", "tstop", "weight"),
                      [rows.subject_id, rows.tstart, rows.tstop, rows.weight])


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
    if truncation is not None and not (
            len(truncation) == 2 and 0 <= truncation[0] < truncation[1] <= 100):
        raise DataError(f"truncation must be two percentiles 0 <= lo < hi <= "
                        f"100, got {tuple(truncation)}")
    base = split_at_treatment(ds)
    target = base if mode == WeightMode.IPCW else ds
    s_den, s_num = cox.path_survival(denominator, base), cox.path_survival(numerator, base)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # raised below
        ratio = s_num / s_den
    for r in np.flatnonzero(~np.isfinite(ratio))[:1]:
        raise NonPositiveProbability(
            f"subject {base.ids[base.row_subject[r]]}: staying-untreated "
            f"probability underflowed at t={float(base.tstop[r])}")
    # base's rows are the first of each subject's rows in target; a later
    # row copies the last of them
    keep = np.arange(target.n_rows) < (target.offsets[:-1] + np.diff(base.offsets))[
        target.row_subject]
    values = ratio[np.cumsum(keep) - 1]

    bounds = None
    if truncation is not None:
        bounds = tuple(np.percentile(values, truncation))
        values = np.clip(values, *bounds)
    diagnostics = _diagnostics(target, values, denominator)
    return WeightTable(weight_rows(target, values), mode, diagnostics, bounds)


def _diagnostics(target: CountingProcessDataset, values, denominator) -> dict:
    diag = {
        "n_rows": int(values.size),
        "mean": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
        "ess": float(values.sum() ** 2 / (values ** 2).sum()),
    }
    # mean weight among episodes at risk (start < t <= stop) at each
    # treatment event time t, over cox's risk-set slots; values far from 1
    # signal misspecification or positivity trouble
    n_times = denominator.baseline_times.size
    enter, exit_, active = cox._model_slots(denominator, target)
    enter, exit_ = enter[active], exit_[active]
    wsum = cox._at_risk(enter, exit_, n_times, values[active])
    count = cox._at_risk(enter, exit_, n_times)
    ok = count > 0
    if ok.any():
        means = wsum[ok] / count[ok]
        diag["at_risk_mean_min"] = float(means.min())
        diag["at_risk_mean_max"] = float(means.max())
    return diag
