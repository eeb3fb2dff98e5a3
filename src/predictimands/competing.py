"""Cause-specific cumulative incidence; the one product-limit routine.

The while-untreated risk combines two cause-specific hazard models (event of
interest vs treatment start) through the Aalen-Johansen plug-in: overall
survival is the product integral of one minus the summed hazard increments,
so event mass, treatment mass and survivors add to one by construction.
With no treatment model the same routine is the product-limit (Kaplan-Meier)
transform of a single hazard; every strategy curve without covariates or a
treatment term is computed this way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import cox, weights
from .curves import RiskCurve
from .data import CountingProcessDataset, Status, split_at_treatment


@dataclass(frozen=True)
class CauseSpecificPair:
    """Cause-specific Cox models for the event of interest and for treatment
    start, fitted on the same censored-at-first-transition data.

    ``model_treatment`` is None when the data carry no treatment starts; the
    treatment hazard is then identically zero.
    """

    model_event: cox.CoxModel
    model_treatment: cox.CoxModel | None


def fit_cause_specific_pair(ds: CountingProcessDataset, covariates=(),
                            ties: str = "efron") -> CauseSpecificPair:
    """Fit both cause-specific models: each cause is the event while the
    other (plus administrative censoring) censors."""
    base = split_at_treatment(ds)
    model_event = cox.fit(base, cox.CoxSpec(event_code=Status.EVENT,
                                            covariates=tuple(covariates), ties=ties))
    model_treatment = (weights.fit_treatment_hazard(base, covariates, ties)
                       if base.has_treatment_starts else None)
    return CauseSpecificPair(model_event, model_treatment)


def _hazard_increments(model, profile, times):
    """dH(t | profile) of one cause-specific model on a shared time grid;
    model jump times beyond the grid (past the horizon) are dropped."""
    out = np.zeros(times.size)
    if model is None:
        return out
    lp = cox._profile_lp(model, profile)
    idx = np.searchsorted(times, model.baseline_times)
    valid = idx < times.size
    valid[valid] &= times[idx[valid]] == model.baseline_times[valid]
    out[idx[valid]] = model.baseline_increments[valid] * np.exp(lp)
    return out


def aalen_johansen(pair: CauseSpecificPair, profile=None, t_hor=None):
    """Times plus (F_event, F_treatment, S_overall) from the plug-in.

    S is carried as 1 - F_event - F_treatment so the three add to one
    exactly; a hazard increment overshooting the remaining mass is clipped
    with a warning.
    """
    profile = dict(profile or {})
    times = np.union1d(pair.model_event.baseline_times,
                       pair.model_treatment.baseline_times
                       if pair.model_treatment is not None else [])
    if t_hor is not None:
        times = times[times <= t_hor]
    dh_ev = _hazard_increments(pair.model_event, profile, times)
    dh_tr = _hazard_increments(pair.model_treatment, profile, times)
    total = dh_ev + dh_tr
    over = total > 1.0
    if over.any():
        warnings.warn("hazard increment exceeds remaining mass; "
                      "clipping the overall survival at zero",
                      RuntimeWarning, stacklevel=2)
        dh_ev[over] /= total[over]
        dh_tr[over] /= total[over]
    # overall survival just before each jump time
    s_before = np.cumprod(np.concatenate([[1.0], 1.0 - dh_ev - dh_tr]))[:-1]
    f_ev = np.cumsum(s_before * dh_ev)
    f_tr = np.cumsum(s_before * dh_tr)
    return times, f_ev, f_tr, 1.0 - f_ev - f_tr


def cuminc(pair: CauseSpecificPair, profile=None, t_hor=None,
           label: str = "while-untreated") -> RiskCurve:
    """Cumulative incidence of the event of interest before treatment; with
    no treatment model, one minus the product-limit survival of the event
    model."""
    times, f_ev, _, _ = aalen_johansen(pair, profile, t_hor)
    return RiskCurve(times, f_ev, strategy=label,
                     profile=dict(profile or {}), horizon=t_hor)
