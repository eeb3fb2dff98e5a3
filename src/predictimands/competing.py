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

import numpy as np

from . import cox, weights
from .curves import RiskCurve
from .data import CountingProcessDataset, Status, split_at_treatment


def fit_cause_specific_pair(ds: CountingProcessDataset, covariates=(),
                            ties: str = "efron") -> dict:
    """Fit both cause-specific models: each cause is the event while the
    other (plus administrative censoring) censors. Returns ``{"event": ...,
    "treatment": ...}``, without the ``"treatment"`` key when the data carry
    no treatment starts; the treatment hazard is then identically zero."""
    base = split_at_treatment(ds)
    models = {"event": cox.fit(base, cox.CoxSpec(event_code=Status.EVENT,
                                                 covariates=tuple(covariates),
                                                 ties=ties))}
    if base.has_treatment_starts:
        models["treatment"] = weights.fit_treatment_hazard(base, covariates, ties)
    return models


def _hazard_increments(model, profile, times):
    """dH(t | profile) of one cause-specific model on a shared time grid that
    holds its jump times up to the horizon; later jump times are dropped."""
    out = np.zeros(times.size)
    if model is None:
        return out
    idx = np.searchsorted(times, model.baseline_times)
    valid = idx < times.size
    out[idx[valid]] = cox._hazard(model, profile)[valid]
    return out


def aalen_johansen(models: dict, profile=None, t_hor=None):
    """Times plus (F_event, F_treatment, S_overall) from the plug-in on the
    cause-specific ``models`` of ``fit_cause_specific_pair``.

    S is carried as 1 - F_event - F_treatment so the three add to one
    exactly; a hazard increment overshooting the remaining mass is clipped
    with a warning.
    """
    profile = dict(profile or {})
    treatment = models.get("treatment")
    times = np.union1d(models["event"].baseline_times,
                       treatment.baseline_times if treatment is not None else [])
    if t_hor is not None:
        times = times[times <= t_hor]
    dh_ev = _hazard_increments(models["event"], profile, times)
    dh_tr = _hazard_increments(treatment, profile, times)
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


def cuminc(models: dict, profile=None, t_hor=None,
           label: str = "while-untreated") -> RiskCurve:
    """Cumulative incidence of the event of interest before treatment; with
    no treatment model, one minus the product-limit survival of the event
    model."""
    times, f_ev, _, _ = aalen_johansen(models, profile, t_hor)
    return RiskCurve(times, f_ev, strategy=label,
                     profile=dict(profile or {}), horizon=t_hor)
