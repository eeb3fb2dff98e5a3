"""The four strategies for treatment started after baseline, one interface.

Given a dataset, a strategy spec, a baseline covariate profile and a horizon,
``estimate`` produces the matching risk curve:

* ignore-treatment: risk of the event regardless of treatment, fitted on the
  full follow-up;
* composite: risk of event or treatment start, whichever comes first;
* while-untreated: risk of the event before treatment, via cause-specific
  cumulative incidence;
* hypothetical: risk had treatment never started.

The four hypothetical methods form a 2 x 2. Either censor follow-up at
treatment start, or model treatment as a time-dependent term predicted at
zero; and either fit unweighted, or fit with stabilized weights against
time-varying confounding (IPC weights for censoring, IP treatment weights for
the marginal structural model)::

                  unweighted   weighted
    censor        censor       censor-ipcw
    model         model        model-iptw

Fitting and prediction are split (``fit_strategy_models`` /
``predict_risk``) so fitted models can be serialized and reused. Curves with
no covariate model are product-limit; Cox-based curves are one minus the
exponentiated cumulative hazard.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

from . import competing, cox, weights as weights_mod
from .curves import RiskCurve
from .data import (
    CountingProcessDataset,
    DesignFlavor,
    compose_outcome,
    split_at_treatment,
)
from .errors import DataError, DesignMismatch, NumericError, PositivityWarning


class Strategy(str, Enum):
    IGNORE_TREATMENT = "ignore"
    COMPOSITE = "composite"
    WHILE_UNTREATED = "while-untreated"
    HYPOTHETICAL = "hypothetical"


class HypotheticalMethod(str, Enum):
    #: censor at treatment start, baseline covariates only
    CENSOR_BASELINE = "censor"
    #: model treatment as a time-dependent term, predict with it at zero
    MODEL_BASELINE = "model"
    #: censoring approach with stabilized IPC weights
    CENSOR_IPCW = "censor-ipcw"
    #: marginal structural model: IPT-weighted fit, predict with treatment zero
    MODEL_IPTW = "model-iptw"


@dataclass(frozen=True)
class StrategySpec:
    """Everything needed to turn a dataset into one strategy's risk curve."""

    strategy: Strategy
    t_hor: float
    hypothetical_method: HypotheticalMethod | None = None
    covariates: tuple = ()
    ties: str = "efron"
    tv_cuts: tuple = ()
    weight_covariates: tuple = ()
    truncation: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "tv_cuts", tuple(self.tv_cuts))
        object.__setattr__(self, "weight_covariates", tuple(self.weight_covariates))
        if self.strategy == Strategy.HYPOTHETICAL:
            method = self.hypothetical_method or HypotheticalMethod.CENSOR_BASELINE
            object.__setattr__(self, "hypothetical_method", HypotheticalMethod(method))
        elif self.hypothetical_method is not None:
            raise DataError("hypothetical_method only applies to the "
                            "hypothetical strategy")
        if not (math.isfinite(self.t_hor) and self.t_hor > 0):
            raise DataError(f"t_hor must be positive and finite, got {self.t_hor}")

    @property
    def label(self) -> str:
        if self.strategy == Strategy.HYPOTHETICAL:
            return f"hypothetical:{self.hypothetical_method.value}"
        return self.strategy.value


@dataclass(frozen=True)
class StrategyFit:
    """Fitted models for one strategy: ``models['main']`` for single-model
    strategies, ``models['event']``/``models['treatment']`` for the
    cause-specific pair."""

    spec: StrategySpec
    models: dict
    weight_table: weights_mod.WeightTable | None = None


def _require_continued_follow_up(ds, what):
    if ds.design != DesignFlavor.CONTINUES_AFTER_TREATMENT:
        raise DesignMismatch(
            f"{what} needs follow-up after treatment initiation, but the "
            "dataset stops at treatment start")


def _check_positivity(ds, t_hor):
    last_untreated = float(ds.tstop[~ds.treated].max(initial=0.0))
    if last_untreated < t_hor:
        warnings.warn(
            f"no untreated person-time at risk beyond t={last_untreated:g}; "
            f"the hypothetical curve is flat up to the horizon {t_hor:g} "
            "(consider a shorter horizon)", PositivityWarning, stacklevel=4)


def _ties(spec: StrategySpec, treatment=None) -> str:
    """The spec's ties, except Breslow without covariates or a treatment
    term: Breslow increments' product-limit transform is exactly the
    (weighted) Kaplan-Meier curve."""
    return spec.ties if (spec.covariates or treatment) else "breslow"


def _single_fit(ds, spec: StrategySpec, weight_table=None,
                treatment=None) -> cox.CoxModel:
    """Cox fit backing one curve."""
    return cox.fit(ds, cox.CoxSpec(covariates=spec.covariates,
                                   treatment=treatment, ties=_ties(spec, treatment),
                                   weights=weight_table))


def _ipc_weights(ds, spec: StrategySpec, mode):
    """Stabilized weights for the weighted hypothetical estimators.

    The numerator conditions on the baseline covariates the outcome model
    already adjusts for (with none, it is the intercept-only treatment
    hazard); the denominator adds the weight covariates. This keeps the
    weights near one whenever the outcome model itself explains the
    treatment decisions.
    """
    num_covs = tuple(c for c in spec.covariates if c in ds.schema.baseline)
    den_covs = num_covs + tuple(c for c in spec.weight_covariates
                                if c not in num_covs)
    base = split_at_treatment(ds)
    numerator = weights_mod.fit_treatment_hazard(base, num_covs, ties=spec.ties)
    denominator = weights_mod.fit_treatment_hazard(base, den_covs, ties=spec.ties)
    return weights_mod.stabilized_weights(ds, numerator, denominator,
                                          mode=mode, truncation=spec.truncation)


def fit_strategy_models(ds: CountingProcessDataset,
                        spec: StrategySpec) -> StrategyFit:
    """Fit everything the strategy needs; prediction happens separately."""
    if spec.strategy == Strategy.IGNORE_TREATMENT:
        _require_continued_follow_up(ds, "the ignore-treatment strategy")
        return StrategyFit(spec, {"main": _single_fit(ds, spec)})

    if spec.strategy == Strategy.COMPOSITE:
        return StrategyFit(spec, {"main": _single_fit(compose_outcome(ds), spec)})

    if spec.strategy == Strategy.WHILE_UNTREATED:
        return StrategyFit(spec, competing.fit_cause_specific_pair(
            ds, spec.covariates, _ties(spec)))

    method = spec.hypothetical_method
    censor = method in (HypotheticalMethod.CENSOR_BASELINE,
                        HypotheticalMethod.CENSOR_IPCW)
    if not censor:
        _require_continued_follow_up(ds, f"hypothetical method {method.value!r}")
    tv_terms = set(spec.covariates) & set(ds.schema.time_varying)
    if method == HypotheticalMethod.MODEL_IPTW and tv_terms:
        raise DataError(
            f"the marginal structural outcome model must not contain "
            f"time-varying covariates {sorted(tv_terms)}; their values "
            "are unknown when predicting at baseline (put them in "
            "weight_covariates instead)")
    data = split_at_treatment(ds) if censor else ds
    mode = {HypotheticalMethod.CENSOR_IPCW: weights_mod.WeightMode.IPCW,
            HypotheticalMethod.MODEL_IPTW: weights_mod.WeightMode.IPTW}.get(method)
    # with no treatment starts every weight is one: fit unweighted
    table = (_ipc_weights(data, spec, mode)
             if mode and data.has_treatment_starts else None)
    model = _single_fit(data, spec, weight_table=table,
                        treatment=None if censor else cox.TreatmentTerm(spec.tv_cuts))
    # warn about a fit that exists: a failed one raises first
    _check_positivity(ds, spec.t_hor)
    return StrategyFit(spec, {"main": model}, weight_table=table)


def predict_risk(fit: StrategyFit, profile: dict | None = None) -> RiskCurve:
    """Risk curve for a fitted strategy at one covariate profile, cut at the
    horizon: product-limit for a cause-specific pair or a model with neither
    covariates nor a treatment term, one minus the Cox survival otherwise."""
    spec = fit.spec
    profile = dict(profile or {})
    main = fit.models.get("main")
    if main is None or (not main.covariates and main.treatment is None):
        models = fit.models if main is None else {"event": main}
        return competing.cuminc(models, profile, spec.t_hor, label=spec.label)
    surv = cox.predict_survival(main, profile)
    keep = surv.times <= spec.t_hor
    return RiskCurve(surv.times[keep], 1.0 - surv.surv[keep], strategy=spec.label,
                     profile=profile, horizon=spec.t_hor)


def estimate(ds: CountingProcessDataset, spec: StrategySpec,
             profile: dict | None = None) -> RiskCurve:
    """Fit and predict in one call."""
    return predict_risk(fit_strategy_models(ds, spec), profile)


@dataclass(frozen=True)
class StrategyResults:
    """Curves for the strategies that succeeded, error strings for the rest."""

    curves: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


def estimate_all(ds: CountingProcessDataset, spec: StrategySpec,
                 profile: dict | None = None) -> StrategyResults:
    """Run all four strategies with shared options for side-by-side export.

    Per-strategy errors are collected rather than raised, so a design that
    cannot support a strategy still yields the others. Every strategy's
    outcome model has the spec's covariates, so a profile that misses one or
    gives it a non-finite value is raised before any fit.
    """
    cox.profile_values(spec.covariates, dict(profile or {}))
    curves, failures = {}, {}
    for strategy in Strategy:
        one = replace(spec, strategy=strategy,
                      hypothetical_method=(spec.hypothetical_method
                                           if strategy == Strategy.HYPOTHETICAL
                                           else None))
        try:
            curves[strategy] = estimate(ds, one, profile)
        except (DataError, NumericError) as exc:
            failures[strategy] = f"{type(exc).__name__}: {exc}"
    return StrategyResults(curves=curves, failures=failures)
