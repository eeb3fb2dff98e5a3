"""Output checks, one set per workload.

Each check returns a list of failure messages (empty when the output
passes). The checks compare the package's outputs against the independent
computations in ``reference.py`` or against properties the estimators must
have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

#: product-limit curves equal the reference KM / AJ up to rounding
CURVE_TOL = 1e-9
#: two routes through the same arithmetic (JSON round trip vs in memory)
SAME_TOL = 1e-12
#: s2, n = 5000: over 55 seeds the plain censoring estimate at t = 5 sat
#: 0.067 to 0.095 below the never-treated risk, over 44 further seeds 0.056 to
#: 0.096; it must stay more than this far below
CENSOR_BIAS_MIN = 0.03
#: s2, n = 5000: over 55 seeds censor-ipcw and model-iptw at t = 5 fell within
#: -0.034 to +0.060 of the never-treated risk (standard deviation about 0.018,
#: with a long upper tail from large weights), over 44 further seeds within
#: -0.040 to +0.032; this leaves room for that tail
WEIGHTED_TOL = 0.10
#: s2, n = 5000: over seeds 1-40 each weighted estimate at t = 5 lay 0.055 to
#: 0.119 above its unweighted twin, over 44 further seeds 0.042 to 0.104 (censor-ipcw above censor, model-iptw above
#: model); an estimate whose weights were dropped equals its twin, which
#: WEIGHTED_TOL alone would let pass
WEIGHT_GAIN_MIN = 0.02
#: combined Monte Carlo standard errors allowed between two truths
TRUTH_SE_MULT = 4.0


def value_at(times, risk, t: float) -> float:
    """Right-continuous step function, 0 before the first jump."""
    k = int(np.searchsorted(times, t, side="right")) - 1
    return float(risk[k]) if k >= 0 else 0.0


def same_curve(name: str, got, want, tol: float) -> list:
    """``got`` and ``want`` are (times, risk) pairs with the same jumps."""
    (t1, r1), (t2, r2) = got, want
    if len(t1) != len(t2):
        return [f"{name}: {len(t1)} jumps, reference has {len(t2)}"]
    if len(t1) and not np.array_equal(t1, t2):
        k = int(np.flatnonzero(np.asarray(t1) != np.asarray(t2))[0])
        return [f"{name}: jump {k} at t={t1[k]!r}, reference at {t2[k]!r}"]
    gap = float(np.max(np.abs(np.asarray(r1) - np.asarray(r2)), initial=0.0))
    if not gap <= tol:
        return [f"{name}: differs from reference by {gap:.3g} > {tol:g}"]
    return []


# ---------------------------------------------------------------------------
# s2-cli


def s2_cli(curves: dict, overlay: dict, ref: dict, t_hor: float) -> list:
    """``curves`` maps a strategy label to the (times, risk) of its
    ``predict`` command; ``overlay`` maps a strategy name to its curve in the
    ``--all-strategies`` export of the censor-ipcw run. ``ref`` holds the
    reference ``km_censor``, ``km_composite`` and ``aj_event`` curves and the
    Monte Carlo never-treated risk ``hypothetical``."""
    out = []
    out += same_curve("hypothetical:censor", curves["hypothetical:censor"],
                      ref["km_censor"], CURVE_TOL)
    out += same_curve("composite", curves["composite"], ref["km_composite"],
                      CURVE_TOL)
    out += same_curve("while-untreated", curves["while-untreated"],
                      ref["aj_event"], CURVE_TOL)
    single = {"ignore": "ignore", "composite": "composite",
              "while-untreated": "while-untreated",
              "hypothetical": "hypothetical:censor-ipcw"}
    if set(overlay) != set(single):
        out.append(f"overlay strategies {sorted(overlay)} != {sorted(single)}")
    for name, label in single.items():
        if name in overlay:
            out += same_curve(f"overlay {name}", overlay[name], curves[label],
                              SAME_TOL)
    truth = ref["hypothetical"]
    censor = value_at(*curves["hypothetical:censor"], t_hor)
    if not censor < truth - CENSOR_BIAS_MIN:
        out.append(f"hypothetical:censor at t={t_hor:g} is {censor:.4f}, not "
                   f"more than {CENSOR_BIAS_MIN} below the truth {truth:.4f}")
    for label, twin in (("hypothetical:censor-ipcw", "hypothetical:censor"),
                        ("hypothetical:model-iptw", "hypothetical:model")):
        got = value_at(*curves[label], t_hor)
        if not abs(got - truth) <= WEIGHTED_TOL:
            out.append(f"{label} at t={t_hor:g} is {got:.4f}, more than "
                       f"{WEIGHTED_TOL} from the truth {truth:.4f}")
        unweighted = value_at(*curves[twin], t_hor)
        if not got > unweighted + WEIGHT_GAIN_MIN:
            out.append(f"{label} at t={t_hor:g} is {got:.4f}, not more than "
                       f"{WEIGHT_GAIN_MIN} above {twin} {unweighted:.4f}")
    return out


# ---------------------------------------------------------------------------
# s2-validate


def s2_validate(report: dict, labels, ref_risks: dict, ref_se: dict,
                mc_reps: int) -> list:
    """``report`` is a ``validate`` report; ``ref_risks`` / ``ref_se`` are the
    reference Monte Carlo truths and their standard errors."""
    out = []
    entries = report.get("strategies", {})
    if sorted(entries) != sorted(labels):
        return [f"report strategies {sorted(entries)} != {sorted(labels)}"]
    for label in labels:
        entry = entries[label]
        key = label.split(":")[0]
        p, se = float(entry["truth"]), float(entry["truth_se"])
        if entry["errors"]:
            out.append(f"{label}: errors {entry['errors']}")
        want_se = math.sqrt(p * (1.0 - p) / mc_reps)
        if not abs(se - want_se) <= 1e-12:
            out.append(f"{label}: truth_se {se!r} != sqrt(p(1-p)/reps) "
                       f"{want_se!r}")
        limit = TRUTH_SE_MULT * math.hypot(se, ref_se[key])
        if not abs(p - ref_risks[key]) <= limit:
            out.append(f"{label}: truth {p:.4f} is more than "
                       f"{TRUTH_SE_MULT:g} combined standard errors "
                       f"({limit:.4f}) from the reference {ref_risks[key]:.4f}")
    return out
