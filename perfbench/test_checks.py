"""Each output check passes a correct output and rejects the same output
perturbed by 0.01, except the s2-validate truth check, whose Monte Carlo
standard errors let it resolve about 0.015.

    python3 -m pytest perfbench
"""

import copy
import math

import numpy as np

import checks
import reference


def curve(times, risk):
    return np.asarray(times, float), np.asarray(risk, float)


def shifted(c, by):
    return c[0], c[1] + by


# ---------------------------------------------------------------------------
# s2-cli


def s2_cli_case():
    """Curves that pass every s2-cli check, with the never-treated truth 0.5."""
    truth = 0.5
    km = curve([1.0, 2.0, 4.0], [0.1, 0.2, 0.4])            # 0.1 below at t=5
    comp = curve([0.5, 1.0, 3.0], [0.2, 0.4, 0.6])
    aj = curve([0.5, 1.0, 2.0], [0.05, 0.1, 0.3])
    ipcw = curve([1.0, 4.0], [0.2, truth])
    curves = {"hypothetical:censor": km, "composite": comp,
              "while-untreated": aj, "ignore": curve([2.0], [0.45]),
              "hypothetical:model": curve([2.0], [0.42]),
              "hypothetical:censor-ipcw": ipcw,
              "hypothetical:model-iptw": curve([2.0], [truth])}
    overlay = {"ignore": curves["ignore"], "composite": comp,
               "while-untreated": aj, "hypothetical": ipcw}
    ref = {"km_censor": km, "km_composite": comp, "aj_event": aj,
           "hypothetical": truth}
    return curves, overlay, ref


def test_s2_cli_passes_reference_output():
    assert checks.s2_cli(*s2_cli_case(), t_hor=5.0) == []


def test_s2_cli_rejects_perturbed_curves():
    for label in ("hypothetical:censor", "composite", "while-untreated"):
        curves, overlay, ref = s2_cli_case()
        curves[label] = shifted(curves[label], 0.01)
        assert checks.s2_cli(curves, overlay, ref, 5.0), label


def test_s2_cli_rejects_perturbed_overlay():
    for name in ("ignore", "composite", "while-untreated", "hypothetical"):
        curves, overlay, ref = s2_cli_case()
        overlay[name] = shifted(overlay[name], 0.01)
        assert checks.s2_cli(curves, overlay, ref, 5.0), name


def test_s2_cli_rejects_censor_too_close_to_truth():
    curves, overlay, ref = s2_cli_case()
    # censor 0.035 below the truth passes; 0.01 closer fails
    for by, passes in ((0.065, True), (0.075, False)):
        km = shifted(ref["km_censor"], by)
        curves["hypothetical:censor"] = km
        assert (checks.s2_cli(curves, overlay, {**ref, "km_censor": km}, 5.0)
                == []) is passes


def test_s2_cli_rejects_weighted_estimates_off_by_a_further_001():
    for label in ("hypothetical:censor-ipcw", "hypothetical:model-iptw"):
        curves, overlay, ref = s2_cli_case()
        edge = checks.WEIGHTED_TOL - 0.005
        curves[label] = shifted(curves[label], edge)
        overlay["hypothetical"] = curves["hypothetical:censor-ipcw"]
        assert checks.s2_cli(curves, overlay, ref, 5.0) == [], label
        curves[label] = shifted(curves[label], 0.01)
        overlay["hypothetical"] = curves["hypothetical:censor-ipcw"]
        assert checks.s2_cli(curves, overlay, ref, 5.0), label


def test_s2_cli_rejects_weighted_estimates_equal_to_unweighted():
    for label, twin in (("hypothetical:censor-ipcw", "hypothetical:censor"),
                        ("hypothetical:model-iptw", "hypothetical:model")):
        curves, overlay, ref = s2_cli_case()
        curves[label] = curves[twin]
        overlay["hypothetical"] = curves["hypothetical:censor-ipcw"]
        assert checks.s2_cli(curves, overlay, ref, 5.0), label


def test_s2_cli_rejects_weight_gain_short_by_001():
    # the censor curve ends at 0.4 and the model curve at 0.42 by t = 5
    for label, base in (("hypothetical:censor-ipcw", 0.4),
                        ("hypothetical:model-iptw", 0.42)):
        for by, passes in ((0.005, True), (-0.005, False)):
            curves, overlay, ref = s2_cli_case()
            curves[label] = curve([2.0], [base + checks.WEIGHT_GAIN_MIN + by])
            overlay["hypothetical"] = curves["hypothetical:censor-ipcw"]
            assert (checks.s2_cli(curves, overlay, ref, 5.0) == []) is passes, \
                (label, by)


# ---------------------------------------------------------------------------
# s2-validate

LABELS = ["ignore", "composite", "while-untreated", "hypothetical:censor",
          "hypothetical:censor-ipcw"]
REF = {"hypothetical": 0.4939, "composite": 0.6581, "while-untreated": 0.3263,
       "ignore": 0.4388}


def validate_case(reps):
    ref_se = {k: math.sqrt(p * (1 - p) / reference.S2_REPS)
              for k, p in REF.items()}
    entries = {}
    for label in LABELS:
        p = REF[label.split(":")[0]]
        entries[label] = {"truth": p, "truth_se": math.sqrt(p * (1 - p) / reps),
                          "estimates": [p, p], "errors": []}
    return {"strategies": entries}, ref_se


def test_s2_validate_passes_reference_output():
    report, ref_se = validate_case(20_000)
    assert checks.s2_validate(report, LABELS, REF, ref_se, 20_000) == []


def test_s2_validate_resolves_a_truth_off_by_0015():
    # with the workload's 20k oracle reps against the reference's 200k, four
    # combined standard errors come to 0.0139-0.0148: a truth 0.013 off
    # passes, one 0.015 off fails; an error of 0.01 is not resolved
    for label in LABELS:
        for by, passes in ((0.013, True), (0.015, False)):
            report, ref_se = validate_case(20_000)
            entry = report["strategies"][label]
            entry["truth"] += by
            entry["truth_se"] = math.sqrt(entry["truth"] * (1 - entry["truth"])
                                          / 20_000)
            assert (checks.s2_validate(report, LABELS, REF, ref_se, 20_000)
                    == []) is passes, (label, by)


def test_s2_validate_rejects_a_wrong_standard_error():
    for label in LABELS:
        report, ref_se = validate_case(20_000)
        report["strategies"][label]["truth_se"] += 0.01
        assert checks.s2_validate(report, LABELS, REF, ref_se, 20_000), label


def test_s2_validate_rejects_errors_and_missing_strategies():
    report, ref_se = validate_case(20_000)
    bad = copy.deepcopy(report)
    bad["strategies"]["composite"]["errors"] = [{"seed": 1, "error": "x"}]
    assert checks.s2_validate(bad, LABELS, REF, ref_se, 20_000)
    del report["strategies"]["ignore"]
    assert checks.s2_validate(report, LABELS, REF, ref_se, 20_000)
