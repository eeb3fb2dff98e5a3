"""Self-tests of the reference computations on hand-checkable cases.

    python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import reference as ref


def rows(*spec):
    """(id, tstart, tstop, status) tuples as reference row columns."""
    ids, start, stop, status = zip(*spec)
    return {"id": np.asarray(ids), "tstart": np.asarray(start, float),
            "tstop": np.asarray(stop, float), "status": np.asarray(status)}


def test_product_limit_hand_case():
    # events at 1, 2, 4; censored at 3: S = 3/4, 1/2, 0
    data = rows(("a", 0, 1, 1), ("b", 0, 2, 1), ("c", 0, 3, 0), ("d", 0, 4, 1))
    times, risk = ref.product_limit(data)
    assert times.tolist() == [1.0, 2.0, 4.0]
    assert risk == pytest.approx([0.25, 0.5, 1.0], abs=1e-15)


def test_product_limit_ties_and_horizon():
    # two events tied at 1 among three, one at 2: S = 1/3, 0
    data = rows(("a", 0, 1, 1), ("b", 0, 1, 1), ("c", 0, 2, 1))
    times, risk = ref.product_limit(data)
    assert risk == pytest.approx([2 / 3, 1.0], abs=1e-15)
    times, risk = ref.product_limit(data, t_max=1.5)
    assert times.tolist() == [1.0]


def test_split_rows_give_the_same_curve():
    whole = rows(("a", 0, 1, 1), ("b", 0, 2, 1), ("c", 0, 3, 0), ("d", 0, 4, 1))
    split = rows(("a", 0, 0.5, 0), ("a", 0.5, 1, 1), ("b", 0, 2, 1),
                 ("c", 0, 1.5, 0), ("c", 1.5, 3, 0), ("d", 0, 2.5, 0),
                 ("d", 2.5, 4, 1))
    for a, b in zip(ref.product_limit(whole), ref.product_limit(split)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_aalen_johansen_hand_case():
    # event 1, treatment start 2, event 3, censored 4
    data = rows(("a", 0, 1, 1), ("b", 0, 2, 2), ("c", 0, 3, 1), ("d", 0, 4, 0))
    times, f_ev, f_tr = ref.aalen_johansen(data)
    assert times.tolist() == [1.0, 2.0, 3.0]
    assert f_ev == pytest.approx([0.25, 0.25, 0.5], abs=1e-15)
    assert f_tr == pytest.approx([0.0, 0.25, 0.25], abs=1e-15)


def test_transforms_cut_follow_up():
    # subject a: treated at 1, event at 3; b: event at 2; c: censored at 2
    data = rows(("a", 0, 1, 2), ("a", 1, 3, 1), ("b", 0, 2, 1), ("c", 0, 2, 0))
    split = ref.censored_at_treatment(data)
    assert sorted(zip(split["id"], split["tstop"], split["status"])) == [
        ("a", 1.0, 2), ("b", 2.0, 1), ("c", 2.0, 0)]
    comp = ref.first_of_event_or_treatment(data)
    assert sorted(zip(comp["id"], comp["tstop"], comp["status"])) == [
        ("a", 1.0, 1), ("b", 2.0, 1), ("c", 2.0, 0)]


def test_constant_risks_limits_and_quadrature():
    t = 4.0
    no_treatment = ref.constant_risks(0.0, 0.2, 0.05, t)
    expected = 1 - math.exp(-0.8)
    for value in no_treatment.values():
        assert value == pytest.approx(expected, abs=1e-15)
    # ignore by numerical integration over the treatment time v
    lt, ld, l1 = 0.3, 0.1, 0.04
    v = np.linspace(0.0, t, 200_001)
    f = lt * np.exp(-(lt + ld) * v) * (1 - np.exp(-l1 * (t - v)))
    treated_path = float(np.sum((f[1:] + f[:-1]) / 2 * np.diff(v)))
    got = ref.constant_risks(lt, ld, l1, t)
    assert got["ignore"] == pytest.approx(
        got["while-untreated"] + treated_path, abs=1e-9)
    # equal exponents take the limiting branch
    same = ref.constant_risks(0.1, 0.1, 0.2, t)
    near = ref.constant_risks(0.1, 0.1, 0.2 + 1e-7, t)
    assert same["ignore"] == pytest.approx(near["ignore"], abs=1e-6)


def test_monte_carlo_matches_constant_closed_form():
    law = {**ref.S2, "z_sd0": 0.0, "z_sd_step": 0.0}
    risks, se = ref.s2_monte_carlo(5.0, 200_000, seed=3, law=law, block=50_000)
    exact = ref.constant_risks(0.10, 0.12, 0.06, 5.0)
    for key, value in exact.items():
        assert abs(risks[key] - value) <= 4 * se[key], key


def test_monte_carlo_s2_figures():
    # the s2 truth from an independent 1M-rep run
    published = {"hypothetical": 0.4935, "composite": 0.6581,
                 "while-untreated": 0.3257, "ignore": 0.4382}
    risks, se = ref.s2_monte_carlo(5.0, 1_000_000, seed=20_200_414)
    for key, value in published.items():
        assert abs(risks[key] - value) <= 4 * math.sqrt(2) * se[key], key
