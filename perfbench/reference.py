"""Reference computations for the benchmark's output checks.

Nothing here imports ``predictimands``: the checks compare the package's
outputs against these independent computations, so a fault shared by both
cannot hide.

* ``read_counting_csv``, ``product_limit``, ``aalen_johansen``: the
  product-limit and nonparametric Aalen-Johansen curves, from the raw rows of
  a long counting-process CSV (``id,tstart,tstop,status,treated,...``).
* ``constant_risks``: closed-form risks of the four strategies for constant
  intensities; the oracle for the Monte Carlo's self-test.
* ``s2_monte_carlo``: a vectorized Monte Carlo of the builtin ``s2`` law
  (a shared random-walk covariate drives treatment and death).

``python3 perfbench/reference.py`` prints the reference s2 truth.
"""

from __future__ import annotations

import csv
import math

import numpy as np

EVENT, TREATMENT = 1, 2


# ---------------------------------------------------------------------------
# product-limit curves from raw CSV rows


def read_counting_csv(path) -> dict:
    """Columns of a long counting-process CSV as arrays, rows in file order."""
    ids, start, stop, status = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:5] != ["id", "tstart", "tstop", "status", "treated"]:
            raise ValueError(f"{path}: not a long counting-process file")
        for row in reader:
            ids.append(row[0])
            start.append(float(row[1]))
            stop.append(float(row[2]))
            status.append(int(row[3]))
    return {"id": np.asarray(ids), "tstart": np.asarray(start),
            "tstop": np.asarray(stop), "status": np.asarray(status)}


def _first_rows_until(rows: dict, stop_codes) -> dict:
    """Each subject's rows up to and including the first row whose status is
    in ``stop_codes``; later rows are dropped."""
    ids = rows["id"]
    order = np.lexsort((rows["tstart"], ids))
    sid, status = ids[order], rows["status"][order]
    hit = np.isin(status, stop_codes)
    new_subject = np.r_[True, sid[1:] != sid[:-1]]
    group = np.cumsum(new_subject) - 1
    # number of stopping rows strictly before each row, within its subject
    hits_before = np.cumsum(hit) - hit
    first_hits_before = hits_before[np.flatnonzero(new_subject)][group]
    keep = order[(hits_before - first_hits_before) == 0]
    return {k: v[keep] for k, v in rows.items()}


def censored_at_treatment(rows: dict) -> dict:
    """Follow-up ends at treatment start, which then acts as a censoring or
    competing-event code (status 2)."""
    return _first_rows_until(rows, (TREATMENT,))


def first_of_event_or_treatment(rows: dict) -> dict:
    """Follow-up ends at min(T, V); reaching it is the event (status 1)."""
    cut = _first_rows_until(rows, (EVENT, TREATMENT))
    status = np.where(cut["status"] == TREATMENT, EVENT, cut["status"])
    return {**cut, "status": status}


def _at_risk(rows: dict, times: np.ndarray) -> np.ndarray:
    """Rows with tstart < t <= tstop, counted at each t."""
    entered = np.searchsorted(np.sort(rows["tstart"]), times, side="left")
    left = np.searchsorted(np.sort(rows["tstop"]), times, side="left")
    return (entered - left).astype(float)


def _deaths(rows: dict, times: np.ndarray, code: int) -> np.ndarray:
    stops = np.sort(rows["tstop"][rows["status"] == code])
    return (np.searchsorted(stops, times, side="right")
            - np.searchsorted(stops, times, side="left")).astype(float)


def product_limit(rows: dict, code: int = EVENT, t_max: float = math.inf):
    """Jump times and risk 1 - prod(1 - d/n) of the Kaplan-Meier curve for
    ``code``; every other status censors."""
    times = np.unique(rows["tstop"][rows["status"] == code])
    times = times[times <= t_max]
    surv = np.cumprod(1.0 - _deaths(rows, times, code) / _at_risk(rows, times))
    return times, 1.0 - surv


def aalen_johansen(rows: dict, t_max: float = math.inf):
    """Jump times and cumulative incidences (F_event, F_treatment) of two
    competing causes, status 1 and status 2."""
    fires = np.isin(rows["status"], (EVENT, TREATMENT))
    times = np.unique(rows["tstop"][fires])
    times = times[times <= t_max]
    n = _at_risk(rows, times)
    d_ev = _deaths(rows, times, EVENT)
    d_tr = _deaths(rows, times, TREATMENT)
    surv_before = np.r_[1.0, np.cumprod(1.0 - (d_ev + d_tr) / n)[:-1]]
    return (times, np.cumsum(surv_before * d_ev / n),
            np.cumsum(surv_before * d_tr / n))


# ---------------------------------------------------------------------------
# closed forms for constant intensities


def constant_risks(l_treat: float, l_death: float, l_treated: float,
                   t: float) -> dict:
    """Risks by ``t`` when treatment starts at rate ``l_treat``, death
    happens at ``l_death`` before treatment and ``l_treated`` after it.

    ignore = P(death before treatment by t) + P(treated at v < t, then dead
    within t - v), the second term being
    int_0^t l_treat e^{-c v} (1 - e^{-l_treated (t - v)}) dv, c = l_treat +
    l_death.
    """
    c = l_treat + l_death
    composite = 1.0 - math.exp(-c * t)
    while_untreated = l_death / c * composite if c > 0 else 0.0
    treated_by_t = l_treat / c * composite if c > 0 else 0.0
    k = c - l_treated
    # int_0^t e^{-c v} e^{-l_treated (t - v)} dv
    if abs(k) * t > 1e-9:
        overlap = math.exp(-l_treated * t) * (1.0 - math.exp(-k * t)) / k
    else:
        overlap = t * math.exp(-c * t)
    return {
        "hypothetical": 1.0 - math.exp(-l_death * t),
        "composite": composite,
        "while-untreated": while_untreated,
        "ignore": while_untreated + treated_by_t - l_treat * overlap,
    }



# ---------------------------------------------------------------------------
# Monte Carlo of the s2 law

#: builtin s2 law. z starts N(0, 1) and takes a N(0, sd_step) step at every
#: grid point; each intensity is base * exp(log_hr * z).
S2 = {"grid_step": 0.5, "admin_censor": 6.0, "z_sd0": 1.0, "z_sd_step": 0.3,
      "treatment": (0.10, 1.2), "death_untreated": (0.12, 0.8),
      "death_treated": (0.06, 0.8)}
#: the reference s2 truth the output checks use: horizon, reps and seed
#: (the seed makes it independent of the workload seed)
S2_T_HOR, S2_REPS, S2_SEED = 5.0, 200_000, 20_200_414


def _first_crossing(cum: np.ndarray, rate: np.ndarray, target: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """Time at which a piecewise-linear cumulative hazard (values ``cum`` at
    the grid points, slope ``rate`` on each segment) reaches ``target``;
    inf when it never does within the grid."""
    reached = cum[:, 1:] >= target[:, None]
    seg = reached.argmax(axis=1)
    rows = np.arange(target.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = grid[seg] + (target - cum[rows, seg]) / rate[rows, seg]
    return np.where(reached.any(axis=1), t, np.inf)


def s2_draw(rng, n: int, law: dict = S2) -> tuple:
    """Latent untreated death time T0, treatment time V and factual death
    time for n subjects."""
    n_seg = int(round(law["admin_censor"] / law["grid_step"]))
    grid = np.arange(n_seg + 1) * law["grid_step"]
    steps = rng.standard_normal((n, n_seg))
    steps[:, 0] *= law["z_sd0"]
    steps[:, 1:] *= law["z_sd_step"]
    z = np.cumsum(steps, axis=1)

    def hazard(key):
        base, log_hr = law[key]
        rate = base * np.exp(log_hr * z)
        cum = np.zeros((n, n_seg + 1))
        np.cumsum(rate * np.diff(grid), axis=1, out=cum[:, 1:])
        return rate, cum

    rate_d, cum_d = hazard("death_untreated")
    rate_v, cum_v = hazard("treatment")
    rate_t, cum_t = hazard("death_treated")
    e_death, e_treat, e_after = rng.exponential(size=(3, n))
    t0 = _first_crossing(cum_d, rate_d, e_death, grid)
    v = _first_crossing(cum_v, rate_v, e_treat, grid)
    # after treatment the treated intensity accumulates from V onwards
    treated = v < t0
    seg = np.clip(np.searchsorted(grid, v, side="right") - 1, 0, n_seg - 1)
    rows = np.arange(n)
    at_v = np.where(treated,
                    cum_t[rows, seg] + rate_t[rows, seg] * (np.where(treated, v, 0.0)
                                                             - grid[seg]), 0.0)
    t_after = _first_crossing(cum_t, rate_t, at_v + e_after, grid)
    death = np.where(treated, t_after, t0)
    return t0, v, death


def s2_monte_carlo(t_hor: float, reps: int, seed: int, law: dict = S2,
                   block: int = 10_000) -> tuple:
    """True risks of the four strategies by ``t_hor`` and their Monte Carlo
    standard errors, drawn in blocks to bound memory."""
    rng = np.random.default_rng(seed)
    hits = dict.fromkeys(("hypothetical", "composite", "while-untreated",
                          "ignore"), 0)
    done = 0
    while done < reps:
        n = min(block, reps - done)
        t0, v, death = s2_draw(rng, n, law)
        hits["hypothetical"] += int((t0 <= t_hor).sum())
        hits["composite"] += int((np.minimum(t0, v) <= t_hor).sum())
        hits["while-untreated"] += int(((t0 <= t_hor) & (t0 < v)).sum())
        hits["ignore"] += int((death <= t_hor).sum())
        done += n
    risks = {k: h / reps for k, h in hits.items()}
    se = {k: math.sqrt(p * (1.0 - p) / reps) for k, p in risks.items()}
    return risks, se


if __name__ == "__main__":
    import json

    risks, se = s2_monte_carlo(S2_T_HOR, S2_REPS, S2_SEED)
    print(json.dumps({"t_hor": S2_T_HOR, "reps": S2_REPS, "seed": S2_SEED,
                      "risks": risks, "se": se}, indent=2))
