"""Illness-death simulator with treatment decisions driven by covariates.

Subjects move event-free -> treated -> event (or straight to the event),
with log-linear transition intensities in baseline covariates and
piecewise-constant time-dependent covariates updated on a grid. Latent clocks
are sampled by inverting the piecewise-constant cumulative hazards, so the
untreated event time exists for every subject and equals the factual event
time whenever the treatment intensity is zero.

Randomness: subject i draws from ``default_rng`` of the i-th spawn of
SeedSequence(seed), so output depends only on (spec, n, seed). A
SeedSequence passed as the seed is read, not advanced: subject i takes its
child ``n_children_spawned + i``. The children's PCG64 states come from one
array pass, a port of numpy's SeedSequence and PCG64 seeding. All subjects
draw their numbers in array passes, a port of PCG64 and of numpy's ziggurat
on its tables and constants (``ziggurat``): the words off a fast path are
resolved in array rounds over the few subjects that drew them. Each call
checks one subject's numbers against numpy's own seeding and draws. The
covariate paths, the intensities (with the C library's ``exp``, bit for
bit) and the inversion of the cumulative hazards are array passes over all
subjects.

Ground truth: ``true_risks`` gives each strategy's true risk at a profile,
in closed form when the law is constant given it, else by Monte Carlo: one
stream of subjects drawn in blocks of ``TRUTH_BLOCK``, the blocks spread
over forked children as ``validate`` spreads its replicate seeds
(``_spread``). A Monte Carlo truth's hits are remembered in the process, so
``validate``, which takes its truth from ``true_risks`` before any
replicate starts, draws each truth once.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .data import (
    CountingProcessDataset,
    CovariateSchema,
    DesignFlavor,
    Status,
    split_at_treatment,
)
from . import ziggurat
from .errors import DataError, InvalidIntensity, NumericError, ScenarioError

STRATEGY_KEYS = ("hypothetical", "composite", "while-untreated", "ignore")
#: subjects per block of the Monte Carlo truth
TRUTH_BLOCK = 5_000
#: most Monte Carlo reps of the truth: numpy keeps a SeedSequence's
#: ``n_children_spawned`` in 32 bits, so every block root must start below 2**32
MAX_MC_REPS = 2**32
#: most subjects of one simulation: subject i draws from the child that
#: ``SeedSequence.spawn`` makes i-th, and numpy counts those in 32 bits
MAX_SUBJECTS = 2**32
#: most replicate seeds of one ``validate`` command: its seeds are listed in
#: memory and in the report
MAX_SEEDS = 2**20
#: the seed of the Monte Carlo truth's stream
MC_SEED = 977_001
#: most Monte Carlo truths ``true_risks`` remembers in one process
TRUTH_MEMO = 64
#: most points a scenario's covariate grid may have; each simulated subject
#: carries one value per grid segment (the builtin s2 has 13 points)
MAX_GRID_POINTS = 10_000


def _float(value, where: str) -> float:
    """``value`` as a float, else a ScenarioError naming ``where``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: expected a number, got {value!r}") from None


def _number(value, where: str) -> float:
    """``value`` as a finite float, else a ScenarioError naming ``where``."""
    number = _float(value, where)
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: must be finite, got {value!r}")
    return number


def _mapping(d: dict, key: str, where: str) -> dict:
    """``d[key]``, empty when absent, which must be a JSON object."""
    value = d.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object, got {value!r}")
    return value


def _sequence(d: dict, key: str, where: str) -> list:
    """``d[key]``, empty when absent, which must be a JSON list."""
    value = d.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where}: expected a list, got {value!r}")
    return value


def _known_keys(d: dict, allowed, where: str) -> None:
    """A ScenarioError naming ``where`` if ``d`` has a key not in ``allowed``."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown}")


#: the parameters of each kind of baseline distribution
_DIST_PARAMS = {"normal": ("mean", "sd"), "uniform": ("low", "high"),
                "bernoulli": ("p",), "constant": ("value",)}


@dataclass(frozen=True)
class Dist:
    """Baseline covariate distribution: normal, uniform, bernoulli or constant."""

    kind: str
    params: dict

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _DIST_PARAMS:
            raise ScenarioError(f"unknown distribution {self.kind!r}")
        missing = [k for k in _DIST_PARAMS[self.kind] if k not in self.params]
        if missing:
            raise ScenarioError(f"distribution {self.kind!r} missing {missing}")
        p = {k: _number(self.params[k], k) for k in _DIST_PARAMS[self.kind]}
        if self.kind == "normal" and p["sd"] < 0:
            raise ScenarioError(f"sd must be >= 0, got {p['sd']}")
        if self.kind == "uniform" and p["low"] > p["high"]:
            raise ScenarioError(f"low {p['low']} must not exceed high {p['high']}")
        if self.kind == "uniform" and math.isinf(p["high"] - p["low"]):
            raise ScenarioError(f"the width of uniform({p['low']}, {p['high']}) overflows")
        if self.kind == "bernoulli" and not 0.0 <= p["p"] <= 1.0:
            raise ScenarioError(f"p must lie in [0, 1], got {p['p']}")
        object.__setattr__(self, "params", p)

    def draw(self, rng):
        """One value from a numpy ``Generator``, or one per subject from
        ``_Streams``."""
        p = self.params
        if self.kind == "normal":
            return rng.normal(p["mean"], p["sd"])
        if self.kind == "uniform":
            return rng.uniform(p["low"], p["high"])
        if self.kind == "bernoulli":
            return 1.0 * (rng.random() < p["p"])
        return p["value"]

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "Dist":
        if not isinstance(d, dict) or "dist" not in d:
            raise ScenarioError(f"{where}: expected a distribution object with a 'dist' key")
        names = _DIST_PARAMS.get(d["dist"], ()) if isinstance(d["dist"], str) else ()
        params = {k: _number(d[k], f"{where}.{k}") for k in names if k in d}
        try:
            dist = cls(d["dist"], params)
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        _known_keys(d, ("dist", *names), where)
        return dist

    def to_dict(self) -> dict:
        return {"dist": self.kind, **self.params}


@dataclass(frozen=True)
class TVProcess:
    """Piecewise-constant covariate updated at every grid point:
    z_j = drift + rho * z_{j-1} + sd * N(0,1)."""

    init: Dist
    rho: float = 1.0
    sd: float = 0.0
    drift: float = 0.0

    def __post_init__(self):
        for name in ("rho", "sd", "drift"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not self.sd >= 0:
            raise ScenarioError(f"sd must be >= 0, got {self.sd}")

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "TVProcess":
        if not isinstance(d, dict) or "init" not in d:
            raise ScenarioError(f"{where}: expected an object with an 'init' distribution")
        rho, sd, drift = (_number(d.get(k, default), f"{where}.{k}")
                          for k, default in (("rho", 1.0), ("sd", 0.0), ("drift", 0.0)))
        init = Dist.from_dict(d["init"], f"{where}.init")
        try:
            process = cls(init=init, rho=rho, sd=sd, drift=drift)
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        _known_keys(d, ("init", "rho", "sd", "drift"), where)
        return process

    def to_dict(self) -> dict:
        return {"init": self.init.to_dict(), "rho": self.rho, "sd": self.sd,
                "drift": self.drift}


@dataclass(frozen=True)
class LogLinearIntensity:
    """rate(t) = base * exp(sum log_hr[c] * x_c(t) [+ step in time since
    treatment])."""

    base: float
    log_hr: dict = field(default_factory=dict)
    tst_cuts: tuple = ()
    tst_log_hr: tuple = ()

    def __post_init__(self):
        if not isinstance(self.log_hr, dict):
            raise ScenarioError(f"log_hr must map covariates to numbers, got {self.log_hr!r}")
        base = _float(self.base, "base")
        log_hr = {k: _float(v, f"log_hr.{k}") for k, v in self.log_hr.items()}
        cuts = tuple(_float(c, "tst_cuts") for c in self.tst_cuts)
        coefs = tuple(_float(c, "tst_log_hr") for c in self.tst_log_hr)
        if not math.isfinite(base) or base < 0:
            raise InvalidIntensity(f"base intensity must be finite and >= 0, got {base}")
        if any(not math.isfinite(v) for v in log_hr.values()):
            raise InvalidIntensity("log hazard ratios must be finite")
        if any(not math.isfinite(c) for c in cuts + coefs):
            raise InvalidIntensity("tst_cuts and tst_log_hr must be finite")
        if cuts and list(cuts) != sorted(set(cuts)):
            raise InvalidIntensity("tst_cuts must be strictly increasing")
        if cuts and len(coefs) != len(cuts) + 1:
            raise InvalidIntensity("tst_log_hr needs one entry per segment "
                                   "(len(tst_cuts) + 1)")
        if coefs and not cuts and len(coefs) != 1:
            raise InvalidIntensity("tst_log_hr without cuts must have one entry")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "log_hr", log_hr)
        object.__setattr__(self, "tst_cuts", cuts)
        object.__setattr__(self, "tst_log_hr", coefs)

    @property
    def covariate_names(self) -> set:
        return set(self.log_hr)

    def rate(self, x: dict, tst=None):
        """The intensity at covariate values ``x`` (numbers, or arrays that
        broadcast to the segments) and time since treatment ``tst``."""
        lp = 0.0
        for name, coef in self.log_hr.items():
            lp = lp + coef * x[name]
        if self.tst_log_hr and tst is not None:
            steps = np.searchsorted(self.tst_cuts, tst, side="right")
            lp = lp + np.asarray(self.tst_log_hr)[steps]
        return self.base * _exp(lp)

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "LogLinearIntensity":
        if not isinstance(d, dict) or "base" not in d:
            raise ScenarioError(f"{where}: expected an object with a 'base' rate")
        try:
            intensity = cls(base=float(d["base"]),
                            log_hr={k: float(v) for k, v in
                                    _mapping(d, "log_hr", f"{where}.log_hr").items()},
                            tst_cuts=tuple(float(c) for c in _sequence(
                                d, "tst_cuts", f"{where}.tst_cuts")),
                            tst_log_hr=tuple(float(c) for c in _sequence(
                                d, "tst_log_hr", f"{where}.tst_log_hr")))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        _known_keys(d, ("base", "log_hr", "tst_cuts", "tst_log_hr"), where)
        return intensity

    def to_dict(self) -> dict:
        out = {"base": self.base, "log_hr": dict(self.log_hr)}
        if self.tst_cuts or self.tst_log_hr:
            out["tst_cuts"] = list(self.tst_cuts)
            out["tst_log_hr"] = list(self.tst_log_hr)
        return out


@dataclass(frozen=True)
class IntensitySpec:
    """Full generating law: three transition intensities, covariate
    processes, censoring and the observation design."""

    treatment: LogLinearIntensity
    death_untreated: LogLinearIntensity
    death_treated: LogLinearIntensity
    baseline_covariates: dict = field(default_factory=dict)
    tv_covariates: dict = field(default_factory=dict)
    admin_censor: float = 10.0
    dropout_rate: float = 0.0
    grid_step: float | None = None
    design: DesignFlavor = DesignFlavor.CONTINUES_AFTER_TREATMENT
    name: str = "scenario"

    def __post_init__(self):
        object.__setattr__(self, "design", DesignFlavor(self.design))
        if not (self.admin_censor > 0 and math.isfinite(self.admin_censor)):
            raise ScenarioError("admin_censor must be positive and finite")
        if not (math.isfinite(self.dropout_rate) and self.dropout_rate >= 0):
            raise ScenarioError("dropout_rate must be finite and >= 0")
        if self.grid_step is not None and not (math.isfinite(self.grid_step)
                                               and self.grid_step > 0):
            raise ScenarioError("grid_step must be positive and finite")
        if self.tv_covariates and self.grid_step is None:
            raise ScenarioError("grid_step is required with time-varying covariates")
        steps = self.admin_censor / self.grid_step if self.grid_step else 1.0
        if steps > MAX_GRID_POINTS - 1:
            points = math.ceil(steps) + 1 if math.isfinite(steps) else steps
            raise ScenarioError(
                f"admin_censor {self.admin_censor:g} over grid_step {self.grid_step:g} "
                f"makes a grid of {points:.6g} points, more than MAX_GRID_POINTS = "
                f"{MAX_GRID_POINTS}")
        known = set(self.baseline_covariates) | set(self.tv_covariates)
        for which in ("treatment", "death_untreated", "death_treated"):
            unknown = getattr(self, which).covariate_names - known
            if unknown:
                raise ScenarioError(
                    f"{which} references undeclared covariates {sorted(unknown)}")
        if self.death_untreated.tst_log_hr or self.treatment.tst_log_hr:
            raise ScenarioError("time-since-treatment terms only apply to "
                                "death_treated")

    def rate(self, which: str, x: dict, tst=None):
        """``LogLinearIntensity.rate`` of the intensity named ``which``; a log
        intensity beyond the range of exp is an InvalidIntensity naming it."""
        try:
            return getattr(self, which).rate(x, tst)
        except OverflowError:
            raise InvalidIntensity(f"{which}: log intensity above about 709.78, beyond "
                                   "the range of exp") from None

    @property
    def grid(self) -> np.ndarray:
        """Boundaries of the piecewise-constant segments, ending at the
        administrative censoring time."""
        if not self.grid_step:
            return np.array([0.0, self.admin_censor])
        pts = list(np.arange(0.0, self.admin_censor, self.grid_step))
        if pts[-1] < self.admin_censor:
            pts.append(self.admin_censor)
        return np.asarray(pts)

    @classmethod
    def from_dict(cls, d: dict) -> "IntensitySpec":
        if not isinstance(d, dict):
            raise ScenarioError("scenario must be a JSON object")
        for key in ("treatment", "death_untreated", "death_treated"):
            if key not in d:
                raise ScenarioError(f"scenario misses the {key!r} intensity")
        allowed = {"name", "design", "admin_censor", "dropout_rate", "grid_step",
                   "baseline_covariates", "tv_covariates", "treatment",
                   "death_untreated", "death_treated"}
        unknown = set(d) - allowed
        if unknown:
            raise ScenarioError(f"unknown scenario keys {sorted(unknown)}")
        baseline = {name: Dist.from_dict(v, f"baseline_covariates.{name}") for name, v
                    in _mapping(d, "baseline_covariates", "baseline_covariates").items()}
        tv = {name: TVProcess.from_dict(v, f"tv_covariates.{name}")
              for name, v in _mapping(d, "tv_covariates", "tv_covariates").items()}
        try:
            design = DesignFlavor(d.get("design", "continues"))
        except ValueError:
            raise ScenarioError(f"design must be 'continues' or 'stops', "
                                f"got {d.get('design')!r}") from None
        return cls(
            treatment=LogLinearIntensity.from_dict(d["treatment"], "treatment"),
            death_untreated=LogLinearIntensity.from_dict(
                d["death_untreated"], "death_untreated"),
            death_treated=LogLinearIntensity.from_dict(
                d["death_treated"], "death_treated"),
            baseline_covariates=baseline, tv_covariates=tv,
            admin_censor=_number(d.get("admin_censor", 10.0), "admin_censor"),
            dropout_rate=_number(d.get("dropout_rate", 0.0), "dropout_rate"),
            grid_step=(_number(d["grid_step"], "grid_step")
                       if d.get("grid_step") is not None else None),
            design=design, name=str(d.get("name", "scenario")))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "design": self.design.value,
            "admin_censor": self.admin_censor,
            "dropout_rate": self.dropout_rate,
            "grid_step": self.grid_step,
            "baseline_covariates": {k: v.to_dict()
                                    for k, v in self.baseline_covariates.items()},
            "tv_covariates": {k: v.to_dict() for k, v in self.tv_covariates.items()},
            "treatment": self.treatment.to_dict(),
            "death_untreated": self.death_untreated.to_dict(),
            "death_treated": self.death_treated.to_dict(),
        }


@dataclass(eq=False)
class Trajectories:
    """Latent and factual clocks of n subjects, as columns.

    ``x0`` maps each baseline covariate (and each overridden name) to its
    (n,) values and ``tv`` each time-varying covariate to its (n, n_seg)
    values on the grid segments. ``latent_death`` is the untreated event
    time T0, the counterfactual target; ``treat_time`` is V, inf when never
    treated; ``death_time`` is the factual event time, on the treated clock
    when V < T0.
    """

    x0: dict
    tv: dict
    censor_time: np.ndarray
    latent_death: np.ndarray
    treat_time: np.ndarray
    death_time: np.ndarray

    def __len__(self) -> int:
        return self.censor_time.size


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn``, a ``math`` function and so the C library's, of each entry."""
    return np.fromiter(map(fn, values.tolist()), float, values.size)


#: where the C library's complex exp of x + 0i is its exp(x) times 1: above
#: 709 glibc's cexp scales by exp(709), and below -745 exp(x) is 0
_EXP_RANGE = (-745.0, 709.0)


def _exp(lp):
    """``math.exp`` of each entry, bit for bit, one column at a time. On
    ``_EXP_RANGE`` the real part of numpy's complex ``exp`` of ``x + 0i`` is
    the C library's ``exp(x)``; numpy's real ``exp`` rounds differently on
    some SIMD paths, which would change the drawn clocks. Entries outside
    the range, or NaN, go through ``math.exp``, so an overflow still raises
    OverflowError."""
    if np.ndim(lp) == 0:
        return math.exp(lp)
    out = np.empty(lp.shape)
    column, result = np.zeros(lp.shape[0], complex), np.empty(lp.shape[0], complex)
    with np.errstate(all="ignore"):  # the entries that would warn are redone below
        for j in range(lp.shape[1]):
            column.real = lp[:, j]
            out[:, j] = np.exp(column, out=result).real
    outside = ~((lp >= _EXP_RANGE[0]) & (lp <= _EXP_RANGE[1]))
    if outside.any():
        out[outside] = _libm(math.exp, lp[outside])
    return out


#: arguments where numpy's real exp and the C library's differ on some SIMD
#: paths, arguments with subnormal results, and the ends of ``_EXP_RANGE``
_EXP_PROBE = np.array([float.fromhex(h) for h in """
0x1.ddd008db04570p+7 0x1.f6b1ac15243e0p+5 -0x1.a37b3dbb9e780p+3 -0x1.16eb2ce630cc0p+3
-0x1.1a65c3fc59c20p+6 -0x1.a65fc0c190aeap+8 0x1.98f9435010860p+8 -0x1.b25fe0314851ep+8
0x1.0fad386f06b74p+9 0x1.1f90c620e0a60p+4 -0x1.6800000000000p+9 -0x1.6233333333333p+9
-0x1.7480000000000p+9 -0x1.745999999999ap+9 0x1.6280000000000p+9 0x1.627fffffffffep+9
-0x1.0000000000000p+0 0x0.0000000000000p+0 0x1.0000000000000p-1074
""".split()])


def _check_exp() -> None:
    """A RuntimeError unless ``_exp`` is ``math.exp`` on ``_EXP_PROBE``."""
    if _exp(_EXP_PROBE[:, None]).tobytes() != _libm(math.exp, _EXP_PROBE).tobytes():
        raise RuntimeError(f"numpy {np.__version__}'s complex exp is not the C library's "
                           "exp on the probe arguments of predictimands.simulate, so "
                           "the simulated clocks would change")


_check_exp()


def _invert(a, width, rate, target) -> np.ndarray:
    """Per row, the first time the piecewise-constant cumulative hazard
    reaches ``target``; segments start at ``a`` and have the given width and
    rate. Segments of zero width are skipped; inf when the target is never
    reached."""
    shape = (target.size, np.shape(width)[-1])
    a, width, rate = (np.broadcast_to(x, shape) for x in (a, width, rate))
    cap = np.where(width > 0, rate * width, 0.0)
    cum = np.cumsum(cap, axis=1)
    hit = (cap > 0) & (cum >= target[:, None])
    k = hit.argmax(axis=1)
    rows = np.flatnonzero(hit[np.arange(target.size), k])
    k = k[rows]
    prev = np.where(k > 0, cum[rows, k - 1], 0.0)
    out = np.full(target.size, np.inf)
    out[rows] = a[rows, k] + (target[rows] - prev) / rate[rows, k]
    return out


# numpy's SeedSequence (O'Neill's seed_seq_fe: a pool of uint32 words mixed by
# hashmix and mix), its seeding of PCG64 (pcg_setseq_128_srandom_r), PCG64's
# step and XSL-RR output (O'Neill 2014, HMC-CS-2014-0905) and numpy's draws,
# ported to array passes over many subjects at once
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFF_FFFF
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_LOW32 = np.uint64(_MASK32)
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFF_FFFF_FFFF_FFFF)
_MULT_LO0, _MULT_LO1 = _MULT_LO & _LOW32, _MULT_LO >> np.uint64(32)
_R52 = np.uint64((1 << 52) - 1)


def _words(entropy) -> list:
    """The little-endian 32-bit words of an int, or of each int of a
    sequence in turn, as SeedSequence assembles its entropy."""
    if isinstance(entropy, (int, np.integer)):
        value, words = int(entropy), []
        while True:
            words.append(value & _MASK32)
            value >>= 32
            if not value:
                return words
    return [word for item in entropy for word in _words(item)]


def _seed_words(entropy: list, pool_size: int) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of m seed sequences at
    once, as an (m, 4) array: entry k of ``entropy`` is the (m,) uint32
    column of their k-th assembled entropy word. A spawned child's entropy
    is padded to at least ``pool_size`` words. uint32 array arithmetic wraps
    modulo 2**32, as the C code does."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ (out >> 16)

    pool = [hashmix(entropy[k]) for k in range(pool_size)]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(pool_size, len(entropy)):
        for dst in range(pool_size):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    state, hash_const = [], _INIT_B
    for k in range(8):
        value = pool[k % pool_size] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append(value ^ (value >> 16))
    return np.stack(state, axis=1).astype("<u4").view("<u8")


def _pcg64_step(hi, lo, inc_hi, inc_lo) -> tuple:
    """PCG64's next state, ``state * _PCG_MULT + inc`` modulo 2**128, of
    128-bit values held as (hi, lo) uint64 limb arrays. uint64 arithmetic
    wraps modulo 2**64; the high word of ``lo * _MULT_LO`` is summed from
    32-bit limb products, which cannot overflow. Updates in place keep the
    temporaries few."""
    lo0, lo1 = lo & _LOW32, lo >> 32
    cross0, cross1 = lo0 * _MULT_LO1, lo1 * _MULT_LO0
    # the sum of the products' bits 32-63, whose overflow carries into the high word
    mid = lo0
    mid *= _MULT_LO0
    mid >>= 32
    mid += cross0 & _LOW32
    mid += cross1 & _LOW32
    mid >>= 32
    high = lo1  # the high word of lo * _MULT_LO
    high *= _MULT_LO1
    high += cross0 >> 32
    high += cross1 >> 32
    high += mid
    new_hi = hi * _MULT_LO
    new_hi += high
    new_hi += lo * _MULT_HI
    new_hi += inc_hi
    new_lo = lo * _MULT_LO
    new_lo += inc_lo
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


def _pcg64_state(words) -> tuple:
    """PCG64's (state_hi, state_lo, inc_hi, inc_lo) limb arrays seeded from
    the (m, 4) ``generate_state(4, np.uint64)`` words of m seed sequences:
    inc = seq << 1 | 1, state = (seed + inc) * _PCG_MULT + inc."""
    s_hi, s_lo, i_hi, i_lo = words.T
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = s_lo + inc_lo
    return (*_pcg64_step(s_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo),
            inc_hi, inc_lo)


def _child_states(root: np.random.SeedSequence, first: int, n: int) -> tuple:
    """The PCG64 state and increment of children first, ..., first + n - 1
    of ``root``, child i being ``SeedSequence(root.entropy, spawn_key=
    root.spawn_key + (i,))`` as ``root.spawn`` makes it, as four (n,) uint64
    arrays: the high and low 64-bit limbs of the state, then of the
    increment."""
    run = _words(root.entropy)
    prefix = run + [0] * (root.pool_size - len(run)) + _words(root.spawn_key)
    blocks, lo, end = [], first, first + n
    while lo < end:
        # up to the next multiple of 2**32, the children's indices share
        # their upper words, and so their number of words
        hi = min(end, ((lo >> 32) + 1) << 32)
        low = np.arange(lo & _MASK32, (lo & _MASK32) + hi - lo).astype(np.uint32)
        upper = _words(lo >> 32) if lo >> 32 else []
        blocks.append(_seed_words(
            [np.full(hi - lo, word, np.uint32) for word in prefix] + [low]
            + [np.full(hi - lo, word, np.uint32) for word in upper], root.pool_size))
        lo = hi
    return _pcg64_state(np.concatenate(blocks))


def _normal_word(word) -> tuple:
    """The layer of each of ``standard_normal``'s words (8 bits of layer, a
    sign bit, 52 bits of r), its fast-path value and whether it missed."""
    layer, r = word & 0xFF, word >> 9 & _R52
    x = r * ziggurat.WI.take(layer)
    # r * w >= 0, so setting the sign bit negates it
    x.view(np.uint64)[...] |= (word & 0x100) << 55
    return layer, x, r >= ziggurat.KI.take(layer)


def _exponential_word(word) -> tuple:
    """The same for ``standard_exponential``'s words: 3 unused bits, 8 bits
    of layer, 53 bits of r."""
    layer, r = word >> 3 & 0xFF, word >> 11
    return layer, r * ziggurat.WE.take(layer), r >= ziggurat.KE.take(layer)


class _Streams:
    """The PCG64 streams of n subjects, stepped together, with the draws of
    a numpy ``Generator``: ``random``, ``uniform``, and the ziggurat
    ``standard_normal`` / ``normal`` and ``standard_exponential`` /
    ``exponential`` (Marsaglia & Tsang 2000) on numpy's tables and
    constants (``predictimands.ziggurat``). A draw returns one number per
    subject; ``out`` takes one column per draw. ``first_slow`` is the first
    subject with a word off a ziggurat fast path (None while there is
    none)."""

    def __init__(self, state_hi, state_lo, inc_hi, inc_lo):
        self.hi, self.lo, self.inc_hi, self.inc_lo = state_hi, state_lo, inc_hi, inc_lo
        self.first_slow = None

    def _next(self, rows=None) -> np.ndarray:
        """The next output word of each stream, or of the streams ``rows``
        only: step, then XSL-RR of the new state."""
        if rows is None:
            self.hi, self.lo = hi, lo = _pcg64_step(self.hi, self.lo, self.inc_hi,
                                                    self.inc_lo)
        else:
            hi, lo = _pcg64_step(self.hi[rows], self.lo[rows], self.inc_hi[rows],
                                 self.inc_lo[rows])
            self.hi[rows], self.lo[rows] = hi, lo
        rot, word = hi >> 58, hi ^ lo
        return word >> rot | word << ((64 - rot) & 63)

    def _fill(self, draw, out):
        for j in range(out.shape[1]):
            out[:, j] = draw()
        return out

    def _ziggurat(self, split, tail, f, log_density) -> np.ndarray:
        """One ziggurat draw per stream, as numpy's C code makes it. Every
        stream takes one word, which ``split`` turns into its layer, value
        and whether it missed the fast path. The streams that missed are
        resolved in array rounds that step only them: layer 0 draws from
        the tail (``tail`` of the rows and their words), any other layer
        takes a uniform u and keeps its value when ``(f[layer - 1] -
        f[layer]) * u + f[layer] < exp(log_density(value))``, else starts
        again with a fresh word. ``exp`` and ``log1p`` on these few entries
        are the C library's, through ``math``."""
        word = self._next()
        layer, x, slow = split(word)
        rows = np.flatnonzero(slow)
        if rows.size and (self.first_slow is None or rows[0] < self.first_slow):
            self.first_slow = int(rows[0])
        word, layer = word[rows], layer[rows]
        while rows.size:
            edge = layer == 0
            if edge.any():
                x[rows[edge]] = tail(rows[edge], word[edge])
                rows, layer = rows[~edge], layer[~edge]
            u = self.random(rows)
            wedge = (f.take(layer - 1) - f.take(layer)) * u + f.take(layer)
            rows = rows[wedge >= _libm(math.exp, log_density(x[rows]))]
            word = self._next(rows)
            layer, x[rows], slow = split(word)
            rows, word, layer = rows[slow], word[slow], layer[slow]
        return x

    def _normal_tail(self, rows, word) -> np.ndarray:
        """numpy's normal tail beyond R: pairs of uniforms until 2y > x * x,
        then R + x, negative when bit 8 of the first word's r is set."""
        out, pending = np.empty(rows.size), np.arange(rows.size)
        while pending.size:
            x = -ziggurat.NORMAL_INV_R * _libm(math.log1p, -self.random(rows[pending]))
            y = -_libm(math.log1p, -self.random(rows[pending]))
            accept = y + y > x * x
            out[pending[accept]] = ziggurat.NORMAL_R + x[accept]
            pending = pending[~accept]
        out.view(np.uint64)[...] |= (word >> 17 & 1) << 63
        return out

    def _exponential_tail(self, rows, word) -> np.ndarray:
        """numpy's exponential tail beyond R: R - log1p(-u)."""
        return ziggurat.EXPONENTIAL_R - _libm(math.log1p, -self.random(rows))

    def random(self, rows=None) -> np.ndarray:
        return (self._next(rows) >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> np.ndarray:
        return low + (high - low) * self.random()

    def standard_normal(self, out=None) -> np.ndarray:
        if out is not None:
            return self._fill(self.standard_normal, out)
        return self._ziggurat(_normal_word, self._normal_tail, ziggurat.FI,
                              lambda x: -0.5 * x * x)

    def normal(self, loc: float, scale: float) -> np.ndarray:
        return loc + scale * self.standard_normal()

    def standard_exponential(self, out=None) -> np.ndarray:
        if out is not None:
            return self._fill(self.standard_exponential, out)
        return self._ziggurat(_exponential_word, self._exponential_tail, ziggurat.FE,
                              np.negative)

    def exponential(self, scale: float) -> np.ndarray:
        return scale * self.standard_exponential()


def _draw(spec: IntensitySpec, n: int, root: np.random.SeedSequence) -> tuple:
    """The random numbers of n subjects, subject i drawing from the PCG64 of
    child ``root.n_children_spawned + i`` of ``root`` as a numpy
    ``Generator`` would: each baseline covariate in name order; per
    time-varying covariate its initial value and n_seg - 1 innovations; the
    dropout clock; three unit exponentials for T0, V and the treated clock
    (the last is unused when V >= T0). All subjects draw in array passes
    (``_Streams``), the slow paths of the ziggurat included. Then one
    subject, the first with a word off a fast path or else the first, is
    drawn by ``default_rng`` of its own ``SeedSequence``: its numbers must
    not change."""
    baseline = [spec.baseline_covariates[k] for k in sorted(spec.baseline_covariates)]
    inits = [spec.tv_covariates[k].init for k in sorted(spec.tv_covariates)]
    scale = 1.0 / spec.dropout_rate if spec.dropout_rate > 0 else None
    x0 = np.empty((len(baseline), n))
    z0 = np.empty((len(inits), n))
    noise = np.empty((len(inits), n, spec.grid.size - 2))
    dropout = np.full(n, np.inf)
    clocks = np.empty((n, 3))

    def draw_into(rng, x0, z0, noise, dropout, clocks):
        # ``rng`` is the _Streams of all subjects, given the whole arrays, or
        # one subject's numpy Generator, given views of its entries
        for k, dist in enumerate(baseline):
            x0[k] = dist.draw(rng)
        for k, init in enumerate(inits):
            z0[k] = init.draw(rng)
            rng.standard_normal(out=noise[k])
        if scale is not None:
            dropout[...] = rng.exponential(scale)
        rng.standard_exponential(out=clocks)

    streams = _Streams(*_child_states(root, root.n_children_spawned, n))
    draw_into(streams, x0, z0, noise, dropout, clocks)

    k = streams.first_slow or 0
    ours = x0[:, k], z0[:, k], noise[:, k], dropout[k:k + 1], clocks[k]
    theirs = [a.copy() for a in ours]
    draw_into(np.random.default_rng(np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + (root.n_children_spawned + k,),
        pool_size=root.pool_size)), *theirs)
    if any(a.tobytes() != b.tobytes() for a, b in zip(theirs, ours)):
        raise RuntimeError(f"numpy {np.__version__} seeds or draws differently from the "
                           "SeedSequence, PCG64 and ziggurat port of "
                           "predictimands.simulate, which would change every "
                           "simulated stream")
    return x0, z0, noise, dropout, clocks


def _check_n(n) -> None:
    if not 1 <= n <= MAX_SUBJECTS:
        raise ScenarioError(f"n must be between 1 and 2**32, got {n}")


def _check_seed(seed, name: str = "seed") -> None:
    """A ScenarioError naming ``seed`` unless it is a nonnegative int or
    numpy integer, the entropy of a stream's ``SeedSequence``."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ScenarioError(f"{name} must be a nonnegative integer, got {seed!r}")


def simulate_trajectories(spec: IntensitySpec, n: int, seed,
                          x0_override=None) -> Trajectories:
    """Latent clocks of n subjects. Subject i draws from the i-th child of
    ``SeedSequence(seed)``, the one ``spawn`` makes i-th. A ``SeedSequence``
    given as ``seed`` is read, not advanced: subject i takes its child
    ``seed.n_children_spawned + i``, so a stream continues from a root built
    with ``n_children_spawned``. Covariates named in ``x0_override`` are
    fixed at the given values after the draws."""
    _check_n(n)
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        _check_seed(seed)
        root = np.random.SeedSequence(seed)
    grid = spec.grid
    n_seg = grid.size - 1
    # a covariate whose draws overflow is raised below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        x0_draws, z0, noise, dropout, clocks = _draw(spec, n, root)
        x0 = dict(zip(sorted(spec.baseline_covariates), x0_draws))
        x0.update({name: np.full(n, float(value))
                   for name, value in (x0_override or {}).items()})
        tv = {}
        for k, name in enumerate(sorted(spec.tv_covariates)):
            process, z = spec.tv_covariates[name], np.empty((n, n_seg))
            z[:, 0] = z0[k]
            for j in range(1, n_seg):
                z[:, j] = (process.drift + process.rho * z[:, j - 1]
                           + process.sd * noise[k, :, j - 1])
            tv[name] = z
    for name, col in {**x0, **tv}.items():
        if not np.isfinite(col).all():
            raise ScenarioError(f"covariate {name!r} draws values that are not finite: "
                                "its distribution or process overflows")
    values = {name: col[:, None] for name, col in x0.items()}
    values.update(tv)

    width = np.diff(grid)
    t0 = _invert(grid[:-1], width, spec.rate("death_untreated", values), clocks[:, 0])
    v = _invert(grid[:-1], width, spec.rate("treatment", values), clocks[:, 1])

    # the treated clock starts at V, on segments cut at the grid points after
    # V and at V + tst_cuts inside the grid; padding with the grid end gives
    # zero-width segments, which the inversion skips
    death = np.where(v < t0, np.inf, t0)
    sel = np.flatnonzero((v < t0) & (v < grid[-1]))
    if sel.size:
        vs = v[sel, None]
        after = np.where(grid[1:] > vs, grid[1:], grid[-1])
        shifted = vs + np.asarray(spec.death_treated.tst_cuts, float)
        shifted = np.where((vs < shifted) & (shifted < grid[-1]), shifted, grid[-1])
        bounds = np.sort(np.concatenate([vs, after, shifted], axis=1), axis=1)
        a = bounds[:, :-1]
        j = np.minimum(np.searchsorted(grid, a, side="right") - 1, n_seg - 1)
        treated = {name: col[sel, None] for name, col in x0.items()}
        treated.update({name: np.take_along_axis(z[sel], j, axis=1)
                        for name, z in tv.items()})
        death[sel] = _invert(a, bounds[:, 1:] - a,
                             spec.rate("death_treated", treated, a - vs),
                             clocks[sel, 2])

    censor = np.minimum(spec.admin_censor, dropout)
    return Trajectories(x0, tv, censor, t0, v, death)


def simulate(spec: IntensitySpec, n: int, seed: int) -> CountingProcessDataset:
    """Draw n subjects and emit them as a counting-process dataset: rows end
    at the grid points inside follow-up, at V when it is observed and at the
    end of follow-up. A stops-at-treatment scenario gives that follow-up
    split at treatment start."""
    tr = simulate_trajectories(spec, n, seed)
    grid, v = spec.grid, tr.treat_time
    end = np.minimum(tr.death_time, tr.censor_time)
    final = np.where(tr.death_time <= tr.censor_time, Status.EVENT, Status.CENSORED)
    switch = (v < tr.latent_death) & (v < end)

    inner = np.concatenate([np.where(grid[1:] < end[:, None], grid[1:], np.inf),
                            np.where(switch, v, np.inf)[:, None]], axis=1)
    inner.sort(axis=1)
    keep = inner < np.inf
    keep[:, 1:] &= inner[:, 1:] != inner[:, :-1]
    tstop = np.concatenate([inner, end[:, None]], axis=1)[
        np.concatenate([keep, np.ones((n, 1), bool)], axis=1)]
    offsets = np.concatenate([[0], np.cumsum(keep.sum(axis=1) + 1)])
    tstart = np.concatenate([[0.0], tstop[:-1]])
    tstart[offsets[:-1]] = 0.0
    sub = np.repeat(np.arange(n), np.diff(offsets))
    last = np.zeros(tstop.size, bool)
    last[offsets[1:] - 1] = True
    status = np.where(last, final[sub],
                      np.where(switch[sub] & (tstop == v[sub]),
                               Status.TREATMENT_START, Status.CENSORED))
    treated = switch[sub] & (tstart >= v[sub])

    schema = CovariateSchema(baseline=tuple(sorted(spec.baseline_covariates)),
                             time_varying=tuple(sorted(spec.tv_covariates)))
    seg = np.minimum(np.searchsorted(grid, tstart, side="right") - 1, grid.size - 2)
    columns = {name: tr.x0[name][sub] for name in schema.baseline}
    columns.update({name: z[sub, seg] for name, z in tr.tv.items()})
    ds = CountingProcessDataset(schema, DesignFlavor.CONTINUES_AFTER_TREATMENT,
                                [str(i + 1) for i in range(n)], offsets, tstart, tstop,
                                status, treated, columns)
    return split_at_treatment(ds) if spec.design == DesignFlavor.STOPS_AT_TREATMENT else ds


# ---------------------------------------------------------------------------
# ground truth


@dataclass(frozen=True)
class TruthOracle:
    """True risks per strategy for a profile, analytic when the law is
    constant given baseline covariates, Monte Carlo otherwise."""

    method: str
    risks: dict
    se: dict
    t_hor: float
    profile: dict
    reps: int | None = None


def _is_constant_given(spec: IntensitySpec, profile: dict) -> bool:
    for intensity in (spec.treatment, spec.death_untreated, spec.death_treated):
        if intensity.covariate_names - set(profile):
            return False
        if intensity.covariate_names & set(spec.tv_covariates):
            return False
        if intensity.tst_log_hr:
            return False
    return True


def constant_intensity_risks(l_treat: float, l_death: float,
                             l_death_treated: float, t: float) -> dict:
    """Closed forms for constant intensities.

    hypothetical = 1 - exp(-l_death t); composite = 1 - exp(-(l_treat +
    l_death) t); while-untreated = the death share of the composite; ignore
    adds the treated-path integral."""
    a = l_treat + l_death
    b = l_death_treated
    composite = -math.expm1(-a * t)
    wu = (l_death / a) * composite if a > 0 else 0.0
    if a > 0:
        if abs(a - b) > 1e-12:
            treated_path = l_treat * (composite / a - math.exp(-b * t)
                                      * -math.expm1(-(a - b) * t) / (a - b))
        else:
            treated_path = l_treat * (composite / a - math.exp(-b * t) * t)
    else:
        treated_path = 0.0
    return {
        "hypothetical": -math.expm1(-l_death * t),
        "composite": composite,
        "while-untreated": wu,
        "ignore": wu + treated_path,
    }


def _check_truth(spec: IntensitySpec, profile: dict, t_hor: float, mc_reps: int) -> None:
    unknown = sorted(set(profile) - set(spec.baseline_covariates))
    if unknown:
        raise ScenarioError(f"profile names {unknown}, which are not baseline "
                            f"covariates of the scenario "
                            f"{sorted(spec.baseline_covariates)}")
    for name, value in profile.items():
        _number(value, f"profile.{name}")
    if t_hor > spec.admin_censor:
        raise ScenarioError("t_hor must not exceed the scenario's admin_censor "
                            "(the covariate grid ends there)")
    if not 0 < t_hor < math.inf:
        raise ScenarioError(f"t_hor must be positive and finite, got {t_hor}")
    if not 1 <= mc_reps <= MAX_MC_REPS:
        raise ScenarioError(f"mc_reps must be between 1 and 2**32, got {mc_reps}")


def true_risks(spec: IntensitySpec, profile=None, t_hor: float = 5.0,
               mc_reps: int = 200_000, mc_seed: int = MC_SEED) -> TruthOracle:
    """True risks at ``t_hor`` given the baseline covariates in ``profile``,
    each of which must be a baseline covariate of the scenario with a
    finite value; ``t_hor`` must be positive and at most the scenario's
    ``admin_censor``, ``mc_reps`` in [1, 2**32] and ``mc_seed`` a
    nonnegative integer, even when the truth is analytic. A Monte Carlo
    truth's hits are remembered: the same inputs given again in this
    process, within the last ``TRUTH_MEMO`` truths, are recalled, not drawn
    (``_memo_hits``); inputs that are not JSON are drawn each time."""
    profile = dict(profile or {})
    _check_truth(spec, profile, t_hor, mc_reps)
    _check_seed(mc_seed, "mc_seed")
    if _is_constant_given(spec, profile):
        risks = constant_intensity_risks(
            spec.rate("treatment", profile), spec.rate("death_untreated", profile),
            spec.rate("death_treated", profile, 0.0), t_hor)
        return TruthOracle("analytic", risks,
                           {k: 0.0 for k in STRATEGY_KEYS}, t_hor, profile)
    key = _truth_key(spec, profile, t_hor, mc_reps, mc_seed)
    hits = (_truth_hits(spec, profile, t_hor, mc_reps, mc_seed) if key is None
            else _memo_hits(key))
    risks = {k: float(h / mc_reps) for k, h in zip(STRATEGY_KEYS, hits)}
    se = {k: math.sqrt(max(v * (1 - v), 1e-12) / mc_reps)
          for k, v in risks.items()}
    return TruthOracle("monte-carlo", risks, se, t_hor, profile, reps=mc_reps)


def _truth_key(spec: IntensitySpec, profile: dict, t_hor: float, mc_reps: int,
               mc_seed: int):
    """The key of a Monte Carlo truth in ``_memo_hits``: the JSON of the
    spec, profile, horizon, reps and seed it depends on; None if they are
    not JSON or do not read back as themselves."""
    args = [spec.to_dict(), profile, t_hor, mc_reps, mc_seed]
    try:
        key = json.dumps(args, sort_keys=True)
    except (TypeError, ValueError):
        return None
    return key if json.loads(key) == args else None


@functools.lru_cache(maxsize=TRUTH_MEMO)
def _memo_hits(key: str) -> tuple:
    """The hits of the Monte Carlo truth whose inputs ``key`` holds
    (``_truth_key``), drawn once while the key is among the ``TRUTH_MEMO``
    most recently used; a draw that raises is not remembered."""
    spec, profile, t_hor, mc_reps, mc_seed = json.loads(key)
    return _truth_hits(IntensitySpec.from_dict(spec), profile, t_hor, mc_reps, mc_seed)


def _truth_hits(spec: IntensitySpec, profile: dict, t_hor: float, mc_reps: int,
                mc_seed: int) -> tuple:
    """The Monte Carlo truth's hits: how many of ``mc_reps`` subjects drawn
    at ``profile`` meet each strategy's event by ``t_hor``, in the order of
    ``STRATEGY_KEYS``. The subjects are one stream, drawn in blocks of
    ``TRUTH_BLOCK`` to bound the memory; ``_spread`` spreads the blocks, and
    as the hits are integer counts their sum does not depend on how."""
    parts = _spread("the Monte Carlo truth from rep", _block_hits,
                    range(0, mc_reps, TRUTH_BLOCK), spec, profile, t_hor, mc_reps, mc_seed)
    return tuple(int(h) for h in np.sum(parts, axis=0))


def _block_hits(starts: range, spec: IntensitySpec, profile: dict, t_hor: float,
                mc_reps: int, mc_seed: int) -> np.ndarray:
    """The hits of the truth's blocks that begin at the reps ``starts``."""
    hits = np.zeros(4, np.int64)
    for start in starts:
        root = np.random.SeedSequence(mc_seed, n_children_spawned=start)
        tr = simulate_trajectories(spec, min(TRUTH_BLOCK, mc_reps - start),
                                   root, x0_override=profile)
        t0, v = tr.latent_death, tr.treat_time
        hits += [np.count_nonzero(t0 <= t_hor),
                 np.count_nonzero(np.minimum(t0, v) <= t_hor),
                 np.count_nonzero((t0 <= t_hor) & (t0 < v)),
                 np.count_nonzero(tr.death_time <= t_hor)]
    return hits


def _cpus() -> int:
    """How many CPUs ``_spread`` may keep busy with forked children: those
    in this process's affinity on Linux, with no other Python thread (a
    fork copies only the calling one) and a caller that may have children;
    1 otherwise."""
    import multiprocessing
    if (sys.platform != "linux" or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _in_child(what: str, fn, *args):
    """Start ``fn(*args)`` in a forked child, where ``_cpus()`` is at least 2.
    The child writes nothing: it records the warnings its inherited filters
    let through, and sends them back with fn's result or error. Returns a
    function that waits for the child and returns what it sent, which
    ``_settled`` makes the caller's; ``what`` names fn's work in the error
    of a child that was killed."""
    import multiprocessing
    import warnings
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            try:
                result = fn(*args)
            except BaseException as exc:  # raised again by the caller
                result = exc
        send.send((result, [(w.message, w.category, w.filename, w.lineno) for w in caught]))

    child = ctx.Process(target=run, daemon=True)
    child.start()
    send.close()

    def wait() -> tuple:
        try:
            return receive.recv()
        except EOFError:  # only a signal ends the child before it sends
            return RuntimeError(f"the process of {what} was killed"), []
        finally:
            receive.close()
            child.join()

    return wait


def _settled(sent: tuple):
    """Issue again the warnings a child sent, as the module of the file that
    raised each one would (its name for the filters, its registry for
    "default" and "module"), then return the child's result or raise its
    error."""
    import warnings
    result, caught = sent
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
        else:
            warnings.warn_explicit(message, category, filename, lineno, module.__name__,
                                   vars(module).setdefault("__warningregistry__", {}),
                                   vars(module))
    if isinstance(result, BaseException):
        raise result
    return result


def _spread(what: str, fn, items, *args) -> list:
    """``fn(chunk, *args)`` of contiguous chunks of ``items``, one per CPU of
    ``_cpus()`` and at most one per item: the caller runs the first chunk
    while forked children run the others (``_in_child``, naming each by
    ``what`` and its first item). The results are listed in chunk order, and
    the warnings and the error raised are those of running the chunks in
    turn: the earliest chunk's error wins, and a child's warnings follow the
    chunks before it."""
    k = max(1, min(len(items), _cpus()))
    cuts = [len(items) * i // k for i in range(k + 1)]
    chunks = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    pending = []
    try:
        for chunk in chunks[1:]:
            pending.append(_in_child(f"{what} {chunk[0]}", fn, chunk, *args))
        parts = [fn(chunks[0], *args)]
        while pending:
            parts.append(_settled(pending.pop(0)()))
    finally:
        # the chunks after one that raised are dropped, warnings and all, as
        # running the chunks in turn would never reach them
        for wait in pending:
            wait()
    return parts


def _replicates(seeds, spec: IntensitySpec, n: int, strategy_specs, profile: dict,
                t_hor: float) -> tuple:
    """Simulate the replicate of each seed in turn and estimate each strategy
    on it at ``t_hor``: the estimates and the data and numeric errors, each
    a list by label; any other error propagates."""
    from . import strategies as strat

    estimates = {s.label: [] for s in strategy_specs}
    errors = {s.label: [] for s in strategy_specs}
    for seed in seeds:
        ds = simulate(spec, n, seed)
        for sspec in strategy_specs:
            label = sspec.label
            try:
                curve = strat.estimate(ds, sspec, profile)
                estimates[label].append(float(curve.value_at(t_hor)))
            except (DataError, NumericError) as exc:
                errors[label].append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
    return estimates, errors


def validate(spec: IntensitySpec, n: int, seeds, strategy_specs,
             profile=None, t_hor: float = 5.0, tolerance: float = 0.02,
             mc_reps: int = 200_000) -> dict:
    """Simulate-then-estimate across seeds and compare to the truth oracle.

    Per-strategy entries report bias and RMSE at the horizon, the Monte Carlo
    SE of the bias (sd of the estimates / sqrt(seeds), None below two
    estimates) and a pass flag against the declared tolerance; data and
    numeric errors in estimation are collected per seed rather than raised,
    anything else propagates. Every strategy spec must predict to ``t_hor``,
    the horizon of the truth it is compared with, and no two may share a
    label. ``seeds`` is a sequence of 1 to ``MAX_SEEDS`` nonnegative
    integers, reported as Python ints, and ``tolerance`` is finite and
    nonnegative, else a ScenarioError names the value. The truth is
    ``true_risks``'s, drawn with its blocks spread over the CPUs, or
    recalled, before any replicate starts; then the seeds are estimated in
    contiguous chunks, the caller the first and forked children the others
    (``_spread``). The report is the same at any CPU count, as the truth's
    hits are integer counts and the chunks are merged in seed order.
    """
    profile = dict(profile or {})
    if not 0 <= tolerance < math.inf:
        raise ScenarioError(f"tolerance must be finite and nonnegative, got {tolerance}")
    try:
        count = len(seeds)
    except OverflowError:  # a range of more than sys.maxsize seeds
        count = math.inf
    if not 1 <= count <= MAX_SEEDS:
        raise ScenarioError(f"validate takes 1 to 2**20 seeds, got {count}")
    labels = [s.label for s in strategy_specs]
    twice = sorted({label for label in labels if labels.count(label) > 1})
    if twice:
        raise DataError(f"strategy labels {twice} are listed more than once")
    for sspec in strategy_specs:
        if sspec.t_hor != t_hor:
            raise DataError(f"strategy {sspec.label} predicts to horizon "
                            f"{sspec.t_hor:g}, but validate compares at t_hor={t_hor:g}")
    _check_truth(spec, profile, t_hor, mc_reps)
    _check_n(n)
    for seed in seeds:
        _check_seed(seed)
    seeds = [int(seed) for seed in seeds]
    truth = true_risks(spec, profile, t_hor, mc_reps=mc_reps)
    parts = _spread("the replicates from seed", _replicates, seeds, spec, n, strategy_specs,
                    profile, t_hor)
    estimates, errors = parts[0]
    for more_estimates, more_errors in parts[1:]:
        for label in estimates:
            estimates[label] += more_estimates[label]
            errors[label] += more_errors[label]

    report = {
        "scenario": spec.name,
        "n": n,
        "seeds": seeds,
        "t_hor": t_hor,
        "profile": profile,
        "truth_method": truth.method,
        "strategies": {},
        "all_passed": True,
    }
    for sspec in strategy_specs:
        label = sspec.label
        truth_key = sspec.strategy.value
        k = len(estimates[label])
        entry = {
            "truth": truth.risks[truth_key],
            "truth_se": truth.se[truth_key],
            # Monte Carlo SE of the bias (Morris, White & Crowther 2019)
            "bias_mcse": (float(np.std(estimates[label], ddof=1) / math.sqrt(k))
                          if k >= 2 else None),
            "estimates": estimates[label],
            "errors": errors[label],
            "tolerance": tolerance,
        }
        if estimates[label]:
            arr = np.asarray(estimates[label])
            entry["mean"] = float(arr.mean())
            entry["bias"] = float(arr.mean() - truth.risks[truth_key])
            entry["rmse"] = float(np.sqrt(((arr - truth.risks[truth_key]) ** 2).mean()))
            entry["passed"] = bool(abs(entry["bias"]) <= tolerance
                                   and not errors[label])
        else:
            entry["passed"] = False
        report["strategies"][label] = entry
        report["all_passed"] = report["all_passed"] and entry["passed"]
    return report
