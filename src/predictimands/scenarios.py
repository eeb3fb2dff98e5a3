"""Builtin simulation scenarios.

``s1`` has constant intensities with treatment decisions independent of any
covariate, so every strategy's truth is known in closed form. ``s2`` drives
both treatment and death with a shared time-varying covariate, creating
informative censoring that plain censor-at-treatment estimation cannot
remove but IPC weighting can. ``age_gap`` gives younger subjects a higher
treatment rate and treatment a large protective effect, so the spread
between the hypothetical and ignore-treatment curves widens at younger ages.
"""

from __future__ import annotations

from .errors import ScenarioError
from .simulate import IntensitySpec

BUILTIN = {
    "s1": {
        "name": "s1",
        "design": "continues",
        "admin_censor": 10.0,
        "treatment": {"base": 0.1},
        "death_untreated": {"base": 0.2},
        "death_treated": {"base": 0.05},
    },
    "s2": {
        "name": "s2",
        "design": "continues",
        "admin_censor": 6.0,
        "grid_step": 0.5,
        "tv_covariates": {
            "z": {"init": {"dist": "normal", "mean": 0.0, "sd": 1.0},
                  "rho": 1.0, "sd": 0.3, "drift": 0.0},
        },
        "treatment": {"base": 0.10, "log_hr": {"z": 1.2}},
        "death_untreated": {"base": 0.12, "log_hr": {"z": 0.8}},
        "death_treated": {"base": 0.06, "log_hr": {"z": 0.8}},
    },
    # rates at age 60: treatment 0.22 (strongly decreasing in age),
    # untreated death 0.08, treated death 0.016
    "age_gap": {
        "name": "age_gap",
        "design": "continues",
        "admin_censor": 12.0,
        "baseline_covariates": {
            "age": {"dist": "uniform", "low": 40.0, "high": 80.0},
        },
        "treatment": {"base": 26.732, "log_hr": {"age": -0.08}},
        "death_untreated": {"base": 0.0072574, "log_hr": {"age": 0.04}},
        "death_treated": {"base": 0.0014515, "log_hr": {"age": 0.04}},
    },
}


def builtin(name: str) -> IntensitySpec:
    if name not in BUILTIN:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: {sorted(BUILTIN)}")
    return IntensitySpec.from_dict(BUILTIN[name])
