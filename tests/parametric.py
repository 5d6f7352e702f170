"""One-fit references for the tests: a parametric fit's survival at given
times, and the rounded 3-year percent of one fit, which the batch teacher
finalisation computes row-wise."""

import numpy as np

from survfuse.distill import ParametricFit, round_to_nearest_five


def fit_survival_at(fit: ParametricFit, t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if fit.family == "exponential":
        return np.exp(-fit.rate * t)
    if fit.family == "weibull":
        return np.exp(-((t / fit.scale) ** fit.shape))
    if fit.family == "loglogistic":
        return 1.0 / (1.0 + (t / fit.scale) ** fit.shape)
    raise ValueError(f"unknown family {fit.family!r}")


def three_year_percent(fit: ParametricFit) -> int:
    return round_to_nearest_five(float(fit_survival_at(fit, 3.0)) * 100.0)
