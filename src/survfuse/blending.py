"""Verbalized-probability curves and convex blending with hidden-state curves."""

from __future__ import annotations

import warnings

import numpy as np

from .heads import CurveSet, SurvivalCurve
from .metrics import c_td

PERCENT_FLOOR = 0.5
DEFAULT_LAMBDA_GRID = tuple(k / 20.0 for k in range(21))


def verbalized_curves(percents, times) -> CurveSet:
    """Exponential curves anchored at 3-year verbalized probabilities.

    rho = -ln(percent/100)/3, sampled at `times` (which must start at 0).
    A percent of 0 is floored to 0.5 before the log; one warning per call
    says how many were.
    """
    percents = np.asarray(percents, dtype=np.float64).reshape(-1)
    bad = percents[~((percents >= 0) & (percents <= 100))]
    if bad.size:
        raise ValueError(f"percent {bad[0]:g} outside [0, 100]")
    zero = percents == 0
    if zero.any():
        warnings.warn(f"verbalized probability 0 floored to {PERCENT_FLOOR}% before "
                      f"the log for {int(zero.sum())} of {percents.size} percents",
                      stacklevel=2)
        percents = np.where(zero, PERCENT_FLOOR, percents)
    rho = -np.log(percents / 100.0) / 3.0
    times = np.asarray(times, dtype=np.float64)
    values = -rho[:, None] * times[None, :]
    np.exp(values, out=values)
    return CurveSet(times=times, values=values)


def verbalized_curve(percent: float, times) -> SurvivalCurve:
    """The curve of `verbalized_curves` for one percent."""
    return verbalized_curves([percent], times)[0]


def _check_same_grid(a: CurveSet, b: CurveSet) -> None:
    if not np.array_equal(a.times, b.times):
        raise ValueError("curves must share evaluation times")


def combine(hidden: CurveSet, verbalized: CurveSet, lam: float) -> CurveSet:
    """Row-wise convex combination (1 - lam) * S + lam * S^v on a shared grid."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda {lam} outside [0, 1]")
    _check_same_grid(hidden, verbalized)
    if hidden.values.shape != verbalized.values.shape:
        raise ValueError("one verbalized curve per hidden curve required")
    values = (1.0 - lam) * hidden.values
    values += lam * verbalized.values
    return CurveSet(times=hidden.times, values=values)


def mean_curve(curves: CurveSet) -> CurveSet:
    """Pointwise mean of the set's curves, as a one-curve set (imputation for
    absent S^v)."""
    if len(curves) == 0:
        raise ValueError("no curves to average")
    return CurveSet(times=curves.times, values=curves.values.mean(axis=0, keepdims=True))


def blend_inputs(hidden: CurveSet, percents) -> tuple[CurveSet, CurveSet | None, int]:
    """Verbalized curves for the blend and for verbalized-only evaluation.

    `percents` holds one rounded percent per hidden curve, None where the
    teacher gave nothing extractable. Returns (curves to blend with, curves
    to evaluate, number of percents present). An absent curve blends against
    the hidden curve itself, so its blend is a no-op, and is evaluated as the
    mean of the present verbalized curves; the evaluation set is None when
    no percent is present.
    """
    if len(percents) != len(hidden):
        raise ValueError("one percent (or None) per hidden curve required")
    present = np.array([p is not None for p in percents], dtype=bool)
    n_present = int(present.sum())
    if n_present == 0:
        return hidden, None, 0
    verbalized = verbalized_curves([p for p in percents if p is not None], hidden.times)
    if n_present == len(hidden):
        return verbalized, verbalized, n_present
    mean = mean_curve(verbalized).values
    blend = hidden.values.copy()
    blend[present] = verbalized.values
    del verbalized  # at most three (N, T) matrices live at once
    evaluated = blend.copy()
    evaluated[~present] = mean
    return (CurveSet(times=hidden.times, values=blend),
            CurveSet(times=hidden.times, values=evaluated), n_present)


def select_lambda(hidden: CurveSet, verbalized: CurveSet, times, events,
                  grid=DEFAULT_LAMBDA_GRID) -> tuple[float, float]:
    """Concordance-maximizing lambda over the grid; ties go to the smallest.

    Missing verbalized curves must already be resolved (blend_inputs).
    Returns (lambda*, its validation concordance).
    """
    grid = sorted(float(g) for g in grid)
    if not grid or grid[0] < 0 or grid[-1] > 1:
        raise ValueError("lambda grid must lie in [0, 1]")
    _check_same_grid(hidden, verbalized)
    # c_td reads every curve only at event times, so blend just those columns:
    # a blend of valid curves needs no clean-up, so the scores are unchanged
    event_times = np.asarray(times, dtype=np.float64)[np.asarray(events, dtype=bool)]
    hidden, verbalized = hidden.restrict(event_times), verbalized.restrict(event_times)
    best_lam = None
    best_score = -np.inf
    for lam in grid:
        score = c_td(combine(hidden, verbalized, lam), times, events)
        if score > best_score:
            best_score = score
            best_lam = lam
    return best_lam, float(best_score)
