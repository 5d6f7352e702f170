"""Verbalized-probability curves and convex blending with hidden-state curves."""

from __future__ import annotations

import warnings

import numpy as np

from .heads import CurveSet
from .metrics import BLOCK_ELEMENTS, c_td_many

PERCENT_FLOOR = 0.5
DEFAULT_LAMBDA_GRID = tuple(k / 20.0 for k in range(21))


def floor_percents(percents) -> np.ndarray:
    """The percents as a float64 vector, 0 raised to PERCENT_FLOOR.

    One warning per call says how many of the present (non-NaN) percents
    were floored. Flooring floored percents changes nothing and warns no
    more, so a split's percents can be floored once, up front.
    """
    percents = np.asarray(percents, dtype=np.float64).reshape(-1)
    zero = percents == 0
    if zero.any():
        warnings.warn(f"verbalized probability 0 floored to {PERCENT_FLOOR}% before "
                      f"the log for {int(zero.sum())} of "
                      f"{int(np.count_nonzero(~np.isnan(percents)))} percents",
                      stacklevel=2)
        percents = np.where(zero, PERCENT_FLOOR, percents)
    return percents


def verbalized_curves(percents, times) -> CurveSet:
    """Exponential curves anchored at 3-year verbalized probabilities.

    rho = -ln(percent/100)/3, sampled at `times` (which must start at 0).
    Percents are floored by `floor_percents` before the log.
    """
    percents = np.asarray(percents, dtype=np.float64).reshape(-1)
    bad = percents[~((percents >= 0) & (percents <= 100))]
    if bad.size:
        raise ValueError(f"percent {bad[0]:g} outside [0, 100]")
    rho = -np.log(floor_percents(percents) / 100.0) / 3.0
    times = np.asarray(times, dtype=np.float64)
    values = -rho[:, None] * times[None, :]
    np.exp(values, out=values)
    return CurveSet(times=times, values=values)


def verbalized_curve(percent: float, times) -> CurveSet:
    """`verbalized_curves` for one percent: a one-row CurveSet."""
    return verbalized_curves([percent], times)


def _check_same_grid(a: CurveSet, b: CurveSet) -> None:
    if not np.array_equal(a.times, b.times):
        raise ValueError("curves must share evaluation times")


def _convex(hidden: np.ndarray, verbalized: np.ndarray, lam: float) -> np.ndarray:
    """(1 - lam) * hidden + lam * verbalized, element by element, as a new array.

    The second term is added a block of about BLOCK_ELEMENTS at a time, so
    the result is the only array of its size that is made.
    """
    values = (1.0 - lam) * hidden
    step = max(1, BLOCK_ELEMENTS // max(1, values[:1].size))
    for lo in range(0, len(values), step):
        values[lo:lo + step] += lam * verbalized[lo:lo + step]
    return values


def combine(hidden: CurveSet, verbalized: CurveSet, lam: float) -> CurveSet:
    """Row-wise convex combination (1 - lam) * S + lam * S^v on a shared grid."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda {lam} outside [0, 1]")
    _check_same_grid(hidden, verbalized)
    if hidden.values.shape != verbalized.values.shape:
        raise ValueError("one verbalized curve per hidden curve required")
    return CurveSet(times=hidden.times, values=_convex(hidden.values, verbalized.values, lam))


def mean_curve(curves: CurveSet) -> CurveSet:
    """Pointwise mean of the set's curves, as a one-curve set (imputation for
    absent S^v)."""
    if len(curves) == 0:
        raise ValueError("no curves to average")
    return CurveSet(times=curves.times, values=curves.values.mean(axis=0, keepdims=True))


def blend_inputs(hidden: CurveSet, percents) -> tuple[CurveSet, CurveSet | None, int]:
    """Verbalized curves for the blend and for verbalized-only evaluation.

    `percents` holds one rounded percent per hidden curve, None or NaN where
    the teacher gave nothing extractable. Returns (curves to blend with,
    curves to evaluate, number of percents present). An absent curve blends
    against the hidden curve itself, so its blend is a no-op, and is
    evaluated as the mean of the present verbalized curves; the evaluation
    set is None when no percent is present.
    """
    percents = np.asarray(percents, dtype=np.float64).reshape(-1)  # None -> NaN
    if percents.size != len(hidden):
        raise ValueError("one percent (or None) per hidden curve required")
    present = ~np.isnan(percents)
    n_present = int(present.sum())
    if n_present == 0:
        return hidden, None, 0
    verbalized = verbalized_curves(percents[present], hidden.times)
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


def select_lambda(hidden, verbalized, times, events,
                  grid=DEFAULT_LAMBDA_GRID) -> tuple[float, float]:
    """Concordance-maximizing lambda over the grid; ties go to the smallest.

    `hidden` and `verbalized` are CurveSets on one grid or CurveBlocks;
    missing verbalized curves must already be resolved (blend_inputs).
    Every lambda is scored in one pass: each block of event times reads the
    hidden and verbalized values once, and each lambda's blend of them is
    `combine`'s own arithmetic, so every score equals `c_td` of `combine`'s
    curves (a blend of valid curves needs no clean-up, so `combine` keeps
    exactly these values). Returns (lambda*, its validation concordance).
    """
    grid = sorted(float(g) for g in grid)
    if not grid or grid[0] < 0 or grid[-1] > 1:
        raise ValueError("lambda grid must lie in [0, 1]")
    if isinstance(hidden, CurveSet) and isinstance(verbalized, CurveSet):
        _check_same_grid(hidden, verbalized)
    if len(hidden) != len(verbalized):
        raise ValueError("one verbalized curve per hidden curve required")

    def blends(t, rows, later):
        h, v = hidden.at(t), verbalized.at(t)
        own = np.arange(rows.size)
        own_h, own_v, later_h, later_v = h[rows, own], v[rows, own], h[later], v[later]
        del h, v
        return ((_convex(own_h, own_v, lam), _convex(later_h, later_v, lam)) for lam in grid)

    scores = c_td_many(blends, len(hidden), len(grid), times, events)
    best = int(np.argmax(scores))  # the first maximum: the smallest lambda
    return grid[best], float(scores[best])
