"""Verbalized-probability curves and convex blending with hidden-state curves."""

from __future__ import annotations

import numpy as np

from .heads import CurveSet
from .metrics import BLOCK_ELEMENTS, c_td_many

PERCENT_FLOOR = 0.5
DEFAULT_LAMBDA_GRID = tuple(k / 20.0 for k in range(21))


def verbalized_curves(percents, times) -> np.ndarray:
    """Exponential curves anchored at 3-year verbalized probabilities.

    rho = -ln(percent/100)/3, sampled at `times`: the (N, len(times)) values
    exp(-rho * t), each from its own percent and time alone. A percent of 0
    is raised to PERCENT_FLOOR before the log; a caller that reports it counts
    the zeros.
    """
    percents = np.asarray(percents, dtype=np.float64).reshape(-1)
    bad = percents[~((percents >= 0) & (percents <= 100))]
    if bad.size:
        raise ValueError(f"percent {bad[0]:g} outside [0, 100]")
    rho = -np.log(np.where(percents == 0, PERCENT_FLOOR, percents) / 100.0) / 3.0
    times = np.asarray(times, dtype=np.float64)
    values = -rho[:, None] * times[None, :]
    np.exp(values, out=values)
    return values


def verbalized_curve(percent: float, times) -> CurveSet:
    """`verbalized_curves` for one percent, as a one-row CurveSet (`times`
    must start at 0)."""
    return CurveSet(times=times, values=verbalized_curves([percent], times))


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


def combine(hidden: np.ndarray, verbalized: np.ndarray, lam: float) -> np.ndarray:
    """Row-wise convex combination (1 - lam) * S + lam * S^v of curve values
    on the same columns."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda {lam} outside [0, 1]")
    if hidden.shape != verbalized.shape:
        raise ValueError("one verbalized curve per hidden curve required")
    return _convex(hidden, verbalized, lam)


def mean_curve(values: np.ndarray) -> np.ndarray:
    """Pointwise mean of (N, T) curve values, shape (1, T) (imputation for
    absent S^v).

    Each column is summed row by row (the running sum, not numpy's pairwise
    sum of a lone column), so a column's mean does not depend on the
    columns read with it.
    """
    if len(values) == 0:
        raise ValueError("no curves to average")
    return np.cumsum(values, axis=0)[-1:] / len(values)


def blend_inputs(values, times, percents) -> tuple[np.ndarray, int]:
    """The verbalized curves to blend the hidden curves with.

    `values` holds the hidden curves on the grid times `times`, any columns
    in any order; `percents` holds one rounded percent per hidden curve,
    None or NaN where the teacher gave nothing extractable. Returns (values
    to blend with, on the same columns, number of percents present); every
    column is computed from its own time alone. An absent curve blends
    against the hidden curve itself, so its blend is a no-op.
    """
    percents = np.asarray(percents, dtype=np.float64).reshape(-1)  # None -> NaN
    if percents.size != len(values):
        raise ValueError("one percent (or None) per hidden curve required")
    present = ~np.isnan(percents)
    n_present = int(present.sum())
    if n_present == 0:
        return values, 0
    verbalized = verbalized_curves(percents[present], times)
    if n_present == len(values):
        return verbalized, n_present
    blend = values.copy()
    blend[present] = verbalized
    return blend, n_present


def select_lambda(hidden, percents, times, events,
                  grid=DEFAULT_LAMBDA_GRID) -> tuple[float, float]:
    """Concordance-maximizing lambda over the grid; ties go to the smallest.

    `hidden` is a CurveSet or a CurveBlocks and `percents` holds one percent
    per curve, NaN where absent. Every lambda
    is scored in one pass: each block of event times reads the hidden
    curves' columns once, takes their blend partner (`blend_inputs`) and
    blends them with `combine`'s own arithmetic, so every score equals
    `c_td` of the whole set `combine(hidden.values, blend_inputs(...)[0],
    lam)`. Returns (lambda*, its concordance).
    """
    grid = sorted(float(g) for g in grid)
    if not grid or grid[0] < 0 or grid[-1] > 1:
        raise ValueError("lambda grid must lie in [0, 1]")

    def blends(t, rows, later):
        cols = hidden.cells(t)
        h = hidden.columns(cols)
        v = blend_inputs(h, hidden.times[cols], percents)[0]
        own = np.arange(rows.size)
        own_h, own_v, later_h, later_v = h[rows, own], v[rows, own], h[later], v[later]
        del h, v
        return ((_convex(own_h, own_v, lam), _convex(later_h, later_v, lam)) for lam in grid)

    scores = c_td_many(blends, len(hidden), len(grid), times, events)
    best = int(np.argmax(scores))  # the first maximum: the smallest lambda
    return grid[best], float(scores[best])
