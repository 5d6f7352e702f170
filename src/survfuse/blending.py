"""Verbalized-probability curves and convex blending with hidden-state curves."""

from __future__ import annotations

import numpy as np

from .distill import VERBALIZED_HORIZON
from .formats import id_rows
from .heads import CurveSet
from .metrics import BLOCK_ELEMENTS, c_td_many

PERCENT_FLOOR = 0.5
DEFAULT_LAMBDA_GRID = tuple(k / 20.0 for k in range(21))


def verbalized_rates(percents) -> np.ndarray:
    """The rate rho = -ln(percent/100)/VERBALIZED_HORIZON of each verbalized
    probability, NaN where the percent is absent (None or NaN), computed
    once per set of curves. A percent of 0 is raised to PERCENT_FLOOR before
    the log, only here (a caller that reports it counts the zeros); one
    outside [0, 100] is a ValueError."""
    percents = np.asarray(percents, dtype=np.float64).reshape(-1)  # None -> NaN
    bad = percents[(percents < 0) | (percents > 100)]
    if bad.size:
        raise ValueError(f"percent {bad[0]:g} outside [0, 100]")
    return -np.log(np.where(percents == 0, PERCENT_FLOOR, percents) / 100.0) / VERBALIZED_HORIZON


def _exponential(rates, times) -> np.ndarray:
    """The values exp(-rho * t), each from its own rate and time alone."""
    values = -rates[:, None] * np.asarray(times, dtype=np.float64)[None, :]
    np.exp(values, out=values)
    return values


def verbalized_curve(percents, times) -> CurveSet:
    """Exponential curves anchored at 3-year verbalized probabilities, the
    values exp(-rho * t) of each percent's rate on the grid `times` (which
    must start at 0), as a CurveSet; one percent gives a one-row set."""
    return CurveSet.of(times, _exponential(verbalized_rates(percents), times))


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


def blend_inputs(values, times, rates) -> np.ndarray:
    """The verbalized curves to blend the hidden curves with.

    `values` holds the hidden curves on the grid times `times`, any columns
    in any order; `rates` holds one `verbalized_rates` rate per hidden
    curve. Returns the values to blend with, on the same columns; every
    column is computed from its own time alone. An absent (NaN) rate blends
    against the hidden curve itself, a no-op.
    """
    if len(rates) != len(values):
        raise ValueError("one percent (or None) per hidden curve required")
    present = ~np.isnan(rates)
    if not present.any():
        return values
    verbalized = _exponential(rates[present], times)
    if present.all():
        return verbalized
    blend = values.copy()
    blend[present] = verbalized
    return blend


def verbalized_blocks(hidden: CurveSet, percents) -> CurveSet:
    """The verbalized channel on the grid of `hidden`, a block of columns at
    a time: each present percent's curve, and their `mean_curve` for every
    absent one (some are present)."""
    rates = verbalized_rates(percents)
    present = ~np.isnan(rates)
    own_rates, imputed = rates[present], not present.all()

    def columns(cols):
        own = _exponential(own_rates, hidden.times[cols])
        if not imputed:
            return own
        values = np.empty((present.size, own.shape[1]))
        values[present] = own
        values[~present] = mean_curve(own)
        return values

    return CurveSet(hidden.times, len(hidden), columns)


def combined_blocks(hidden: CurveSet, percents, lam: float) -> CurveSet:
    """The combined channel of `hidden` at the weight `lam`:
    `combine(h, blend_inputs(h, ...), lam)` of each block h of its columns,
    the same columns as of the whole set."""
    rates = verbalized_rates(percents)

    def columns(cols):
        values = hidden.columns(cols)
        return combine(values, blend_inputs(values, hidden.times[cols], rates), lam)

    return CurveSet(hidden.times, len(hidden), columns)


def select_lambda(hidden: CurveSet, percents, times, events,
                  grid=DEFAULT_LAMBDA_GRID) -> tuple[float, float]:
    """Concordance-maximizing lambda over the grid; ties go to the smallest.

    `percents` holds one percent per curve of `hidden`, NaN where absent.
    Every lambda is scored in one pass: each block of event times reads the
    hidden curves' columns once, takes their blend partner (`blend_inputs`)
    and blends them with `combine`'s own arithmetic, so every score equals
    `c_td` of the whole set `combined_blocks(hidden, percents, lam)`.
    Returns (lambda*, its concordance).
    """
    grid = sorted(float(g) for g in grid)
    if not grid or grid[0] < 0 or grid[-1] > 1:
        raise ValueError("lambda grid must lie in [0, 1]")
    rates = verbalized_rates(percents)

    def blends(t, rows, later):
        cols = hidden.cells(t)
        h = hidden.columns(cols)
        v = blend_inputs(h, hidden.times[cols], rates)
        own = np.arange(rows.size)
        own_h, own_v, later_h, later_v = h[rows, own], v[rows, own], h[later], v[later]
        del h, v
        return ((_convex(own_h, own_v, lam), _convex(later_h, later_v, lam)) for lam in grid)

    scores = c_td_many(blends, len(hidden), len(grid), times, events)
    best = int(np.argmax(scores))  # the first maximum: the smallest lambda
    return grid[best], float(scores[best])


def blend_curves(hidden: CurveSet, percents, ids, lam: float | None = None,
                 outcomes=None) -> tuple[CurveSet, dict]:
    """`survfuse blend`: the `combined_blocks` of `hidden` at the weight
    `lam`, or if it is None at `select_lambda`'s on `outcomes` (ids, times,
    events; every id in `ids` needed), and blend.json's summary: the weight,
    its selection concordance, and the curves, present percents and 0%
    estimates counted."""
    selection_ctd = None
    if lam is None:
        out_ids, times, events = outcomes
        rows = id_rows(out_ids, ids)
        missing = [sid for sid, row in zip(ids, rows) if row < 0]
        if missing:
            raise ValueError(f"no outcome rows for ids {missing[:5]}")
        lam, selection_ctd = select_lambda(hidden, percents, times[rows], events[rows])
    summary = {"lambda": lam, "selection_c_td": selection_ctd, "n_curves": len(hidden),
               "n_verbalized": int(np.count_nonzero(~np.isnan(percents))),
               "n_floored": int(np.count_nonzero(percents == 0))}
    return combined_blocks(hidden, percents, lam), summary
