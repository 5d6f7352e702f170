"""Single survival curves for the tests: one-row CurveSets, stacked onto the
union of their grids and read one curve at a time."""

import numpy as np

from survfuse.heads import CurveSet


def curve(times, values) -> CurveSet:
    """One step curve, checked like any set: a one-row CurveSet."""
    return CurveSet.of(np.asarray(times, dtype=np.float64),
                       np.asarray(values, dtype=np.float64)[None, :])


def curve_at(one: CurveSet, t):
    """A one-row set's value at time(s) t: the value held from the preceding step."""
    (row,) = one.at(t)
    return row


def stack(curves) -> CurveSet:
    """Every row of `curves` on the union of their grids (exact for step functions)."""
    curves = list(curves)
    times = np.unique(np.concatenate([c.times for c in curves]))
    return CurveSet.of(times, np.vstack([c.at(times) for c in curves]))
