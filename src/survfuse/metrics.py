"""Evaluation: time-dependent concordance, integrated Brier score, and the
censoring Kaplan-Meier estimator used for IPCW."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Float64 elements of one (subjects x block) array that c_td and ibs score
# together (256 KiB): c_td takes max(1, BLOCK_ELEMENTS // n) event subjects
# at a time and ibs max(2, BLOCK_ELEMENTS // n) to twice as many time
# points, so their working set, a few such arrays, does not grow with n. A
# budget four times as large has ibs hold all 512 of its points at once for
# a few hundred subjects; a smaller one pays each block's fixed cost
# (building its curves) more often.
BLOCK_ELEMENTS = 1 << 15
# Time points of the ibs integration grid (composite midpoint rule).
IBS_GRID_POINTS = 512


@dataclass
class CensoringKM:
    """Product-limit estimate of the censoring survival function G(t)."""

    jump_times: np.ndarray
    values: np.ndarray  # G just after each jump time

    def at(self, t) -> np.ndarray:
        """Right-continuous G(t)."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.jump_times, t, side="right")
        padded = np.concatenate([[1.0], self.values])
        return padded[idx]

    def at_left(self, t) -> np.ndarray:
        """Left limit G(t-)."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.jump_times, t, side="left")
        padded = np.concatenate([[1.0], self.values])
        return padded[idx]


def censoring_km(times, events) -> CensoringKM:
    """Kaplan-Meier with censorings (1 - e) treated as the events."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.size == 0:
        raise ValueError("empty outcomes")
    order = np.argsort(times, kind="stable")
    uniq, start = np.unique(times[order], return_index=True)
    # censorings at each distinct time; G jumps where there are any, by the
    # factors the product-limit takes left to right
    d_cens = np.add.reduceat(~events[order], start, dtype=np.intp)
    jumps = d_cens > 0
    return CensoringKM(jump_times=uniq[jumps],
                       values=np.cumprod(1.0 - d_cens[jumps] / (times.size - start[jumps])))


def _ibs_midpoints(t_max: float, grid_points: int) -> np.ndarray:
    """Midpoints of `grid_points` equal steps over [0, t_max]."""
    return (np.arange(grid_points) + 0.5) * (t_max / grid_points)


def c_td(curves, times, events) -> float:
    """Time-dependent concordance over comparable pairs.

    A pair (i, j) is comparable when t_i < t_j and e_i = 1; it scores 1 when
    S_i(t_i) < S_j(t_i), 0.5 on an exact tie, 0 otherwise. `curves` is a
    CurveSet, read only through `len` and `at`. Event subjects are scored
    in blocks of max(1, BLOCK_ELEMENTS // n) against every later subject
    at once, reading every curve at the block's event times,
    `curves.at(times)`: extra memory stays O(BLOCK_ELEMENTS), and the counts
    are integers, so the result does not depend on the blocking.
    """

    def read(t, rows, later):
        values = curves.at(t)
        return [(values[rows, np.arange(rows.size)], values[later])]

    return c_td_many(read, len(curves), 1, times, events)[0]


def c_td_many(read, n_curves: int, n_sets: int, times, events) -> list[float]:
    """`c_td` of `n_sets` sets of curves on the same outcomes, in one pass.

    For one block of event subjects, `read(t, rows, later)` returns (or
    yields, one at a time) each set's pair (S_i(t_i) of the subjects `rows`
    at their event times t, shape (k,); S_j(t) of the subjects `later`, shape
    (len(later), k)), in the same order on every call. Each block's
    comparable pairs are found once for every set.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    n = times.size
    if n_curves != n:
        raise ValueError("one curve per outcome required")
    if not events.any():
        raise ValueError("no comparable pairs (no events)")
    # subjects by ascending time: those comparable with an event subject at
    # t_i are exactly the ones past searchsorted(t_sorted, t_i, 'right')
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    event_idx = order[events[order]]
    first_later = np.searchsorted(t_sorted, times[event_idx], side="right")
    concordant, ties = [0] * n_sets, [0] * n_sets
    pairs = 0
    step = max(1, BLOCK_ELEMENTS // n)
    for lo in range(0, event_idx.size, step):
        hi = min(lo + step, event_idx.size)
        start = first_later[lo]  # the block's earliest time has the most partners
        if start == n:
            break
        rows = event_idx[lo:hi]
        later = order[start:]
        comparable = t_sorted[start:, None] > times[rows][None, :]
        for k, (own, others) in enumerate(read(times[rows], rows, later)):
            s_i = own[None, :]
            concordant[k] += np.count_nonzero((s_i < others) & comparable)
            ties[k] += np.count_nonzero((s_i == others) & comparable)
        pairs += int((n - first_later[lo:hi]).sum())
    if pairs == 0:
        raise ValueError("no comparable pairs")
    return [(c + 0.5 * t) / pairs for c, t in zip(concordant, ties)]


def ibs(curves, times, events, grid_points: int = IBS_GRID_POINTS) -> float:
    """Integrated Brier score with IPCW, composite-midpoint integration.

    At each t the score averages S(t|x_i)^2 / G(t_i-) over subjects with an
    observed event by t, plus (1 - S(t|x_i))^2 / G(t) over subjects still
    under observation after t; the integral over [0, t_max] is normalized by
    t_max. No weight is zero: subject i is at risk at every censoring before
    t_i, and the subjects observed to t_max at every one before a midpoint,
    so each G read here is at least 1/n. `curves` is a CurveSet, read only
    through `len` and `at`.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    n = times.size
    if len(curves) != n:
        raise ValueError("one curve per outcome required")
    if grid_points < 1:
        raise ValueError("grid_points must be positive")
    t_max = float(times.max())
    if t_max <= 0:
        raise ValueError("non-positive time horizon")
    km = censoring_km(times, events)

    width = t_max / grid_points
    mids = _ibs_midpoints(t_max, grid_points)
    g_mid = km.at(mids)
    g_event = km.at_left(times)[:, None]
    per_t = np.empty(grid_points)
    # A block at least two wide is averaged over subjects in the same order
    # as the whole matrix would be, so the result does not depend on blocking.
    block_cols = max(2, BLOCK_ELEMENTS // n)
    for cols in np.array_split(np.arange(grid_points), max(1, grid_points // block_cols)):
        block = slice(cols[0], cols[-1] + 1)
        at, g = mids[block], g_mid[block]
        surv = curves.at(at)
        had_event = events[:, None] & (times[:, None] <= at[None, :])
        still_at_risk = times[:, None] > at[None, :]
        event_term = np.where(had_event, surv ** 2 / g_event, 0.0)
        risk_term = np.where(still_at_risk, (1.0 - surv) ** 2 / g[None, :], 0.0)
        per_t[block] = (event_term + risk_term).mean(axis=0)
    return float(per_t.sum() * width / t_max)
