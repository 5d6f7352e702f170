"""Evaluation: time-dependent concordance, integrated Brier score, and the
censoring Kaplan-Meier estimator used for IPCW."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import CurveSet

# Event subjects that c_td scores together. Its working set is a few
# (subjects x CTD_BLOCK) arrays, about 12 bytes per entry.
CTD_BLOCK = 256
# Time points that ibs scores together (IBS_BLOCK to 2 * IBS_BLOCK - 1). Its
# working set is a few (subjects x block) arrays.
IBS_BLOCK = 64


def _curve_set(curves) -> CurveSet:
    """A CurveSet as is; a sequence of SurvivalCurves on their union grid."""
    return curves if isinstance(curves, CurveSet) else CurveSet.from_curves(curves)


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
    t_sorted = times[order]
    cens_sorted = ~events[order]
    n = times.size
    uniq, start_idx = np.unique(t_sorted, return_index=True)
    jump_times = []
    values = []
    g = 1.0
    for k, tau in enumerate(uniq):
        lo = start_idx[k]
        hi = start_idx[k + 1] if k + 1 < uniq.size else n
        d_cens = int(cens_sorted[lo:hi].sum())
        if d_cens == 0:
            continue
        at_risk = n - lo
        g *= 1.0 - d_cens / at_risk
        jump_times.append(tau)
        values.append(g)
    return CensoringKM(jump_times=np.array(jump_times, dtype=np.float64),
                       values=np.array(values, dtype=np.float64))


def c_td(curves, times, events) -> float:
    """Time-dependent concordance over comparable pairs.

    A pair (i, j) is comparable when t_i < t_j and e_i = 1; it scores 1 when
    S_i(t_i) < S_j(t_i), 0.5 on an exact tie, 0 otherwise. `curves` is a
    CurveSet or a sequence of SurvivalCurves (stacked on their union grid).
    S_j(t_i) is column cell(t_i) of the value matrix, so event subjects are
    scored in blocks of CTD_BLOCK against every later subject at once: extra
    memory stays O(n * CTD_BLOCK), and the counts are integers, so the result
    does not depend on the blocking.
    """
    curves = _curve_set(curves)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    n = times.size
    if len(curves) != n:
        raise ValueError("one curve per outcome required")
    if not events.any():
        raise ValueError("no comparable pairs (no events)")
    # subjects by ascending time: those comparable with an event subject at
    # t_i are exactly the ones past searchsorted(t_sorted, t_i, 'right')
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    event_idx = order[events[order]]
    cells = curves.cells(times[event_idx])
    own = curves.values[event_idx, cells]
    first_later = np.searchsorted(t_sorted, times[event_idx], side="right")
    concordant = ties = pairs = 0
    for lo in range(0, event_idx.size, CTD_BLOCK):
        hi = min(lo + CTD_BLOCK, event_idx.size)
        start = first_later[lo]  # the block's earliest time has the most partners
        if start == n:
            break
        later = order[start:]
        others = curves.values[later[:, None], cells[None, lo:hi]]
        comparable = t_sorted[start:, None] > times[event_idx[lo:hi]][None, :]
        s_i = own[None, lo:hi]
        concordant += np.count_nonzero((s_i < others) & comparable)
        ties += np.count_nonzero((s_i == others) & comparable)
        pairs += int((n - first_later[lo:hi]).sum())
    if pairs == 0:
        raise ValueError("no comparable pairs")
    return (concordant + 0.5 * ties) / pairs


@dataclass
class IbsResult:
    value: float
    dropped_terms: int

    def __float__(self) -> float:
        return self.value


def ibs(curves, times, events, grid_points: int = 512) -> IbsResult:
    """Integrated Brier score with IPCW, composite-midpoint integration.

    At each t the score averages S(t|x_i)^2 / G(t_i-) over subjects with an
    observed event by t, plus (1 - S(t|x_i))^2 / G(t) over subjects still
    under observation after t; the integral over [0, t_max] is normalized by
    t_max. Terms whose IPCW denominator is zero are dropped and counted.
    """
    curves = _curve_set(curves)
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
    g_left = km.at_left(times)

    width = t_max / grid_points
    mids = (np.arange(grid_points) + 0.5) * width
    g_mid = km.at(mids)
    event_ok = g_left > 0.0
    g_event = np.where(event_ok, g_left, 1.0)[:, None]
    per_t = np.empty(grid_points)
    dropped = 0
    # A block at least two wide is averaged over subjects in the same order
    # as the whole matrix would be, so the result does not depend on blocking.
    for cols in np.array_split(np.arange(grid_points), max(1, grid_points // IBS_BLOCK)):
        block = slice(cols[0], cols[-1] + 1)
        at, g = mids[block], g_mid[block]
        surv = curves.at(at)
        had_event = events[:, None] & (times[:, None] <= at[None, :])
        still_at_risk = times[:, None] > at[None, :]
        risk_ok = g > 0.0
        event_term = np.where(had_event & event_ok[:, None], surv ** 2 / g_event, 0.0)
        risk_term = np.where(still_at_risk & risk_ok[None, :],
                             (1.0 - surv) ** 2 / np.where(risk_ok, g, 1.0)[None, :], 0.0)
        dropped += int((had_event & ~event_ok[:, None]).sum()
                       + (still_at_risk & ~risk_ok[None, :]).sum())
        per_t[block] = (event_term + risk_term).mean(axis=0)
    value = float(per_t.sum() * width / t_max)
    return IbsResult(value=value, dropped_terms=dropped)
