"""Survival heads: discrete-time hazards and Cox partial likelihood.

Target construction, losses with exact gradients, Breslow baseline hazards,
and step-function survival curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nn import sigmoid

PROB_CLIP = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Bin edges 0 = t_0 < t_1 < ... < t_B (years)."""

    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        object.__setattr__(self, "edges", edges)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("grid needs at least one bin")
        if edges[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("grid edges must be strictly increasing")

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1

    @classmethod
    def equal_width(cls, n_bins: int, horizon: float) -> "TimeGrid":
        return cls(np.linspace(0.0, float(horizon), n_bins + 1))

    @classmethod
    def from_quantiles(cls, times, n_bins: int, horizon: float) -> "TimeGrid":
        """Edges at observed-time quantiles, deduplicated, always ending at `horizon`."""
        qs = np.quantile(np.asarray(times, dtype=np.float64), np.linspace(0, 1, n_bins + 1))
        edges = np.unique(np.concatenate([[0.0], qs[1:-1], [float(horizon)]]))
        return cls(edges[edges <= horizon])


@dataclass
class DiscreteTargets:
    """Per-subject event indicators `y` and at-risk masks `a`, both (N, B)."""

    y: np.ndarray
    a: np.ndarray


def _grid_cells(grid_times, t) -> np.ndarray:
    """Column of a step-curve grid holding each time's value: the last grid_times[k] <= t."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("curves are defined for t >= 0")
    return np.searchsorted(grid_times, t, side="right") - 1


def _grid_columns(grid_times, t) -> np.ndarray:
    """The grid columns that hold times t, and column 0, ascending.

    Step curves kept on only these columns are exact at every time in t:
    each keeps the grid point it had.
    """
    return np.union1d([0], _grid_cells(grid_times, t))


def _checked_curves(times, values) -> tuple[np.ndarray, np.ndarray]:
    """Validate (N, T) step-curve values on a shared grid; return them cleaned.

    Sub-tolerance numerical bumps are flattened so the invariants hold
    exactly: values are clipped to [0, 1], and rows that still rise somewhere
    are replaced by their running minimum (a monotone row is its own). Clean
    float64 input comes back as the same array, without a copy.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.ndim != 1 or values.ndim != 2 or values.shape[1] != times.size:
        raise ValueError("times must be 1-D with one value column per time")
    if times.size == 0 or times[0] != 0.0 or np.any(values[:, 0] != 1.0):
        raise ValueError("curve must start at (0, 1)")
    if not np.all(np.diff(times) > 0.0):  # NaN fails too
        raise ValueError("curve times must be strictly increasing")
    if values.size == 0:
        return times, values
    # neighbour comparisons, not np.diff: the same answers (NaN compares
    # false, inf - inf is NaN) without a float temporary the size of the curves
    rising = values[:, 1:] > values[:, :-1]
    if rising.any() and np.any(np.diff(values, axis=1) > 1e-12):
        raise ValueError("survival values must be non-increasing")
    low, high = values.min(), values.max()
    if not (low >= -1e-12 and high <= 1.0 + 1e-12):  # NaN fails too
        raise ValueError("survival values must lie in [0, 1]")
    if low < 0.0 or high > 1.0:
        values = np.clip(values, 0.0, 1.0)
        rising = values[:, 1:] > values[:, :-1]
    rows = np.flatnonzero(rising.any(axis=1))
    if rows.size:
        values = values.copy()  # never write into the caller's array
        values[rows] = np.minimum.accumulate(values[rows], axis=1)
    return times, values


@dataclass
class CurveSet:
    """N step curves on one shared grid: `times` (T,), `values` (N, T).

    Row i is S_i; column k holds every S_i on [times[k], times[k+1]). The
    times start at 0 and strictly increase; every row starts at 1, never
    rises and lies in [0, 1], checked once for the whole matrix.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times, self.values = _checked_curves(self.times, self.values)

    def __len__(self) -> int:
        return self.values.shape[0]

    def cells(self, t) -> np.ndarray:
        """Grid column holding each time's value: the last times[k] <= t."""
        return _grid_cells(self.times, t)

    def at(self, t) -> np.ndarray:
        """Every curve at time(s) t: shape (N,) + shape(t)."""
        return self.values[:, self.cells(t)]

    def build(self, t) -> "CurveSet":
        """The curves on only the grid columns that hold times t, and 0 (as `CurveBlocks`)."""
        cols = _grid_columns(self.times, t)
        return CurveSet(times=self.times[cols], values=self.values[:, cols])


@dataclass
class CurveBlocks:
    """N curves built on demand, a block of times at a time.

    `build(t)` returns the curves as a CurveSet on only the grid points that
    hold times t (`at=` of `cox_curve` and `discrete_curve`, or functions of
    such a set), and `at(t)` reads that set at t. The metrics read curves
    only through `len` and `at`, so they score a CurveBlocks exactly as the
    CurveSet it stands for, holding one (N, len(t)) block at a time.
    """

    n: int
    build: Callable[[np.ndarray], CurveSet]

    def __len__(self) -> int:
        return self.n

    def at(self, t) -> np.ndarray:
        """Every curve at times t (1-D): shape (N, len(t))."""
        t = np.asarray(t, dtype=np.float64)
        block = self.build(t)
        if len(block) != self.n:
            raise ValueError(f"built {len(block)} curves, expected {self.n}")
        return block.at(t)


def build_discrete_targets(times, events, grid: TimeGrid) -> DiscreteTargets:
    """Event and at-risk indicator matrices for the masked Bernoulli objective.

    y[i, b] = 1 iff subject i has an event in (t_{b-1}, t_b]; a[i, b] = 1 iff
    the subject is still at risk at the start of bin b (observed time strictly
    past the bin's left edge). A subject censored exactly at an edge counts as
    at risk for the bin that ends there, not the next one.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if np.any(times > grid.edges[-1]):
        bad = float(times.max())
        raise ValueError(f"observed time {bad} lies outside the grid (t_B = {grid.edges[-1]})")
    lower = grid.edges[:-1][None, :]
    upper = grid.edges[1:][None, :]
    t_col = times[:, None]
    in_bin = (t_col > lower) & (t_col <= upper)
    y = (in_bin & events[:, None]).astype(np.float64)
    a = (t_col > lower).astype(np.float64)
    return DiscreteTargets(y=y, a=a)


def discrete_loss(logits: np.ndarray, targets: DiscreteTargets) -> float:
    """At-risk-masked mean binary cross-entropy of per-bin hazards."""
    loss, _ = discrete_loss_grad(logits, targets)
    return loss


def discrete_loss_grad(logits: np.ndarray, targets: DiscreteTargets) -> tuple[float, np.ndarray]:
    logits = np.asarray(logits, dtype=np.float64)
    y, a = targets.y, targets.a
    if logits.shape != y.shape:
        raise ValueError(f"logits shape {logits.shape} does not match targets {y.shape}")
    total_at_risk = a.sum()
    if total_at_risk == 0:
        raise ValueError("all-zero at-risk mask")
    h = sigmoid(logits)
    h_clipped = np.clip(h, PROB_CLIP, 1.0 - PROB_CLIP)
    bce = -(y * np.log(h_clipped) + (1.0 - y) * np.log1p(-h_clipped))
    loss = float((a * bce).sum() / total_at_risk)
    grad = a * (h - y) / total_at_risk
    return loss, grad


def discrete_curve(logits: np.ndarray, grid: TimeGrid, at=None) -> CurveSet:
    """Survival step curves from per-bin hazard logits (N, B): S(t_b) = prod_{k<=b}(1 - h_k).

    With `at`, only the grid columns that hold those times, and 0, are kept,
    so every curve keeps its value at each time in `at`, bit for bit.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != grid.n_bins:
        raise ValueError(f"expected (N, {grid.n_bins}) logits, got shape {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    values = np.empty((logits.shape[0], grid.n_bins + 1))
    values[:, 0] = 1.0
    np.cumprod(1.0 - sigmoid(logits), axis=1, out=values[:, 1:])
    times = grid.edges
    if at is not None:
        cols = _grid_columns(times, at)
        if cols.size < times.size:
            times, values = times[cols], values[:, cols]
    return CurveSet(times=times, values=values)


def _event_counts(times: np.ndarray, events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct event times ascending, with the number of events d_k at each."""
    event_times, d = np.unique(times[events], return_counts=True)
    return event_times, d.astype(np.float64)


def _event_time_groups(times: np.ndarray, events: np.ndarray,
                       scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct event times with event counts and log risk-set sums.

    Returns (event_times ascending, d_k, log sum_{t_j >= tau_k} exp(g_j)),
    computed with a running log-sum-exp over times sorted descending. The
    order splits into segments wherever the running score maximum rises;
    inside a segment the shift is fixed, so its running sum is one cumsum
    seeded with the previous segment's sum rescaled to the new maximum. That
    is the same sequence of float operations as the one-sample-at-a-time
    recurrence, so the sums are bit-identical to it. Scores rising strictly
    along the order give one segment per sample, the recurrence's own cost.
    """
    order = np.argsort(-times, kind="stable")
    t_sorted = times[order]
    g_sorted = scores[order]
    shift = np.maximum.accumulate(g_sorted)
    sums = np.exp(g_sorted - shift)
    bounds = np.concatenate([np.flatnonzero(g_sorted[1:] > shift[:-1]) + 1, [g_sorted.size]])
    np.cumsum(sums[:bounds[0]], out=sums[:bounds[0]])
    for start, stop in zip(bounds[:-1], bounds[1:]):
        sums[start] += sums[start - 1] * np.exp(shift[start - 1] - shift[start])
        np.cumsum(sums[start:stop], out=sums[start:stop])
    event_times, d = _event_counts(times, events)
    # last position in the descending order whose time is still >= tau
    k = np.searchsorted(-t_sorted, -event_times, side="right") - 1
    return event_times, d, shift[k] + np.log(sums[k])


def cox_loss(scores, times, events) -> float:
    """Negative partial log-likelihood, averaged over events (Breslow ties)."""
    loss, _ = cox_loss_grad(scores, times, events)
    return loss


def cox_loss_grad(scores, times, events) -> tuple[float, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    n_events = int(events.sum())
    if n_events == 0:
        raise ValueError("partial likelihood undefined with zero events")
    event_times, d, log_risk = _event_time_groups(times, events, scores)
    loss = -(scores[events].sum() - float(d @ log_risk)) / n_events
    # dL/dg_k = -(1/D) * (e_k - exp(g_k) * sum_{event times tau <= t_k} d_tau / Z_tau)
    inv_risk = d * np.exp(-log_risk)
    cum_inv = np.cumsum(inv_risk)
    pos = np.searchsorted(event_times, times, side="right")
    coverage = np.where(pos > 0, cum_inv[np.maximum(pos - 1, 0)], 0.0)
    grad = -(events.astype(np.float64) - np.exp(scores) * coverage) / n_events
    return float(loss), grad


@dataclass
class BreslowBaseline:
    """Cumulative baseline hazard increments at distinct event times."""

    event_times: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        self.event_times = np.asarray(self.event_times, dtype=np.float64)
        self.increments = np.asarray(self.increments, dtype=np.float64)
        if np.any(self.increments < 0):
            raise ValueError("baseline hazard increments must be non-negative")


def breslow_baseline(scores, times, events) -> BreslowBaseline:
    """Baseline hazard increment d_k / sum_{t_j >= tau_k} exp(g_j) at each event time.

    Risk sums run in linear space after subtracting the score maximum, so
    all-zero scores reduce to exact d_k / n_k increments.
    """
    scores = np.asarray(scores, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if not events.any():
        raise ValueError("baseline hazard undefined with zero events")
    m = scores.max()
    order = np.argsort(-times, kind="stable")
    t_desc = times[order]
    risk_cum = np.cumsum(np.exp(scores[order] - m))
    event_times, d = _event_counts(times, events)
    # last descending position whose time is still >= tau
    k = np.searchsorted(-t_desc, -event_times, side="right") - 1
    increments = d * np.exp(-m) / risk_cum[k]
    return BreslowBaseline(event_times=event_times, increments=increments)


def cox_curve(scores, baseline: BreslowBaseline, at=None) -> CurveSet:
    """Curves S_i(t) = exp(-H0(t) * exp(g_i)) on 0 and the baseline's event times.

    With `at`, the curves are computed on only the grid columns that hold
    those times, and 0, so every curve keeps its value at each time in `at`,
    bit for bit, and the full (N, T) matrix is never made.
    """
    if baseline.event_times.size == 0:
        raise ValueError("empty baseline")
    if baseline.event_times[0] == 0.0:
        raise ValueError("baseline event times must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"expected one score per subject, got shape {scores.shape}")
    times = np.concatenate([[0.0], baseline.event_times])
    cum = np.cumsum(baseline.increments)  # H0 at times[1:]
    if at is not None:
        cols = _grid_columns(times, at)
        times, cum = times[cols], cum[cols[1:] - 1]
    values = np.empty((scores.size, times.size))
    values[:, 0] = 1.0
    np.multiply(-cum, np.exp(scores)[:, None], out=values[:, 1:])
    np.exp(values[:, 1:], out=values[:, 1:])
    return CurveSet(times=times, values=values)
