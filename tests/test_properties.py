"""Property-based tests for curve sets (blocked concordance against the
exhaustive pairwise oracle, metrics on a union grid against curve-by-curve
oracles, the invariants of blended and averaged sets, the neighbour rise
check against the np.diff form, scores and curves on only the scored times,
c_td under a strictly increasing map), for streamed evaluation against the
materialised curves (one-pass lambda selection against per-lambda c_td,
metrics and blends at any block budget, every channel built block by block,
the inference forward) and for the whole-array training and teacher code
against the per-element forms it replaced (Cox risk sets, Breslow
increments, flat AdamW, the flat-vector training step, sigmoid, one-draw
dropout masks, batch and columnar teacher finalisation), the bit-exact
bundle round trip, the on-disk formats (checkpoint, .svhs, .svpv, .npy,
curve directories, percents.csv: bit-exact round trips, and a ValueError
at every truncation), and the column-wise set-up code against the per-element forms
(batched attention pooling, the one-pass numeric-table parser, the joined
CSV writer, cached teacher extraction)."""

import csv
import functools
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survfuse import pooling
from survfuse.blending import (DEFAULT_LAMBDA_GRID, blend_inputs, combine, combined_blocks,
                               mean_curve, select_lambda, verbalized_curve, verbalized_rates)
from survfuse.cohort import Cohort, CohortSplit, _parse_numeric_table, load_bundle, save_bundle
from survfuse.distill import (HORIZONS, TeacherTable, extract_probability, finalize_probs,
                              finalize_records, fit_parametric, parse_teacher_file)
from survfuse.formats import (id_rows, read_checkpoint, read_curves, read_hidden_states,
                              read_npy, read_percents, read_pooled, write_checkpoint,
                              write_csv_table, write_curves, write_hidden_states, write_jsonl,
                              write_npy, write_percents, write_pooled)
from survfuse.heads import (CoxHead, CurveSet, DiscreteHead, TimeGrid, _checked_curves,
                            _event_time_groups, breslow_baseline, cox_curve,
                            discrete_curve)
from survfuse.metrics import IBS_GRID_POINTS, _ibs_midpoints, c_td, censoring_km, ibs
from survfuse.model import init_model, model_backward, model_forward, model_params
from survfuse.nn import (Mlp, Workspace, adamw_step, draw_dropout_masks, init_adamw, init_mlp,
                         sigmoid)
from survfuse.pooling import attention_pool, pool_many
from survfuse.training import (RunConfig, _channels, _learning_rate, finalize_teacher,
                               total_loss)
from parametric import fit_survival_at, three_year_percent
from stepcurves import curve, curve_at, stack

SEEDS = st.integers(0, 2**32 - 1)


def quantized_set(rng, n, n_times, levels, grid=None):
    """Random curves with values on a 1/levels lattice (many ties), on `grid`
    or on n_times of 24 quarter-years."""
    if grid is None:
        grid = np.sort(rng.choice(np.arange(1, 25) / 4.0, size=n_times, replace=False))
    times = np.concatenate([[0.0], grid])
    n_times = grid.size
    drops = rng.integers(0, 2, size=(n, n_times)) * rng.integers(1, levels + 1,
                                                                  size=(n, n_times))
    steps = np.maximum(levels - np.cumsum(drops, axis=1), 0) / levels
    return CurveSet.of(times, np.hstack([np.ones((n, 1)), steps]))


def random_curve(rng):
    """A step curve on its own random grid."""
    k = int(rng.integers(1, 6))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 6.0, size=k))])
    values = np.concatenate([[1.0], np.sort(rng.uniform(size=k))[::-1]])
    return curve(times, values)


def outcomes(rng, n, event_p, pool=None):
    times = rng.choice(pool, size=n) if pool is not None else rng.uniform(0.2, 6.5, size=n)
    events = rng.random(n) < event_p
    events[0] = True
    return times.astype(np.float64), events


def pairwise_ctd(curves: CurveSet, times, events):
    """Exhaustive pairs; cells found by a scan, not by searchsorted."""
    num, pairs = 0.0, 0
    for i in np.flatnonzero(events):
        cell = int(np.count_nonzero(curves.times <= times[i])) - 1
        later = times > times[i]
        s_i = curves.whole()[i, cell]
        s_j = curves.whole()[later, cell]
        num += float((s_i < s_j).sum()) + 0.5 * float((s_i == s_j).sum())
        pairs += int(later.sum())
    return num, pairs


def ibs_curve_by_curve(curves, times, events, grid_points=512):
    """The integrated Brier score evaluated one curve at a time."""
    n = times.size
    t_max = float(times.max())
    km = censoring_km(times, events)
    g_left = km.at_left(times)
    width = t_max / grid_points
    mids = (np.arange(grid_points) + 0.5) * width
    surv = np.empty((n, grid_points), dtype=np.float64)
    for k, one in enumerate(curves):
        surv[k, :] = curve_at(one, mids)
    g_mid = km.at(mids)
    had_event = events[:, None] & (times[:, None] <= mids[None, :])
    still_at_risk = times[:, None] > mids[None, :]
    event_ok = g_left > 0.0
    event_term = np.where(had_event & event_ok[:, None],
                          surv ** 2 / np.where(event_ok, g_left, 1.0)[:, None], 0.0)
    risk_ok = g_mid > 0.0
    risk_term = np.where(still_at_risk & risk_ok[None, :],
                         (1.0 - surv) ** 2 / np.where(risk_ok, g_mid, 1.0)[None, :], 0.0)
    return float((event_term + risk_term).mean(axis=0).sum() * width / t_max)


def censoring_km_loop(times, events):
    """`censoring_km` as first written: one product-limit factor per distinct
    time, in a Python loop."""
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    cens_sorted = ~events[order]
    n = times.size
    uniq, start_idx = np.unique(t_sorted, return_index=True)
    jump_times, values, g = [], [], 1.0
    for k, tau in enumerate(uniq):
        lo = start_idx[k]
        hi = start_idx[k + 1] if k + 1 < uniq.size else n
        d_cens = int(cens_sorted[lo:hi].sum())
        if d_cens == 0:
            continue
        g *= 1.0 - d_cens / (n - lo)
        jump_times.append(tau)
        values.append(g)
    return np.array(jump_times, dtype=np.float64), np.array(values, dtype=np.float64)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 400), n_distinct=st.integers(1, 50), event_p=st.floats(0.0, 1.0),
       all_events=st.booleans(), seed=SEEDS)
def test_censoring_km_equals_the_product_limit_loop(n, n_distinct, event_p, all_events, seed):
    rng = np.random.default_rng(seed)
    # few distinct times give ties, within censorings and across events
    times = rng.choice(rng.uniform(0.01, 6.5, size=n_distinct), size=n)
    events = np.ones(n, dtype=bool) if all_events else rng.random(n) < event_p
    km = censoring_km(times, events)
    jump_times, values = censoring_km_loop(times, events)
    assert km.jump_times.dtype == km.values.dtype == np.float64
    assert km.jump_times.tobytes() == jump_times.tobytes()
    assert km.values.tobytes() == values.tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 400), n_distinct=st.integers(1, 50), event_p=st.floats(0.0, 1.0),
       grid_points=st.one_of(st.just(IBS_GRID_POINTS), st.integers(1, 64)), seed=SEEDS)
def test_every_ipcw_weight_is_at_least_one_over_n(n, n_distinct, event_p, grid_points, seed):
    """No weight `ibs` divides by is zero: G(t_i-) of an event subject, who is
    at risk at every earlier censoring, and G at each integration midpoint,
    where the subjects observed to t_max are still at risk, are at least 1/n
    up to rounding."""
    rng = np.random.default_rng(seed)
    # few distinct times give ties, and a low event rate long runs of censorings
    times = rng.choice(rng.uniform(0.01, 6.5, size=n_distinct), size=n)
    events = rng.random(n) < event_p
    km = censoring_km(times, events)
    floor = (1.0 - 1e-12) / n
    assert np.all(km.at_left(times[events]) >= floor)
    assert np.all(km.at(_ibs_midpoints(float(times.max()), grid_points)) >= floor)



@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 768), n_times=st.integers(1, 8),
       levels=st.integers(1, 5), event_p=st.floats(0.05, 1.0),
       tied_times=st.booleans(), seed=SEEDS)
def test_blocked_ctd_equals_pairwise_oracle(n, n_times, levels, event_p, tied_times, seed):
    rng = np.random.default_rng(seed)
    curves = quantized_set(rng, n, n_times, levels)
    # tied outcome times that also sit exactly on grid points
    pool = curves.times[1:] if tied_times else None
    times, events = outcomes(rng, n, event_p, pool)
    num, pairs = pairwise_ctd(curves, times, events)
    if pairs == 0:
        try:
            c_td(curves, times, events)
        except ValueError:
            return
        raise AssertionError("c_td accepted a sample without comparable pairs")
    assert c_td(curves, times, events) == num / pairs


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), event_p=st.floats(0.1, 1.0),
       grid_points=st.one_of(st.just(512), st.integers(1, 256)), seed=SEEDS)
def test_metrics_on_union_grid_equal_curve_by_curve(n, event_p, grid_points, seed):
    rng = np.random.default_rng(seed)
    curves = [random_curve(rng) for _ in range(n)]
    times, events = outcomes(rng, n, event_p)
    curve_set = stack(curves)
    # the union grid reproduces every curve at every time
    probe = rng.uniform(0.0, 7.0, size=30)
    for i, one in enumerate(curves):
        assert np.array_equal(curve_set.at(probe)[i], curve_at(one, probe))
    num, pairs = 0.0, 0
    for i in np.flatnonzero(events):
        s_i = float(curve_at(curves[i], times[i]))
        for j in np.flatnonzero(times > times[i]):
            s_j = float(curve_at(curves[j], times[i]))
            num += 1.0 if s_i < s_j else (0.5 if s_i == s_j else 0.0)
            pairs += 1
    if pairs:
        assert c_td(curve_set, times, events) == num / pairs
    assert (ibs(curve_set, times, events, grid_points)
            == ibs_curve_by_curve(curves, times, events, grid_points))


def scored_times(times, events, grid_points=IBS_GRID_POINTS):
    """Every time c_td and ibs read: the event times and the ibs midpoints."""
    t_max = float(times.max())
    return np.concatenate([times[events], (np.arange(grid_points) + 0.5) * (t_max / grid_points)])


def restricted(curves: CurveSet, t) -> CurveSet:
    """The curves on only their grid points that hold times t, and 0: the
    value held at each time in t is kept."""
    cols = np.union1d([0], np.searchsorted(curves.times, t, side="right") - 1)
    return CurveSet.of(curves.times[cols], curves.whole()[:, cols])


def channel_scores(curves: CurveSet, times, events, grid_points):
    """c_td (None where it raises) and the ibs result of one channel."""
    try:
        score = c_td(curves, times, events)
    except ValueError:
        score = None
    return score, ibs(curves, times, events, grid_points)


def verbalized_channel(percents, times):
    """The verbalized channel as a whole matrix on `times`: each present
    percent's curve, and the mean of those curves for every absent one (None
    when no percent is present)."""
    percents = np.asarray(percents, dtype=np.float64)  # None -> NaN
    present = ~np.isnan(percents)
    if not present.any():
        return None
    own = verbalized_curve(percents[present], times).whole()
    values = np.empty((percents.size, own.shape[1]))
    values[present] = own
    values[~present] = mean_curve(own)
    return values


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 512), n_times=st.integers(1, 600), levels=st.integers(1, 5),
       event_p=st.floats(0.05, 1.0), tied_times=st.booleans(), lam=st.floats(0.0, 1.0),
       grid_points=st.one_of(st.just(IBS_GRID_POINTS), st.integers(1, 192)),
       seed=SEEDS)
def test_metrics_on_scored_times_equal_full_curves(n, n_times, levels, event_p, tied_times,
                                                    lam, grid_points, seed):
    rng = np.random.default_rng(seed)
    # grids finer than the ibs midpoints, so each midpoint has a column of its own
    curves = quantized_set(rng, n, n_times, levels,
                           grid=np.unique(rng.uniform(0.01, 6.5, size=n_times)))
    times, events = outcomes(rng, n, event_p, curves.times[1:] if tied_times else None)
    percents = np.where(rng.random(n) < 0.7, rng.integers(0, 101, size=n), np.nan)
    short = restricted(curves, scored_times(times, events, grid_points))
    full_in = blend_inputs(curves.whole(), curves.times, verbalized_rates(percents))
    short_in = blend_inputs(short.whole(), short.times, verbalized_rates(percents))
    full_verb = verbalized_channel(percents, curves.times)
    short_verb = verbalized_channel(percents, short.times)
    full_sets = [curves, CurveSet.of(curves.times, combine(curves.whole(), full_in, lam))]
    short_sets = [short, CurveSet.of(short.times, combine(short.whole(), short_in, lam))]
    if full_verb is not None:
        full_sets.append(CurveSet.of(curves.times, full_verb))
        short_sets.append(CurveSet.of(short.times, short_verb))
    # the hidden, combined and verbalized channels score == on the scored times
    for full, short_set in zip(full_sets, short_sets):
        assert (channel_scores(short_set, times, events, grid_points)
                == channel_scores(full, times, events, grid_points))


def hidden_curves(rng, head, n, n_fit, n_bins, overflow=False):
    """A model's curves for n subjects, as evaluate builds them: Cox curves on a
    Breslow baseline with tied fit times (with `overflow`, every other score
    lies past 710, where exp overflows), or discrete-time curves."""
    if head == "coxph":
        fit_times = rng.choice(rng.uniform(0.01, 5.0, size=n_fit), size=n_fit)
        fit_events = rng.random(n_fit) < 0.6
        fit_events[0] = True
        baseline = breslow_baseline(rng.normal(size=n_fit), fit_times, fit_events)
        scores = rng.normal(scale=1.5, size=n)
        if overflow:
            scores[::2] += 720.0
        return cox_curve(scores, baseline)
    return discrete_curve(rng.normal(scale=3.0, size=(n, n_bins)),
                          TimeGrid.equal_width(n_bins, 5.0))


def no_clean_up(times, values, _checked=_checked_curves):
    """`_checked_curves`, failing when it has to clip or flatten a row."""
    checked = _checked(times, values)
    assert checked[1] is values, "the whole set needed clean-up"
    return checked


@settings(max_examples=80, deadline=None)
@given(head=st.sampled_from(["coxph", "discrete"]), n=st.integers(1, 30),
       n_fit=st.integers(1, 60), n_bins=st.integers(1, 25), n_cols=st.integers(0, 40),
       overflow=st.booleans(), seed=SEEDS)
def test_columns_equal_the_checked_whole_set(head, n, n_fit, n_bins, n_cols, overflow, seed):
    rng = np.random.default_rng(seed)
    # the whole set needs no clean-up: the check returns the built values unchanged
    with mock.patch("survfuse.heads._checked_curves", no_clean_up), \
            np.errstate(over="ignore"):
        curves = hidden_curves(rng, head, n, n_fit, n_bins, overflow)
        whole = curves.whole()
    assert np.all(whole[:, 0] == 1.0)
    # columns in any order, repeated, 0 among them or not
    cols = rng.integers(0, curves.times.size, size=n_cols)
    assert curves.columns(cols).tobytes() == whole[:, cols].tobytes()
    # times between, on, and past the grid points, and 0
    at = np.concatenate([rng.uniform(0.0, 6.0, size=n_cols),
                         rng.choice(curves.times, size=int(rng.integers(0, 4)))])
    assert curves.at(at).tobytes() == CurveSet.of(curves.times, whole).at(at).tobytes()


def assert_valid(values):
    assert np.all(values[:, 0] == 1.0)
    assert np.all(np.diff(values, axis=1) <= 0.0)
    assert values.min() >= 0.0 and values.max() <= 1.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), n_times=st.integers(1, 40),
       percents=st.lists(st.one_of(st.none(), st.integers(0, 100),
                                   st.floats(1e-3, 100.0)), min_size=30, max_size=30),
       lam=st.one_of(st.sampled_from(DEFAULT_LAMBDA_GRID), st.floats(0.0, 1.0)),
       seed=SEEDS)
def test_blends_and_means_stay_valid(n, n_times, percents, lam, seed):
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, size=n_times))])
    drops = rng.exponential(size=(n, n_times)) * rng.uniform(0.0, 2.0, size=(n, 1))
    hidden = CurveSet.of(times, np.hstack([np.ones((n, 1)), np.exp(-np.cumsum(drops, axis=1))]))
    blend_in = blend_inputs(hidden.whole(), times, verbalized_rates(percents[:n]))
    verb_eval = verbalized_channel(percents[:n], times)
    blended = combine(hidden.whole(), blend_in, lam)
    # the raw convex combination already satisfies every invariant
    assert np.array_equal(blended, (1.0 - lam) * hidden.whole() + lam * blend_in)
    for values in (blend_in, blended, mean_curve(hidden.whole()), mean_curve(blend_in)):
        assert_valid(values)
    if verb_eval is not None:
        assert_valid(verb_eval)
        assert_valid(mean_curve(verb_eval))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), n_times=st.integers(1, 20), seed=SEEDS)
def test_clean_up_matches_full_running_minimum(n, n_times, seed):
    rng = np.random.default_rng(seed)
    times = np.arange(n_times + 1, dtype=np.float64)
    steps = np.sort(rng.uniform(size=(n, n_times)), axis=1)[:, ::-1]
    values = np.hstack([np.ones((n, 1)), steps])
    # sub-tolerance bumps and overshoots on some rows only
    noisy = rng.random(n) < 0.5
    values[noisy, 1:] += rng.uniform(-1e-13, 1e-13, size=(int(noisy.sum()), n_times))
    before = values.copy()
    cleaned = CurveSet.of(times, values).whole()
    assert np.array_equal(values, before)  # the caller's array is untouched
    assert np.array_equal(cleaned, np.minimum.accumulate(np.clip(before, 0.0, 1.0), axis=1))


def diff_checked_curves(times, values):
    """`_checked_curves` as first written, finding rises with np.diff."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.ndim != 1 or values.ndim != 2 or values.shape[1] != times.size:
        raise ValueError("times must be 1-D with one value column per time")
    if times.size == 0 or times[0] != 0.0 or np.any(values[:, 0] != 1.0):
        raise ValueError("curve must start at (0, 1)")
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("curve times must be strictly increasing")
    if values.size == 0:
        return times, values
    rising = np.diff(values, axis=1) > 0.0
    if rising.any() and np.any(np.diff(values, axis=1) > 1e-12):
        raise ValueError("survival values must be non-increasing")
    low, high = values.min(), values.max()
    if not (low >= -1e-12 and high <= 1.0 + 1e-12):
        raise ValueError("survival values must lie in [0, 1]")
    if low < 0.0 or high > 1.0:
        values = np.clip(values, 0.0, 1.0)
        rising = np.diff(values, axis=1) > 0.0
    rows = np.flatnonzero(rising.any(axis=1))
    if rows.size:
        values = values.copy()
        values[rows] = np.minimum.accumulate(values[rows], axis=1)
    return times, values


CURVE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e-300, 1e-13, -1e-13, 1.0 - 1e-13, 1.0 + 1e-13, np.nan,
                                np.inf, -np.inf]) | st.floats(-2e-12, 1.0 + 2e-12)
BUMPS = st.sampled_from([0.0, 0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e-13, -1e-13, 9e-13, 2e-12,
                         np.nan, np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(CURVE_FLOATS, min_size=1, max_size=8), min_size=1, max_size=5),
       bumps=st.lists(BUMPS, min_size=1, max_size=40), sort=st.booleans(),
       first=st.sampled_from([1.0, 1.0, 1.0, 0.5]))
def test_neighbour_rise_check_equals_np_diff_form(rows, bumps, sort, first):
    width = max(len(row) for row in rows)
    values = np.array([(row * width)[:width] for row in rows])
    if sort:  # non-increasing rows (NaN last), then bumps: accepted, repaired or rejected
        values = -np.sort(-values, axis=1)
    bump = np.resize(np.array(bumps), values.shape)
    with np.errstate(invalid="ignore"):  # inf + -inf
        values = np.where(bump == 0.0, values, values + bump)  # keeps -0.0
    values = np.hstack([np.full((len(rows), 1), first), values])
    times = np.arange(width + 1, dtype=np.float64)
    reference = values.copy()
    with np.errstate(invalid="ignore"):  # inf - inf in np.diff
        want = outcome_or_error(diff_checked_curves, times, reference)
        got = outcome_or_error(_checked_curves, times, values)
    if isinstance(want, str):
        assert got == want
        return
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert (got[1] is values) == (want[1] is reference)  # copied only to repair


# ------------------------------------------------------ streamed evaluation


def per_lambda_selection(hidden, verbalized, times, events, grid):
    """select_lambda as first written: c_td of each lambda's combined set."""
    best_lam, best = None, -np.inf
    for lam in sorted(grid):
        score = c_td(CurveSet.of(hidden.times, combine(hidden.whole(), verbalized, lam)), times,
                     events)
        if score > best:
            best_lam, best = lam, score
    return best_lam, best


# absent, floored, the extremes and a few between
FEW_PERCENTS = np.array([np.nan, 0.5, 5.0, 50.0, 95.0, 100.0])


def blocks_of(curves: CurveSet) -> CurveSet:
    return CurveSet(curves.times, len(curves), curves.columns)


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 512), n_times=st.integers(1, 8), levels=st.integers(1, 5),
       event_p=st.floats(0.05, 1.0), tied_times=st.booleans(),
       grid=st.one_of(st.just(DEFAULT_LAMBDA_GRID),
                      st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.35, 1.0]),
                               min_size=1, max_size=8)),
       seed=SEEDS)
def test_one_pass_lambda_scores_equal_per_lambda_c_td(n, n_times, levels, event_p, tied_times,
                                                      grid, seed):
    rng = np.random.default_rng(seed)
    # coarse lattices and a few percents give tied values, within and across the blends
    hidden = quantized_set(rng, n, n_times, levels)
    percents = rng.choice(FEW_PERCENTS, size=n)
    times, events = outcomes(rng, n, event_p, hidden.times[1:] if tied_times else None)
    partners = blend_inputs(hidden.whole(), hidden.times, verbalized_rates(percents))
    want = outcome_or_error(per_lambda_selection, hidden, partners, times, events, grid)
    assert outcome_or_error(select_lambda, hidden, percents, times, events, grid) == want
    assert outcome_or_error(select_lambda, blocks_of(hidden), percents, times, events,
                            grid) == want


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 200), n_times=st.integers(1, 8), levels=st.integers(1, 5),
       event_p=st.floats(0.05, 1.0), tied_times=st.booleans(),
       grid_points=st.one_of(st.just(IBS_GRID_POINTS), st.integers(1, 40)),
       lam=st.floats(0.0, 1.0), budget=st.integers(1, 600), seed=SEEDS)
def test_metrics_and_blends_do_not_depend_on_the_block_budget(n, n_times, levels, event_p,
                                                              tied_times, grid_points, lam,
                                                              budget, seed):
    rng = np.random.default_rng(seed)
    hidden = quantized_set(rng, n, n_times, levels)
    verbalized = quantized_set(rng, n, n_times, levels, grid=hidden.times[1:])
    percents = rng.choice(FEW_PERCENTS, size=n)
    times, events = outcomes(rng, n, event_p, hidden.times[1:] if tied_times else None)

    def results(elements):
        with mock.patch("survfuse.metrics.BLOCK_ELEMENTS", elements), \
                mock.patch("survfuse.blending.BLOCK_ELEMENTS", elements):
            return (outcome_or_error(c_td, hidden, times, events),
                    outcome_or_error(select_lambda, hidden, percents, times, events),
                    outcome_or_error(select_lambda, blocks_of(hidden), percents, times,
                                     events),
                    ibs(hidden, times, events, grid_points),
                    combine(hidden.whole(), verbalized.whole(), lam).tobytes())

    # one block for everything, against blocks of a few subjects, columns or rows
    assert results(budget) == results(1 << 60)


@settings(max_examples=80, deadline=None)
@given(head=st.sampled_from(["coxph", "discrete"]), n=st.integers(1, 60),
       n_fit=st.integers(1, 100), n_bins=st.integers(1, 25),
       present=st.sampled_from(["none", "some", "all"]),
       lam=st.sampled_from(DEFAULT_LAMBDA_GRID) | st.floats(0.0, 1.0),
       n_cols=st.integers(0, 40), seed=SEEDS)
def test_combined_reader_columns_equal_the_whole_combined_set(head, n, n_fit, n_bins, present,
                                                              lam, n_cols, seed):
    rng = np.random.default_rng(seed)
    hidden = hidden_curves(rng, head, n, n_fit, n_bins)
    full = hidden.whole()
    percents = rng.integers(0, 101, size=n).astype(np.float64)  # 0 is floored
    if present != "all":
        percents[rng.random(n) < (1.0 if present == "none" else 0.4)] = np.nan
    whole = combine(full, blend_inputs(full, hidden.times, verbalized_rates(percents)), lam)
    reader = combined_blocks(hidden, percents, lam)
    assert len(reader) == n and reader.times.tobytes() == hidden.times.tobytes()
    # any columns, in any order and with repeats, and all of them at once
    cols = rng.integers(0, hidden.times.size, size=n_cols)
    assert reader.columns(cols).tobytes() == whole[:, cols].tobytes()
    assert reader.whole().tobytes() == whole.tobytes()


@settings(max_examples=80, deadline=None)
@given(head=st.sampled_from(["coxph", "discrete"]), n=st.integers(1, 522),
       n_fit=st.integers(1, 400), n_bins=st.integers(1, 25),
       present=st.sampled_from(["none", "some", "all"]), tied_times=st.booleans(),
       lam=st.sampled_from(DEFAULT_LAMBDA_GRID) | st.floats(0.0, 1.0), seed=SEEDS)
def test_block_channels_equal_channels_of_materialised_curves(head, n, n_fit, n_bins, present,
                                                              tied_times, lam, seed):
    rng = np.random.default_rng(seed)
    hidden = hidden_curves(rng, head, n, n_fit, n_bins)
    # tied outcome times that also sit exactly on grid points
    times, events = outcomes(rng, n, 0.6, hidden.times[1:] if tied_times else None)
    percents = rng.integers(0, 101, size=n).astype(np.float64)  # 0 is floored
    if present != "all":
        percents[rng.random(n) < (1.0 if present == "none" else 0.4)] = np.nan
    # as evaluate built them before: whole matrices on the scored times
    scored = restricted(hidden, scored_times(times, events))
    blend = blend_inputs(scored.whole(), scored.times, verbalized_rates(percents))
    verbalized = verbalized_channel(percents, scored.times)
    want = {"hidden": channel_scores(scored, times, events, IBS_GRID_POINTS)}
    if verbalized is not None:
        want["verbalized"] = channel_scores(CurveSet.of(scored.times, verbalized), times,
                                            events, IBS_GRID_POINTS)
        want["combined"] = channel_scores(
            CurveSet.of(scored.times, combine(scored.whole(), blend, lam)), times, events,
            IBS_GRID_POINTS)
    got = outcome_or_error(_channels, hidden, times, events, percents, lam)
    if want["hidden"][0] is None:
        assert isinstance(got, str)  # c_td raised: no comparable pairs
        return
    assert set(got) == {"hidden", "verbalized", "combined"}
    for name, (score, brier) in want.items():
        assert (got[name].c_td, got[name].ibs) == (score, brier), name
    if verbalized is None:

        assert got["verbalized"].c_td is None
        assert (got["combined"].c_td, got["combined"].ibs) == (got["hidden"].c_td,
                                                              got["hidden"].ibs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 768), n_times=st.integers(1, 8), levels=st.integers(1, 6),
       event_p=st.floats(0.05, 1.0), tied_times=st.booleans(),
       transform=st.sampled_from(["power", "expm1", "sqrt", "cube"]),
       shape=st.floats(0.1, 8.0), seed=SEEDS)
def test_ctd_is_unchanged_by_a_strictly_increasing_map(n, n_times, levels, event_p, tied_times,
                                                       transform, shape, seed):
    rng = np.random.default_rng(seed)
    curves = quantized_set(rng, n, n_times, levels)
    times, events = outcomes(rng, n, event_p, curves.times[1:] if tied_times else None)
    f = {"power": lambda x: x ** shape,
         "expm1": lambda x: np.expm1(shape * x) / np.expm1(shape),
         "sqrt": np.sqrt, "cube": lambda x: x ** 3}[transform]
    present, where = np.unique(curves.whole().ravel(), return_inverse=True)
    mapped = f(present)
    # in floating point the map must stay strictly increasing on the values present
    assume(np.all(np.diff(mapped) > 0.0) and mapped[-1] == 1.0)
    moved = CurveSet.of(curves.times, mapped[where].reshape(curves.whole().shape))
    assert outcome_or_error(c_td, moved, times, events) == outcome_or_error(c_td, curves,
                                                                            times, events)


# ------------------------------------------- training step and teacher finalisation


def sequential_event_time_groups(times, events, scores):
    """The one-sample-at-a-time running log-sum-exp, kept as the oracle."""
    order = np.argsort(-times, kind="stable")
    t_sorted = times[order]
    g_sorted = scores[order]
    # running logsumexp of scores over the risk set {j: t_j >= tau}
    running = np.empty_like(g_sorted)
    acc_max = -np.inf
    acc_sum = 0.0
    for k in range(g_sorted.size):
        g = g_sorted[k]
        if g > acc_max:
            acc_sum = acc_sum * np.exp(acc_max - g) if np.isfinite(acc_max) else 0.0
            acc_max = g
        acc_sum += np.exp(g - acc_max)
        running[k] = acc_max + np.log(acc_sum)
    event_times = np.unique(times[events])
    d = np.zeros(event_times.size)
    log_risk = np.zeros(event_times.size)
    for i, tau in enumerate(event_times):
        d[i] = np.count_nonzero((times == tau) & events)
        # last position in the descending order whose time is still >= tau
        k = np.searchsorted(-t_sorted, -tau, side="right") - 1
        log_risk[i] = running[k]
    return event_times, d, log_risk


def cox_sample(rng, n, tied, shape):
    """Outcomes with at least one event and scores of the given shape."""
    times = (rng.integers(1, 6, size=n).astype(np.float64) if tied
             else rng.exponential(size=n))
    events = rng.random(n) < 0.6
    events[rng.integers(n)] = True
    scores = rng.normal(scale=rng.choice([0.01, 1.0, 20.0]), size=n)
    if shape == "rising":
        # strictly rising along the descending-time order: one segment per sample
        times = np.sort(rng.exponential(size=n))[::-1].copy()
        scores = np.cumsum(rng.uniform(0.1, 2.0, size=n))
    elif shape == "constant":
        scores = np.full(n, scores[0])
    return times, events, scores


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), tied=st.booleans(),
       shape=st.sampled_from(["random", "rising", "constant"]), seed=SEEDS)
def test_risk_set_sums_equal_sequential_loop(n, tied, shape, seed):
    times, events, scores = cox_sample(np.random.default_rng(seed), n, tied, shape)
    expected = sequential_event_time_groups(times, events, scores)
    for got, want in zip(_event_time_groups(times, events, scores), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), tied=st.booleans(),
       shape=st.sampled_from(["random", "rising", "constant"]), seed=SEEDS)
def test_breslow_increments_equal_count_nonzero_reference(n, tied, shape, seed):
    times, events, scores = cox_sample(np.random.default_rng(seed), n, tied, shape)
    m = scores.max()
    order = np.argsort(-times, kind="stable")
    risk_cum = np.cumsum(np.exp(scores[order] - m))
    event_times = np.unique(times[events])
    d = np.array([np.count_nonzero((times == tau) & events) for tau in event_times])
    k = np.searchsorted(-times[order], -event_times, side="right") - 1
    baseline = breslow_baseline(scores, times, events)
    assert np.array_equal(baseline.event_times, event_times)
    assert np.array_equal(baseline.increments, d * np.exp(-m) / risk_cum[k])


def per_tensor_adamw(params, grads, m, v, step, lr, weight_decay,
                     beta1=0.9, beta2=0.999, eps=1e-8):
    """One AdamW step tensor by tensor, as the update was first written."""
    bias1 = 1.0 - beta1 ** step
    bias2 = 1.0 - beta2 ** step
    for name, p in params.items():
        rate = lr(name)
        g = grads[name]
        p *= 1.0 - rate * weight_decay
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        p -= rate * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.sampled_from([(), (1,), (3,), (0, 2), (2, 3), (4, 1)]),
                       min_size=1, max_size=6),
       steps=st.integers(1, 6), weight_decay=st.sampled_from([0.0, 0.01, 0.3]), seed=SEEDS)
def test_flat_adamw_equals_per_tensor_reference(shapes, steps, weight_decay, seed):
    rng = np.random.default_rng(seed)
    params = {f"t{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
    rates = {name: float(rng.choice([0.0, 1e-3, 0.05])) for name in params}
    ref = {name: arr.copy() for name, arr in params.items()}
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    state = init_adamw(params, rates.__getitem__, weight_decay=weight_decay)
    for step in range(1, steps + 1):
        grads = {name: rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=arr.shape)
                 for name, arr in params.items()}
        flat = state.layout.gather(params)
        adamw_step(flat, state.layout.gather(grads), state)
        for name, view in state.layout.views(flat).items():
            np.copyto(params[name], view)
        per_tensor_adamw(ref, grads, m, v, step, rates.__getitem__, weight_decay)
        for name in params:
            assert np.array_equal(params[name], ref[name])
    assert state.step == steps


# ------------------------------------------------ the flat-vector training step
# The reference below is the per-tensor step as first written: one mask draw
# per layer, out-of-place forward and backward expressions (every input
# gradient computed), the model-level wiring, and per-tensor AdamW.

def reference_masks(mlp, n_rows, rng):
    if rng is None or mlp.dropout == 0.0 or len(mlp.weights) == 1:
        return None
    keep = 1.0 - mlp.dropout
    return [(rng.random((n_rows, w.shape[1])) < keep).astype(np.float64)
            for w in mlp.weights[:-1]]


def reference_forward(mlp, x, masks):
    keep = 1.0 - mlp.dropout
    inputs, preacts = [], []
    h = x
    for i in range(len(mlp.weights)):
        inputs.append(h)
        z = h @ mlp.weights[i] + mlp.biases[i]
        preacts.append(z)
        if i < len(mlp.weights) - 1:
            h = np.maximum(z, 0.0)
            if masks is not None:
                h = h * masks[i] / keep
        else:
            h = z
    return h, (inputs, preacts, masks)


def reference_backward(mlp, cache, g, prefix, grads):
    inputs, preacts, masks = cache
    keep = 1.0 - mlp.dropout
    n_layers = len(mlp.weights)
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            if masks is not None:
                g = g * masks[i] / keep
            g = g * (preacts[i] > 0.0)
        grads[f"{prefix}.w{i}"] = inputs[i].T @ g
        grads[f"{prefix}.b{i}"] = g.sum(axis=0)
        g = g @ mlp.weights[i].T
    return g


def reference_fuse(outs, gates):
    """Gated late fusion of 2 or 3 modality outputs: the nested blend written out."""
    g_cov, g_ge = sigmoid(gates.inner_logit), sigmoid(gates.outer_logit)
    if "ge" not in outs:
        return (1.0 - g_cov) * outs["text"] + g_cov * outs["cov"]
    if len(outs) == 3:
        inner = (1.0 - g_cov) * outs["text"] + g_cov * outs["cov"]
    else:
        inner = outs["text" if "text" in outs else "cov"]
    return (1.0 - g_ge) * inner + g_ge * outs["ge"]


def reference_fuse_grads(u, outs, gates):
    """The chain rule through `reference_fuse`, written out: per-modality
    gradients, then the inner and the outer logit gradient (zero when unused)."""
    g_cov, g_ge = sigmoid(gates.inner_logit), sigmoid(gates.outer_logit)
    zero = np.zeros_like(gates.inner_logit)
    if "ge" not in outs:
        t, c = outs["text"], outs["cov"]
        return ({"text": u * (1.0 - g_cov), "cov": u * g_cov},
                (u * (c - t) * g_cov * (1.0 - g_cov)).sum(axis=0), zero)
    ge = outs["ge"]
    if len(outs) == 2:
        first = "text" if "text" in outs else "cov"
        return ({first: u * (1.0 - g_ge), "ge": u * g_ge}, zero,
                (u * (ge - outs[first]) * g_ge * (1.0 - g_ge)).sum(axis=0))
    t, c = outs["text"], outs["cov"]
    inner = (1.0 - g_cov) * t + g_cov * c
    return ({"text": u * (1.0 - g_ge) * (1.0 - g_cov), "cov": u * (1.0 - g_ge) * g_cov,
             "ge": u * g_ge},
            (u * (1.0 - g_ge) * (c - t) * g_cov * (1.0 - g_cov)).sum(axis=0),
            (u * (ge - inner) * g_ge * (1.0 - g_ge)).sum(axis=0))


def reference_step_grads(parts, batch, alpha, rng):
    """Per-tensor gradients of the joint objective; `parts` holds plain Mlps."""
    head, late, modalities = parts["head"], parts["late"], parts["modalities"]
    heads, enc, dec, gates = parts["heads"], parts["enc"], parts["dec"], parts["gates"]
    n = batch[modalities[0]].shape[0]
    z_ge = None
    if enc is not None:
        z_ge, enc_cache = reference_forward(enc, batch["ge"], reference_masks(enc, n, rng))
        recon, dec_cache = reference_forward(dec, z_ge, reference_masks(dec, n, rng))
    inputs = {m: z_ge if m == "ge" else batch[m] for m in modalities}
    caches, outs = {}, {}
    if late:
        for m in modalities:
            mlp = heads[f"head_{m}"]
            outs[m], caches[m] = reference_forward(mlp, inputs[m], reference_masks(mlp, n, rng))
        out = reference_fuse(outs, gates)
    else:
        x = np.concatenate([inputs[m] for m in modalities], axis=1)
        out, cache = reference_forward(heads["head"], x, reference_masks(heads["head"], n, rng))
    _, grad_out = head.loss_grad(out, batch)

    grads = {}
    grad_z_ge = None
    if late:
        by_modality, grads["gates.inner"], grads["gates.outer"] = reference_fuse_grads(
            grad_out, outs, gates)
        for m in modalities:
            grad_in = reference_backward(heads[f"head_{m}"], caches[m], by_modality[m],
                                         f"head_{m}", grads)
            if m == "ge":
                grad_z_ge = grad_in
    else:
        grad_in = reference_backward(heads["head"], cache, grad_out, "head", grads)
        if "ge" in modalities:
            grad_z_ge = grad_in[:, -enc.out_dim:]
    if enc is not None:
        x = batch["ge"]
        grad_recon = alpha * 2.0 * (recon - x) / (x.shape[0] * x.shape[1])
        grad_z = reference_backward(dec, dec_cache, grad_recon, "dec", grads) + grad_z_ge
        reference_backward(enc, enc_cache, grad_z, "enc", grads)
    return grads


FUSIONS = [("late", ("text", "cov", "ge")), ("late", ("text", "ge")), ("late", ("text", "cov")),
           ("late", ("cov", "ge")),
           ("early", ("text", "cov", "ge")), ("early", ("cov", "ge")),
           ("none", ("text",)), ("none", ("cov",)), ("none", ("ge",))]
STEP_DIMS = {"text": 5, "cov": 3, "ge": 7}


@settings(max_examples=60, deadline=None)
@given(head_type=st.sampled_from(["discrete", "coxph"]), fusion=st.sampled_from(FUSIONS),
       dropout=st.sampled_from([0.0, 0.3]), ae_dropout=st.sampled_from([0.0, 0.2]),
       n=st.integers(1, 600), n_last=st.integers(1, 600), steps=st.integers(1, 5),
       reuse=st.booleans(), seed=SEEDS)
def test_flat_training_step_equals_per_tensor_reference(head_type, fusion, dropout, ae_dropout,
                                                        n, n_last, steps, reuse, seed):
    """Consecutive steps as a training loop takes them (full batches, a last
    partial batch, then full ones again), through one workspace or a new one
    per step, against the per-tensor reference step: gradients, parameters
    and generator state bit-identical."""
    fusion, modalities = fusion
    config = RunConfig(head=head_type, fusion=fusion, modalities=modalities, n_bins=4,
                       dropout=dropout, ae_dropout=ae_dropout, lr_head=0.05, lr_gates=0.2,
                       lr_ae=0.01, weight_decay=0.1)
    rng = np.random.default_rng(seed)
    head = DiscreteHead(TimeGrid.equal_width(4, 5.0)) if head_type == "discrete" else CoxHead()
    model = init_model(fusion, modalities, STEP_DIMS, rng, head.width,
                       head_layers=[6, 5], dropout=dropout, ae_hidden=[4], latent_dim=3,
                       ae_dropout=ae_dropout)
    for arr in model_params(model).values():
        arr += rng.normal(scale=0.3, size=arr.shape)  # gates and biases off zero
    ref = {name: arr.copy() for name, arr in model_params(model).items()}

    def plain_mlp(prefix, mlp):
        return Mlp([ref[f"{prefix}.w{i}"] for i in range(len(mlp.weights))],
                   [ref[f"{prefix}.b{i}"] for i in range(len(mlp.biases))], mlp.dropout)

    parts = {"head": head, "late": model.gates is not None,
             "modalities": model.modalities,
             "heads": {name: plain_mlp(name, mlp) for name, mlp in model.heads.items()},
             "enc": plain_mlp("enc", model.ae.encoder) if model.ae else None,
             "dec": plain_mlp("dec", model.ae.decoder) if model.ae else None,
             "gates": (type(model.gates)(ref["gates.inner"], ref["gates.outer"])
                       if model.gates is not None else None)}
    sizes = [n, min(n, n_last), n, n, min(n, n_last)][:steps]
    batches = [step_batch(rng, head, modalities, size) for size in sizes]

    lr = _learning_rate(config)
    opt = init_adamw(model_params(model), lr, weight_decay=config.weight_decay)
    m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    rng_flat, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    work = Workspace() if reuse else None
    for step, batch in enumerate(batches, start=1):
        _, _, grads = total_loss(model, head, batch, config, rng=rng_flat, work=work)
        want = reference_step_grads(parts, batch, config.alpha, rng_ref)
        assert set(grads) == set(want)
        for name in want:
            assert np.array_equal(grads[name], want[name]), name
        adamw_step(model.flat, grads.flat, opt)
        per_tensor_adamw(ref, want, m, v, step, lr, config.weight_decay)
        params = model_params(model)
        for name in ref:
            assert np.array_equal(params[name], ref[name]), name
    assert rng_flat.bit_generator.state == rng_ref.bit_generator.state


def step_batch(rng, head, modalities, n):
    """n random rows of each modality and the head's targets, with an event."""
    times = rng.uniform(0.1, 4.0, size=n)
    events = rng.random(n) < 0.6
    events[0] = True
    batch = {m: rng.normal(size=(n, STEP_DIMS[m])) for m in modalities}
    batch.update(head.targets(times, events))
    return batch


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 600), d_g=st.integers(1, 40),
       alpha=st.sampled_from([1e-9, 1e-8, 0.01, 1.0, 3.7]), seed=SEEDS)
def test_in_place_autoencoder_term_equals_its_expression_form(rows, d_g, alpha, seed):
    """`total_loss`'s residual, its square and `grad_recon`, written into a
    workspace that an earlier step of the same shape filled, equal
    `recon - x`, `(resid ** 2).sum() / (n * d)` and `alpha * 2 * resid / (n * d)`."""
    rng = np.random.default_rng(seed)
    head = DiscreteHead(TimeGrid.equal_width(4, 5.0))
    config = RunConfig(fusion="none", modalities=("ge",), alpha=alpha)
    model = init_model("none", ("ge",), {"ge": d_g}, rng, head.width, head_layers=[5],
                       dropout=0.0, ae_hidden=[4], latent_dim=3, ae_dropout=0.0)
    work = Workspace()
    for _ in range(2):  # the second step writes over the first one's arrays
        batch = step_batch(rng, head, (), rows)
        batch["ge"] = rng.normal(scale=rng.choice([1e-3, 1.0, 30.0]), size=(rows, d_g))
        _, parts, grads = total_loss(model, head, batch, config, work=work)
        fwd = model_forward(model, batch, work=Workspace())
        resid = fwd.recon - batch["ge"]
        assert parts["ae"] == float((resid ** 2).sum() / (rows * d_g))
        grad_recon = alpha * 2.0 * resid / (rows * d_g)
        want = model_backward(model, fwd, head.loss_grad(fwd.out, batch)[1], grad_recon)
        assert grads.flat.tobytes() == want.flat.tobytes()


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 600), d_in=st.integers(1, 130), d_out=st.integers(1, 130),
       column_slice=st.booleans(), seed=SEEDS)
def test_matmul_into_a_used_array_equals_the_operator(rows, d_in, d_out, column_slice, seed):
    """The three products of a training step (`x @ W` forward, `x.T @ g` and
    `g @ W.T` backward), written with `out=` into an array that holds a
    previous step's values, equal the operator's new array bit for bit; `g`
    may be a column slice, as the latent columns of an early-fusion head's
    input gradient are."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, d_in))
    w = rng.normal(size=(d_in, d_out))
    g = rng.normal(size=(rows, d_out + 3 * column_slice))[:, -d_out:]
    for a, b in ((x, w), (x.T, g), (g, w.T)):
        out = rng.normal(size=(a.shape[0], b.shape[1]))
        assert np.matmul(a, b, out=out) is out
        assert out.tobytes() == (a @ b).tobytes()


@pytest.mark.parametrize("head_type", ["discrete", "coxph"])
@pytest.mark.parametrize("fusion", FUSIONS)
@settings(max_examples=8, deadline=None)
@given(dropout=st.sampled_from([0.0, 0.3]), ae_dropout=st.sampled_from([0.0, 0.2]),
       n=st.integers(1, 40), seed=SEEDS)
def test_inference_forward_equals_training_forward(head_type, fusion, dropout, ae_dropout, n,
                                                   seed):
    """For every head, fusion and autoencoder combination, the inference
    forward (no workspace) gives the training forward's `out` and
    `head_outputs` bit for bit when no dropout is drawn, keeps no workspace
    and builds no reconstruction."""
    fusion, modalities = fusion
    rng = np.random.default_rng(seed)
    model = init_model(fusion, modalities, STEP_DIMS, rng, 4 if head_type == "discrete" else 1,
                       head_layers=[6, 5], dropout=dropout, ae_hidden=[4], latent_dim=3,
                       ae_dropout=ae_dropout)
    for arr in model_params(model).values():
        arr += rng.normal(scale=0.3, size=arr.shape)
    batch = {m: rng.normal(size=(n, STEP_DIMS[m])) for m in modalities}
    training = model_forward(model, batch, work=Workspace())
    inference = model_forward(model, batch)
    assert inference.out.tobytes() == training.out.tobytes()
    assert list(inference.head_outputs) == list(training.head_outputs)
    for name, out in training.head_outputs.items():
        assert inference.head_outputs[name].tobytes() == out.tobytes(), name
    assert inference.work is None and inference.recon is None
    assert (training.recon is None) == (model.ae is None)


def masked_sigmoid(x):
    """sigmoid as first written: each sign's branch evaluated on its own elements."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                                  2.2250738585072014e-308, -1e-310, 709.8, -745.2, 1e308,
                                  -1e308, 36.7, -36.7])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                       | SPECIAL_FLOATS, max_size=40))
def test_sigmoid_equals_masked_form_bit_for_bit(values):
    x = np.array(values, dtype=np.float64)
    args = [x, x.reshape(-1, 1)] + [np.array(value) for value in values[:1]]  # and 0-d
    for arg in args:
        got, want = sigmoid(arg), masked_sigmoid(arg)
        assert got.dtype == want.dtype and got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(nets=st.lists(st.tuples(st.lists(st.integers(1, 9), max_size=4),
                               st.sampled_from([0.0, 0.1, 0.5, 0.9])), min_size=1, max_size=4),
       n_rows=st.integers(0, 600), seed=SEEDS)
def test_one_draw_masks_equal_per_layer_draws(nets, n_rows, seed):
    """One `rng.random(out=)` into a workspace, split across networks, gives
    the masks of consecutive one-network draws and of one draw per layer,
    and leaves the generator where they do; a second, smaller step (a last
    partial batch) draws into the leading part of the workspace's array."""
    mlps = [init_mlp(3, hidden, 2, np.random.default_rng(0), dropout=rate)
            for hidden, rate in nets]
    work = Workspace()
    one, each, per_layer = (np.random.default_rng(seed) for _ in range(3))
    for rows in (n_rows, n_rows // 2):
        got = draw_dropout_masks(mlps, rows, one, work)
        by_network = [draw_dropout_masks([mlp], rows, each)[0] for mlp in mlps]
        by_layer = [reference_masks(mlp, rows, per_layer) for mlp in mlps]
        assert len(got) == len(mlps)
        for masks, a, b in zip(got, by_network, by_layer):
            if b is None:
                assert masks is None and a is None
                continue
            for mask, mask_a, mask_b in zip(masks, a, b, strict=True):
                assert mask.dtype == mask_b.dtype and mask.shape == mask_b.shape
                assert np.array_equal(mask, mask_a) and np.array_equal(mask, mask_b)
        assert one.bit_generator.state == each.bit_generator.state == per_layer.bit_generator.state


def per_record_finalize(probs, means):
    """One record's completion, refit and percent through the one-fit functions."""
    present = [(h, probs[h]) for h in HORIZONS if probs[h] is not None]
    if present:
        fit = fit_parametric(present, "exponential")
        out = [probs[h] if probs[h] is not None else float(fit_survival_at(fit, h))
               for h in HORIZONS]
    else:
        out = [means[h] for h in HORIZONS]
    completed = np.minimum.accumulate(np.clip(np.array(out), 0.0, 1.0))
    fit = fit_parametric(list(zip(HORIZONS, completed)), "exponential")
    return completed, fit.rate, three_year_percent(fit)


def pool_means(rows):
    """Per-horizon means of the rows' present probabilities, in row order."""
    means = {}
    for h in HORIZONS:
        present = [row[h] for row in rows if row[h] is not None]
        if not present:
            raise ValueError(f"no extracted probability at horizon {h}")
        means[h] = float(np.mean(present))
    return means


PROBS = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 0.5, 1e-7]),
                  st.integers(0, 100).map(lambda p: p / 100.0), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(PROBS, PROBS, PROBS), min_size=1, max_size=40),
       train_flags=st.lists(st.booleans(), max_size=40))
def test_batch_finalisation_equals_per_record_path(rows, train_flags):
    ids = [str(i) for i in range(len(rows))]
    records = [dict(zip(HORIZONS, row)) for row in rows]
    extracted = [any(p is not None for p in row) for row in rows]
    table = TeacherTable(ids=ids, explanations=[""] * len(rows),
                         probs=np.array([[np.nan if p is None else p for p in row]
                                         for row in rows]))
    # no flags: means over every record; else over the flagged training ids
    train_ids = {str(i) for i, flag in enumerate(train_flags) if flag} if train_flags else None
    pool = [rec for rec, x in zip(records, extracted) if x]
    train_pool = [rec for sid, rec, x in zip(ids, records, extracted)
                  if x and (train_ids is None or sid in train_ids)]
    # the columnar path: one percent per row with an extraction, NaN elsewhere
    cohort = Cohort(ids=ids, times=np.ones(len(rows)), events=np.zeros(len(rows), dtype=bool),
                    split=CohortSplit(*np.array_split(np.arange(len(rows)), 3)),
                    teacher_probs=table.probs)
    columnar, clamped = finalize_teacher(cohort)
    for rec, x, pct in zip(records, extracted, columnar):
        if x:
            assert pct == per_record_finalize(rec, {})[2]
        else:
            assert np.isnan(pct)
    if len(pool) < len(records):
        try:
            means = pool_means(train_pool or pool)
        except ValueError:  # some horizon has no extraction anywhere
            with pytest.raises(ValueError):
                finalize_records(table, train_ids=train_ids)
            return
    else:
        means = {}
    teacher, targets, all_clamped = finalize_records(table, train_ids=train_ids)
    assert np.array_equal(teacher, columnar, equal_nan=True)
    # the batch fits of every row, each empty row filled with the means
    filled = table.probs.copy()
    if means:
        filled[~np.array(extracted)] = [means[h] for h in HORIZONS]
    batch_completed, batch_rates, _, batch_clamped = finalize_probs(filled)
    assert all_clamped == batch_clamped >= clamped
    for rec, pct, target, row, batch_rate in zip(records, columnar, targets,
                                                 batch_completed, batch_rates):
        completed, rate, percent = per_record_finalize(rec, means)
        assert target == percent
        assert np.all(np.abs(row - completed) <= 4 * np.spacing(np.abs(completed)))
        assert abs(batch_rate - rate) <= 4 * np.spacing(abs(rate))
        assert np.isnan(pct) or pct == target


# ids a CSV or JSON writer would have to quote or escape
AWKWARD_IDS = st.sampled_from(["a,b", 'say "hi"', "naïve", "日本", "tab\there", " "])
IDS = AWKWARD_IDS | st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# finite values of each modality's on-disk dtype: text is stored in 32 bits,
# so it round-trips exactly when it fits in them
FINITE64S = st.floats(allow_nan=False, allow_infinity=False) | SPECIAL_FLOATS.filter(math.isfinite)
MODALITY_VALUES = {"text": st.floats(width=32, allow_nan=False, allow_infinity=False),
                   "cov": FINITE64S, "ge": FINITE64S}


def drawn_modality(data, name, n):
    """An (n, width >= 1) matrix of finite values, all NaN in the rows of
    the samples drawn to lack the modality."""
    width = data.draw(st.integers(1, 4))
    values = drawn_array(data, MODALITY_VALUES[name], (n, width), np.float64)
    values[~drawn_array(data, st.booleans(), (n,), bool)] = np.nan
    return values


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bundle_round_trip_is_bit_exact(data):
    ids = data.draw(st.lists(IDS, min_size=3, max_size=10, unique=True))
    n = len(ids)

    def column(elements, size):
        return data.draw(st.lists(elements, min_size=size, max_size=size))

    modalities = {name: drawn_modality(data, name, n) for name in ("text", "cov", "ge")
                  if data.draw(st.booleans())}
    teacher = None
    if data.draw(st.booleans()):
        teacher = np.array(column(st.none() | st.floats(0.0, 1.0), 3 * n),
                           dtype=np.float64).reshape(n, 3)
    metadata = {"schema": "clinical", "n_samples": n, "horizon_years": None,
                "allow_other_family": data.draw(st.booleans()),
                "cov_layout": ["age", "sex", "race", "stage"],
                "age_min": data.draw(st.floats(allow_nan=False, allow_infinity=False)),
                "sex_majority": data.draw(IDS)}
    # any partition into three non-empty parts, each in any order
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True)))
    split = CohortSplit(*(np.array(rows, dtype=np.int64) for rows in
                          (order[:cuts[0]], order[cuts[0]:cuts[1]], order[cuts[1]:])))
    cohort = Cohort(ids=ids, times=column(st.floats(1e-6, 50.0), n),
                    events=column(st.booleans(), n), split=split, modalities=modalities,
                    teacher_probs=teacher, metadata=metadata)

    with tempfile.TemporaryDirectory() as tmp:
        save_bundle(cohort, tmp)
        loaded = load_bundle(tmp)
    assert loaded.ids == ids and loaded.metadata == metadata
    assert same_bits(loaded.times, cohort.times) and same_bits(loaded.events, cohort.events)
    assert sorted(loaded.modalities) == sorted(modalities)
    for name, values in modalities.items():
        assert same_bits(loaded.modalities[name], values)
    assert (loaded.teacher_probs is None) == (teacher is None)
    assert teacher is None or same_bits(loaded.teacher_probs, teacher)
    for part in ("train", "val", "test"):
        assert same_bits(getattr(loaded.split, part), getattr(split, part))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(["text", "cov", "ge"]), n=st.integers(3, 8))
def test_bundle_refuses_a_row_neither_all_finite_nor_all_nan(data, name, n):
    ids = [f"s{i}" for i in range(n)]
    values = drawn_modality(data, name, n)
    row = data.draw(st.integers(0, n - 1))
    # an infinity, or NaN beside a finite value: neither a present nor an absent sample
    cells = st.lists(MODALITY_VALUES[name] | st.sampled_from([np.nan, np.inf, -np.inf]),
                     min_size=values.shape[1], max_size=values.shape[1])
    values[row] = data.draw(cells.filter(lambda r: not (np.isfinite(r).all()
                                                        or np.isnan(r).all())))
    cohort = Cohort(ids=ids, times=np.ones(n), events=np.zeros(n, dtype=bool),
                    split=CohortSplit(np.array([0]), np.array([1]), np.arange(2, n)),
                    modalities={name: values})
    with tempfile.TemporaryDirectory() as tmp:
        save_bundle(cohort, tmp)
        with pytest.raises(ValueError) as exc:
            load_bundle(tmp)
    assert str(exc.value) == (f"{os.path.join(tmp, name + '.npy')}: the row of id "
                              f"{ids[row]!r} must be all finite, or all NaN where the sample "
                              f"lacks this input")


# ---------------------------------------------------------- binary formats


def round_trip(write, read, value, files=None):
    """What `read` returns for the file `write(path, value)` makes, checking
    that writing it again makes the same bytes and that every strict prefix
    of the file is a ValueError. With `files`, `write` makes a directory, and
    each file it names there is cut short in turn."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        write(path, value)
        written = {}
        for file in [path] if files is None else [os.path.join(path, f) for f in files]:
            with open(file, "rb") as fh:
                data = written[file] = fh.read()
            for k in range(len(data)):
                with open(file, "wb") as fh:
                    fh.write(data[:k])
                with pytest.raises(ValueError):
                    read(path)
            with open(file, "wb") as fh:
                fh.write(data)
        back = read(path)
        write(path, back)
        for file, data in written.items():
            with open(file, "rb") as fh:
                assert fh.read() == data
    return back


def drawn_array(data, elements, shape, dtype):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=dtype).reshape(shape)


FLOAT64S = st.floats() | SPECIAL_FLOATS
FLOAT32S = st.floats(width=32, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_checkpoint_round_trips_and_rejects_every_prefix(data):
    shapes = data.draw(st.dictionaries(IDS, st.lists(st.integers(0, 3), max_size=3),
                                       max_size=4))
    params = {name: drawn_array(data, FLOAT64S, shape, np.float64)
              for name, shape in shapes.items()}
    manifest = {"seed": data.draw(st.integers(0, 2**32)), "config": {"head": data.draw(IDS)}}
    back, back_manifest = round_trip(lambda path, value: write_checkpoint(path, *value),
                                     read_checkpoint, (params, manifest))
    assert list(back) == list(params)
    assert all(same_bits(back[name], arr) for name, arr in params.items())
    assert back_manifest == {**manifest, "tensors": [{"name": name, "shape": shape}
                                                     for name, shape in shapes.items()]}


@given(data=st.data())
def test_id_rows_equals_a_dict_lookup(data):
    keys = data.draw(st.lists(IDS, unique=True, max_size=8))
    # some of the keys, shuffled, and ids the table lacks; the other keys go unasked
    asked = data.draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    absent = data.draw(st.lists(IDS.filter(lambda sid: sid not in keys), unique=True,
                                max_size=4))
    ids = data.draw(st.permutations(asked + absent))
    lookup = {key: row for row, key in enumerate(keys)}
    rows = id_rows(keys, ids)
    assert rows.dtype == np.int64 and rows.shape == (len(ids),)
    assert rows.tolist() == [lookup.get(sid, -1) for sid in ids]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hidden_states_round_trip_and_reject_every_prefix(data):
    shapes = data.draw(st.dictionaries(IDS, st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                       max_size=3))
    matrices = {sid: drawn_array(data, FLOAT32S, shape, np.float32)
                for sid, shape in shapes.items()}
    back = round_trip(write_hidden_states, read_hidden_states, matrices)
    assert list(back) == list(matrices)
    assert all(same_bits(back[sid], mat.astype(np.float64)) for sid, mat in matrices.items())


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pooled_vectors_round_trip_and_reject_every_prefix(data):
    dims = data.draw(st.dictionaries(IDS, st.integers(0, 4), max_size=3))
    vectors = {sid: drawn_array(data, FLOAT32S, (dim,), np.float32) for sid, dim in dims.items()}
    back = round_trip(write_pooled, read_pooled, vectors)
    assert list(back) == list(vectors)
    assert all(same_bits(back[sid], vec.astype(np.float64)) for sid, vec in vectors.items())


NPY_ELEMENTS = {"<f8": FLOAT64S, "<f4": FLOAT32S, "|b1": st.booleans(),
                "<i8": st.integers(-2**63, 2**63 - 1)}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(sorted(NPY_ELEMENTS)),
       shape=st.lists(st.integers(0, 4), min_size=1, max_size=2).map(tuple))
def test_npy_round_trips_and_rejects_every_prefix(data, dtype, shape):
    arr = drawn_array(data, NPY_ELEMENTS[dtype], shape, dtype)
    # None accepts any length on that axis, as the bundle reader does for widths
    expect = tuple(None if data.draw(st.booleans()) else n for n in shape)
    back = round_trip(write_npy, functools.partial(read_npy, dtype=dtype, shape=expect), arr)
    assert same_bits(back, arr)


# ids a CSV would have to quote, the empty id, and any other text
CURVE_IDS = st.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "\r\n", "naïve",
                             "日本"]) | IDS
UNIT_VALUES = st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53]) | st.floats(0.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_curve_directories_round_trip_and_reject_every_prefix(data):
    ids = data.draw(st.lists(CURVE_IDS, max_size=4, unique=True))
    steps = sorted(data.draw(st.lists(st.floats(1e-300, 1e300), max_size=4, unique=True)))
    times = np.array([0.0] + steps)
    values = np.array([[1.0] + sorted(data.draw(st.lists(UNIT_VALUES, min_size=len(steps),
                                                         max_size=len(steps))), reverse=True)
                       for _ in ids]).reshape(len(ids), times.size)
    curves = CurveSet.of(times, values)
    back_ids, back = round_trip(lambda path, value: write_curves(path, *value), read_curves,
                                (ids, curves), files=["times.npy", "values.npy", "meta.json"])
    assert back_ids == ids
    assert same_bits(back.times, times) and same_bits(back.whole(), values)


# whole percents (as parse-teacher writes them), any other, and no estimate
PERCENTS = st.integers(0, 100).map(float) | st.floats(0.0, 100.0) | st.just(math.nan)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_percents_round_trip_and_reject_every_prefix(data):
    ids = data.draw(st.lists(CURVE_IDS, max_size=4, unique=True))
    percents = np.array(data.draw(st.lists(PERCENTS, min_size=len(ids), max_size=len(ids))),
                        dtype=np.float64)
    back = round_trip(lambda path, value: write_percents(path, ids, value),
                      functools.partial(read_percents, ids=ids), percents)
    assert same_bits(back, percents)


# ------------------------------------------------------- set-up in columns

POOL_SHAPES = st.sampled_from([(1, 1), (1, 3), (2, 3), (5, 3), (12, 3), (7, 1), (3, 8), (12, 16)])


@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(POOL_SHAPES, min_size=1, max_size=14), stack=st.tuples(
           st.integers(1, 6), st.integers(1, 20), st.integers(1, 9)),
       scale=st.sampled_from([0.1, 1.0, 8.0]), block=st.integers(1, 2000), seed=SEEDS)
def test_batched_pooling_equals_pooling_each_matrix(shapes, stack, scale, block, seed):
    rng = np.random.default_rng(seed)
    hidden = rng.normal(scale=scale, size=stack)
    for row, mat in zip(attention_pool(hidden), hidden):
        assert same_bits(row, attention_pool(mat))
    # samples of different lengths (and widths), grouped by shape, in blocks
    mats = [rng.normal(scale=scale, size=shape) for shape in shapes]
    saved, pooling.POOL_BLOCK_ELEMENTS = pooling.POOL_BLOCK_ELEMENTS, block
    try:
        pooled = pool_many(mats)
    finally:
        pooling.POOL_BLOCK_ELEMENTS = saved
    assert len(pooled) == len(mats)
    for vec, mat in zip(pooled, mats):
        assert same_bits(vec, attention_pool(mat))


def record_lines(rows):
    """The file line each row starts on when csv.writer writes it after a
    one-line header: a quoted cell's line breaks push the later rows down."""
    lines, line = [], 2
    for row in rows:
        lines.append(line)
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        line += len(io.StringIO(buf.getvalue(), newline="").readlines())
    return lines


def per_cell_numeric_table(path, header, rows, missing_to_zero):
    """Each cell stripped, then float() or the empty-cell rule, row by row;
    a value that is not finite is an error."""
    values = np.empty((len(rows), len(header) - 1))
    seen = set()
    for lineno, vec, row in zip(record_lines(rows), values, rows):
        sid = row[0]
        if sid in seen:
            raise ValueError(f"duplicate id {sid!r} in {path} (line {lineno})")
        seen.add(sid)
        for j, (col, cell) in enumerate(zip(header[1:], row[1:])):
            cell = cell.strip()
            if cell == "":
                if not missing_to_zero:
                    raise ValueError(f"{path} id {sid!r} (line {lineno}): "
                                     f"empty cell in {col!r}")
                vec[j] = 0.0
                continue
            try:
                vec[j] = float(cell)
            except ValueError as exc:
                raise ValueError(f"{path} id {sid!r} (line {lineno}): {exc}") from exc
            if not math.isfinite(vec[j]):
                raise ValueError(f"{path} id {sid!r} (line {lineno}): "
                                 f"non-finite value {cell!r} in {col!r}")
    return [row[0] for row in rows], values


NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-10**25, 10**25).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-Infinity", "+inf", "1e5", "-2.5E-3",
                     "1e-400", "1e400", "1_000", "1_0.5e1_0", ".5", "5.", "+.5e-0",
                     "١٢", "", "0x10", "1e", "1,5", "abc", "1__0", "_1", "1 2"]))
PADDING = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", "\xa0", "　", "\x1c"])
NUMBER_CELLS = st.tuples(PADDING, NUMBER_TEXT, PADDING).map("".join)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(0, 4), n=st.integers(0, 8),
       missing_to_zero=st.booleans())
def test_numeric_table_parser_equals_per_cell_float(data, width, n, missing_to_zero):
    header = ["id"] + [f"x{j}" for j in range(width)]
    # ids from a small pool, so some tables repeat one
    rows = [[f"s{data.draw(st.integers(0, n + 3))}"]
            + data.draw(st.lists(NUMBER_CELLS, min_size=width, max_size=width))
            for _ in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)

        def outcome(parse):
            try:
                return parse()
            except ValueError as exc:
                return str(exc)
        got = outcome(lambda: _parse_numeric_table(path, missing_to_zero))
        want = outcome(lambda: per_cell_numeric_table(path, header, rows, missing_to_zero))
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0] == want[0] and same_bits(got[1], want[1])


CSV_TEXT = st.text(st.sampled_from(list('ab,"\r\n \t\xff日')), max_size=5) | st.text(
    st.characters(exclude_categories=("Cs",)), max_size=5)
CSV_CELLS = CSV_TEXT | st.none() | st.integers() | st.floats()


@settings(max_examples=200, deadline=None)
@given(header=st.lists(CSV_TEXT, min_size=1, max_size=4),
       rows=st.lists(st.lists(CSV_CELLS, max_size=4) | st.tuples(CSV_TEXT), max_size=6))
def test_csv_table_writer_writes_csv_writer_bytes(header, rows):
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_csv_table(path, header, rows)
        with open(path, "rb") as fh:
            assert fh.read() == expected.getvalue().encode("utf-8")


NUMBERISH_TEXT = st.lists(st.sampled_from(["50", "%", " %", " ", ".", "0.7", "120", "3.", ".5",
                                           "100", "1e5", "-", "99.9", "٣", "0", "abc"]),
                          max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=st.none() | NUMBERISH_TEXT | st.text())
def test_extract_probability_never_raises_and_stays_in_unit_interval(text):
    p = extract_probability(text)
    assert p is None or 0.0 <= p <= 1.0


RESPONSES = st.none() | st.sampled_from(["The estimated survival is: 40.0%.", "0.3", "70",
                                         "I cannot provide an estimate."]) | NUMBERISH_TEXT


@settings(max_examples=100, deadline=None)
@given(responses=st.lists(st.dictionaries(st.sampled_from(["y1", "y3", "y5", "note"]),
                                          RESPONSES), max_size=12))
def test_cached_teacher_parsing_equals_one_extraction_per_text(responses):
    rows = [{"id": f"s{i}", "responses": r} for i, r in enumerate(responses)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "teacher.jsonl")
        write_jsonl(path, rows)
        table = parse_teacher_file(path)
    assert table.ids == [row["id"] for row in rows]
    expected = [[extract_probability(row["responses"].get(key)) for key in ("y1", "y3", "y5")]
                for row in rows]
    assert same_bits(table.probs, np.array([[np.nan if p is None else p for p in probs]
                                            for probs in expected]).reshape(-1, len(HORIZONS)))
