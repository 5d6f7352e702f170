"""Tests for the censoring Kaplan-Meier estimator, time-dependent
concordance, the IPCW integrated Brier score, and the memory of the
evaluation path at large n."""

import tracemalloc

import numpy as np
import pytest

from survfuse.blending import select_lambda
from survfuse.heads import breslow_baseline, cox_curve
from survfuse.metrics import BLOCK_ELEMENTS, c_td, censoring_km, ibs
from survfuse.training import _channels
from stepcurves import curve as step_curve
from stepcurves import curve_at, stack


def exponential_curve(rate, grid):
    grid = np.asarray(grid, dtype=np.float64)
    return step_curve(grid, np.exp(-rate * grid))


def random_outcomes(rng, n, event_p=0.7, tie_pool=None):
    if tie_pool is not None:
        times = rng.choice(tie_pool, size=n)
    else:
        times = rng.uniform(0.2, 6.0, size=n)
    events = rng.random(n) < event_p
    if not events.any():
        events[int(rng.integers(n))] = True
    return times.astype(np.float64), events


# ------------------------------------------------------------- censoring KM

def product_limit_g(times, events, t, left=False):
    """Independent product-limit evaluation treating censorings as events."""
    g = 1.0
    for tau in np.unique(times[~events]):
        included = tau < t if left else tau <= t
        if included:
            at_risk = int((times >= tau).sum())
            d = int(((times == tau) & ~events).sum())
            g *= 1.0 - d / at_risk
    return g


def test_censoring_km_pinned_cases():
    # no censored subjects: G stays at 1
    km = censoring_km(np.array([1.0, 2.0, 3.0]), np.array([True, True, True]))
    assert km.jump_times.size == 0
    assert np.all(km.at([0.0, 1.0, 5.0]) == 1.0)
    # single subject censored at 2: G = 1 before, 0 from 2 on
    km = censoring_km(np.array([2.0]), np.array([False]))
    assert np.array_equal(km.at([0.0, 1.9, 2.0, 3.0]), [1.0, 1.0, 0.0, 0.0])
    assert km.at_left(2.0) == 1.0
    # censor at 1 with a later death: jump to 1/2 at t=1
    km = censoring_km(np.array([1.0, 2.0]), np.array([False, True]))
    assert np.array_equal(km.at([0.5, 1.0, 1.5, 2.0]), [1.0, 0.5, 0.5, 0.5])
    assert km.at_left(1.0) == 1.0


def test_censoring_km_matches_product_limit():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        times, events = random_outcomes(rng, n, event_p=0.5,
                                        tie_pool=np.arange(1.0, 9.0))
        km = censoring_km(times, events)
        probes = np.concatenate([[0.0], times, times - 0.5, times + 0.5])
        for t in probes:
            assert km.at(t) == pytest.approx(
                product_limit_g(times, events, t), abs=1e-14)
            assert km.at_left(t) == pytest.approx(
                product_limit_g(times, events, t, left=True), abs=1e-14)


def test_censoring_km_monotone_and_bounded():
    rng = np.random.default_rng(42)
    times, events = random_outcomes(rng, 50, event_p=0.4)
    km = censoring_km(times, events)
    assert np.all(np.diff(km.values) <= 0)
    assert km.values.min() >= 0.0 and km.values.max() <= 1.0
    assert km.at(0.0) == 1.0


def test_censoring_km_empty_error():
    with pytest.raises(ValueError):
        censoring_km(np.array([]), np.array([], dtype=bool))


# ------------------------------------------------------------- concordance

def brute_force_ctd(curves, times, events):
    num = 0.0
    pairs = 0
    n = len(times)
    for i in range(n):
        if not events[i]:
            continue
        for j in range(n):
            if times[i] >= times[j]:
                continue
            s_i = float(curve_at(curves[i], times[i]))
            s_j = float(curve_at(curves[j], times[i]))
            if s_i < s_j:
                num += 1.0
            elif s_i == s_j:
                num += 0.5
            pairs += 1
    if pairs == 0:
        raise ValueError("no comparable pairs")
    return num / pairs


def test_ctd_perfect_orderings():
    grid = np.linspace(0.0, 8.0, 17)
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.ones(4, dtype=bool)
    rates = np.array([2.0, 1.0, 0.5, 0.25])  # earliest event = lowest survival
    curves = [exponential_curve(r, grid) for r in rates]
    assert c_td(stack(curves), times, events) == 1.0
    assert c_td(stack(curves[::-1]), times, events) == 0.0


def test_ctd_all_ties():
    grid = np.linspace(0.0, 8.0, 17)
    curves = [exponential_curve(0.3, grid) for _ in range(5)]
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    events = np.ones(5, dtype=bool)
    assert c_td(stack(curves), times, events) == 0.5


def test_ctd_matches_brute_force():
    rng = np.random.default_rng(43)
    grid = np.linspace(0.0, 10.0, 21)
    # small rate pool forces value ties, small time pool forces time ties
    rate_pool = np.array([0.2, 0.5, 0.9])
    for _ in range(30):
        n = int(rng.integers(3, 40))
        curves = [exponential_curve(rng.choice(rate_pool), grid) for _ in range(n)]
        times, events = random_outcomes(rng, n, tie_pool=np.arange(1.0, 7.0))
        try:
            expect = brute_force_ctd(curves, times, events)
        except ValueError:
            with pytest.raises(ValueError):
                c_td(stack(curves), times, events)
            continue
        assert c_td(stack(curves), times, events) == expect


def test_ctd_equal_times_not_comparable():
    grid = np.linspace(0.0, 8.0, 17)
    curves = [exponential_curve(r, grid) for r in (0.2, 0.9)]
    times = np.array([3.0, 3.0])
    events = np.array([True, True])
    with pytest.raises(ValueError):
        c_td(stack(curves), times, events)


def test_ctd_requires_events_and_matching_lengths():
    grid = np.linspace(0.0, 8.0, 17)
    curves = [exponential_curve(r, grid) for r in (0.2, 0.9)]
    with pytest.raises(ValueError):
        c_td(stack(curves), np.array([1.0, 2.0]), np.array([False, False]))
    with pytest.raises(ValueError):
        c_td(stack(curves), np.array([1.0, 2.0, 3.0]), np.array([True, True, True]))


def test_ctd_monotone_transform_invariance():
    rng = np.random.default_rng(44)
    grid = np.linspace(0.0, 10.0, 21)
    n = 25
    curves = [exponential_curve(rng.uniform(0.1, 1.0), grid) for _ in range(n)]
    times, events = random_outcomes(rng, n)
    base = c_td(stack(curves), times, events)
    for transform in (np.square, np.sqrt, lambda v: v ** 3):
        mapped = [step_curve(c.times, transform(c.whole()[0])) for c in curves]
        assert c_td(stack(mapped), times, events) == base


# -------------------------------------------------------- integrated Brier

def midpoint_ibs(curves, times, events, grid_points):
    """Independent composite-midpoint evaluation of the IPCW Brier integral."""
    km = censoring_km(times, events)
    t_max = float(times.max())
    width = t_max / grid_points
    total = 0.0
    for k in range(grid_points):
        mid = (k + 0.5) * width
        acc = 0.0
        for i in range(len(times)):
            s = float(curve_at(curves[i], mid))
            if events[i] and times[i] <= mid:
                g = float(km.at_left(times[i]))
                if g > 0.0:
                    acc += s * s / g
            elif times[i] > mid:
                g = float(km.at(mid))
                if g > 0.0:
                    acc += (1.0 - s) ** 2 / g
        total += acc / len(times)
    return total * width / t_max


def test_ibs_oracle_predictor_scores_zero():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.ones(4, dtype=bool)
    curves = [step_curve([0.0, t], [1.0, 0.0]) for t in times]
    result = ibs(stack(curves), times, events)
    assert result == 0.0


def test_ibs_constant_half_closed_form():
    # one uncensored subject, flat S = 1/2: integral of 1/4 over [0, t_max]
    times = np.array([4.0])
    events = np.array([True])
    curves = [step_curve([0.0, 1e-9], [1.0, 0.5])]
    result = ibs(stack(curves), times, events)
    assert result == 0.25


def test_ibs_matches_midpoint_oracle():
    rng = np.random.default_rng(45)
    grid = np.linspace(0.0, 8.0, 17)
    for _ in range(8):
        n = int(rng.integers(3, 20))
        curves = [exponential_curve(rng.uniform(0.1, 1.2), grid) for _ in range(n)]
        times, events = random_outcomes(rng, n, event_p=0.6)
        for grid_points in (16, 64):
            got = ibs(stack(curves), times, events, grid_points=grid_points)
            expect = midpoint_ibs(curves, times, events, grid_points)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-14)


def test_ibs_grid_doubling_converges():
    rng = np.random.default_rng(46)
    grid = np.linspace(0.0, 8.0, 33)
    n = 40
    curves = [exponential_curve(rng.uniform(0.1, 1.2), grid) for _ in range(n)]
    times, events = random_outcomes(rng, n, event_p=0.7)
    coarse = ibs(stack(curves), times, events, grid_points=512)
    fine = ibs(stack(curves), times, events, grid_points=1024)
    assert abs(coarse - fine) < 1e-4


def test_ibs_bounded():
    rng = np.random.default_rng(47)
    grid = np.linspace(0.0, 8.0, 17)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        curves = [exponential_curve(rng.uniform(0.1, 1.2), grid) for _ in range(n)]
        times, events = random_outcomes(rng, n, event_p=0.5,
                                        tie_pool=np.arange(1.0, 7.0))
        result = ibs(stack(curves), times, events)
        assert 0.0 <= result <= 1.0


def test_ibs_no_censoring_equals_unweighted_score():
    rng = np.random.default_rng(48)
    grid = np.linspace(0.0, 8.0, 17)
    n = 12
    curves = [exponential_curve(rng.uniform(0.1, 1.2), grid) for _ in range(n)]
    times = rng.uniform(0.5, 6.0, size=n)
    events = np.ones(n, dtype=bool)
    t_max = float(times.max())
    width = t_max / 128
    total = 0.0
    for k in range(128):
        mid = (k + 0.5) * width
        acc = 0.0
        for i in range(n):
            s = float(curve_at(curves[i], mid))
            if times[i] <= mid:
                acc += s * s
            else:
                acc += (1.0 - s) ** 2
        total += acc / n
    expect = total * width / t_max
    got = ibs(stack(curves), times, events, grid_points=128)
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-14)


def test_ibs_validation():
    grid = np.linspace(0.0, 8.0, 17)
    curves = [exponential_curve(0.3, grid)]
    with pytest.raises(ValueError):
        ibs(stack(curves), np.array([1.0, 2.0]), np.array([True, True]))
    with pytest.raises(ValueError):
        ibs(stack(curves), np.array([1.0]), np.array([True]), grid_points=0)
    with pytest.raises(ValueError):
        ibs(stack(curves), np.array([0.0]), np.array([True]))


def test_ibs_float_conversion():
    result = ibs(step_curve([0.0, 1.0], [1.0, 0.0]),
                 np.array([1.0]), np.array([True]))
    assert type(result) is float


def test_evaluation_memory_stays_bounded_at_large_n():
    """The streamed evaluation path (lambda selection, then c_td and ibs of
    the hidden, verbalized and combined channels, all read by column) on
    2,000 and 4,000 test subjects with continuous event times and a Cox
    baseline of 25,000 event times. Curves on the whole grid would take up
    to 1 GB, and even on only the scored times (one column per distinct
    event time, plus the 512 ibs midpoints) they take tens of MB. The
    streamed path holds a few blocks of about BLOCK_ELEMENTS values at a
    time, so its peak has one bound at both sizes, whatever the number of
    scored times."""
    # about eight BLOCK_ELEMENTS float64 arrays at once (a combined block is
    # built from hidden, verbalized and blend blocks, c_td adds the later
    # subjects' values and its comparison masks, and an ibs block may be up
    # to twice as wide), plus the baseline's arrays that each block reads
    bound = 12 * BLOCK_ELEMENTS * 8
    rng = np.random.default_rng(0)
    n_fit = 25_000
    baseline = breslow_baseline(0.5 * rng.normal(size=n_fit),
                                rng.uniform(0.01, 5.0, size=n_fit), np.ones(n_fit, dtype=bool))
    assert baseline.event_times.size == n_fit
    for n in (2_000, 4_000):
        scores = 0.5 * rng.normal(size=n)
        raw = rng.exponential(4.0 * np.exp(-scores))
        times = np.minimum(raw, 5.0)
        events = (raw < 5.0) & (rng.random(n) < 0.8)
        # a teacher that knows the 3-year survival, for 80% of the subjects
        percents = np.round(100.0 * np.exp(-3.0 / (4.0 * np.exp(-scores))))
        percents[rng.random(n) >= 0.8] = np.nan
        # curves on the scored times keep the grid columns that hold the
        # event times and (about) the ibs midpoints
        scored = np.concatenate([times[events], np.linspace(0.0, times.max(), 512)])
        columns = np.unique(np.searchsorted(baseline.event_times, scored, side="right")).size
        assert n * columns * 8 >= 3 * bound
        hidden = cox_curve(scores, baseline)

        tracemalloc.start()
        try:
            lam, _ = select_lambda(hidden, percents, times, events)
            channels = _channels(hidden, times, events, percents, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"n={n}: peak {peak / 2**20:.1f} MB, bound {bound / 2**20:.0f} MB"
        for name in ("hidden", "verbalized", "combined"):
            assert 0.55 < channels[name].c_td < 1.0 and 0.0 < channels[name].ibs < 0.25, name
