"""Tests for verbalized-probability curves, convex blending, missing-curve
handling, and grid selection of the blend weight."""

import math

import numpy as np
import pytest

from survfuse.blending import (
    DEFAULT_LAMBDA_GRID,
    PERCENT_FLOOR,
    blend_inputs,
    combine,
    mean_curve,
    select_lambda,
    verbalized_curve,
    verbalized_rates,
)
from survfuse.heads import CurveSet
from survfuse.metrics import c_td
from stepcurves import curve, curve_at, stack

GRID = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0])


def random_curve(rng, times=GRID):
    """Random valid step curve: S(0) = 1, non-increasing."""
    drops = rng.uniform(0.0, 0.3, size=times.size - 1)
    values = np.concatenate([[1.0], np.maximum(1.0 - np.cumsum(drops), 0.0)])
    return curve(times.copy(), values)


# ------------------------------------------------------------ S^v construction

def test_verbalized_curve_exponential_anchor():
    one = verbalized_curve(90, GRID)
    rho = -math.log(0.9) / 3.0
    assert np.allclose(one.whole()[0], np.exp(-rho * GRID), rtol=0, atol=1e-15)
    # anchored at the 3-year point, squared by 6 years
    assert abs(curve_at(one, 3.0) - 0.9) < 1e-12
    assert abs(curve_at(one, 6.0) - 0.81) < 1e-12
    assert one.whole()[0, 0] == 1.0


def test_verbalized_curve_certain_survival():
    one = verbalized_curve(100, GRID)
    assert np.array_equal(one.whole()[0], np.ones_like(GRID))


def test_verbalized_curve_floors_zero_percent():
    one = verbalized_curve(0, GRID)
    assert abs(curve_at(one, 3.0) - 0.005) < 1e-12
    assert np.all(one.whole() > 0.0)


def test_verbalized_curve_rejects_out_of_range():
    with pytest.raises(ValueError):
        verbalized_curve(-1, GRID)
    with pytest.raises(ValueError):
        verbalized_curve(101, GRID)


# ----------------------------------------------------------------- combination

def test_combine_formula():
    rng = np.random.default_rng(31)
    for _ in range(10):
        hidden = random_curve(rng)
        verb = random_curve(rng)
        for lam in (0.15, 0.5, 0.85):
            out = combine(hidden.whole(), verb.whole(), lam)
            expect = (1.0 - lam) * hidden.whole() + lam * verb.whole()
            assert np.array_equal(out, expect)


def test_combine_endpoints_exact():
    rng = np.random.default_rng(32)
    hidden = random_curve(rng)
    verb = random_curve(rng)
    assert np.array_equal(combine(hidden.whole(), verb.whole(), 0.0), hidden.whole())
    assert np.array_equal(combine(hidden.whole(), verb.whole(), 1.0), verb.whole())


def test_combine_validation():
    rng = np.random.default_rng(33)
    hidden = random_curve(rng)
    verb = random_curve(rng)
    with pytest.raises(ValueError):
        combine(hidden.whole(), verb.whole(), -0.01)
    with pytest.raises(ValueError):
        combine(hidden.whole(), verb.whole(), 1.01)
    other = random_curve(rng, times=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        combine(hidden.whole(), other.whole(), 0.5)
    # one verbalized curve per hidden curve
    with pytest.raises(ValueError):
        combine(hidden.whole(), stack([verb, verb]).whole(), 0.5)


def test_mean_curve():
    rng = np.random.default_rng(34)
    curves = [random_curve(rng) for _ in range(5)]
    values = stack(curves).whole()
    out = mean_curve(values)
    expect = np.mean([c.whole()[0] for c in curves], axis=0)
    assert out.shape == (1, GRID.size)
    assert np.allclose(out[0], expect, rtol=0, atol=1e-15)
    # the sum runs row by row
    total = values[0].copy()
    for row in values[1:]:
        total += row
    assert out.tobytes() == (total / len(values))[None, :].tobytes()
    # each column's mean is the same read alone or in any company
    for cols in ([3], [5, 1], [2, 2, 6]):
        assert mean_curve(values[:, cols]).tobytes() == out[:, cols].tobytes()
    with pytest.raises(ValueError):
        mean_curve(np.empty((0, GRID.size)))


def test_blend_inputs_resolves_missing():
    rng = np.random.default_rng(35)
    hidden = stack([random_curve(rng) for _ in range(4)]).whole()
    percents = [70, None, 40, None]
    blend_in = blend_inputs(hidden, GRID, verbalized_rates(percents))
    (v70,), (v40,) = verbalized_curve(70, GRID).whole(), verbalized_curve(40, GRID).whole()
    # present: blend against the verbalized curve
    for i, verb in ((0, v70), (2, v40)):
        assert np.array_equal(blend_in[i], verb)
    # absent: blend against the hidden curve itself
    for i in (1, 3):
        assert np.array_equal(blend_in[i], hidden[i])
    assert not np.shares_memory(blend_in, hidden)
    # every percent present: the verbalized curves themselves
    blend_in = blend_inputs(hidden, GRID, verbalized_rates([10, 20, 30, 40]))
    assert np.array_equal(blend_in, verbalized_curve([10, 20, 30, 40], GRID).whole())
    # absent with no extractable probability anywhere
    blend_in = blend_inputs(hidden, GRID, verbalized_rates([None] * 4))
    assert blend_in is hidden
    with pytest.raises(ValueError):
        blend_inputs(hidden, GRID, verbalized_rates([10, 20]))


def test_verbalized_curves_floor_zero_percents():
    percents = np.array([0, 50, 0, 0, 100])
    values = verbalized_curve(percents, GRID).whole()
    # each 0 (the count callers report) is the curve of PERCENT_FLOOR
    floored = percents == 0
    assert np.count_nonzero(floored) == 3
    assert np.array_equal(values[floored],
                          np.repeat(verbalized_curve([PERCENT_FLOOR], GRID).whole(), 3, axis=0))
    assert np.array_equal(values[~floored], verbalized_curve(percents[~floored], GRID).whole())
    assert abs(CurveSet.of(GRID, values).at(3.0)[0] - 0.005) < 1e-12
    with pytest.raises(ValueError):
        verbalized_curve([50, 100.5], GRID)


# ------------------------------------------------------------- grid selection

def brute_force_lambda(hidden, verbalized, times, events, grid):
    best_lam, best_score = None, -np.inf
    for lam in sorted(grid):
        combined = stack(CurveSet.of(h.times, (1.0 - lam) * h.whole() + lam * v.whole())
                         for h, v in zip(hidden, verbalized))
        score = c_td(combined, times, events)
        if score > best_score:
            best_lam, best_score = lam, score
    return best_lam, best_score


def risk_ordered_curves(scores, times=GRID):
    """Higher score = steeper exponential = lower survival everywhere."""
    return [curve(times.copy(), np.exp(-s * times)) for s in scores]


def blend_partners(hidden, percents):
    """`blend_inputs`' blend partner of each hidden curve, one curve each."""
    hidden = stack(hidden)
    partners = blend_inputs(hidden.whole(), hidden.times, verbalized_rates(percents))
    return [curve(hidden.times, row) for row in partners]


def test_select_lambda_prefers_the_informative_source():
    # event times decrease in the underlying risk; the verbalized curves
    # rank subjects correctly while the hidden curves rank them backwards
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    events = np.ones(5, dtype=bool)
    risks = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    percents = 100.0 * np.exp(-3.0 * risks)  # verbalized curves exp(-risk * t)
    hidden = risk_ordered_curves(risks[::-1])
    lam, score = select_lambda(stack(hidden), percents, times, events)
    assert score == 1.0
    # perfect concordance arrives somewhere past the midpoint, and ties
    # resolve to the smallest lambda achieving it
    assert lam > 0.5
    ref_lam, _ = brute_force_lambda(hidden, blend_partners(hidden, percents), times, events,
                                    DEFAULT_LAMBDA_GRID)
    assert lam == ref_lam
    # with the sources swapped the hidden curves already score 1 at lambda 0
    lam, score = select_lambda(verbalized_curve(percents, GRID), percents[::-1], times, events)
    assert lam == 0.0
    assert score == 1.0


def test_select_lambda_ties_take_smallest():
    rng = np.random.default_rng(36)
    percents = rng.uniform(1.0, 100.0, size=6)
    times = rng.uniform(0.5, 5.5, size=6)
    events = np.ones(6, dtype=bool)
    # identical sources: every lambda scores the same
    curve_set = verbalized_curve(percents, GRID)

    lam, score = select_lambda(curve_set, percents, times, events)
    assert lam == 0.0
    assert score == c_td(curve_set, times, events)


def random_percents(rng, n):
    """Percents in [1, 100], about a third of them absent (NaN)."""
    return np.where(rng.random(n) < 0.3, np.nan, rng.integers(1, 101, size=n).astype(float))


def test_select_lambda_matches_brute_force():
    rng = np.random.default_rng(37)
    for trial in range(8):
        n = 12
        hidden = [random_curve(rng) for _ in range(n)]
        percents = random_percents(rng, n)
        times = rng.uniform(0.2, 5.8, size=n)
        events = rng.random(n) < 0.7
        if not events.any():
            events[0] = True
        lam, score = select_lambda(stack(hidden), percents, times, events)
        ref_lam, ref_score = brute_force_lambda(hidden, blend_partners(hidden, percents),
                                                times, events, DEFAULT_LAMBDA_GRID)
        assert lam == ref_lam
        assert score == ref_score


def test_select_lambda_custom_grid_and_validation():
    rng = np.random.default_rng(38)
    hidden = [random_curve(rng) for _ in range(4)]
    percents = random_percents(rng, 4)
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.ones(4, dtype=bool)
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    hidden_set = stack(hidden)
    lam, score = select_lambda(hidden_set, percents, times, events, grid=grid)
    assert lam in grid
    ref = brute_force_lambda(hidden, blend_partners(hidden, percents), times, events, grid)
    assert (lam, score) == ref
    with pytest.raises(ValueError):
        select_lambda(hidden_set, percents, times, events, grid=())
    with pytest.raises(ValueError):
        select_lambda(hidden_set, percents, times, events, grid=(-0.1, 0.5))
    with pytest.raises(ValueError):
        select_lambda(hidden_set, percents, times, events, grid=(0.5, 1.2))


def test_default_grid_shape():
    assert DEFAULT_LAMBDA_GRID[0] == 0.0
    assert DEFAULT_LAMBDA_GRID[-1] == 1.0
    assert len(DEFAULT_LAMBDA_GRID) == 21
    assert all(DEFAULT_LAMBDA_GRID[k] == k / 20 for k in range(21))


def test_select_lambda_needs_one_percent_per_curve():
    rng = np.random.default_rng(39)
    hidden = stack([random_curve(rng) for _ in range(3)])
    with pytest.raises(ValueError, match="one percent"):
        select_lambda(hidden, [50.0, 60.0], np.array([1.5, 2.5, 3.5]), np.ones(3, dtype=bool))