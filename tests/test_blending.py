"""Tests for verbalized-probability curves, convex blending, missing-curve
handling, and grid selection of the blend weight."""

import math
import warnings

import numpy as np
import pytest

from survfuse.blending import (
    DEFAULT_LAMBDA_GRID,
    blend_inputs,
    combine,
    mean_curve,
    select_lambda,
    verbalized_curve,
    verbalized_curves,
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
    assert np.allclose(one.values[0], np.exp(-rho * GRID), rtol=0, atol=1e-15)
    # anchored at the 3-year point, squared by 6 years
    assert abs(curve_at(one, 3.0) - 0.9) < 1e-12
    assert abs(curve_at(one, 6.0) - 0.81) < 1e-12
    assert one.values[0, 0] == 1.0


def test_verbalized_curve_certain_survival():
    one = verbalized_curve(100, GRID)
    assert np.array_equal(one.values[0], np.ones_like(GRID))


def test_verbalized_curve_floors_zero_percent():
    with pytest.warns(UserWarning):
        one = verbalized_curve(0, GRID)
    assert abs(curve_at(one, 3.0) - 0.005) < 1e-12
    assert np.all(one.values > 0.0)


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
            out = combine(hidden, verb, lam)
            expect = (1.0 - lam) * hidden.values + lam * verb.values
            assert np.array_equal(out.values, expect)
            assert np.array_equal(out.times, GRID)


def test_combine_endpoints_exact():
    rng = np.random.default_rng(32)
    hidden = random_curve(rng)
    verb = random_curve(rng)
    assert np.array_equal(combine(hidden, verb, 0.0).values, hidden.values)
    assert np.array_equal(combine(hidden, verb, 1.0).values, verb.values)


def test_combine_validation():
    rng = np.random.default_rng(33)
    hidden = random_curve(rng)
    verb = random_curve(rng)
    with pytest.raises(ValueError):
        combine(hidden, verb, -0.01)
    with pytest.raises(ValueError):
        combine(hidden, verb, 1.01)
    other = random_curve(rng, times=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        combine(hidden, other, 0.5)
    # one verbalized curve per hidden curve
    with pytest.raises(ValueError):
        combine(hidden, stack([verb, verb]), 0.5)


def test_mean_curve():
    rng = np.random.default_rng(34)
    curves = [random_curve(rng) for _ in range(5)]
    out = mean_curve(stack(curves))
    expect = np.mean([c.values[0] for c in curves], axis=0)
    assert len(out) == 1
    assert np.allclose(out.values[0], expect, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        mean_curve(CurveSet(times=GRID, values=np.empty((0, GRID.size))))


def test_blend_inputs_resolves_missing():
    rng = np.random.default_rng(35)
    hidden = stack([random_curve(rng) for _ in range(4)])
    percents = [70, None, 40, None]
    blend_in, verb_eval, n_present = blend_inputs(hidden, percents)
    assert n_present == 2
    (v70,), (v40,) = verbalized_curve(70, GRID).values, verbalized_curve(40, GRID).values
    mean = np.mean([v70, v40], axis=0)
    # present: the verbalized curve serves both paths
    for i, verb in ((0, v70), (2, v40)):
        assert np.array_equal(blend_in.values[i], verb)
        assert np.array_equal(verb_eval.values[i], verb)
    # absent: blend against the hidden curve itself, evaluate the cohort mean
    for i in (1, 3):
        assert np.array_equal(blend_in.values[i], hidden.values[i])
        assert np.array_equal(verb_eval.values[i], mean)
    # every percent present: one set serves both paths
    blend_in, verb_eval, n_present = blend_inputs(hidden, [10, 20, 30, 40])
    assert blend_in is verb_eval and n_present == 4
    # absent with no extractable probability anywhere
    blend_in, verb_eval, n_present = blend_inputs(hidden, [None] * 4)
    assert blend_in is hidden and verb_eval is None and n_present == 0
    with pytest.raises(ValueError):
        blend_inputs(hidden, [10, 20])


def test_verbalized_curves_warn_once_per_call():
    with pytest.warns(UserWarning, match="for 3 of 5 percents") as record:
        curves = verbalized_curves([0, 50, 0, 0, 100], GRID)
    assert len(record) == 1
    assert np.array_equal(curves.values[0], curves.values[2])
    assert abs(curves.at(3.0)[0] - 0.005) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verbalized_curves([10, 90], GRID)
    with pytest.raises(ValueError):
        verbalized_curves([50, 100.5], GRID)


# ------------------------------------------------------------- grid selection

def brute_force_lambda(hidden, verbalized, times, events, grid):
    best_lam, best_score = None, -np.inf
    for lam in sorted(grid):
        combined = stack(CurveSet(h.times, (1.0 - lam) * h.values + lam * v.values)
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
    partners = blend_inputs(stack(hidden), percents)[0]
    return [curve(partners.times, row) for row in partners.values]


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
    lam, score = select_lambda(verbalized_curves(percents, GRID), percents[::-1], times, events)
    assert lam == 0.0
    assert score == 1.0


def test_select_lambda_ties_take_smallest():
    rng = np.random.default_rng(36)
    percents = rng.uniform(1.0, 100.0, size=6)
    times = rng.uniform(0.5, 5.5, size=6)
    events = np.ones(6, dtype=bool)
    # identical sources: every lambda scores the same
    curve_set = verbalized_curves(percents, GRID)
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