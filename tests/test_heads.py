import math

import numpy as np
import pytest

from survfuse.heads import (BreslowBaseline, CurveSet, SurvivalCurve, TimeGrid,
                            breslow_baseline, build_discrete_targets, cox_curve,
                            cox_loss, cox_loss_grad, discrete_curve,
                            discrete_loss, discrete_loss_grad)
from survfuse.nn import sigmoid


def random_survival_data(rng, n, tie_prob=0.3):
    times = rng.uniform(0.1, 5.0, size=n)
    if n > 2:
        # force ties so the Breslow handling actually gets exercised
        dup = rng.random(n) < tie_prob
        times[dup] = rng.choice(times[~dup] if (~dup).any() else times, size=dup.sum())
    events = rng.random(n) < 0.7
    if not events.any():
        events[0] = True
    return times, events


# ------------------------------------------------------------------ grids


def test_equal_width_grid():
    grid = TimeGrid.equal_width(5, 10.0)
    assert np.allclose(grid.edges, [0, 2, 4, 6, 8, 10])
    assert grid.n_bins == 5


def test_quantile_grid_dedups_and_spans_horizon():
    times = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
    grid = TimeGrid.from_quantiles(times, 4, horizon=5.0)
    assert grid.edges[0] == 0.0
    assert grid.edges[-1] == 5.0
    assert np.all(np.diff(grid.edges) > 0)


def test_grid_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0, 2.0]))


# ------------------------------------------------- discrete-time targets


def test_discrete_targets_worked_examples():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    t = build_discrete_targets([1.5], [1], grid)
    assert t.y.tolist() == [[0, 1, 0]]
    assert t.a.tolist() == [[1, 1, 0]]
    t = build_discrete_targets([1.5], [0], grid)
    assert t.y.tolist() == [[0, 0, 0]]
    assert t.a.tolist() == [[1, 1, 0]]
    t = build_discrete_targets([3.0], [1], grid)
    assert t.y.tolist() == [[0, 0, 1]]
    assert t.a.tolist() == [[1, 1, 1]]


def test_discrete_targets_match_indicator_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n_bins = int(rng.integers(2, 8))
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 6.0, size=n_bins))])
        grid = TimeGrid(edges)
        n = int(rng.integers(1, 12))
        times = rng.uniform(1e-6, edges[-1], size=n)
        events = rng.random(n) < 0.5
        targets = build_discrete_targets(times, events, grid)
        for i in range(n):
            for b in range(n_bins):
                in_bin = edges[b] < times[i] <= edges[b + 1]
                assert targets.y[i, b] == (1.0 if in_bin and events[i] else 0.0)
                assert targets.a[i, b] == (1.0 if times[i] > edges[b] else 0.0)
        # structural invariants
        assert np.all(targets.y.sum(axis=1) <= 1)
        assert np.all(targets.a >= targets.y)
        assert np.all(np.diff(targets.a, axis=1) <= 0)


def test_discrete_targets_reject_time_past_horizon():
    grid = TimeGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="outside the grid"):
        build_discrete_targets([1.5], [1], grid)


# --------------------------------------------------------- discrete loss


def brute_force_discrete_loss(logits, y, a):
    clip = 1e-12
    total = 0.0
    count = 0.0
    for i in range(logits.shape[0]):
        for b in range(logits.shape[1]):
            if a[i, b] == 0:
                continue
            h = 1.0 / (1.0 + math.exp(-logits[i, b]))
            h = min(max(h, clip), 1.0 - clip)
            total += -(y[i, b] * math.log(h) + (1 - y[i, b]) * math.log(1 - h))
            count += 1.0
    return total / count


def test_discrete_loss_single_cell_examples():
    grid = TimeGrid(np.array([0.0, 1.0]))
    targets = build_discrete_targets([0.5], [1], grid)
    loss = discrete_loss(np.array([[0.0]]), targets)
    assert abs(loss - math.log(2.0)) < 1e-15
    # perfectly confident prediction on the at-risk cell: loss collapses to ~0
    loss = discrete_loss(np.array([[40.0]]), targets)
    assert loss < 1e-12


def test_discrete_loss_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n, b = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 5.0, size=b))])
        grid = TimeGrid(edges)
        times = rng.uniform(1e-3, edges[-1], size=n)
        events = rng.random(n) < 0.6
        targets = build_discrete_targets(times, events, grid)
        logits = rng.normal(scale=2.0, size=(n, b))
        expected = brute_force_discrete_loss(logits, targets.y, targets.a)
        assert abs(discrete_loss(logits, targets) - expected) < 1e-12


def test_discrete_loss_rejects_empty_mask():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    targets = build_discrete_targets([0.5], [1], grid)
    targets.a[:] = 0.0
    with pytest.raises(ValueError):
        discrete_loss(np.zeros((1, 2)), targets)


def test_discrete_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, b = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 5.0, size=b))])
        grid = TimeGrid(edges)
        times = rng.uniform(1e-3, edges[-1], size=n)
        events = rng.random(n) < 0.6
        targets = build_discrete_targets(times, events, grid)
        logits = rng.normal(size=(n, b))
        _, grad = discrete_loss_grad(logits, targets)
        h = 1e-6
        for i in range(n):
            for j in range(b):
                logits[i, j] += h
                up = discrete_loss(logits, targets)
                logits[i, j] -= 2 * h
                down = discrete_loss(logits, targets)
                logits[i, j] += h
                numeric = (up - down) / (2 * h)
                assert abs(numeric - grad[i, j]) < 1e-7


# -------------------------------------------------------------- cox loss


def brute_force_cox_loss(scores, times, events):
    """Direct Breslow partial likelihood, no log-sum-exp tricks."""
    d_total = int(np.sum(events))
    total = 0.0
    for tau in sorted(set(times[events])):
        at_tau = [i for i in range(len(times)) if times[i] == tau and events[i]]
        risk = sum(math.exp(scores[j]) for j in range(len(times)) if times[j] >= tau)
        total += sum(scores[i] for i in at_tau) - len(at_tau) * math.log(risk)
    return -total / d_total


def test_cox_two_subject_closed_form():
    loss = cox_loss(np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([1, 0]))
    assert abs(loss - math.log(2.0)) < 1e-12


def test_cox_loss_matches_brute_force_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        times, events = random_survival_data(rng, n)
        scores = rng.normal(scale=1.5, size=n)
        expected = brute_force_cox_loss(scores, times, events)
        assert abs(cox_loss(scores, times, events) - expected) < 1e-10


def test_cox_loss_rejects_zero_events():
    with pytest.raises(ValueError):
        cox_loss(np.zeros(3), np.ones(3), np.zeros(3, dtype=bool))


def test_cox_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        times, events = random_survival_data(rng, n)
        scores = rng.normal(size=n)
        _, grad = cox_loss_grad(scores, times, events)
        h = 1e-6
        for i in range(n):
            scores[i] += h
            up = cox_loss(scores, times, events)
            scores[i] -= 2 * h
            down = cox_loss(scores, times, events)
            scores[i] += h
            assert abs((up - down) / (2 * h) - grad[i]) < 1e-7


def test_cox_loss_shift_invariance():
    # partial likelihood depends only on score differences
    rng = np.random.default_rng(5)
    times, events = random_survival_data(rng, 10)
    scores = rng.normal(size=10)
    a = cox_loss(scores, times, events)
    b = cox_loss(scores + 3.7, times, events)
    assert abs(a - b) < 1e-10


# ------------------------------------------------------- breslow baseline


def test_breslow_zero_scores_equals_nelson_aalen_exactly():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        times, events = random_survival_data(rng, n)
        base = breslow_baseline(np.zeros(n), times, events)
        for tau, inc in zip(base.event_times, base.increments):
            d = np.count_nonzero((times == tau) & events)
            at_risk = np.count_nonzero(times >= tau)
            assert inc == d / at_risk


def test_breslow_matches_direct_risk_sums():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        times, events = random_survival_data(rng, n)
        scores = rng.normal(size=n)
        base = breslow_baseline(scores, times, events)
        for tau, inc in zip(base.event_times, base.increments):
            d = np.count_nonzero((times == tau) & events)
            risk = sum(math.exp(s) for s, t in zip(scores, times) if t >= tau)
            assert abs(inc - d / risk) < 1e-12 * (d / risk)


def test_breslow_cumulative_hazard_steps():
    base = BreslowBaseline(event_times=np.array([1.0, 3.0]),
                           increments=np.array([0.2, 0.3]))
    assert base.cumulative_hazard(0.5) == 0.0
    assert base.cumulative_hazard(1.0) == 0.2
    assert abs(base.cumulative_hazard(3.5) - 0.5) < 1e-15


# ---------------------------------------------------------------- curves


def test_discrete_curve_is_cumulative_product():
    rng = np.random.default_rng(8)
    grid = TimeGrid.equal_width(4, 4.0)
    logits = rng.normal(size=4)
    curve = discrete_curve(logits[None, :], grid)[0]
    h = sigmoid(logits)
    expected = [1.0]
    for k in range(4):
        expected.append(expected[-1] * (1.0 - h[k]))
    assert np.allclose(curve.values, expected, rtol=1e-15)
    assert curve.values[0] == 1.0
    assert np.all(np.diff(curve.values) <= 0)


def test_cox_curve_uses_baseline_and_score():
    base = BreslowBaseline(event_times=np.array([1.0, 2.0]),
                           increments=np.array([0.1, 0.4]))
    curve = cox_curve(np.array([0.5]), base)[0]
    assert curve.values[0] == 1.0
    expected_at_2 = math.exp(-(0.1 + 0.4) * math.exp(0.5))
    assert abs(curve.at(2.0) - expected_at_2) < 1e-15


def test_curve_at_is_right_continuous_step():
    curve = SurvivalCurve(times=np.array([0.0, 1.0, 2.0]),
                          values=np.array([1.0, 0.6, 0.2]))
    assert curve.at(0.0) == 1.0
    assert curve.at(0.999) == 1.0
    assert curve.at(1.0) == 0.6
    assert curve.at(1.5) == 0.6
    assert curve.at(2.0) == 0.2
    assert curve.at(99.0) == 0.2
    assert np.array_equal(curve.at([0.5, 1.0, 3.0]), [1.0, 0.6, 0.2])


def test_curve_at_matches_scan_oracle():
    rng = np.random.default_rng(9)
    for _ in range(15):
        k = int(rng.integers(1, 8))
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, size=k))])
        values = np.concatenate([[1.0], np.sort(rng.uniform(size=k))[::-1]])
        curve = SurvivalCurve(times=times, values=values)
        for t in rng.uniform(0, 6, size=20):
            expected = values[0]
            for edge, v in zip(times, values):
                if t >= edge:
                    expected = v
            assert curve.at(float(t)) == expected


def test_curve_validation():
    with pytest.raises(ValueError):
        SurvivalCurve(times=np.array([0.0, 1.0]), values=np.array([0.9, 0.5]))
    with pytest.raises(ValueError):
        SurvivalCurve(times=np.array([0.5, 1.0]), values=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        SurvivalCurve(times=np.array([0.0, 1.0]), values=np.array([1.0, 1.2]))
    with pytest.raises(ValueError):
        SurvivalCurve(times=np.array([0.0, 1.0, 1.0]),
                      values=np.array([1.0, 0.8, 0.6]))
    # a tiny numerical increase is tolerated and flattened, not fatal
    curve = SurvivalCurve(times=np.array([0.0, 1.0, 2.0]),
                          values=np.array([1.0, 0.5, 0.5 + 1e-15]))
    assert np.all(np.diff(curve.values) <= 0)
    assert curve.values[2] == 0.5


def test_curve_set_checks_whole_matrix():
    times = np.array([0.0, 1.0, 2.0])
    values = np.array([[1.0, 0.6, 0.2], [1.0, 1.0, 0.5]])
    curves = CurveSet(times=times, values=values)
    assert len(curves) == 2
    assert curves.values is values  # clean float64 input is not copied
    assert np.array_equal(curves.cells([0.0, 0.5, 1.0, 9.0]), [0, 0, 1, 2])
    assert np.array_equal(curves.at([0.5, 2.0]), [[1.0, 0.2], [1.0, 0.5]])
    assert isinstance(curves[1], SurvivalCurve)
    assert np.array_equal(curves[1].values, values[1])
    with pytest.raises(ValueError):
        curves.at(-0.1)
    for bad_times, bad_values in (
            (times, values[0]),                                   # not a matrix
            (times[:2], values),                                  # column count
            (times, np.array([[1.0, 0.6, 0.2], [0.9, 0.5, 0.1]])),  # S(0) != 1
            (np.array([0.0, 1.0, 1.0]), values),                  # repeated time
            (times, np.array([[1.0, 0.6, 0.2], [1.0, 0.5, 0.7]])),  # rises
            (times, np.array([[1.0, 0.6, 0.2], [1.0, 0.5, -0.1]])),  # below 0
            (times, np.array([[1.0, 0.6, np.nan], [1.0, 0.5, 0.1]]))):  # NaN
        with pytest.raises(ValueError):
            CurveSet(times=bad_times, values=bad_values)
    empty = CurveSet(times=times, values=np.empty((0, 3)))
    assert len(empty) == 0


def test_curve_set_flattens_only_bumped_rows():
    times = np.array([0.0, 1.0, 2.0])
    values = np.array([[1.0, 0.5, 0.5 + 1e-15], [1.0, 0.4, 0.3]])
    curves = CurveSet(times=times, values=values)
    assert curves.values is not values and values[0, 2] == 0.5 + 1e-15
    assert np.array_equal(curves.values, [[1.0, 0.5, 0.5], [1.0, 0.4, 0.3]])


def test_curve_set_from_curves_uses_union_grid():
    a = SurvivalCurve(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
    b = SurvivalCurve(times=np.array([0.0, 2.0]), values=np.array([1.0, 0.25]))
    curves = CurveSet.from_curves([a, b])
    assert np.array_equal(curves.times, [0.0, 1.0, 2.0])
    assert np.array_equal(curves.values, [[1.0, 0.5, 0.5], [1.0, 1.0, 0.25]])
    same = CurveSet.from_curves([a, a])
    assert np.array_equal(same.times, a.times)
    with pytest.raises(ValueError):
        CurveSet.from_curves([])


def test_set_builders_match_row_formulas():
    rng = np.random.default_rng(10)
    grid = TimeGrid.equal_width(5, 5.0)
    logits = rng.normal(size=(7, 5))
    curves = discrete_curve(logits, grid)
    assert curves.values.shape == (7, 6)
    for i in range(7):
        row = np.concatenate([[1.0], np.cumprod(1.0 - sigmoid(logits[i]))])
        assert np.array_equal(curves.values[i], row)
    with pytest.raises(ValueError):
        discrete_curve(logits[0], grid)
    base = BreslowBaseline(event_times=np.array([1.0, 2.0, 4.0]),
                           increments=np.array([0.1, 0.4, 0.2]))
    scores = rng.normal(size=6)
    curves = cox_curve(scores, base)
    assert np.array_equal(curves.times, [0.0, 1.0, 2.0, 4.0])
    for i, g in enumerate(scores):
        row = np.exp(-np.cumsum(base.increments) * np.exp(float(g)))
        assert np.array_equal(curves.values[i, 1:], row)
    with pytest.raises(ValueError):
        cox_curve(0.5, base)


def test_curve_set_restrict_is_exact_at_its_times():
    rng = np.random.default_rng(11)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, size=30))])
    values = np.hstack([np.ones((5, 1)), np.sort(rng.uniform(size=(5, 30)), axis=1)[:, ::-1]])
    curves = CurveSet(times=times, values=values)
    probe = np.concatenate([rng.uniform(0.0, 6.0, size=8), times[[3, 7]]])
    sub = curves.restrict(probe)
    assert sub.times[0] == 0.0 and sub.times.size <= probe.size + 1
    assert np.array_equal(sub.at(probe), curves.at(probe))
