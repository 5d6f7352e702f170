"""Property-based tests for curve sets (blocked concordance against the
exhaustive pairwise oracle, union-grid conversion, the invariants of blended
and averaged sets) and for the whole-array training and teacher code against
the per-element forms it replaced (Cox risk sets, Breslow increments, flat
AdamW, the flat-vector training step, sigmoid, one-draw dropout masks,
batch teacher finalisation)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.blending import DEFAULT_LAMBDA_GRID, blend_inputs, combine, mean_curve
from survfuse.distill import (HORIZONS, TeacherRecord, finalize_records, fit_parametric,
                              fit_survival_at, horizon_means, three_year_percent)
from survfuse.fusion import ModalityOutputs, early_fuse, late_fuse, late_fuse_backward
from survfuse.heads import (CurveSet, SurvivalCurve, TimeGrid, _event_time_groups,
                            breslow_baseline, build_discrete_targets, cox_loss_grad,
                            discrete_loss_grad)
from survfuse.metrics import CTD_BLOCK, IBS_BLOCK, c_td, censoring_km, ibs
from survfuse.model import init_model, model_params
from survfuse.nn import (Mlp, adamw_step, draw_dropout_masks, init_adamw, init_mlp,
                         sigmoid)
from survfuse.training import RunConfig, _learning_rate, total_loss

SEEDS = st.integers(0, 2**32 - 1)


def quantized_set(rng, n, n_times, levels):
    """Random curves on one grid with values on a 1/levels lattice (many ties)."""
    times = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 25) / 4.0,
                                                      size=n_times, replace=False))])
    drops = rng.integers(0, 2, size=(n, n_times)) * rng.integers(1, levels + 1,
                                                                  size=(n, n_times))
    steps = np.maximum(levels - np.cumsum(drops, axis=1), 0) / levels
    return CurveSet(times=times, values=np.hstack([np.ones((n, 1)), steps]))


def random_curve(rng):
    """A step curve on its own random grid."""
    k = int(rng.integers(1, 6))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 6.0, size=k))])
    values = np.concatenate([[1.0], np.sort(rng.uniform(size=k))[::-1]])
    return SurvivalCurve(times=times, values=values)


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
        s_i = curves.values[i, cell]
        s_j = curves.values[later, cell]
        num += float((s_i < s_j).sum()) + 0.5 * float((s_i == s_j).sum())
        pairs += int(later.sum())
    return num, pairs


def ibs_curve_by_curve(curves, times, events, grid_points=512):
    """The integrated Brier score evaluated one SurvivalCurve at a time."""
    n = times.size
    t_max = float(times.max())
    km = censoring_km(times, events)
    g_left = km.at_left(times)
    width = t_max / grid_points
    mids = (np.arange(grid_points) + 0.5) * width
    surv = np.empty((n, grid_points), dtype=np.float64)
    for k, curve in enumerate(curves):
        surv[k, :] = curve.at(mids)
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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3 * CTD_BLOCK), n_times=st.integers(1, 8),
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
       grid_points=st.one_of(st.just(512), st.integers(1, 4 * IBS_BLOCK)), seed=SEEDS)
def test_metrics_on_union_grid_equal_curve_by_curve(n, event_p, grid_points, seed):
    rng = np.random.default_rng(seed)
    curves = [random_curve(rng) for _ in range(n)]
    times, events = outcomes(rng, n, event_p)
    curve_set = CurveSet.from_curves(curves)
    # the union grid reproduces every curve at every time
    probe = rng.uniform(0.0, 7.0, size=30)
    for i, curve in enumerate(curves):
        assert np.array_equal(curve_set.at(probe)[i], curve.at(probe))
    num, pairs = 0.0, 0
    for i in np.flatnonzero(events):
        s_i = float(curves[i].at(times[i]))
        for j in np.flatnonzero(times > times[i]):
            s_j = float(curves[j].at(times[i]))
            num += 1.0 if s_i < s_j else (0.5 if s_i == s_j else 0.0)
            pairs += 1
    if pairs:
        assert c_td(curve_set, times, events) == num / pairs
    assert (ibs(curve_set, times, events, grid_points).value
            == ibs_curve_by_curve(curves, times, events, grid_points))


def assert_valid(curves: CurveSet):
    assert np.all(curves.values[:, 0] == 1.0)
    assert np.all(np.diff(curves.values, axis=1) <= 0.0)
    assert curves.values.min() >= 0.0 and curves.values.max() <= 1.0


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
    hidden = CurveSet(times=times, values=np.hstack([np.ones((n, 1)),
                                                     np.exp(-np.cumsum(drops, axis=1))]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        blend_in, verb_eval, n_present = blend_inputs(hidden, percents[:n])
    blended = combine(hidden, blend_in, lam)
    # the raw convex combination already satisfies every invariant
    assert np.array_equal(blended.values, (1.0 - lam) * hidden.values + lam * blend_in.values)
    for curves in (blend_in, blended, mean_curve(hidden), mean_curve(blend_in)):
        assert_valid(curves)
    if n_present:
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
    cleaned = CurveSet(times=times, values=values).values
    assert np.array_equal(values, before)  # the caller's array is untouched
    assert np.array_equal(cleaned, np.minimum.accumulate(np.clip(before, 0.0, 1.0), axis=1))


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
        state.layout.scatter(flat, params)
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


def reference_step_grads(parts, batch, alpha, rng):
    """Per-tensor gradients of the joint objective; `parts` holds plain Mlps."""
    head_type, late, modalities = parts["head_type"], parts["late"], parts["modalities"]
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
            out_m, caches[m] = reference_forward(mlp, inputs[m], reference_masks(mlp, n, rng))
            outs[m] = out_m if head_type == "discrete" else out_m[:, 0]
        out = late_fuse(ModalityOutputs(**outs), gates)
    else:
        x = early_fuse(z_text=inputs.get("text"), x_cov=inputs.get("cov"),
                       z_ge=inputs.get("ge"))
        out, cache = reference_forward(heads["head"], x, reference_masks(heads["head"], n, rng))
        if head_type == "coxph":
            out = out[:, 0]
    if head_type == "discrete":
        _, grad_out = discrete_loss_grad(out, batch["targets"])
    else:
        _, grad_out = cox_loss_grad(out, batch["times"], batch["events"])

    grads = {}
    grad_z_ge = None
    if late:
        fusion_grads = late_fuse_backward(grad_out, ModalityOutputs(**outs), gates)
        grads["gates.inner"] = fusion_grads.inner_logit
        grads["gates.outer"] = fusion_grads.outer_logit
        for m in modalities:
            g = getattr(fusion_grads.outputs, m)
            g = g[:, None] if head_type == "coxph" else g
            grad_in = reference_backward(heads[f"head_{m}"], caches[m], g, f"head_{m}", grads)
            if m == "ge":
                grad_z_ge = grad_in
    else:
        g = grad_out[:, None] if head_type == "coxph" else grad_out
        grad_in = reference_backward(heads["head"], cache, g, "head", grads)
        if "ge" in modalities:
            grad_z_ge = grad_in[:, -enc.out_dim:]
    if enc is not None:
        x = batch["ge"]
        grad_recon = alpha * 2.0 * (recon - x) / (x.shape[0] * x.shape[1])
        grad_z = reference_backward(dec, dec_cache, grad_recon, "dec", grads) + grad_z_ge
        reference_backward(enc, enc_cache, grad_z, "enc", grads)
    return grads


FUSIONS = [("late", ("text", "cov", "ge")), ("late", ("text", "ge")), ("late", ("text", "cov")),
           ("early", ("text", "cov", "ge")), ("early", ("cov", "ge")),
           ("none", ("text",)), ("none", ("cov",)), ("none", ("ge",))]
STEP_DIMS = {"text": 5, "cov": 3, "ge": 7}


@settings(max_examples=60, deadline=None)
@given(head_type=st.sampled_from(["discrete", "coxph"]), fusion=st.sampled_from(FUSIONS),
       dropout=st.sampled_from([0.0, 0.3]), ae_dropout=st.sampled_from([0.0, 0.2]),
       n=st.integers(2, 12), steps=st.integers(1, 4), seed=SEEDS)
def test_flat_training_step_equals_per_tensor_reference(head_type, fusion, dropout, ae_dropout,
                                                        n, steps, seed):
    fusion, modalities = fusion
    config = RunConfig(head=head_type, fusion=fusion, modalities=modalities, n_bins=4,
                       dropout=dropout, ae_dropout=ae_dropout, lr_head=0.05, lr_gates=0.2,
                       lr_ae=0.01, weight_decay=0.1)
    rng = np.random.default_rng(seed)
    model = init_model(head_type, fusion, modalities, STEP_DIMS, rng, n_bins=4,
                       head_layers=[6, 5], dropout=dropout, ae_hidden=[4], latent_dim=3,
                       ae_dropout=ae_dropout)
    for arr in model_params(model).values():
        arr += rng.normal(scale=0.3, size=arr.shape)  # gates and biases off zero
    ref = {name: arr.copy() for name, arr in model_params(model).items()}

    def plain_mlp(prefix, mlp):
        return Mlp([ref[f"{prefix}.w{i}"] for i in range(len(mlp.weights))],
                   [ref[f"{prefix}.b{i}"] for i in range(len(mlp.biases))], mlp.dropout)

    parts = {"head_type": head_type, "late": model.gates is not None,
             "modalities": model.modalities,
             "heads": {name: plain_mlp(name, mlp) for name, mlp in model.heads.items()},
             "enc": plain_mlp("enc", model.ae.encoder) if model.ae else None,
             "dec": plain_mlp("dec", model.ae.decoder) if model.ae else None,
             "gates": (type(model.gates)(ref["gates.inner"], ref["gates.outer"])
                       if model.gates is not None else None)}
    times = rng.uniform(0.1, 4.0, size=n)
    events = rng.random(n) < 0.6
    events[0] = True
    batch = {m: rng.normal(size=(n, STEP_DIMS[m])) for m in modalities}
    batch.update(times=times, events=events,
                 targets=build_discrete_targets(times, events, TimeGrid.equal_width(4, 5.0)))

    lr = _learning_rate(config)
    opt = init_adamw(model_params(model), lr, weight_decay=config.weight_decay)
    m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    rng_flat, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for step in range(1, steps + 1):
        _, _, grads = total_loss(model, batch, config, rng=rng_flat)
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
@given(n_rows=st.integers(0, 12), hidden=st.lists(st.integers(1, 9), max_size=4),
       dropout=st.sampled_from([0.0, 0.1, 0.5, 0.9]), seed=SEEDS)
def test_one_draw_masks_equal_per_layer_draws(n_rows, hidden, dropout, seed):
    mlp = init_mlp(3, hidden, 2, np.random.default_rng(0), dropout=dropout)
    one, per_layer = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_dropout_masks(mlp, n_rows, one)
    want = reference_masks(mlp, n_rows, per_layer)
    if want is None:
        assert got is None
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
    assert one.bit_generator.state == per_layer.bit_generator.state


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


PROBS = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 0.5, 1e-7]),
                  st.integers(0, 100).map(lambda p: p / 100.0), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(PROBS, PROBS, PROBS), min_size=1, max_size=40))
def test_batch_finalisation_equals_per_record_path(rows):
    records = [TeacherRecord(sample_id=str(i), responses={}, explanation="",
                             probs=dict(zip(HORIZONS, row))) for i, row in enumerate(rows)]
    pool = [r.probs for r in records if r.any_extracted()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if len(pool) < len(records):
            try:
                means = horizon_means(pool)
            except ValueError:  # some horizon has no extraction anywhere
                with pytest.raises(ValueError):
                    finalize_records(records)
                return
        else:
            means = {}
        finalize_records(records)
        for rec in records:
            completed, rate, percent = per_record_finalize(rec.probs, means)
            assert rec.percent == percent
            assert np.all(np.abs(np.array(rec.completed) - completed)
                          <= 4 * np.spacing(np.abs(completed)))
            assert abs(rec.rate - rate) <= 4 * np.spacing(abs(rate))
