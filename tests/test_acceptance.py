"""Acceptance gate: one test per release criterion.

Each test pins the tolerance it guarantees; the conftest hook prints a
PASS/FAIL line per criterion after the run. Criteria 1, 2, and 6 also carry
wall-clock budgets that the tests enforce.
"""

import math
import time

import numpy as np
import pytest

from survfuse import synth, training
from survfuse.autoencoder import init_autoencoder, reconstruction_loss_grad
from survfuse.blending import blend_inputs
from survfuse.cohort import load_cohort, pool_text, split_cohort
from survfuse.distill import (build_target_sequence, calibration_mask,
                              extract_probability, fit_parametric,
                              weighted_text_loss_grad)
from survfuse.fusion import FusionGates, ModalityOutputs, late_fuse
from survfuse.heads import (TimeGrid, breslow_baseline, build_discrete_targets, cox_loss,
                            discrete_loss_grad, cox_loss_grad)
from survfuse.metrics import c_td, ibs
from survfuse.model import init_model, model_backward, model_forward, model_params
from survfuse.nn import finite_difference_check, mlp_forward
from stepcurves import curve, curve_at, stack

pytestmark = pytest.mark.filterwarnings(
    "ignore:survival value", "ignore:verbalized probability")

GRAD_TOL = 1e-4


def randomize(model, rng):
    """Shift every parameter off the ReLU kinks and zero plateaus."""
    for arr in model_params(model).values():
        arr += rng.normal(scale=0.2, size=arr.shape)


def random_step_curve(rng, quantized=False):
    n_drops = int(rng.integers(1, 4))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 6.0, size=n_drops))])
    if quantized:
        levels = np.sort(rng.choice(np.arange(1, 8) / 8.0, size=n_drops))[::-1]
    else:
        levels = np.sort(rng.uniform(0.05, 0.95, size=n_drops))[::-1]
    return curve(times, np.concatenate([[1.0], levels]))


# ------------------------------------------------------------- criterion 1

def test_criterion_1_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = {"disc": 0.0, "cox": 0.0, "ae": 0.0, "text": 0.0, "gates": 0.0}

    for _ in range(20):
        n, bins = int(rng.integers(3, 12)), int(rng.integers(2, 8))
        grid = TimeGrid.equal_width(bins, 5.0)
        times = rng.uniform(0.2, 5.0, size=n)
        events = rng.random(n) < 0.6
        events[0] = True
        targets = build_discrete_targets(times, events, grid)
        params = {"logits": rng.normal(size=(n, bins))}

        def disc_fn(p):
            loss, grad = discrete_loss_grad(p["logits"], targets)
            return loss, {"logits": grad}

        worst["disc"] = max(worst["disc"], finite_difference_check(
            disc_fn, params, probes=6, h=1e-6, rng=rng))

    for _ in range(20):
        n = int(rng.integers(3, 12))
        times = rng.uniform(0.2, 5.0, size=n)
        events = rng.random(n) < 0.6
        events[0] = True
        params = {"scores": rng.normal(size=n)}

        def cox_fn(p):
            loss, grad = cox_loss_grad(p["scores"], times, events)
            return loss, {"scores": grad}

        worst["cox"] = max(worst["cox"], finite_difference_check(
            cox_fn, params, probes=6, h=1e-6, rng=rng))

    for _ in range(20):
        d = int(rng.integers(4, 9))
        ae = init_autoencoder(d, rng, hidden=[6], latent_dim=3)
        x = rng.normal(size=(int(rng.integers(3, 8)), d))
        params = {}
        for half, mlp in (("enc", ae.encoder), ("dec", ae.decoder)):
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                w += rng.normal(scale=0.2, size=w.shape)
                b += rng.normal(scale=0.2, size=b.shape)
                params[f"{half}.w{i}"] = w
                params[f"{half}.b{i}"] = b

        def ae_fn(p, ae=ae, x=x):
            loss, enc_g, dec_g = reconstruction_loss_grad(ae, x)
            grads = {}
            for half, g in (("enc", enc_g), ("dec", dec_g)):
                for i, (w, b) in enumerate(zip(g.weights, g.biases)):
                    grads[f"{half}.w{i}"] = w
                    grads[f"{half}.b{i}"] = b
            return loss, grads

        worst["ae"] = max(worst["ae"], finite_difference_check(
            ae_fn, params, probes=6, h=1e-6, rng=rng))

    for _ in range(20):
        n_tok = int(rng.integers(4, 40))
        vprob = rng.random(n_tok) < 0.4
        num = vprob & (rng.random(n_tok) < 0.4)
        params = {"nll": rng.uniform(0.01, 4.0, size=n_tok)}

        def text_fn(p):
            loss, grad = weighted_text_loss_grad(p["nll"], vprob, num)
            return loss, {"nll": grad}

        worst["text"] = max(worst["text"], finite_difference_check(
            text_fn, params, probes=6, h=1e-6, rng=rng))

    # gate logits, propagated through the full fused survival loss with
    # dropout active and its masks held fixed across every evaluation
    for trial in range(20):
        head = "discrete" if trial % 2 == 0 else "coxph"
        bins = 4 if head == "discrete" else None
        dims = {"text": 5, "cov": 3, "ge": 7}
        model = init_model(head, "late", ("text", "cov", "ge"), dims, rng,
                           n_bins=bins, head_layers=[6], dropout=0.3,
                           ae_hidden=[6], latent_dim=3)
        randomize(model, rng)
        n = int(rng.integers(4, 10))
        batch = {m: rng.normal(size=(n, d)) for m, d in dims.items()}
        times = rng.uniform(0.2, 5.0, size=n)
        events = rng.random(n) < 0.6
        events[0] = True
        targets = (build_discrete_targets(times, events, TimeGrid.equal_width(4, 5.0))
                   if head == "discrete" else None)
        mask_seed = int(rng.integers(1 << 30))
        gate_params = {"gates.inner": model.gates.inner_logit,
                       "gates.outer": model.gates.outer_logit}

        def gate_fn(p, model=model, batch=batch, targets=targets,
                    times=times, events=events, mask_seed=mask_seed):
            fwd = model_forward(model, batch, rng=np.random.default_rng(mask_seed))
            if targets is not None:
                loss, grad_out = discrete_loss_grad(fwd.out, targets)
            else:
                loss, grad_out = cox_loss_grad(fwd.out, times, events)
            grads = model_backward(model, fwd, grad_out)
            return loss, grads

        worst["gates"] = max(worst["gates"], finite_difference_check(
            gate_fn, gate_params, probes=6, h=1e-6, rng=rng))

    assert all(err < GRAD_TOL for err in worst.values()), worst
    assert time.perf_counter() - started < 30.0


# ------------------------------------------------------------- criterion 2

def test_criterion_2_metrics_match_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(202)

    for trial in range(100):
        n = int(rng.integers(2, 101))
        if trial % 2 == 0:
            times = rng.uniform(1.0, 6.0, size=n)
        else:
            times = rng.choice(np.arange(1.0, 6.0), size=n)
        times[0] = 0.5
        events = rng.random(n) < 0.6
        events[0] = True
        curves = [random_step_curve(rng, quantized=trial % 2 == 1)
                  for _ in range(n)]

        num = 0.0
        pairs = 0
        for i in range(n):
            if not events[i]:
                continue
            s_i = float(curve_at(curves[i], times[i]))
            for j in range(n):
                if times[j] > times[i]:
                    pairs += 1
                    s_j = float(curve_at(curves[j], times[i]))
                    num += 1.0 if s_i < s_j else (0.5 if s_i == s_j else 0.0)
        assert c_td(stack(curves), times, events) == num / pairs

    # quadrature converges: successive grid doublings agree to 1e-4
    n = 60
    times = rng.uniform(0.5, 6.0, size=n)
    events = rng.random(n) < 0.5
    events[0] = True
    curves = stack(random_step_curve(rng) for _ in range(n))
    at_512 = ibs(curves, times, events, grid_points=512).value
    at_1024 = ibs(curves, times, events, grid_points=1024).value
    at_2048 = ibs(curves, times, events, grid_points=2048).value
    assert abs(at_1024 - at_512) < 1e-4
    assert abs(at_2048 - at_1024) < 1e-4

    # closed form: S == 1/2 everywhere, one uncensored subject -> 1/4
    half = curve([0.0, 1e-6], [1.0, 0.5])
    result = ibs(half, np.array([4.0]), np.array([True]))
    assert result.value == 0.25
    assert result.dropped_terms == 0
    assert time.perf_counter() - started < 30.0


# ------------------------------------------------------------- criterion 3

def test_criterion_3_closed_form_losses():
    loss = cox_loss(np.zeros(2), np.array([1.0, 2.0]), np.array([True, False]))
    assert abs(loss - math.log(2.0)) < 1e-12

    rng = np.random.default_rng(303)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        times = rng.choice(np.arange(1.0, 6.0), size=n)
        events = rng.random(n) < 0.7
        events[0] = True
        baseline = breslow_baseline(np.zeros(n), times, events)
        taus = np.unique(times[events])
        d = np.array([np.count_nonzero((times == tau) & events) for tau in taus],
                     dtype=np.float64)
        at_risk = np.array([np.count_nonzero(times >= tau) for tau in taus],
                           dtype=np.float64)
        assert np.array_equal(baseline.event_times, taus)
        assert np.array_equal(baseline.increments, d / at_risk)

    grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    cases = [
        (1.5, True, (0, 1, 0), (1, 1, 0)),
        (1.5, False, (0, 0, 0), (1, 1, 0)),
        (3.0, True, (0, 0, 1), (1, 1, 1)),
    ]
    for t, e, want_y, want_a in cases:
        targets = build_discrete_targets(np.array([t]), np.array([e]), grid)
        assert np.array_equal(targets.y[0], np.array(want_y, dtype=np.float64))
        assert np.array_equal(targets.a[0], np.array(want_a, dtype=np.float64))


# ------------------------------------------------------------- criterion 4

def test_criterion_4_parametric_fit_recovery():
    rng = np.random.default_rng(404)
    t = np.array([0.5, 1.0, 2.0, 3.0])
    for _ in range(20):
        rate = float(10.0 ** rng.uniform(-2.0, 0.3))
        fit = fit_parametric(list(zip(t, np.exp(-rate * t))), "exponential")
        assert abs(fit.rate - rate) / rate < 1e-9

        scale = float(rng.uniform(1.0, 6.0))
        shape = float(rng.uniform(0.4, 3.0))
        s = np.exp(-((t / scale) ** shape))
        fit = fit_parametric(list(zip(t, s)), "weibull")
        assert abs(fit.scale - scale) / scale < 1e-9
        assert abs(fit.shape - shape) / shape < 1e-9

        s = 1.0 / (1.0 + (t / scale) ** shape)
        fit = fit_parametric(list(zip(t, s)), "loglogistic")
        assert abs(fit.scale - scale) / scale < 1e-9
        assert abs(fit.shape - shape) / shape < 1e-9

    assert abs(fit_parametric([(3.0, 0.5)], "exponential").rate
               - math.log(2.0) / 3.0) < 1e-12
    geometric = [(1.0, 0.9), (3.0, 0.729), (5.0, 0.59049)]
    assert abs(fit_parametric(geometric, "exponential").rate
               + math.log(0.9)) < 1e-12


# ------------------------------------------------------------- criterion 5

def test_criterion_5_target_round_trip_and_mask():
    for percent in range(101):
        seq = build_target_sequence("Findings consistent with stable disease.",
                                    percent)
        assert extract_probability(seq.target) == percent / 100.0

    for pct in (30.0, 50.0, 70.0):
        for t in (2.0, 4.0):
            for e in (True, False):
                expect_excluded = ((e and t < 3.0 and pct > 50.0)
                                   or (t >= 3.0 and pct < 50.0))
                assert calibration_mask(pct, t, e) is (not expect_excluded)
    # exactly-threshold estimates are never excluded
    for t in (1.0, 2.9, 3.0, 9.0):
        for e in (True, False):
            assert calibration_mask(50.0, t, e) is True


# ------------------------------------------------------------- criterion 6

def synth_cohort(out_dir, calibration_shift=0.0):
    spec = synth.GeneratorSpec(n=2000, seed=7, calibration_shift=calibration_shift)
    result = synth.generate(spec, str(out_dir))
    cohort = load_cohort(result.files["outcomes"],
                         covariates_path=result.files["covariates"],
                         ge_path=result.files["ge"],
                         hidden_states_path=result.files["hidden"],
                         teacher_path=result.files["teacher"])
    pool_text(cohort)
    split = split_cohort(len(cohort), seed=0)
    return cohort, split


def run_config(**overrides):
    base = dict(head="discrete", n_bins=20, epochs=60, patience=10,
                batch_size=64, head_layers=(64, 32), dropout=0.1,
                ae_hidden=(32,), latent_dim=8, seed=11)
    base.update(overrides)
    return training.RunConfig(**base)


def test_criterion_6_synthetic_end_to_end(tmp_path):
    started = time.perf_counter()
    cohort, split = synth_cohort(tmp_path / "honest")

    unimodal = {}
    for m in ("text", "cov", "ge"):
        report = training.train_and_evaluate(
            run_config(fusion="none", modalities=(m,)), cohort, split)[1]
        unimodal[m] = report.channels["hidden"].c_td

    late_cfg = run_config(fusion="late", modalities=("text", "cov", "ge"))
    result = training.train(late_cfg, cohort, split)
    percents = training.finalize_teacher(cohort)
    late = training.evaluate(result, cohort, split, late_cfg)

    # (a) fusing the modalities beats every single-modality model clearly
    assert late.channels["hidden"].c_td >= max(unimodal.values()) + 0.03

    # (b) the blend weight is chosen on a grid containing 0 and 1, so the
    # combined validation concordance can never fall below either channel
    val_data = training._split_data(cohort, split.val, late_cfg, result.grid)
    hidden_val = training.predict_curves(result, cohort, split.val, late_cfg)
    val_pct = percents[split.val]
    blend_val, _, _ = blend_inputs(hidden_val, val_pct)
    t_val, e_val = val_data["times"], val_data["events"]
    hidden_val_ctd = c_td(hidden_val, t_val, e_val)
    verb_val_ctd = c_td(blend_val, t_val, e_val)
    assert late.lambda_val_ctd >= hidden_val_ctd
    assert late.lambda_val_ctd >= verb_val_ctd

    # (c) with a miscalibrated teacher, turning the contradiction mask on
    # must not cost the hidden channel more than 0.01 concordance
    shifted_cohort, shifted_split = synth_cohort(tmp_path / "shifted",
                                                 calibration_shift=2.0)
    plain = training.train_and_evaluate(
        run_config(fusion="late", modalities=("text", "cov", "ge")),
        shifted_cohort, shifted_split)[1]
    corrected = training.train_and_evaluate(
        run_config(fusion="late", modalities=("text", "cov", "ge"),
                   calibration_correction=True),
        shifted_cohort, shifted_split)[1]
    assert corrected.masked_samples > 0 and plain.masked_samples == 0
    degradation = plain.channels["hidden"].c_td - corrected.channels["hidden"].c_td
    assert degradation <= 0.01

    assert time.perf_counter() - started < 600.0


# ------------------------------------------------------------- criterion 7

def test_criterion_7_training_is_deterministic(tmp_path):
    spec = synth.GeneratorSpec(n=400, seed=5)
    result = synth.generate(spec, str(tmp_path))
    cohort = load_cohort(result.files["outcomes"],
                         covariates_path=result.files["covariates"],
                         ge_path=result.files["ge"],
                         hidden_states_path=result.files["hidden"],
                         teacher_path=result.files["teacher"])
    pool_text(cohort)
    split = split_cohort(len(cohort), seed=0)
    config = run_config(fusion="late", modalities=("text", "cov", "ge"),
                        epochs=8, patience=4)
    first = training.train_and_evaluate(config, cohort, split)[1]
    second = training.train_and_evaluate(config, cohort, split)[1]
    assert first.to_dict() == second.to_dict()


# ------------------------------------------------------------- criterion 8

def test_criterion_8_saturated_gates_pick_one_modality():
    rng = np.random.default_rng(808)

    for shape in ((), (6,)):
        outs = ModalityOutputs(text=rng.normal(size=(7,) + shape),
                               cov=rng.normal(size=(7,) + shape),
                               ge=rng.normal(size=(7,) + shape))
        picks = [("text", -800.0, -800.0), ("cov", 800.0, -800.0),
                 ("ge", 800.0, 800.0)]
        for name, inner, outer in picks:
            gates = FusionGates(inner_logit=np.full(shape, inner),
                                outer_logit=np.full(shape, outer))
            assert np.array_equal(late_fuse(outs, gates), getattr(outs, name))

    dims = {"text": 6, "cov": 4, "ge": 10}
    for head, bins in (("discrete", 5), ("coxph", None)):
        model = init_model(head, "late", ("text", "cov", "ge"), dims, rng,
                           n_bins=bins, head_layers=[8], dropout=0.0,
                           ae_hidden=[6], latent_dim=3)
        randomize(model, rng)
        batch = {m: rng.normal(size=(5, d)) for m, d in dims.items()}

        model.gates.inner_logit[...] = -800.0
        model.gates.outer_logit[...] = -800.0
        text_out, _ = mlp_forward(model.heads["head_text"], batch["text"])
        if head == "coxph":
            text_out = text_out[:, 0]
        assert np.array_equal(model_forward(model, batch).out, text_out)

        model.gates.outer_logit[...] = 800.0
        z, _ = mlp_forward(model.ae.encoder, batch["ge"])
        ge_out, _ = mlp_forward(model.heads["head_ge"], z)
        if head == "coxph":
            ge_out = ge_out[:, 0]
        assert np.array_equal(model_forward(model, batch).out, ge_out)
