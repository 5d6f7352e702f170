"""Tests for model assembly: head/gate/autoencoder wiring, the shared
forward pass, and end-to-end parameter gradients."""

import numpy as np
import pytest

from survfuse.model import (
    ModelForward,
    gate_values,
    init_model,
    model_backward,
    model_forward,
    model_params,
)
from survfuse.nn import Workspace, mlp_forward, sigmoid
from survfuse.training import RunConfig
from gradcheck import finite_difference_check

DIMS = {"text": 6, "cov": 4, "ge": 10}
ARCH = {"head_layers": [7, 6], "dropout": 0.0, "ae_hidden": [8, 5], "latent_dim": 3,
        "ae_dropout": 0.0}


def build(width=5, fusion="late", modalities=("text", "cov", "ge"),
          dropout=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return init_model(fusion, modalities, DIMS, rng, width, **{**ARCH, "dropout": dropout})


def batch_for(model, n=9, seed=1):
    rng = np.random.default_rng(seed)
    return {m: rng.normal(size=(n, DIMS[m])) for m in model.modalities}


def randomize_biases(model, seed=2):
    """Shift biases off zero so no ReLU preactivation sits on the kink."""
    rng = np.random.default_rng(seed)
    for name, arr in model_params(model).items():
        if ".b" in name or name.startswith("gates."):
            arr += rng.normal(scale=0.2, size=arr.shape)


# -------------------------------------------------------------- construction

def test_init_late_fusion_discrete():
    model = build()
    assert set(model.heads) == {"head_text", "head_cov", "head_ge"}
    assert model.heads["head_text"].weights[0].shape == (6, 7)
    assert model.heads["head_cov"].weights[0].shape == (4, 7)
    # the ge head consumes the autoencoder latent, not the raw expression
    assert model.heads["head_ge"].weights[0].shape == (3, 7)
    assert all(h.weights[-1].shape == (6, 5) for h in model.heads.values())
    assert model.gates.inner_logit.shape == (5,)
    assert model.gates.outer_logit.shape == (5,)
    enc = model.ae.encoder
    assert [w.shape for w in enc.weights] == [(10, 8), (8, 5), (5, 3)]
    dec = model.ae.decoder
    assert [w.shape for w in dec.weights] == [(3, 5), (5, 8), (8, 10)]
    assert model.heads["head_text"].out_dim == 5


def test_init_one_output_has_one_gate_logit_each():
    # a Cox head's width: one score per sample, blended by one-element gates
    model = build(width=1)
    assert model.gates.inner_logit.shape == (1,)
    assert model.gates.outer_logit.shape == (1,)
    assert all(h.weights[-1].shape == (6, 1) for h in model.heads.values())
    assert model.heads["head_text"].out_dim == 1


def test_init_early_fusion_single_head():
    model = build(fusion="early")
    assert set(model.heads) == {"head"}
    # concatenated width: text 6 + cov 4 + latent 3
    assert model.heads["head"].weights[0].shape == (13, 7)
    assert model.gates is None
    assert model.ae is not None


def test_init_single_modality_collapses():
    model = build(fusion="none", modalities=("text",))
    assert set(model.heads) == {"head"}
    assert model.ae is None and model.gates is None
    # late fusion with one modality degenerates to the single head too
    model = build(fusion="late", modalities=("cov",))
    assert set(model.heads) == {"head"} and model.gates is None


def test_init_normalizes_modality_order():
    model = build(modalities=("ge", "text"))
    assert model.modalities == ("text", "ge")


def test_init_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        init_model("late", (), DIMS, rng, 5, **ARCH)
    with pytest.raises(ValueError):
        init_model("middle", ("text",), DIMS, rng, 5, **ARCH)
    with pytest.raises(ValueError):
        init_model("none", ("text", "cov"), DIMS, rng, 5, **ARCH)
    with pytest.raises(ValueError):
        init_model("late", ("text",), DIMS, rng, 0, **ARCH)
    with pytest.raises(ValueError):
        init_model("late", ("text",), {"cov": 4}, rng, 5, **ARCH)


@pytest.mark.parametrize("head, fusion, modalities, message", [
    ("discrete", "late", ("audio",), "bad modalities"),
    ("discrete", "middle", ("text",), "unknown fusion 'middle'"),
    ("discrete", "late", (), "bad modalities"),
    ("discrete", "late", ("text", "audio"), "bad modalities"),
    ("coxph", "none", ("text", "cov"), "fusion 'none' requires a single modality"),
])
def test_run_config_and_model_reject_the_same_structures(head, fusion, modalities, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(head=head, fusion=fusion, modalities=modalities)
    with pytest.raises(ValueError, match=message):
        init_model(fusion, modalities, DIMS, np.random.default_rng(0), 5, **ARCH)


def test_model_params_are_live_views():
    model = build()
    params = model_params(model)
    expected = {f"{h}.{kind}{i}" for h in ("head_text", "head_cov", "head_ge")
                for kind in ("w", "b") for i in range(3)}
    expected |= {f"{p}.{kind}{i}" for p in ("enc", "dec")
                 for kind in ("w", "b") for i in range(3)}
    expected |= {"gates.inner", "gates.outer"}
    assert set(params) == expected
    params["head_text.w0"] += 1.0
    assert model.heads["head_text"].weights[0][0, 0] == params["head_text.w0"][0, 0]
    params["gates.inner"] += 0.7
    assert np.all(model.gates.inner_logit == 0.7)


# ------------------------------------------------------------------ forward

def test_forward_late_matches_manual_composition():
    model = build()
    randomize_biases(model)
    batch = batch_for(model)
    fwd = model_forward(model, batch, work=Workspace())
    z_ge = mlp_forward(model.ae.encoder, batch["ge"])
    outs = {}
    for m, x in (("text", batch["text"]), ("cov", batch["cov"]), ("ge", z_ge)):
        outs[m] = mlp_forward(model.heads[f"head_{m}"], x)
    g_cov, g_ge = sigmoid(model.gates.inner_logit), sigmoid(model.gates.outer_logit)
    expect = (1.0 - g_ge) * ((1.0 - g_cov) * outs["text"] + g_cov * outs["cov"]) + g_ge * outs["ge"]
    assert np.array_equal(fwd.out, expect)
    assert fwd.out.shape == (9, 5)
    recon = mlp_forward(model.ae.decoder, z_ge)
    assert np.array_equal(fwd.recon, recon)


def test_forward_coxph_late_shapes():
    model = build(width=1)
    randomize_biases(model)
    fwd = model_forward(model, batch_for(model))
    assert fwd.out.shape == (9, 1)


def test_forward_early_matches_concatenated_head():
    model = build(fusion="early")
    randomize_biases(model)
    batch = batch_for(model)
    fwd = model_forward(model, batch)
    z_ge = mlp_forward(model.ae.encoder, batch["ge"])
    x = np.concatenate([batch["text"], batch["cov"], z_ge], axis=1)
    expect = mlp_forward(model.heads["head"], x)
    assert np.array_equal(fwd.out, expect)


def test_forward_single_modality():
    model = build(fusion="none", modalities=("text",), width=1)
    randomize_biases(model)
    batch = batch_for(model)
    fwd = model_forward(model, batch)
    expect = mlp_forward(model.heads["head"], batch["text"])
    assert np.array_equal(fwd.out, expect)


def test_forward_requires_all_modalities():
    model = build()
    batch = batch_for(model)
    del batch["cov"]
    with pytest.raises(ValueError, match="cov"):
        model_forward(model, batch)


def test_forward_dropout_draws_from_rng():
    model = build(dropout=0.4)
    randomize_biases(model)
    batch = batch_for(model)
    eval_out = model_forward(model, batch).out
    train_a = model_forward(model, batch, rng=np.random.default_rng(9), work=Workspace()).out
    train_b = model_forward(model, batch, rng=np.random.default_rng(9), work=Workspace()).out
    assert np.array_equal(train_a, train_b)
    assert not np.array_equal(train_a, eval_out)


def test_dropout_needs_a_training_forward():
    model = build(dropout=0.4)
    with pytest.raises(ValueError, match="pass a workspace"):
        model_forward(model, batch_for(model), rng=np.random.default_rng(9))


@pytest.mark.parametrize("fusion", ["late", "early"])
def test_backward_needs_the_workspace_a_training_forward_wrote(fusion):
    model = build(fusion=fusion)
    batch = batch_for(model)
    inference = model_forward(model, batch)
    assert inference.work is None and inference.recon is None
    grad_out = np.ones_like(inference.out)
    with pytest.raises(ValueError, match="inference forward keeps nothing"):
        model_backward(model, inference, grad_out)
    unwritten = ModelForward(out=inference.out, head_outputs=inference.head_outputs,
                             recon=None, work=Workspace())
    with pytest.raises(ValueError, match="no (training forward|late_fuse) wrote"):
        model_backward(model, unwritten, grad_out)


def test_gate_values_reporting():
    model = build()
    values = gate_values(model)
    assert values == {"inner": [0.5] * 5, "outer": [0.5] * 5}
    assert gate_values(build(fusion="early")) is None


# ----------------------------------------------------------------- gradients

def linear_probe_loss(model, batch, with_recon, seed=3):
    """Scalar loss sum(W_out * out) (+ sum(W_rec * recon)) and its gradients."""
    rng = np.random.default_rng(seed)
    fwd0 = model_forward(model, batch, work=Workspace())
    w_out = rng.normal(size=fwd0.out.shape)
    w_rec = rng.normal(size=fwd0.recon.shape) if with_recon else None

    def loss_fn(params):
        fwd = model_forward(model, batch, work=Workspace())
        loss = float((w_out * fwd.out).sum())
        if w_rec is not None:
            loss += float((w_rec * fwd.recon).sum())
        grads = model_backward(model, fwd, w_out,
                               grad_recon=w_rec if w_rec is not None else None)
        return loss, grads

    return loss_fn


@pytest.mark.parametrize("head_type,fusion,modalities,with_recon", [
    ("discrete", "late", ("text", "cov", "ge"), True),
    ("coxph", "late", ("text", "cov", "ge"), True),
    ("discrete", "early", ("text", "cov", "ge"), True),
    ("coxph", "early", ("text", "cov", "ge"), False),
    ("discrete", "late", ("text", "cov"), False),
    ("discrete", "late", ("text", "ge"), True),
    ("coxph", "none", ("cov",), False),
])
def test_backward_matches_finite_differences(head_type, fusion, modalities, with_recon):
    model = build(width=5 if head_type == "discrete" else 1, fusion=fusion,
                  modalities=modalities)
    randomize_biases(model)
    batch = batch_for(model, n=7)
    loss_fn = linear_probe_loss(model, batch, with_recon)
    params = model_params(model)
    worst = finite_difference_check(loss_fn, params, probes=30, h=1e-6,
                                    rng=np.random.default_rng(4))
    assert worst < 1e-4


def test_backward_unused_decoder_gets_zero_grads():
    # without a reconstruction term the decoder contributes nothing, but its
    # gradient entries must still exist (the optimizer walks all parameters)
    model = build(fusion="early")
    randomize_biases(model)
    batch = batch_for(model)
    fwd = model_forward(model, batch, work=Workspace())
    grads = model_backward(model, fwd, np.ones_like(fwd.out), grad_recon=None)
    assert set(grads) == set(model_params(model))
    for i in range(3):
        assert np.all(grads[f"dec.w{i}"] == 0.0)
        assert np.all(grads[f"dec.b{i}"] == 0.0)
    # the encoder still learns through the head path
    assert any(np.any(grads[f"enc.w{i}"] != 0.0) for i in range(3))
