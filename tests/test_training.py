"""Tests for run configuration, the joint objective, the training loop,
evaluation channels, checkpoints, and experiment suites."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from survfuse import training
from survfuse.cohort import Cohort, CohortSplit, split_cohort
from survfuse.formats import dataclass_from_kv, read_checkpoint, write_checkpoint
from survfuse.blending import PERCENT_FLOOR, verbalized_curve
import survfuse.heads as heads_module
from survfuse.cohort import outcome_arrays
from survfuse.heads import CoxHead, CurveSet, TimeGrid, discrete_loss_grad, init_head
from survfuse.metrics import c_td, ibs
from survfuse.model import init_model, model_forward, model_params
from survfuse.nn import Workspace
from survfuse.training import (
    RunConfig,
    TrainResult,
    _channels,
    _rows,
    evaluate,
    finalize_teacher,
    load_checkpoint,
    load_run_config,
    named_rngs,
    predict_curves,
    pretrain_heads,
    report_table,
    run_experiment_suite,
    save_checkpoint,
    total_loss,
    train,
    train_and_evaluate,
)

DIMS = {"text": 6, "cov": 4, "ge": 10}


def toy_cohort(n=40, seed=0, teacher=True, event_p=0.7, split_seed=2):
    """Small synthetic cohort with a shared risk signal in every modality,
    split by `split_cohort` at `split_seed`."""
    rng = np.random.default_rng(seed)
    times, events, probs = [], [], []
    rows = {m: [] for m in ("cov", "ge", "text")}
    for i in range(n):
        risk = float(rng.normal())
        rate = 0.35 * math.exp(0.6 * risk)
        times.append(float(min(max(rng.exponential(1.0 / rate), 0.05), 4.95)))
        events.append(bool(rng.random() < event_p))
        if teacher:
            s3 = math.exp(-rate * 3.0)
            pct = 5 * int(round(s3 * 100.0 / 5.0))
            pct = min(max(pct, 5), 95)
            probs.append([math.nan, pct / 100.0, math.nan])
        rows["cov"].append(rng.normal(size=DIMS["cov"]) + 0.5 * risk)
        rows["ge"].append(rng.normal(size=DIMS["ge"]) + 0.3 * risk)
        rows["text"].append(rng.normal(size=DIMS["text"]) + 0.8 * risk)
    return Cohort(ids=[f"s{i}" for i in range(n)], times=times, events=events,
                  split=split_cohort(n, seed=split_seed),
                  modalities={m: np.stack(r) for m, r in rows.items()},
                  teacher_probs=np.array(probs) if teacher else None,
                  metadata={"n_samples": n})


def tiny_config(**overrides):
    base = dict(head="discrete", fusion="late", modalities=("text", "cov", "ge"),
                n_bins=6, epochs=3, patience=3, batch_size=8, dropout=0.1,
                head_layers=(8,), ae_hidden=(6,), latent_dim=3, seed=7)
    base.update(overrides)
    base["patience"] = min(base["patience"], base["epochs"])
    return RunConfig(**base)


# ------------------------------------------------------------- configuration

def test_config_from_kv_types():
    cfg = dataclass_from_kv(RunConfig, {
        "head": "coxph", "fusion": "early", "modalities": "ge,text",
        "pretrain": "true",
        "n_bins": "12", "horizon": "4.5", "batch_size": "32",
        "lambda_grid": "0.0,0.5,1.0", "head_layers": "20,10",
        "lr_head": "0.01", "seed": "5",
    }, "run.cfg")
    assert cfg.head == "coxph" and cfg.fusion == "early"
    # modality order is normalized
    assert cfg.modalities == ("text", "ge")
    assert cfg.pretrain is True
    assert cfg.n_bins == 12 and cfg.batch_size == 32 and cfg.seed == 5
    assert cfg.horizon == 4.5 and cfg.lr_head == 0.01
    assert cfg.lambda_grid == (0.0, 0.5, 1.0)
    assert cfg.head_layers == (20, 10)


def test_config_defaults_depend_on_head():
    assert RunConfig(head="discrete").alpha == 1e-9
    assert RunConfig(head="coxph").alpha == 1e-8
    assert RunConfig(head="coxph", alpha=0.5).alpha == 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(head="weibull")
    with pytest.raises(ValueError):
        RunConfig(fusion="middle")
    with pytest.raises(ValueError):
        RunConfig(modalities=("text", "audio"))
    with pytest.raises(ValueError):
        RunConfig(fusion="none", modalities=("text", "cov"))
    with pytest.raises(ValueError):
        RunConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        RunConfig(batch_size=0)
    with pytest.raises(ValueError):
        RunConfig(patience=31, epochs=30)
    with pytest.raises(ValueError):
        dataclass_from_kv(RunConfig, {"heads": "discrete"}, "run.cfg")
    with pytest.raises(ValueError, match="run.cfg: bad value for 'pretrain'"):
        dataclass_from_kv(RunConfig, {"pretrain": "yes"}, "run.cfg")
    # the removed text-loss keys fail loudly instead of doing nothing
    with pytest.raises(ValueError, match="run.cfg: unknown config key 'beta'"):
        dataclass_from_kv(RunConfig, {"beta": "1"}, "run.cfg")


def test_load_run_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nhead = coxph\nepochs = 4\npatience=2\n",
                    encoding="utf-8")
    cfg = load_run_config(str(path))
    assert cfg.head == "coxph" and cfg.epochs == 4 and cfg.patience == 2


def test_named_rngs_deterministic_and_independent():
    a = named_rngs(3, ("init", "shuffle"))
    b = named_rngs(3, ("init", "shuffle"))
    assert a["init"].random() == b["init"].random()
    assert a["shuffle"].random() == b["shuffle"].random()
    c = named_rngs(3, ("init", "shuffle"))
    assert c["init"].random() != c["shuffle"].random()


def test_build_time_grid():
    cfg = tiny_config(grid="equal", n_bins=5, horizon=10.0)
    grid = init_head(cfg, np.array([1.0, 2.0])).grid
    assert np.array_equal(grid.edges, np.linspace(0.0, 10.0, 6))
    cfg = tiny_config(grid="quantile", n_bins=4)
    qgrid = init_head(cfg, np.random.default_rng(0).uniform(0.1, 4.9, 200)).grid
    assert qgrid.edges[0] == 0.0
    assert qgrid.edges[-1] == cfg.horizon
    assert isinstance(qgrid, TimeGrid)


# -------------------------------------------------------------- objective

def test_total_loss_composition():
    cohort = toy_cohort(20, teacher=False, split_seed=1)
    split = cohort.split
    config = tiny_config(alpha=0.01, dropout=0.0)
    head = init_head(config, np.array([1.0]))
    data = _rows(cohort, split.train, config, head)

    rng = np.random.default_rng(0)
    from survfuse.model import init_model
    model = init_model(config.fusion, config.modalities, DIMS, rng, head.width,
                       head_layers=[8], dropout=0.0,
                       ae_hidden=[6], latent_dim=3, ae_dropout=0.0)
    loss, parts, grads = total_loss(model, head, data, config)
    fwd = model_forward(model, data, work=Workspace())
    l_surv = discrete_loss_grad(fwd.out, data)[0]
    resid = fwd.recon - data["ge"]
    l_ae = float((resid ** 2).sum() / resid.size)
    assert parts.keys() == {"surv", "ae"}
    assert parts["surv"] == l_surv
    assert parts["ae"] == pytest.approx(l_ae, rel=1e-15)
    assert loss == pytest.approx(l_surv + 0.01 * l_ae, rel=1e-15)
    assert set(grads) == set(model_params(model))


def test_total_loss_rejects_non_finite():
    cohort = toy_cohort(12, teacher=False, split_seed=1)
    split = cohort.split
    config = tiny_config(dropout=0.0)
    head = init_head(config, np.array([1.0]))
    data = _rows(cohort, split.train, config, head)
    from survfuse.model import init_model
    model = init_model(config.fusion, config.modalities, DIMS,
                       np.random.default_rng(0), head.width,
                       head_layers=[8], dropout=0.0, ae_hidden=[6], latent_dim=3,
                       ae_dropout=0.0)
    data["ge"][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        total_loss(model, head, data, config)


def test_total_loss_reuses_its_workspace():
    cohort = toy_cohort(20, teacher=False)
    config = tiny_config(dropout=0.3)
    head = init_head(config, np.array([1.0]))
    data = _rows(cohort, np.arange(12), config, head)
    model = init_model(config.fusion, config.modalities, DIMS, np.random.default_rng(0),
                       head.width, head_layers=[8], dropout=0.3, ae_hidden=[6], latent_dim=3,
                       ae_dropout=0.0)
    work = Workspace()
    _, _, first = total_loss(model, head, data, config, rng=np.random.default_rng(1), work=work)
    kept = first.flat.copy()
    _, _, second = total_loss(model, head, data, config, rng=np.random.default_rng(1), work=work)
    assert second.flat is first.flat
    assert np.array_equal(second.flat, kept)
    # without a workspace, each call gets a new vector
    _, _, fresh = total_loss(model, head, data, config, rng=np.random.default_rng(1))
    assert fresh.flat is not first.flat and np.array_equal(fresh.flat, kept)


@pytest.mark.parametrize("head", ["coxph", "discrete"])
def test_a_ge_training_loop_allocates_little_after_its_first_step(head):
    """At the pretraining batch size of 512, each step after the first
    allocates under a tenth of what the loop holds: the batch, activations,
    masks and gradients of a step live in the loop's workspace."""
    cohort = replace(toy_cohort(n=2100, teacher=False),
                     split=CohortSplit(train=np.arange(2048), val=np.arange(2048, 2100),
                                       test=np.arange(0)))
    config = tiny_config(head=head, fusion="none", modalities=("ge",), head_layers=(64, 32),
                         ae_hidden=(32,), latent_dim=8, dropout=0.1, epochs=1,
                         batch_size=512)
    marks = []  # (traced memory, peak since the last step) after each step
    step = training.adamw_step

    def marked(*args):
        step(*args)
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        with mock.patch.object(training, "adamw_step", marked):
            training._train_loop(config, cohort, None)
    finally:
        tracemalloc.stop()
    assert len(marks) == 4
    held = marks[0][0]
    grown = [peak - before for (before, _), (_, peak) in zip(marks, marks[1:])]
    assert max(grown) < held / 10, (held, grown)


# ------------------------------------------------------------ training loop

def test_train_reproducible_and_restores_best():
    cohort = toy_cohort(40)
    split = cohort.split
    config = tiny_config()
    a = train(config, cohort)
    b = train(config, cohort)
    assert a.val_trace == b.val_trace
    assert a.train_trace == b.train_trace
    pa, pb = model_params(a.model), model_params(b.model)
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)
    # the returned parameters are the best-validation snapshot
    val_data = _rows(cohort, split.val, config, a.head)
    val_out = model_forward(a.model, val_data).out
    assert a.head.loss_grad(val_out, val_data)[0] == min(a.val_trace)
    assert a.best_epoch == 1 + int(np.argmin(a.val_trace))
    assert len(a.val_trace) <= config.epochs
    assert a.dims == DIMS


def test_train_patience_zero_stops_after_one_epoch():
    cohort = toy_cohort(30)
    result = train(tiny_config(epochs=5, patience=0), cohort)
    assert len(result.val_trace) == 1
    assert result.best_epoch == 1


def test_train_coxph_skips_event_free_batches_and_fits_baseline():
    cohort = toy_cohort(36, event_p=0.25, teacher=False, split_seed=4)
    split = cohort.split
    config = tiny_config(head="coxph", batch_size=4, epochs=2)
    result = train(config, cohort)
    assert result.skipped_batches > 0
    assert isinstance(result.head, CoxHead)
    assert result.head.baseline is not None
    # baseline jump times come from observed train+val events
    fit_idx = np.concatenate([split.train, split.val])
    fit_times = {cohort.times[i] for i in fit_idx if cohort.events[i]}
    assert set(result.head.baseline.event_times.tolist()) == fit_times


def test_pretrain_heads_provides_warm_start():
    cohort = toy_cohort(30, teacher=False)
    config = tiny_config(pretrain_epochs=2, pretrain_patience=2,
                         pretrain_batch_size=16)
    warm = pretrain_heads(config, cohort)
    assert any(k.startswith("head_cov.") for k in warm)
    assert any(k.startswith("head_ge.") for k in warm)
    assert any(k.startswith("enc.") for k in warm)
    assert any(k.startswith("dec.") for k in warm)
    assert not any(k.startswith("head_text") for k in warm)
    result = train(config, cohort, warm_start=warm)
    assert np.isfinite(result.val_trace).all()
    with pytest.raises(ValueError, match="injection"):
        train(config, cohort, warm_start={"nonexistent.w0": np.zeros(2)})


# ------------------------------------------------------------- evaluation

def test_evaluate_reports_all_channels():
    cohort = toy_cohort(40)
    split = cohort.split
    config = tiny_config()
    result = train(config, cohort)
    report = evaluate(result, cohort)[0]
    assert set(report.channels) == {"hidden", "verbalized", "combined"}
    for metrics in report.channels.values():
        assert 0.0 <= metrics.c_td <= 1.0
        assert metrics.ibs >= 0.0
    assert report.selected_lambda in config.lambda_grid
    assert report.gates is not None
    assert len(report.gates["inner"]) == config.n_bins
    # the grid search saw both endpoints, so the winner beats or ties them
    from survfuse.metrics import c_td as ctd
    hidden_val = ctd(predict_curves(result, cohort, split.val),
                     *outcome_arrays(cohort, split.val))
    assert report.lambda_val_ctd >= hidden_val


def test_evaluate_counts_floored_percents_per_split(monkeypatch):
    import survfuse.training as training_module

    cohort = toy_cohort(40)
    split = cohort.split
    config = tiny_config(epochs=1)
    percents, _ = finalize_teacher(cohort)
    percents[split.val[:1]] = 0.0
    percents[split.test[:3]] = 0.0
    percents[split.test[3:5]] = np.nan  # their verbalized curves are imputed
    result = train(config, cohort)
    # evaluate takes the teacher's percents from finalize_teacher
    monkeypatch.setattr(training_module, "finalize_teacher", lambda _: (percents, 0))
    report = evaluate(result, cohort)[0]
    assert report.floored_percents == {"val": 1, "test": 3}
    assert report.imputed_curves == 2
    # a 0 is scored as PERCENT_FLOOR: floored up front, only the counts change
    floored = np.where(percents == 0.0, PERCENT_FLOOR, percents)
    monkeypatch.setattr(training_module, "finalize_teacher", lambda _: (floored, 0))
    again = evaluate(result, cohort)[0].to_dict()
    assert again == {**report.to_dict(), "floored_percents": {"val": 0, "test": 0}}


def test_evaluate_reports_clamped_values():
    cohort = toy_cohort(40)
    # a lone 3-year estimate of 0%: the completion fit clamps it, the
    # completed row is 0 at 3 and 5 years (non-increasing), and the final fit
    # clamps both, three values per sample
    cohort.teacher_probs[:3, 1] = 0.0
    config = tiny_config(epochs=1)
    result = train(config, cohort)
    report = evaluate(result, cohort)[0]
    assert report.clamped_values == finalize_teacher(cohort)[1] == 3 * (1 + 2)
    assert report.imputed_curves == 0


def test_evaluate_without_teacher_reports_hidden_only():
    cohort = toy_cohort(40, teacher=False)
    config = tiny_config()
    result = train(config, cohort)
    report = evaluate(result, cohort)[0]
    assert set(report.channels) == {"hidden"}
    assert report.selected_lambda is None
    assert report.lambda_val_ctd is None


def test_verbalized_channel_imputes_the_mean_of_present_curves():
    times = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
    hidden = verbalized_curve([20, 30, 50, 60, 80], times)
    percents = np.array([70.0, np.nan, 40.0, np.nan, 90.0])
    t = np.array([0.7, 1.5, 2.5, 3.2, 3.9])
    e = np.array([True, True, False, True, True])
    own = verbalized_curve([70, 40, 90], times).whole()
    mean = (own[0] + own[1] + own[2]) / 3
    want = CurveSet.of(times, np.vstack([own[0], mean, own[1], mean, own[2]]))
    got = _channels(hidden, t, e, percents, lam=0.5)["verbalized"]
    assert (got.c_td, got.ibs) == (c_td(want, t, e), ibs(want, t, e))


def test_train_and_evaluate_deterministic_report():
    cohort = toy_cohort(40)
    config = tiny_config()
    result, rep_a = train_and_evaluate(config, cohort)
    rep_b = train_and_evaluate(config, cohort)[1]
    assert rep_a.to_dict() == rep_b.to_dict()
    # the trained model it hands back re-evaluates to the same report
    assert evaluate(result, cohort)[0].to_dict() == rep_a.to_dict()


def test_train_and_evaluate_pretrains_late_fusion_of_several_modalities(monkeypatch):
    import survfuse.training as training_module

    calls = []
    original = training_module.pretrain_heads

    def counting(config, cohort):
        calls.append((config.fusion, config.modalities))
        return original(config, cohort)

    monkeypatch.setattr(training_module, "pretrain_heads", counting)
    cohort = toy_cohort(30)
    short = dict(epochs=1, pretrain_epochs=1, pretrain_patience=1)
    for config in (tiny_config(**short),
                   tiny_config(pretrain=True, fusion="early", **short),
                   tiny_config(pretrain=True, modalities=("ge",), **short),
                   tiny_config(pretrain=True, modalities=("text", "cov"), **short)):
        train_and_evaluate(config, cohort)
    assert calls == [("late", ("text", "cov"))]


def test_coxph_pretraining_run_fits_one_breslow_baseline(monkeypatch):
    """Pretraining keeps only the heads' parameters, so only the joint model
    fits a baseline."""
    calls = []
    original = heads_module.breslow_baseline

    def counting(scores, times, events):
        calls.append(scores.size)
        return original(scores, times, events)

    monkeypatch.setattr(heads_module, "breslow_baseline", counting)
    cohort = toy_cohort(40)
    split = cohort.split
    config = tiny_config(head="coxph", pretrain=True, epochs=1, pretrain_batch_size=16,
                         pretrain_epochs=2, pretrain_patience=2)
    result, _ = train_and_evaluate(config, cohort)
    assert calls == [split.train.size + split.val.size]
    assert result.head.baseline is not None


def test_quantile_grid_with_merged_edges_trains_checkpoints_and_evaluates(tmp_path):
    """Censoring tied at the horizon merges the top quantile edges, so the
    grid has fewer bins than asked for; the model is as wide as the grid."""
    cohort = toy_cohort(40)
    cohort.times[::2] = 5.0  # censored at the horizon, 20 of 40
    cohort.events[::2] = False
    split = cohort.split
    config = tiny_config(grid="quantile", n_bins=6)
    result = train(config, cohort)
    width = result.head.grid.n_bins
    assert width < config.n_bins
    assert all(mlp.out_dim == width for mlp in result.model.heads.values())
    assert result.model.gates.inner_logit.shape == (width,)
    path = str(tmp_path / "quantile.svck")
    save_checkpoint(path, result)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.head.grid.edges, result.head.grid.edges)
    report, curves = evaluate(loaded, cohort)
    assert report.to_dict() == evaluate(result, cohort)[0].to_dict()
    assert curves.whole().shape == (split.test.size, width + 1)


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_reproduces_predictions(tmp_path):
    cohort = toy_cohort(40)
    split = cohort.split
    for config in (tiny_config(), tiny_config(head="coxph")):
        result = train(config, cohort)
        path = str(tmp_path / f"{config.head}.svck")
        save_checkpoint(path, result)
        loaded = load_checkpoint(path)
        assert loaded.config == config
        orig = predict_curves(result, cohort, split.test)
        redo = predict_curves(loaded, cohort, split.test)
        assert np.array_equal(orig.times, redo.times)
        assert np.array_equal(orig.whole(), redo.whole())
        assert loaded.best_epoch == result.best_epoch


def test_checkpoint_rejects_mismatched_tensors(tmp_path):
    cohort = toy_cohort(30, teacher=False)
    config = tiny_config(epochs=1)
    result = train(config, cohort)
    path = str(tmp_path / "full.svck")
    save_checkpoint(path, result)
    tensors, manifest = read_checkpoint(path)
    tensors.pop(sorted(tensors)[0])
    clipped = str(tmp_path / "clipped.svck")
    write_checkpoint(clipped, tensors, manifest)
    with pytest.raises(ValueError, match="do not match"):
        load_checkpoint(clipped)


def test_load_checkpoint_rejects_a_reshaped_tensor(tmp_path):
    cohort = toy_cohort(30, teacher=False)
    config = tiny_config(epochs=1)
    result = train(config, cohort)
    path = str(tmp_path / "full.svck")
    save_checkpoint(path, result)
    tensors, manifest = read_checkpoint(path)
    w = tensors["head_text.w0"]  # (6, 8): same size, transposed shape
    tensors["head_text.w0"] = w.reshape(w.shape[::-1])
    reshaped = str(tmp_path / "reshaped.svck")
    write_checkpoint(reshaped, tensors, manifest)
    with pytest.raises(ValueError, match=r"'head_text.w0' has shape \(8, 6\)"):
        load_checkpoint(reshaped)


def test_load_checkpoint_rejects_config_keys_it_does_not_know(tmp_path):
    cohort = toy_cohort(30, teacher=False)
    config = tiny_config(epochs=1)
    result = train(config, cohort)
    path = str(tmp_path / "full.svck")
    save_checkpoint(path, result)
    tensors, manifest = read_checkpoint(path)
    # a checkpoint written while the text-loss keys still existed
    manifest["config"].update(beta=1.0, text_loss_w=2.0)
    stale = str(tmp_path / "stale.svck")
    write_checkpoint(stale, tensors, manifest)
    with pytest.raises(ValueError,
                       match=r"\['beta', 'text_loss_w'\]; retrain"):
        load_checkpoint(stale)


# ------------------------------------------------------- flat parameter vector

def assert_params_view_flat(model):
    """Every model_params tensor is the view of `model.flat` its layout names."""
    params = model_params(model)
    layout = model.layout
    assert tuple(params) == layout.names
    assert model.flat.size == layout.size and model.flat.flags.owndata
    for (name, arr), shape, start in zip(params.items(), layout.shapes, layout.offsets):
        assert arr.shape == shape, name
        assert arr.base is model.flat, name
        assert arr.ctypes.data == model.flat.ctypes.data + 8 * int(start), name
    # a write to the vector reaches the tensors the forward pass reads
    model.flat[:] = np.arange(model.flat.size)
    assert np.array_equal(layout.gather(model_params(model)), np.arange(model.flat.size))


@pytest.mark.parametrize("head,fusion,modalities", [
    ("discrete", "late", ("text", "cov", "ge")),
    ("coxph", "late", ("text", "cov", "ge")),
    ("discrete", "early", ("text", "cov", "ge")),
    ("coxph", "none", ("cov",)),
])
def test_init_and_copy_keep_params_as_views_of_one_vector(head, fusion, modalities, tmp_path):
    config = RunConfig(head=head, fusion=fusion, modalities=modalities, n_bins=5,
                       head_layers=(7, 6), ae_hidden=(8, 5), latent_dim=3)
    fitted = init_head(config, None).fitted(lambda: (np.zeros((2, 1)), np.ones(2),
                                                      np.ones(2, dtype=bool)))
    model = init_model(fusion, modalities, DIMS, np.random.default_rng(0), fitted.width,
                       head_layers=[7, 6], dropout=config.dropout, ae_hidden=[8, 5],
                       latent_dim=3, ae_dropout=config.ae_dropout)
    # the copy: the model rebuilt from a checkpoint of it
    path = str(tmp_path / "init.svck")
    save_checkpoint(path, TrainResult(config=config, model=model, head=fitted,
                                      train_trace=[], val_trace=[], best_epoch=0,
                                      skipped_batches=0, dims=DIMS))
    clone = load_checkpoint(path).model
    assert np.array_equal(clone.flat, model.flat)
    assert not np.shares_memory(clone.flat, model.flat)
    before = clone.flat.copy()
    assert_params_view_flat(model)  # overwrites model.flat
    assert np.array_equal(clone.flat, before)
    assert_params_view_flat(clone)


def test_checkpoint_and_pretraining_keep_params_as_views_of_one_vector(tmp_path):
    cohort = toy_cohort(40)
    config = tiny_config(head="coxph", pretrain=True, pretrain_batch_size=16,
                         pretrain_epochs=2, pretrain_patience=2)
    warm = pretrain_heads(config, cohort)
    result = train(config, cohort, warm_start=warm)
    path = str(tmp_path / "cox.svck")
    save_checkpoint(path, result)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.model.flat, result.model.flat)
    assert_params_view_flat(loaded.model)
    assert_params_view_flat(result.model)


# ------------------------------------------------------------------ suites

def test_suite_isolates_failures_and_renders_table():
    cohort = toy_cohort(40)
    good = tiny_config(epochs=1)
    # cov-only config fails: the toy samples lack a 'cov' file? they have cov;
    # force failure through a modality the cohort cannot supply
    cohort.modalities["ge"][:] = np.nan
    bad = tiny_config(fusion="none", modalities=("ge",), epochs=1)
    good = tiny_config(modalities=("text", "cov"), epochs=1)
    reports = run_experiment_suite([("good", good), ("bad", bad)], cohort)
    assert not isinstance(reports["good"], str)
    assert isinstance(reports["bad"], str) and reports["bad"].startswith("failed:")
    table = report_table(reports)
    assert "run" in table and "c_td" in table
    assert "good" in table and "bad" in table
    assert "failed:" in table
    lines = table.splitlines()
    # aligned columns: every row is as wide as its content
    assert len(lines) >= 4


def test_suite_finalizes_teacher_once_per_config(monkeypatch, tmp_path):
    import survfuse.distill as distill_module

    # one line per call in a file, not a list, so that calls made in forked
    # suite workers are counted too
    log = tmp_path / "calls.txt"
    original = distill_module.finalize_probs

    def counting(probs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{len(probs)}\n")
        return original(probs)

    def calls():
        return [int(line) for line in log.read_text(encoding="utf-8").split()]

    monkeypatch.setattr(distill_module, "finalize_probs", counting)
    cohort = toy_cohort(40)
    configs = [("a", tiny_config(epochs=1)), ("b", tiny_config(epochs=1, seed=8))]
    reports = run_experiment_suite(configs, cohort)
    assert calls() == [40, 40]
    assert all(not isinstance(rep, str) for rep in reports.values())
    # a standalone run finalizes the same way, and reports what the suite reported
    assert train_and_evaluate(configs[0][1], cohort)[1].to_dict() == reports["a"].to_dict()
    assert calls() == [40, 40, 40]


def fake_cpus(monkeypatch, n):
    """Make the process's CPU set (its affinity) look like n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="suite workers are forked")


@needs_fork
def test_suite_workers_follow_the_cpu_set_and_the_platform(monkeypatch):
    fake_cpus(monkeypatch, 4)
    assert training.suite_workers(5) == 4
    assert training.suite_workers(3) == 3
    fake_cpus(monkeypatch, 1)
    assert training.suite_workers(5) == 1
    fake_cpus(monkeypatch, 4)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert training.suite_workers(5) == 1


@needs_fork
def test_suite_reports_the_same_on_one_cpu_and_on_two(monkeypatch):
    cohort = toy_cohort(40)
    configs = [("a", tiny_config(epochs=2)), ("b", tiny_config(epochs=2, seed=8)),
               ("c", tiny_config(fusion="early", epochs=2, seed=9))]
    runs = []
    for cpus in (1, 2):
        fake_cpus(monkeypatch, cpus)
        reports = run_experiment_suite(configs, cohort)
        assert list(reports) == ["a", "b", "c"]
        runs.append({name: rep.to_dict() for name, rep in reports.items()})
    assert runs[0] == runs[1]


@needs_fork
@pytest.mark.parametrize("cpus, in_process", [(1, True), (2, False)])
def test_suite_runs_in_process_on_one_cpu_and_in_workers_on_two(monkeypatch, tmp_path,
                                                                  cpus, in_process):
    fake_cpus(monkeypatch, cpus)
    pids = tmp_path / "pids.txt"
    original = training.train_and_evaluate

    def recording(config, cohort):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(config, cohort)

    monkeypatch.setattr(training, "train_and_evaluate", recording)
    timings = {}
    run_experiment_suite([("a", tiny_config(epochs=1)), ("b", tiny_config(epochs=1, seed=8))],
                         toy_cohort(40), timings)
    ran_in = set(pids.read_text(encoding="utf-8").split())
    # either worker may take both configurations, but the parent takes none
    assert (ran_in == {str(os.getpid())}) if in_process else str(os.getpid()) not in ran_in
    assert sorted(timings) == ["a", "b"] and all(seconds > 0 for seconds in timings.values())
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_configuration_that_raises_is_its_own_failed_entry(monkeypatch, cpus):
    fake_cpus(monkeypatch, cpus)
    original = training.train_and_evaluate

    def failing(config, cohort):
        if config.seed == 8:
            raise ValueError("bad config")
        return original(config, cohort)

    monkeypatch.setattr(training, "train_and_evaluate", failing)
    reports = run_experiment_suite([("a", tiny_config(epochs=1)),
                                    ("b", tiny_config(epochs=1, seed=8)),
                                    ("c", tiny_config(epochs=1, seed=9))], toy_cohort(40))
    assert reports["b"] == "failed: ValueError: bad config"
    assert not isinstance(reports["a"], str) and not isinstance(reports["c"], str)


STUCK_SUITE = """
import os, sys, time
from survfuse import training

def stuck(config, cohort):
    with open(sys.argv[1], "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(60)

training.train_and_evaluate = stuck
os.sched_getaffinity = lambda pid: {0, 1}
training.run_experiment_suite([("a", training.RunConfig()), ("b", training.RunConfig())], None)
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux's")
def test_suite_workers_die_with_a_killed_parent(tmp_path):
    pids_path = tmp_path / "pids.txt"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(training.__file__))}
    proc = subprocess.Popen([sys.executable, "-c", STUCK_SUITE, str(pids_path)], env=env)
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            if pids_path.exists():
                pids = [int(line) for line in pids_path.read_text(encoding="utf-8").split()]
        assert len(pids) == 2, "the workers did not start"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids)), "a worker outlived its killed parent"
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


def test_suite_reports_finalize_failure_per_run(monkeypatch):
    import survfuse.distill as distill_module

    def broken(probs):
        raise ValueError("no horizon means")

    monkeypatch.setattr(distill_module, "finalize_probs", broken)
    cohort = toy_cohort(20)
    reports = run_experiment_suite([("a", tiny_config(epochs=1)),
                                    ("b", tiny_config(epochs=1))], cohort)
    assert reports == {"a": "failed: ValueError: no horizon means",
                       "b": "failed: ValueError: no horizon means"}
