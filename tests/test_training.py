"""Tests for run configuration, the joint objective, the training loop,
evaluation channels, checkpoints, and experiment suites."""

import math
import warnings

import numpy as np
import pytest

from survfuse.cohort import Cohort, Modality, split_cohort
from survfuse.distill import calibration_mask
from survfuse.formats import read_checkpoint, write_checkpoint
from survfuse.heads import TimeGrid, discrete_loss
from survfuse.model import init_model, model_forward, model_params
from survfuse.training import (
    RunConfig,
    _split_data,
    _val_surv_loss,
    build_time_grid,
    config_from_kv,
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


def toy_cohort(n=40, seed=0, teacher=True, event_p=0.7, contradict=False):
    """Small synthetic cohort with a shared risk signal in every modality."""
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
            if contradict:
                pct = 100 - pct
            probs.append([math.nan, pct / 100.0, math.nan])
        rows["cov"].append(rng.normal(size=DIMS["cov"]) + 0.5 * risk)
        rows["ge"].append(rng.normal(size=DIMS["ge"]) + 0.3 * risk)
        rows["text"].append(rng.normal(size=DIMS["text"]) + 0.8 * risk)
    return Cohort(ids=[f"s{i}" for i in range(n)], times=times, events=events,
                  modalities={m: Modality(np.stack(r), np.ones(n, dtype=bool))
                              for m, r in rows.items()},
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
    cfg = config_from_kv({
        "head": "coxph", "fusion": "early", "modalities": "ge,text",
        "pretrain": "true", "calibration_correction": "false",
        "n_bins": "12", "horizon": "4.5", "batch_size": "32",
        "lambda_grid": "0.0,0.5,1.0", "head_layers": "20,10",
        "lr_head": "0.01", "seed": "5",
    })
    assert cfg.head == "coxph" and cfg.fusion == "early"
    # modality order is normalized
    assert cfg.modalities == ("text", "ge")
    assert cfg.pretrain is True and cfg.calibration_correction is False
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
        config_from_kv({"heads": "discrete"})
    with pytest.raises(ValueError):
        config_from_kv({"pretrain": "yes"})
    # the removed text-loss keys fail loudly instead of doing nothing
    with pytest.raises(ValueError, match="unknown config key 'beta'"):
        config_from_kv({"beta": "1"})


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
    grid = build_time_grid(cfg, np.array([1.0, 2.0]))
    assert np.array_equal(grid.edges, np.linspace(0.0, 10.0, 6))
    cfg = tiny_config(grid="quantile", n_bins=4)
    qgrid = build_time_grid(cfg, np.random.default_rng(0).uniform(0.1, 4.9, 200))
    assert qgrid.edges[0] == 0.0
    assert qgrid.edges[-1] == cfg.horizon
    assert isinstance(qgrid, TimeGrid)


# -------------------------------------------------------------- objective

def test_total_loss_composition():
    cohort = toy_cohort(20, teacher=False)
    split = split_cohort(20, seed=1)
    config = tiny_config(alpha=0.01, dropout=0.0)
    grid = build_time_grid(config, np.array([1.0]))
    data = _split_data(cohort, split.train, config, grid)

    rng = np.random.default_rng(0)
    from survfuse.model import init_model
    model = init_model(config.head, config.fusion, config.modalities, DIMS, rng,
                       n_bins=config.n_bins, head_layers=[8], dropout=0.0,
                       ae_hidden=[6], latent_dim=3)
    loss, parts, grads = total_loss(model, data, config)
    fwd = model_forward(model, data)
    l_surv = discrete_loss(fwd.out, data["targets"])
    resid = fwd.recon - data["ge"]
    l_ae = float((resid ** 2).sum() / resid.size)
    assert parts.keys() == {"surv", "ae"}
    assert parts["surv"] == l_surv
    assert parts["ae"] == pytest.approx(l_ae, rel=1e-15)
    assert loss == pytest.approx(l_surv + 0.01 * l_ae, rel=1e-15)
    assert set(grads) == set(model_params(model))


def test_total_loss_rejects_non_finite():
    cohort = toy_cohort(12, teacher=False)
    split = split_cohort(12, seed=1)
    config = tiny_config(dropout=0.0)
    grid = build_time_grid(config, np.array([1.0]))
    data = _split_data(cohort, split.train, config, grid)
    from survfuse.model import init_model
    model = init_model(config.head, config.fusion, config.modalities, DIMS,
                       np.random.default_rng(0), n_bins=config.n_bins,
                       head_layers=[8], dropout=0.0, ae_hidden=[6], latent_dim=3)
    data["ge"][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        total_loss(model, data, config)


# ------------------------------------------------------------ training loop

def test_train_reproducible_and_restores_best():
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    config = tiny_config()
    a = train(config, cohort, split)
    b = train(config, cohort, split)
    assert a.val_trace == b.val_trace
    assert a.train_trace == b.train_trace
    pa, pb = model_params(a.model), model_params(b.model)
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)
    # the returned parameters are the best-validation snapshot
    val_data = _split_data(cohort, split.val, config, a.grid)
    assert _val_surv_loss(a.model, val_data) == min(a.val_trace)
    assert a.best_epoch == 1 + int(np.argmin(a.val_trace))
    assert len(a.val_trace) <= config.epochs
    assert a.dims == DIMS


def test_train_patience_zero_stops_after_one_epoch():
    cohort = toy_cohort(30)
    split = split_cohort(30, seed=2)
    result = train(tiny_config(epochs=5), cohort, split, patience=0)
    assert len(result.val_trace) == 1
    assert result.best_epoch == 1


def test_train_coxph_skips_event_free_batches_and_fits_baseline():
    cohort = toy_cohort(36, event_p=0.25, teacher=False)
    split = split_cohort(36, seed=4)
    config = tiny_config(head="coxph", batch_size=4, epochs=2)
    result = train(config, cohort, split)
    assert result.skipped_batches > 0
    assert result.grid is None
    assert result.baseline is not None
    # baseline jump times come from observed train+val events
    fit_idx = np.concatenate([split.train, split.val])
    fit_times = {cohort.times[i] for i in fit_idx if cohort.events[i]}
    assert set(result.baseline.event_times.tolist()) == fit_times


def test_calibration_masking_counts():
    cohort = toy_cohort(40, contradict=True)
    split = split_cohort(40, seed=2)
    percents = finalize_teacher(cohort)
    masked = train_and_evaluate(tiny_config(calibration_correction=True, epochs=1),
                                cohort, split)[1].masked_samples
    unmasked = train_and_evaluate(tiny_config(calibration_correction=False, epochs=1),
                                  cohort, split)[1].masked_samples
    assert unmasked == 0
    assert masked > 0
    assert masked <= 40
    # exactly the teacher estimates the mask rejects
    assert masked == sum(not calibration_mask(pct, t, e)
                         for pct, t, e in zip(percents, cohort.times, cohort.events))


def test_pretrain_heads_provides_warm_start():
    cohort = toy_cohort(30, teacher=False)
    split = split_cohort(30, seed=2)
    config = tiny_config(pretrain_epochs=2, pretrain_patience=2,
                         pretrain_batch_size=16)
    warm = pretrain_heads(config, cohort, split)
    assert any(k.startswith("head_cov.") for k in warm)
    assert any(k.startswith("head_ge.") for k in warm)
    assert any(k.startswith("enc.") for k in warm)
    assert any(k.startswith("dec.") for k in warm)
    assert not any(k.startswith("head_text") for k in warm)
    result = train(config, cohort, split, warm_start=warm)
    assert np.isfinite(result.val_trace).all()
    with pytest.raises(ValueError, match="injection"):
        train(config, cohort, split, warm_start={"nonexistent.w0": np.zeros(2)})


# ------------------------------------------------------------- evaluation

def test_evaluate_reports_all_channels():
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    config = tiny_config()
    result = train(config, cohort, split)
    report = evaluate(result, cohort, split, config)
    assert set(report.channels) == {"hidden", "verbalized", "combined"}
    for metrics in report.channels.values():
        assert 0.0 <= metrics.c_td <= 1.0
        assert metrics.ibs >= 0.0
    assert report.selected_lambda in config.lambda_grid
    assert report.gates is not None
    assert len(report.gates["inner"]) == config.n_bins
    # the grid search saw both endpoints, so the winner beats or ties them
    val_data = _split_data(cohort, split.val, config, result.grid)
    from survfuse.metrics import c_td as ctd
    hidden_val = ctd(predict_curves(result, cohort, split.val, config),
                     val_data["times"], val_data["events"])
    assert report.lambda_val_ctd >= hidden_val


def test_evaluate_warns_once_per_split_about_floored_percents(monkeypatch):
    import survfuse.training as training_module

    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    config = tiny_config(epochs=1)
    percents = finalize_teacher(cohort)
    percents[split.val[:1]] = 0.0
    percents[split.test[:3]] = 0.0
    result = train(config, cohort, split)
    # evaluate takes the teacher's percents from finalize_teacher
    monkeypatch.setattr(training_module, "finalize_teacher", lambda _: percents)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = evaluate(result, cohort, split, config)
    floored = [str(w.message) for w in caught if "floored" in str(w.message)]
    # every metric reads its curves in several blocks; each split warns once
    assert floored == [
        f"verbalized probability 0 floored to 0.5% before the log for 1 of "
        f"{split.val.size} percents",
        f"verbalized probability 0 floored to 0.5% before the log for 3 of "
        f"{split.test.size} percents"]
    percents = np.where(percents == 0.0, 0.5, percents)  # floored up front
    assert evaluate(result, cohort, split, config).to_dict() == report.to_dict()


def test_evaluate_without_teacher_reports_hidden_only():
    cohort = toy_cohort(40, teacher=False)
    split = split_cohort(40, seed=2)
    config = tiny_config()
    result = train(config, cohort, split)
    report = evaluate(result, cohort, split, config)
    assert set(report.channels) == {"hidden"}
    assert report.selected_lambda is None
    assert report.lambda_val_ctd is None


def test_train_and_evaluate_deterministic_report():
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    config = tiny_config()
    result, rep_a = train_and_evaluate(config, cohort, split)
    rep_b = train_and_evaluate(config, cohort, split)[1]
    assert rep_a.to_dict() == rep_b.to_dict()
    # the trained model it hands back re-evaluates to the same report
    assert evaluate(result, cohort, split, config).to_dict() == rep_a.to_dict()


def test_train_and_evaluate_pretrains_late_fusion_of_several_modalities(monkeypatch):
    import survfuse.training as training_module

    calls = []
    original = training_module.pretrain_heads

    def counting(config, cohort, split):
        calls.append((config.fusion, config.modalities))
        return original(config, cohort, split)

    monkeypatch.setattr(training_module, "pretrain_heads", counting)
    cohort = toy_cohort(30)
    split = split_cohort(30, seed=2)
    short = dict(epochs=1, pretrain_epochs=1, pretrain_patience=1)
    for config in (tiny_config(**short),
                   tiny_config(pretrain=True, fusion="early", **short),
                   tiny_config(pretrain=True, modalities=("ge",), **short),
                   tiny_config(pretrain=True, modalities=("text", "cov"), **short)):
        train_and_evaluate(config, cohort, split)
    assert calls == [("late", ("text", "cov"))]


def test_coxph_pretraining_run_fits_one_breslow_baseline(monkeypatch):
    """Pretraining keeps only the heads' parameters, so only the joint model
    fits a baseline."""
    import survfuse.training as training_module

    calls = []
    original = training_module.breslow_baseline

    def counting(scores, times, events):
        calls.append(scores.size)
        return original(scores, times, events)

    monkeypatch.setattr(training_module, "breslow_baseline", counting)
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    config = tiny_config(head="coxph", pretrain=True, epochs=1, pretrain_batch_size=16,
                         pretrain_epochs=2, pretrain_patience=2)
    result, _ = train_and_evaluate(config, cohort, split)
    assert calls == [split.train.size + split.val.size]
    assert result.baseline is not None


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_reproduces_predictions(tmp_path):
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    for config in (tiny_config(), tiny_config(head="coxph")):
        result = train(config, cohort, split)
        path = str(tmp_path / f"{config.head}.svck")
        save_checkpoint(path, result, config)
        loaded, cfg = load_checkpoint(path)
        assert cfg == config
        orig = predict_curves(result, cohort, split.test, config)
        redo = predict_curves(loaded, cohort, split.test, cfg)
        assert np.array_equal(orig.times, redo.times)
        assert np.array_equal(orig.values, redo.values)
        assert loaded.best_epoch == result.best_epoch


def test_checkpoint_rejects_mismatched_tensors(tmp_path):
    cohort = toy_cohort(30, teacher=False)
    split = split_cohort(30, seed=2)
    config = tiny_config(epochs=1)
    result = train(config, cohort, split)
    path = str(tmp_path / "full.svck")
    save_checkpoint(path, result, config)
    tensors, manifest = read_checkpoint(path)
    tensors.pop(sorted(tensors)[0])
    clipped = str(tmp_path / "clipped.svck")
    write_checkpoint(clipped, tensors, manifest)
    with pytest.raises(ValueError, match="do not match"):
        load_checkpoint(clipped)


def test_load_checkpoint_rejects_a_reshaped_tensor(tmp_path):
    cohort = toy_cohort(30, teacher=False)
    split = split_cohort(30, seed=2)
    config = tiny_config(epochs=1)
    result = train(config, cohort, split)
    path = str(tmp_path / "full.svck")
    save_checkpoint(path, result, config)
    tensors, manifest = read_checkpoint(path)
    w = tensors["head_text.w0"]  # (6, 8): same size, transposed shape
    tensors["head_text.w0"] = w.reshape(w.shape[::-1])
    reshaped = str(tmp_path / "reshaped.svck")
    write_checkpoint(reshaped, tensors, manifest)
    with pytest.raises(ValueError, match=r"'head_text.w0' has shape \(8, 6\)"):
        load_checkpoint(reshaped)


def test_load_checkpoint_rejects_config_keys_it_does_not_know(tmp_path):
    cohort = toy_cohort(30, teacher=False)
    split = split_cohort(30, seed=2)
    config = tiny_config(epochs=1)
    result = train(config, cohort, split)
    path = str(tmp_path / "full.svck")
    save_checkpoint(path, result, config)
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
def test_init_and_copy_keep_params_as_views_of_one_vector(head, fusion, modalities):
    model = init_model(head, fusion, modalities, DIMS, np.random.default_rng(0), n_bins=5,
                       head_layers=[7, 6], ae_hidden=[8, 5], latent_dim=3)
    clone = model.copy()
    assert np.array_equal(clone.flat, model.flat)
    assert not np.shares_memory(clone.flat, model.flat)
    before = clone.flat.copy()
    assert_params_view_flat(model)  # overwrites model.flat
    assert np.array_equal(clone.flat, before)
    assert_params_view_flat(clone)


def test_checkpoint_and_pretraining_keep_params_as_views_of_one_vector(tmp_path):
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    config = tiny_config(head="coxph", pretrain=True, pretrain_batch_size=16,
                         pretrain_epochs=2, pretrain_patience=2)
    warm = pretrain_heads(config, cohort, split)
    result = train(config, cohort, split, warm_start=warm)
    path = str(tmp_path / "cox.svck")
    save_checkpoint(path, result, config)
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.model.flat, result.model.flat)
    assert_params_view_flat(loaded.model)
    assert_params_view_flat(result.model)


# ------------------------------------------------------------------ suites

def test_suite_isolates_failures_and_renders_table():
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    good = tiny_config(epochs=1)
    # cov-only config fails: the toy samples lack a 'cov' file? they have cov;
    # force failure through a modality the cohort cannot supply
    cohort.modalities["ge"].present[:] = False
    bad = tiny_config(fusion="none", modalities=("ge",), epochs=1)
    good = tiny_config(modalities=("text", "cov"), epochs=1)
    reports = run_experiment_suite([("good", good), ("bad", bad)], cohort, split)
    assert not isinstance(reports["good"], str)
    assert isinstance(reports["bad"], str) and reports["bad"].startswith("failed:")
    table = report_table(reports)
    assert "run" in table and "c_td" in table
    assert "good" in table and "bad" in table
    assert "failed:" in table
    lines = table.splitlines()
    # aligned columns: every row is as wide as its content
    assert len(lines) >= 4


def test_suite_finalizes_teacher_once_per_config(monkeypatch):
    import survfuse.distill as distill_module

    calls = []
    original = distill_module.finalize_probs

    def counting(probs, train=None):
        calls.append(len(probs))
        return original(probs, train=train)

    monkeypatch.setattr(distill_module, "finalize_probs", counting)
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    configs = [("a", tiny_config(epochs=1)), ("b", tiny_config(epochs=1, seed=8))]
    reports = run_experiment_suite(configs, cohort, split)
    assert calls == [40, 40]
    assert all(not isinstance(rep, str) for rep in reports.values())
    # a standalone run finalizes the same way, and reports what the suite reported
    assert train_and_evaluate(configs[0][1], cohort, split)[1].to_dict() == reports["a"].to_dict()
    assert calls == [40, 40, 40]


def test_suite_reports_finalize_failure_per_run(monkeypatch):
    import survfuse.distill as distill_module

    def broken(probs, train=None):
        raise ValueError("no horizon means")

    monkeypatch.setattr(distill_module, "finalize_probs", broken)
    cohort = toy_cohort(20)
    split = split_cohort(20, seed=2)
    reports = run_experiment_suite([("a", tiny_config(epochs=1)),
                                    ("b", tiny_config(epochs=1))], cohort, split)
    assert reports == {"a": "failed: ValueError: no horizon means",
                       "b": "failed: ValueError: no horizon means"}
