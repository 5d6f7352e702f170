"""Tests for run configuration, the joint objective, the training loop,
evaluation channels, checkpoints, and experiment suites."""

import math

import numpy as np
import pytest

from survfuse.cohort import Cohort, Outcome, Sample, split_cohort
from survfuse.distill import TeacherRecord
from survfuse.formats import read_checkpoint, write_checkpoint
from survfuse.heads import TimeGrid, discrete_loss
from survfuse.model import init_model, model_forward, model_params
from survfuse.training import (
    RunConfig,
    TextBatch,
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
    run_experiment,
    run_experiment_suite,
    save_checkpoint,
    total_loss,
    train,
)

DIMS = {"text": 6, "cov": 4, "ge": 10}


def toy_cohort(n=40, seed=0, teacher=True, event_p=0.7, contradict=False):
    """Small synthetic cohort with a shared risk signal in every modality."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        risk = float(rng.normal())
        rate = 0.35 * math.exp(0.6 * risk)
        t = float(min(max(rng.exponential(1.0 / rate), 0.05), 4.95))
        e = bool(rng.random() < event_p)
        rec = None
        if teacher:
            s3 = math.exp(-rate * 3.0)
            pct = 5 * int(round(s3 * 100.0 / 5.0))
            pct = min(max(pct, 5), 95)
            if contradict:
                pct = 100 - pct
            rec = TeacherRecord(sample_id=f"s{i}",
                                responses={"y3": f"{pct}%"},
                                explanation=f"case {i}",
                                probs={1.0: None, 3.0: pct / 100.0, 5.0: None},
                                percent=pct)
        samples.append(Sample(
            sample_id=f"s{i}",
            outcome=Outcome(time=t, event=e),
            cov=rng.normal(size=DIMS["cov"]) + 0.5 * risk,
            ge=rng.normal(size=DIMS["ge"]) + 0.3 * risk,
            text_pooled=rng.normal(size=DIMS["text"]) + 0.8 * risk,
            teacher=rec,
        ))
    return Cohort(samples=samples, metadata={"n_samples": n})


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
    disc = RunConfig(head="discrete")
    assert (disc.alpha, disc.beta) == (1e-9, 1.0)
    cox = RunConfig(head="coxph")
    assert (cox.alpha, cox.beta) == (1e-8, 5.0)
    explicit = RunConfig(head="coxph", alpha=0.5, beta=0.0)
    assert (explicit.alpha, explicit.beta) == (0.5, 0.0)


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
    config = tiny_config(alpha=0.01, beta=2.0, dropout=0.0)
    grid = build_time_grid(config, np.array([1.0]))
    data = _split_data(cohort, split.train, config, grid)

    rng = np.random.default_rng(0)
    from survfuse.model import init_model
    model = init_model(config.head, config.fusion, config.modalities, DIMS, rng,
                       n_bins=config.n_bins, head_layers=[8], dropout=0.0,
                       ae_hidden=[6], latent_dim=3)
    text = TextBatch(losses=[2.0, 4.0, 6.0], included=[True, False, True])
    loss, parts, grads = total_loss(model, data, config, text_batch=text)
    fwd = model_forward(model, data)
    l_surv = discrete_loss(fwd.out, data["targets"])
    resid = fwd.recon - data["ge"]
    l_ae = float((resid ** 2).sum() / resid.size)
    assert parts["surv"] == l_surv
    assert parts["ae"] == pytest.approx(l_ae, rel=1e-15)
    # text term averages the calibration-included samples only
    assert parts["text"] == 4.0
    assert loss == pytest.approx(l_surv + 0.01 * l_ae + 2.0 * 4.0, rel=1e-15)
    assert set(grads) == set(model_params(model))
    # excluded-all and absent text batches contribute nothing
    empty = TextBatch(losses=[2.0], included=[False])
    assert total_loss(model, data, config, text_batch=empty)[1]["text"] == 0.0
    assert total_loss(model, data, config)[1]["text"] == 0.0


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
    fit_times = {cohort.samples[i].outcome.time for i in fit_idx
                 if cohort.samples[i].outcome.event}
    assert set(result.baseline.event_times.tolist()) == fit_times


def test_text_loss_shifts_trace_but_not_parameters():
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    config = tiny_config(beta=1.0)
    rng = np.random.default_rng(8)
    payloads = {f"s{i}": (rng.uniform(0.5, 2.0, size=5),
                          np.array([0, 1, 1, 1, 0], dtype=bool),
                          np.array([0, 0, 1, 0, 0], dtype=bool))
                for i in range(40)}
    with_text = train(config, cohort, split, text_adapter=payloads.get)
    without = train(config, cohort, split, text_adapter=None)
    # the text term is a constant offset: no gradient flows through it
    pa, pb = model_params(with_text.model), model_params(without.model)
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)
    assert with_text.val_trace == without.val_trace
    assert all(a > b for a, b in zip(with_text.train_trace, without.train_trace))


def test_calibration_masking_counts():
    cohort = toy_cohort(40, contradict=True)
    split = split_cohort(40, seed=2)
    masked = train(tiny_config(calibration_correction=True, epochs=1),
                   cohort, split).masked_samples
    unmasked = train(tiny_config(calibration_correction=False, epochs=1),
                     cohort, split).masked_samples
    assert unmasked == 0
    assert masked > 0
    assert masked <= 40


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
    finalize_teacher(cohort, split)
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


def test_evaluate_without_teacher_reports_hidden_only():
    cohort = toy_cohort(40, teacher=False)
    split = split_cohort(40, seed=2)
    config = tiny_config()
    result = train(config, cohort, split)
    report = evaluate(result, cohort, split, config)
    assert set(report.channels) == {"hidden"}
    assert report.selected_lambda is None
    assert report.lambda_val_ctd is None


def test_run_experiment_deterministic_report():
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    config = tiny_config()
    rep_a = run_experiment(config, cohort, split)
    rep_b = run_experiment(config, cohort, split)
    assert rep_a.to_dict() == rep_b.to_dict()


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
        for a, b in zip(orig, redo):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)
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
    for s in cohort.samples:
        s.ge = None
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


@pytest.mark.filterwarnings("ignore:survival value", "ignore:verbalized probability")
def test_evaluate_before_finalize_teacher_raises(tmp_path):
    from survfuse import synth
    from survfuse.cohort import load_cohort
    from survfuse.pooling import attention_pool

    files = synth.generate(synth.GeneratorSpec(n=300, seed=3), str(tmp_path)).files
    cohort = load_cohort(files["outcomes"], covariates_path=files["covariates"],
                         ge_path=files["ge"], hidden_states_path=files["hidden"],
                         teacher_path=files["teacher"])
    for sample in cohort.samples:
        sample.text_pooled = attention_pool(sample.text_hidden)
    split = split_cohort(len(cohort), seed=0)
    config = tiny_config(epochs=1)
    result = train(config, cohort, split)
    # every response parsed, but no record has its percent yet
    assert all(s.teacher.any_extracted() and s.teacher.percent is None
               for s in cohort.samples)
    with pytest.raises(ValueError, match="teacher records not finalized"):
        evaluate(result, cohort, split, config)
    finalize_teacher(cohort, split)
    report = evaluate(result, cohort, split, config)
    assert report.channels["verbalized"].c_td is not None


def test_suite_finalizes_teacher_once(monkeypatch):
    import survfuse.training as training_module

    calls = []
    original = training_module.finalize_records

    def counting(records, train_ids=None):
        calls.append(len(records))
        return original(records, train_ids=train_ids)

    monkeypatch.setattr(training_module, "finalize_records", counting)
    cohort = toy_cohort(40)
    split = split_cohort(40, seed=2)
    configs = [("a", tiny_config(epochs=1)), ("b", tiny_config(epochs=1, seed=8))]
    reports = run_experiment_suite(configs, cohort, split)
    assert calls == [40]
    assert all(not isinstance(rep, str) for rep in reports.values())
    # a standalone run still finalizes, and reports what the suite reported
    assert run_experiment(configs[0][1], cohort, split).to_dict() == reports["a"].to_dict()
    assert calls == [40, 40]


def test_suite_reports_finalize_failure_per_run(monkeypatch):
    import survfuse.training as training_module

    def broken(records, train_ids=None):
        raise ValueError("no horizon means")

    monkeypatch.setattr(training_module, "finalize_records", broken)
    cohort = toy_cohort(20)
    split = split_cohort(20, seed=2)
    reports = run_experiment_suite([("a", tiny_config(epochs=1)),
                                    ("b", tiny_config(epochs=1))], cohort, split)
    assert reports == {"a": "failed: ValueError: no horizon means",
                       "b": "failed: ValueError: no horizon means"}
