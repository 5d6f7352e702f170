"""Run configuration, the joint objective, the training loop with early
stopping, per-channel evaluation, and experiment suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import formats
from .blending import DEFAULT_LAMBDA_GRID, blend_inputs, combine, select_lambda
from .cohort import Cohort, CohortSplit, modality_matrix, outcome_arrays
from .distill import (TeacherRecord, calibration_mask, finalize_records,
                      weighted_text_loss)
from .fusion import MODALITY_ORDER
from .heads import (CurveSet, TimeGrid, breslow_baseline, build_discrete_targets,
                    cox_curve, cox_loss, cox_loss_grad, discrete_curve, discrete_loss,
                    discrete_loss_grad)
from .metrics import c_td, ibs
from .model import (SurvivalModel, gate_values, init_model, model_backward,
                    model_forward, model_params)
from .nn import adamw_step, init_adamw


@dataclass
class RunConfig:
    head: str = "discrete"
    fusion: str = "late"
    modalities: tuple[str, ...] = ("text", "cov", "ge")
    pretrain: bool = False
    calibration_correction: bool = False
    alpha: float | None = None   # default depends on head
    beta: float | None = None
    n_bins: int = 30
    grid: str = "equal"          # 'equal' | 'quantile'
    horizon: float = 5.0
    batch_size: int = 16
    epochs: int = 30
    patience: int = 5
    pretrain_batch_size: int = 512
    pretrain_epochs: int = 1000
    pretrain_patience: int = 5
    seed: int = 0
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    lr_head: float = 1e-3
    lr_gates: float = 1e-4
    lr_ae: float = 1e-3
    weight_decay: float = 0.01
    dropout: float = 0.3
    head_layers: tuple[int, ...] = (100, 100, 100)
    ae_hidden: tuple[int, ...] = (64, 32)
    latent_dim: int = 16
    ae_dropout: float = 0.0
    text_loss_w: float = 2.0
    text_loss_w_num: float = 5.0

    def __post_init__(self):
        if self.head not in ("discrete", "coxph"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.fusion not in ("early", "late", "none"):
            raise ValueError(f"unknown fusion {self.fusion!r}")
        mods = tuple(m for m in MODALITY_ORDER if m in self.modalities)
        if not mods or set(self.modalities) - set(MODALITY_ORDER):
            raise ValueError(f"bad modalities {self.modalities}")
        self.modalities = mods
        if self.fusion == "none" and len(mods) > 1:
            raise ValueError("fusion 'none' requires a single modality")
        if self.alpha is None:
            self.alpha = 1e-8 if self.head == "coxph" else 1e-9
        if self.beta is None:
            self.beta = 5.0 if self.head == "coxph" else 1.0
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.patience > self.epochs:
            raise ValueError("patience cannot exceed epochs")


_LIST_FIELDS = {"modalities": str, "lambda_grid": float,
                "head_layers": int, "ae_hidden": int}
_BOOL_FIELDS = {"pretrain", "calibration_correction"}


def config_from_kv(kv: dict[str, str]) -> RunConfig:
    """RunConfig from a flat key=value mapping (keys exactly the field names)."""
    kwargs = {}
    valid = set(RunConfig.__dataclass_fields__)
    for key, raw in kv.items():
        if key not in valid:
            raise ValueError(f"unknown config key {key!r}")
        if key in _LIST_FIELDS:
            cast = _LIST_FIELDS[key]
            kwargs[key] = tuple(cast(part.strip()) for part in raw.split(",") if part.strip())
        elif key in _BOOL_FIELDS:
            if raw.strip().lower() not in ("true", "false"):
                raise ValueError(f"{key} must be true or false, got {raw!r}")
            kwargs[key] = raw.strip().lower() == "true"
        else:
            anno = RunConfig.__dataclass_fields__[key].type
            if key in ("head", "fusion", "grid"):
                kwargs[key] = raw.strip()
            elif "int" in anno:
                kwargs[key] = int(raw)
            else:
                kwargs[key] = float(raw)
    return RunConfig(**kwargs)


def load_run_config(path: str) -> RunConfig:
    return config_from_kv(formats.parse_kv_file(path))


def named_rngs(seed: int, names: tuple[str, ...]) -> dict[str, np.random.Generator]:
    """Independent generators derived from one master seed, keyed by role."""
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(child)
            for name, child in zip(names, children)}


def build_time_grid(config: RunConfig, train_times) -> TimeGrid:
    if config.grid == "quantile":
        return TimeGrid.from_quantiles(train_times, config.n_bins, config.horizon)
    return TimeGrid.equal_width(config.n_bins, config.horizon)


@dataclass
class TextBatch:
    """Per-sample text-loss ingredients supplied by an adapter (may be empty)."""

    losses: list[float]          # weighted per-sample text losses
    included: list[bool]         # calibration-correction flags


def _batch_text_loss(text_batch: TextBatch | None) -> float:
    """Mean weighted text loss over calibration-included samples, 0 if none."""
    if text_batch is None:
        return 0.0
    vals = [loss for loss, ok in zip(text_batch.losses, text_batch.included) if ok]
    return float(np.mean(vals)) if vals else 0.0


def total_loss(model: SurvivalModel, batch: dict, config: RunConfig,
               rng: np.random.Generator | None = None,
               text_batch: TextBatch | None = None):
    """Joint objective L_surv + alpha * L_AE + beta * L_text with gradients.

    `batch` holds the modality matrices plus 'times'/'events' (coxph) or
    'targets' (discrete). The text term carries no gradient: the token NLLs
    come from a frozen external model.
    """
    fwd = model_forward(model, batch, rng=rng)
    if model.head_type == "discrete":
        l_surv, grad_out = discrete_loss_grad(fwd.out, batch["targets"])
    else:
        l_surv, grad_out = cox_loss_grad(fwd.out, batch["times"], batch["events"])

    l_ae = 0.0
    grad_recon = None
    if model.ae is not None:
        x = batch["ge"]
        resid = fwd.recon - x
        n, d = x.shape
        l_ae = float((resid ** 2).sum() / (n * d))
        grad_recon = config.alpha * 2.0 * resid / (n * d)

    l_text = _batch_text_loss(text_batch)
    loss = l_surv + config.alpha * l_ae + config.beta * l_text
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite loss: surv={l_surv} ae={l_ae} text={l_text}")
    grads = model_backward(model, fwd, grad_out, grad_recon=grad_recon)
    parts = {"surv": l_surv, "ae": l_ae, "text": l_text}
    return loss, parts, grads


def _learning_rate(config: RunConfig):
    def rate(name: str) -> float:
        if name.startswith("gates."):
            return config.lr_gates
        if name.startswith(("enc.", "dec.")):
            return config.lr_ae
        return config.lr_head
    return rate


@dataclass
class TrainResult:
    model: SurvivalModel
    grid: TimeGrid | None
    baseline: object | None
    train_trace: list[float]
    val_trace: list[float]
    best_epoch: int
    skipped_batches: int
    masked_samples: int
    dims: dict[str, int] = field(default_factory=dict)
    text_included: dict[str, bool] = field(default_factory=dict)


def _gather_batch(data: dict, idx: np.ndarray, head: str) -> dict:
    batch = {m: data[m][idx] for m in data["modalities"]}
    if head == "discrete":
        targets = data["targets"]
        batch["targets"] = type(targets)(y=targets.y[idx], a=targets.a[idx])
    else:
        batch["times"] = data["times"][idx]
        batch["events"] = data["events"][idx]
    return batch


def _split_data(cohort: Cohort, indices, config: RunConfig,
                grid: TimeGrid | None) -> dict:
    data: dict = {"modalities": config.modalities}
    for m in config.modalities:
        attr = "text_pooled" if m == "text" else m
        data[m] = modality_matrix(cohort, indices, attr)
    times, events = outcome_arrays(cohort, indices)
    data["times"] = times
    data["events"] = events
    if config.head == "discrete":
        data["targets"] = build_discrete_targets(times, events, grid)
    return data


def _val_surv_loss(model: SurvivalModel, data: dict) -> float:
    fwd = model_forward(model, data, rng=None)
    if model.head_type == "discrete":
        return discrete_loss(fwd.out, data["targets"])
    return cox_loss(fwd.out, data["times"], data["events"])


def _inject(dst: SurvivalModel, src_params: dict[str, np.ndarray]) -> None:
    """Copy pretrained tensors into the joint model by parameter name."""
    dst_params = model_params(dst)
    for name, value in src_params.items():
        if name not in dst_params:
            raise ValueError(f"no target parameter {name!r} for injection")
        np.copyto(dst_params[name], value)


def _text_flags(cohort: Cohort, config: RunConfig,
                records: list[TeacherRecord]) -> tuple[dict[str, bool], int]:
    """Per-sample text-loss inclusion under the calibration-correction flag."""
    outcome = {s.sample_id: (s.outcome.time, s.outcome.event) for s in cohort.samples}
    flags: dict[str, bool] = {}
    masked = 0
    for rec in records:
        ok = True
        if config.calibration_correction and rec.percent is not None:
            t, e = outcome[rec.sample_id]
            ok = calibration_mask(rec.percent, t, e)
        flags[rec.sample_id] = ok
        if not ok:
            masked += 1
    return flags, masked


def train(config: RunConfig, cohort: Cohort, split: CohortSplit,
          text_adapter=None, warm_start: dict[str, np.ndarray] | None = None,
          batch_size: int | None = None, epochs: int | None = None,
          patience: int | None = None) -> TrainResult:
    """Mini-batch AdamW on the joint objective with early stopping.

    Monitors validation survival loss; restores the best checkpoint; for the
    CoxPH head, fits the Breslow baseline on train+val afterwards. A text
    adapter maps sample id -> (token_nlls, vprob_mask, num_mask) or None.
    """
    batch_size = batch_size or config.batch_size
    epochs = config.epochs if epochs is None else epochs
    patience = config.patience if patience is None else patience

    rngs = named_rngs(config.seed, ("init", "shuffle", "dropout", "pretrain"))
    grid = None
    if config.head == "discrete":
        train_times, _ = outcome_arrays(cohort, split.train)
        grid = build_time_grid(config, train_times)

    dims = {}
    probe = _split_data(cohort, split.train[:1], config, grid)
    for m in config.modalities:
        dims[m] = probe[m].shape[1]

    model = init_model(config.head, config.fusion, config.modalities, dims,
                       rngs["init"], n_bins=config.n_bins,
                       head_layers=list(config.head_layers), dropout=config.dropout,
                       ae_hidden=list(config.ae_hidden), latent_dim=config.latent_dim,
                       ae_dropout=config.ae_dropout)
    if warm_start:
        _inject(model, warm_start)

    train_data = _split_data(cohort, split.train, config, grid)
    val_data = _split_data(cohort, split.val, config, grid)

    records = [s.teacher for s in cohort.samples if s.teacher is not None]
    text_flags, masked = _text_flags(cohort, config, records)
    train_ids = [cohort.samples[i].sample_id for i in split.train]

    def text_batch_for(idx: np.ndarray) -> TextBatch | None:
        if text_adapter is None or config.beta == 0.0:
            return None
        losses, included = [], []
        for i in idx:
            sid = train_ids[i]
            payload = text_adapter(sid)
            if payload is None:
                continue
            nlls, vmask, nmask = payload
            losses.append(weighted_text_loss(nlls, vmask, nmask,
                                             w=config.text_loss_w,
                                             w_num=config.text_loss_w_num))
            included.append(text_flags.get(sid, True))
        return TextBatch(losses=losses, included=included) if losses else None

    opt = init_adamw(model_params(model), _learning_rate(config),
                     weight_decay=config.weight_decay)

    n_train = split.train.size
    best_val = math.inf
    best_snapshot = model.flat.copy()
    best_epoch = 0
    since_improve = 0
    skipped = 0
    train_trace: list[float] = []
    val_trace: list[float] = []

    for epoch in range(1, epochs + 1):
        order = rngs["shuffle"].permutation(n_train)
        epoch_losses = []
        for start in range(0, n_train, batch_size):
            idx = order[start:start + batch_size]
            batch = _gather_batch(train_data, idx, config.head)
            if config.head == "coxph" and not batch["events"].any():
                skipped += 1
                continue
            loss, _, grads = total_loss(model, batch, config, rng=rngs["dropout"],
                                        text_batch=text_batch_for(idx))
            adamw_step(model.flat, grads.flat, opt)
            epoch_losses.append(loss)
        train_trace.append(float(np.mean(epoch_losses)) if epoch_losses else math.nan)

        val_loss = _val_surv_loss(model, val_data)
        val_trace.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = model.flat.copy()
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= patience:
            break

    np.copyto(model.flat, best_snapshot)

    baseline = None
    if config.head == "coxph":
        fit_idx = np.concatenate([split.train, split.val])
        fit_data = _split_data(cohort, fit_idx, config, grid)
        fwd = model_forward(model, fit_data, rng=None)
        baseline = breslow_baseline(fwd.out, fit_data["times"], fit_data["events"])

    return TrainResult(model=model, grid=grid, baseline=baseline,
                       train_trace=train_trace, val_trace=val_trace,
                       best_epoch=best_epoch, skipped_batches=skipped,
                       masked_samples=masked, dims=dims, text_included=text_flags)


def pretrain_heads(config: RunConfig, cohort: Cohort,
                   split: CohortSplit) -> dict[str, np.ndarray]:
    """Train cov and ge heads alone at the pretraining batch size.

    Returns a flat parameter dict keyed by the joint model's names: the
    single-modality heads land on head_cov / head_ge, and the ge run's
    autoencoder becomes the warm start for enc / dec.
    """
    warm: dict[str, np.ndarray] = {}
    for m in ("cov", "ge"):
        if m not in config.modalities:
            continue
        sub = replace(config, fusion="none", modalities=(m,), pretrain=False)
        result = train(sub, cohort, split,
                       batch_size=config.pretrain_batch_size,
                       epochs=config.pretrain_epochs,
                       patience=config.pretrain_patience)
        for name, value in model_params(result.model).items():
            prefix, rest = name.split(".", 1)
            joint = f"head_{m}.{rest}" if prefix == "head" else name
            warm[joint] = value.copy()
    return warm


@dataclass
class ChannelMetrics:
    c_td: float | None
    ibs: float | None
    note: str | None = None


@dataclass
class RunReport:
    config: RunConfig
    channels: dict[str, ChannelMetrics]
    selected_lambda: float | None
    lambda_val_ctd: float | None
    gates: dict | None
    train_trace: list[float]
    val_trace: list[float]
    best_epoch: int
    skipped_batches: int
    masked_samples: int

    def to_dict(self) -> dict:
        cfg = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in self.config.__dict__.items()}
        return {
            "config": cfg,
            "channels": {name: {"c_td": m.c_td, "ibs": m.ibs, "note": m.note}
                         for name, m in self.channels.items()},
            "selected_lambda": self.selected_lambda,
            "lambda_val_ctd": self.lambda_val_ctd,
            "gates": self.gates,
            "train_trace": self.train_trace,
            "val_trace": self.val_trace,
            "best_epoch": self.best_epoch,
            "skipped_batches": self.skipped_batches,
            "masked_samples": self.masked_samples,
        }


def _hidden_curves(result: TrainResult, data: dict) -> CurveSet:
    fwd = model_forward(result.model, data, rng=None)
    if result.model.head_type == "discrete":
        return discrete_curve(fwd.out, result.grid)
    return cox_curve(fwd.out, result.baseline)


def predict_curves(result: TrainResult, cohort: Cohort, indices,
                   config: RunConfig) -> CurveSet:
    """Survival curves for the given samples under the trained model."""
    data = _split_data(cohort, indices, config, result.grid)
    return _hidden_curves(result, data)


def _verbalized_inputs(cohort: Cohort, indices):
    """Per-sample rounded percents (None when no probability was extractable).

    Raises when a record has extractions but no percent yet: finalize_teacher
    has not run, and reading it as "missing" would hide every estimate.
    """
    percents = []
    for i in np.asarray(indices, dtype=np.int64):
        rec = cohort.samples[i].teacher
        if rec is None or not rec.any_extracted():
            percents.append(None)
        elif rec.percent is None:
            raise ValueError(f"teacher records not finalized (sample "
                             f"{rec.sample_id!r}); call finalize_teacher first")
        else:
            percents.append(rec.percent)
    return percents


def _channel(curves: CurveSet, times, events) -> ChannelMetrics:
    return ChannelMetrics(c_td=c_td(curves, times, events),
                          ibs=ibs(curves, times, events).value)


def evaluate(result: TrainResult, cohort: Cohort, split: CohortSplit,
             config: RunConfig) -> RunReport:
    """Test-set metrics for the hidden, verbalized, and combined channels."""
    val_data = _split_data(cohort, split.val, config, result.grid)
    test_data = _split_data(cohort, split.test, config, result.grid)
    t_test, e_test = test_data["times"], test_data["events"]
    test_curves = _hidden_curves(result, test_data)
    channels = {"hidden": _channel(test_curves, t_test, e_test)}

    selected = val_score = None
    if any(s.teacher is not None for s in cohort.samples):
        val_curves = _hidden_curves(result, val_data)
        val_blend, _, _ = blend_inputs(val_curves,
                                       _verbalized_inputs(cohort, split.val))
        selected, val_score = select_lambda(val_curves, val_blend, val_data["times"],
                                            val_data["events"], grid=config.lambda_grid)
        del val_curves, val_blend
        test_blend, test_verb, n_present = blend_inputs(
            test_curves, _verbalized_inputs(cohort, split.test))
        if n_present == 0:
            channels["verbalized"] = ChannelMetrics(
                c_td=None, ibs=None, note="no extractable teacher probabilities")
            channels["combined"] = ChannelMetrics(
                c_td=channels["hidden"].c_td, ibs=channels["hidden"].ibs,
                note="combined equals hidden (all verbalized missing)")
        else:
            channels["verbalized"] = _channel(test_verb, t_test, e_test)
            del test_verb
            channels["combined"] = _channel(combine(test_curves, test_blend, selected),
                                            t_test, e_test)

    return RunReport(config=config, channels=channels, selected_lambda=selected,
                     lambda_val_ctd=val_score, gates=gate_values(result.model),
                     train_trace=result.train_trace, val_trace=result.val_trace,
                     best_epoch=result.best_epoch,
                     skipped_batches=result.skipped_batches,
                     masked_samples=result.masked_samples)


def finalize_teacher(cohort: Cohort, split: CohortSplit) -> None:
    """Fit and round every teacher record's 3-year percent, means from train."""
    records = [s.teacher for s in cohort.samples if s.teacher is not None]
    if not records:
        return
    train_ids = {cohort.samples[i].sample_id for i in split.train}
    finalize_records(records, train_ids=train_ids)


def _pretrain_train_evaluate(config: RunConfig, cohort: Cohort, split: CohortSplit,
                             text_adapter=None) -> RunReport:
    warm = None
    if config.pretrain and config.fusion == "late" and len(config.modalities) > 1:
        warm = pretrain_heads(config, cohort, split)
    result = train(config, cohort, split, text_adapter=text_adapter,
                   warm_start=warm)
    return evaluate(result, cohort, split, config)


def run_experiment(config: RunConfig, cohort: Cohort, split: CohortSplit,
                   text_adapter=None) -> RunReport:
    """Finalize the teacher records, pretrain (optional), train, and evaluate
    one configuration."""
    finalize_teacher(cohort, split)
    return _pretrain_train_evaluate(config, cohort, split, text_adapter)


def run_experiment_suite(named_configs: list[tuple[str, RunConfig]],
                         cohort: Cohort, split: CohortSplit,
                         text_adapter=None) -> dict[str, RunReport | str]:
    """Run each configuration on the shared split; failures are isolated.

    The teacher records are finalized once: the result depends only on their
    probabilities and the training ids, which every configuration shares.
    """
    try:
        finalize_teacher(cohort, split)
    except Exception as exc:  # noqa: BLE001 - reported per run, as below
        return {name: f"failed: {type(exc).__name__}: {exc}" for name, _ in named_configs}
    reports: dict[str, RunReport | str] = {}
    for name, config in named_configs:
        try:
            reports[name] = _pretrain_train_evaluate(config, cohort, split,
                                                     text_adapter=text_adapter)
        except Exception as exc:  # noqa: BLE001 - suite must continue
            reports[name] = f"failed: {type(exc).__name__}: {exc}"
    return reports


def save_checkpoint(path: str, result: TrainResult, config: RunConfig) -> None:
    """Persist trained parameters plus everything needed to rebuild the model."""
    manifest = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in config.__dict__.items()},
        "dims": result.dims,
        "grid_edges": result.grid.edges.tolist() if result.grid else None,
        "baseline": {
            "event_times": result.baseline.event_times.tolist(),
            "increments": result.baseline.increments.tolist(),
        } if result.baseline is not None else None,
        "best_epoch": result.best_epoch,
    }
    formats.write_checkpoint(path, model_params(result.model), manifest)


def load_checkpoint(path: str) -> tuple[TrainResult, RunConfig]:
    """Rebuild the trained model (no traces) from a checkpoint file."""
    from .heads import BreslowBaseline

    tensors, manifest = formats.read_checkpoint(path)
    cfg_raw = dict(manifest["config"])
    for key in ("modalities", "lambda_grid", "head_layers", "ae_hidden"):
        if key in cfg_raw and isinstance(cfg_raw[key], list):
            cfg_raw[key] = tuple(cfg_raw[key])
    config = RunConfig(**cfg_raw)

    model = init_model(config.head, config.fusion, config.modalities,
                       manifest["dims"], np.random.default_rng(0),
                       n_bins=config.n_bins, head_layers=list(config.head_layers),
                       dropout=config.dropout, ae_hidden=list(config.ae_hidden),
                       latent_dim=config.latent_dim, ae_dropout=config.ae_dropout)
    params = model_params(model)
    if set(params) != set(tensors):
        raise ValueError("checkpoint parameters do not match the configured model")
    for name, value in tensors.items():
        if value.shape != params[name].shape:
            raise ValueError(f"checkpoint tensor {name!r} has shape {value.shape}, "
                             f"the configured model expects {params[name].shape}")
        np.copyto(params[name], value)

    grid = TimeGrid(np.array(manifest["grid_edges"])) if manifest["grid_edges"] else None
    baseline = None
    if manifest["baseline"] is not None:
        baseline = BreslowBaseline(
            event_times=np.array(manifest["baseline"]["event_times"]),
            increments=np.array(manifest["baseline"]["increments"]))
    result = TrainResult(model=model, grid=grid, baseline=baseline,
                         train_trace=[], val_trace=[],
                         best_epoch=manifest.get("best_epoch", 0),
                         skipped_batches=0, masked_samples=0,
                         dims=dict(manifest["dims"]))
    return result, config


def report_table(reports: dict[str, RunReport | str]) -> str:
    """Aligned plain-text comparison of per-channel metrics."""
    headers = ["run", "channel", "c_td", "ibs", "lambda", "note"]
    rows = []
    for name, rep in reports.items():
        if isinstance(rep, str):
            rows.append([name, "-", "-", "-", "-", rep])
            continue
        for channel, m in rep.channels.items():
            rows.append([
                name, channel,
                "-" if m.c_td is None else f"{m.c_td:.4f}",
                "-" if m.ibs is None else f"{m.ibs:.4f}",
                "-" if rep.selected_lambda is None else f"{rep.selected_lambda:.2f}",
                m.note or "",
            ])
    widths = [max(len(str(r[i])) for r in [headers] + rows) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
