"""Run configuration, the joint objective, the training loop with early
stopping, per-channel evaluation, and experiment suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import formats
from .blending import (DEFAULT_LAMBDA_GRID, blend_inputs, combine, floor_percents, mean_curve,
                       select_lambda, verbalized_curves)
from .cohort import Cohort, CohortSplit, modality_matrix, outcome_arrays
from .distill import calibration_mask, teacher_percents
from .heads import (CurveBlocks, CurveSet, TimeGrid, breslow_baseline, build_discrete_targets,
                    cox_curve, cox_loss, cox_loss_grad, discrete_curve, discrete_loss,
                    discrete_loss_grad)
from .metrics import c_td, ibs
from .model import (SurvivalModel, checked_structure, gate_values, gated_fusion,
                    init_model, model_backward, model_forward, model_params)
from .nn import adamw_step, init_adamw


@dataclass
class RunConfig:
    head: str = "discrete"
    fusion: str = "late"
    modalities: tuple[str, ...] = ("text", "cov", "ge")
    pretrain: bool = False
    calibration_correction: bool = False
    alpha: float | None = None   # default depends on head
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

    def __post_init__(self):
        self.modalities = checked_structure(self.head, self.fusion, self.modalities)
        if self.alpha is None:
            self.alpha = 1e-8 if self.head == "coxph" else 1e-9
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.patience > self.epochs:
            raise ValueError("patience cannot exceed epochs")


def config_from_kv(kv: dict[str, str]) -> RunConfig:
    """RunConfig from a flat key=value mapping (keys exactly the field names)."""
    return formats.dataclass_from_kv(RunConfig, kv)


def load_run_config(path: str) -> RunConfig:
    return config_from_kv(formats.parse_kv_file(path))


def _config_dict(config: RunConfig) -> dict:
    """The config as JSON-ready values: tuples become lists."""
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in config.__dict__.items()}


def _config_from_dict(raw: dict) -> RunConfig:
    """Inverse of `_config_dict`; keys this RunConfig lacks are an error."""
    stale = sorted(set(raw) - set(RunConfig.__dataclass_fields__))
    if stale:
        raise ValueError(f"checkpoint config has keys this version does not know: "
                         f"{stale}; retrain the model")
    return RunConfig(**{k: (tuple(v) if isinstance(v, list) else v)
                        for k, v in raw.items()})


def named_rngs(seed: int, names: tuple[str, ...]) -> dict[str, np.random.Generator]:
    """Independent generators derived from one master seed, keyed by role."""
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(child)
            for name, child in zip(names, children)}


def build_time_grid(config: RunConfig, train_times) -> TimeGrid:
    if config.grid == "quantile":
        return TimeGrid.from_quantiles(train_times, config.n_bins, config.horizon)
    return TimeGrid.equal_width(config.n_bins, config.horizon)


def total_loss(model: SurvivalModel, batch: dict, config: RunConfig,
               rng: np.random.Generator | None = None):
    """Joint objective L_surv + alpha * L_AE with gradients.

    `batch` holds the modality matrices plus 'times'/'events' (coxph) or
    'targets' (discrete).
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

    loss = l_surv + config.alpha * l_ae
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite loss: surv={l_surv} ae={l_ae}")
    grads = model_backward(model, fwd, grad_out, grad_recon=grad_recon)
    parts = {"surv": l_surv, "ae": l_ae}
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
    dims: dict[str, int] = field(default_factory=dict)


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
        data[m] = modality_matrix(cohort, indices, m)
    times, events = outcome_arrays(cohort, indices)
    data["times"] = times
    data["events"] = events
    if config.head == "discrete":
        data["targets"] = build_discrete_targets(times, events, grid)
    return data


def _val_surv_loss(model: SurvivalModel, data: dict) -> float:
    fwd = model_forward(model, data, rng=None, keep_cache=False)
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


def _masked_count(cohort: Cohort, percents: np.ndarray | None, config: RunConfig) -> int:
    """Teacher estimates the calibration mask rejects (0 without correction)."""
    if not config.calibration_correction or percents is None:
        return 0
    have = ~np.isnan(percents)
    keep = calibration_mask(percents[have], cohort.times[have], cohort.events[have])
    return int(keep.size - np.count_nonzero(keep))


def _build_model(config: RunConfig, dims: dict[str, int],
                 rng: np.random.Generator) -> SurvivalModel:
    return init_model(config.head, config.fusion, config.modalities, dims, rng,
                      n_bins=config.n_bins, head_layers=list(config.head_layers),
                      dropout=config.dropout, ae_hidden=list(config.ae_hidden),
                      latent_dim=config.latent_dim, ae_dropout=config.ae_dropout)


def train(config: RunConfig, cohort: Cohort, split: CohortSplit,
          warm_start: dict[str, np.ndarray] | None = None) -> TrainResult:
    """Mini-batch AdamW on the joint objective with early stopping.

    Monitors validation survival loss; restores the best checkpoint; for the
    CoxPH head, fits the Breslow baseline on train+val afterwards.
    """
    result = _train_loop(config, cohort, split, warm_start, config.batch_size,
                         config.epochs, config.patience)
    if config.head == "coxph":
        fit_idx = np.concatenate([split.train, split.val])
        fit_data = _split_data(cohort, fit_idx, config, result.grid)
        fwd = model_forward(result.model, fit_data, rng=None, keep_cache=False)
        result.baseline = breslow_baseline(fwd.out, fit_data["times"], fit_data["events"])
    return result


def _train_loop(config: RunConfig, cohort: Cohort, split: CohortSplit,
                warm_start: dict[str, np.ndarray] | None, batch_size: int,
                epochs: int, patience: int) -> TrainResult:
    """`train`'s epoch loop: the model at its best validation epoch, no baseline."""
    rngs = named_rngs(config.seed, ("init", "shuffle", "dropout", "pretrain"))
    grid = None
    if config.head == "discrete":
        train_times, _ = outcome_arrays(cohort, split.train)
        grid = build_time_grid(config, train_times)

    train_data = _split_data(cohort, split.train, config, grid)
    val_data = _split_data(cohort, split.val, config, grid)
    dims = {m: train_data[m].shape[1] for m in config.modalities}

    model = _build_model(config, dims, rngs["init"])
    if warm_start:
        _inject(model, warm_start)

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
            loss, _, grads = total_loss(model, batch, config, rng=rngs["dropout"])
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
    return TrainResult(model=model, grid=grid, baseline=None,
                       train_trace=train_trace, val_trace=val_trace,
                       best_epoch=best_epoch, skipped_batches=skipped, dims=dims)


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
        result = _train_loop(sub, cohort, split, None, config.pretrain_batch_size,
                             config.pretrain_epochs, config.pretrain_patience)
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
        return {
            "config": _config_dict(self.config),
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


def _hidden_curves(result: TrainResult, data: dict) -> CurveSet | CurveBlocks:
    """The model's curves for `data` (one inference forward): the whole set
    for the discrete head, column blocks on the Breslow grid for Cox."""
    out = model_forward(result.model, data, rng=None, keep_cache=False).out
    if result.model.head_type == "discrete":
        return discrete_curve(out, result.grid)
    return cox_curve(out, result.baseline)


def predict_curves(result: TrainResult, cohort: Cohort, indices,
                   config: RunConfig) -> CurveSet:
    """Survival curves for the given samples under the trained model."""
    data = _split_data(cohort, indices, config, result.grid)
    return _hidden_curves(result, data).whole()


def _channel(curves, times, events) -> ChannelMetrics:
    return ChannelMetrics(c_td=c_td(curves, times, events),
                          ibs=ibs(curves, times, events).value)


def _channels(hidden: CurveSet | CurveBlocks, times, events, percents=None,
              lam: float | None = None) -> dict[str, ChannelMetrics]:
    """Metrics of the hidden channel and, given the teacher's percents (NaN
    where absent) and the blend weight, of the verbalized and combined ones.

    The verbalized channel is each present percent's curve, and the mean of
    those curves for every absent one. The combined channel reads
    `hidden`'s columns through `blend_inputs` and `combine`. Both are column
    readers, so they equal the same columns of the whole sets, and the
    metrics read one block at a time.
    """
    channels = {"hidden": _channel(hidden, times, events)}
    if percents is None:
        return channels
    present = ~np.isnan(percents)
    if not present.any():
        channels["verbalized"] = ChannelMetrics(
            c_td=None, ibs=None, note="no extractable teacher probabilities")
        channels["combined"] = ChannelMetrics(
            c_td=channels["hidden"].c_td, ibs=channels["hidden"].ibs,
            note="combined equals hidden (all verbalized missing)")
        return channels

    def verbalized(cols):
        own = verbalized_curves(percents[present], hidden.times[cols])
        if present.all():
            return own
        values = np.empty((present.size, own.shape[1]))
        values[present] = own
        values[~present] = mean_curve(own)
        return values

    def combined(cols):
        values = hidden.columns(cols)
        return combine(values, blend_inputs(values, hidden.times[cols], percents)[0], lam)

    for name, columns in (("verbalized", verbalized), ("combined", combined)):
        channels[name] = _channel(CurveBlocks(hidden.times, len(hidden), columns),
                                  times, events)
    return channels


def evaluate(result: TrainResult, cohort: Cohort, split: CohortSplit,
             config: RunConfig) -> RunReport:
    """Test-set metrics for the hidden, verbalized, and combined channels.

    The teacher's percents are `finalize_teacher`'s. Each split's hidden
    curves are built once (`_hidden_curves`), and the metrics read every
    channel a block of columns at a time, so the scores equal those of the
    whole sets and no (N, T) matrix is made for the Cox grid. Each split's
    percents are floored once, before any block is read, so a split warns
    once about its 0% estimates.
    """
    percents = finalize_teacher(cohort)
    selected = val_score = test_percents = None
    if percents is not None:
        val_data = _split_data(cohort, split.val, config, result.grid)
        selected, val_score = select_lambda(_hidden_curves(result, val_data), percents[split.val],
                                            val_data["times"], val_data["events"],
                                            grid=config.lambda_grid)
        test_percents = floor_percents(percents[split.test])
    test_data = _split_data(cohort, split.test, config, result.grid)
    channels = _channels(_hidden_curves(result, test_data), test_data["times"],
                         test_data["events"], test_percents, selected)
    return RunReport(config=config, channels=channels, selected_lambda=selected,
                     lambda_val_ctd=val_score, gates=gate_values(result.model),
                     train_trace=result.train_trace, val_trace=result.val_trace,
                     best_epoch=result.best_epoch,
                     skipped_batches=result.skipped_batches,
                     masked_samples=_masked_count(cohort, percents, config))


def finalize_teacher(cohort: Cohort) -> np.ndarray | None:
    """`teacher_percents` of the cohort's horizon matrix: each sample's
    rounded 3-year percent, NaN where nothing was extracted (None without a
    teacher). The cohort is left unchanged."""
    return None if cohort.teacher_probs is None else teacher_percents(cohort.teacher_probs)


def train_and_evaluate(config: RunConfig, cohort: Cohort,
                       split: CohortSplit) -> tuple[TrainResult, RunReport]:
    """Pretrain (late fusion of several modalities, if asked), train, and
    evaluate one configuration."""
    warm = None
    if config.pretrain and gated_fusion(config.fusion, config.modalities):
        warm = pretrain_heads(config, cohort, split)
    result = train(config, cohort, split, warm_start=warm)
    return result, evaluate(result, cohort, split, config)


def run_experiment_suite(named_configs: list[tuple[str, RunConfig]],
                         cohort: Cohort, split: CohortSplit) -> dict[str, RunReport | str]:
    """`train_and_evaluate` each configuration on the shared split; a
    failure is reported as that run's entry, and the suite goes on."""
    reports: dict[str, RunReport | str] = {}
    for name, config in named_configs:
        try:
            reports[name] = train_and_evaluate(config, cohort, split)[1]
        except Exception as exc:  # noqa: BLE001 - suite must continue
            reports[name] = f"failed: {type(exc).__name__}: {exc}"
    return reports


def save_checkpoint(path: str, result: TrainResult, config: RunConfig) -> None:
    """Persist trained parameters plus everything needed to rebuild the model."""
    manifest = {
        "config": _config_dict(config),
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
    config = _config_from_dict(manifest["config"])
    model = _build_model(config, manifest["dims"], np.random.default_rng(0))
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
                         skipped_batches=0,
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
