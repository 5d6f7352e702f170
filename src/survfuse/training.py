"""Run configuration, the joint objective, the training loop with early
stopping, per-channel evaluation, and experiment suites."""

from __future__ import annotations

import ctypes
import math
import os
import signal
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import formats
from .blending import DEFAULT_LAMBDA_GRID, combined_blocks, select_lambda, verbalized_blocks
from .cohort import Cohort, modality_matrix, outcome_arrays
from .distill import teacher_percents
from .heads import HEAD_ALPHA, CoxHead, CurveSet, DiscreteHead, init_head, read_head
from .metrics import c_td, ibs
from .model import (SurvivalModel, checked_structure, gate_values, gated_fusion,
                    init_model, model_backward, model_forward, model_params)
from .nn import Workspace, adamw_step, init_adamw


@dataclass
class RunConfig:
    head: str = "discrete"
    fusion: str = "late"
    modalities: tuple[str, ...] = ("text", "cov", "ge")
    pretrain: bool = False
    alpha: float | None = None   # default depends on head (heads.HEAD_ALPHA)
    n_bins: int = 30             # requested; a quantile grid may merge tied edges
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
        if self.head not in HEAD_ALPHA:
            raise ValueError(f"unknown head {self.head!r}")
        self.modalities = checked_structure(self.fusion, self.modalities)
        if self.alpha is None:
            self.alpha = HEAD_ALPHA[self.head]
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 < self.horizon < math.inf:  # NaN fails too
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        for name in ("batch_size", "pretrain_batch_size", "n_bins", "epochs", "pretrain_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.grid not in ("equal", "quantile"):
            raise ValueError(f"grid must be 'equal' or 'quantile', not {self.grid!r}")
        if self.patience > self.epochs:
            raise ValueError("patience cannot exceed epochs")
        if self.pretrain_patience > self.pretrain_epochs:
            raise ValueError("pretrain_patience cannot exceed pretrain_epochs")
        for name in ("lr_head", "lr_gates", "lr_ae", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def load_run_config(path: str) -> RunConfig:
    """RunConfig from a key=value file (keys exactly the field names)."""
    kv = formats.parse_kv_file(path)
    if "calibration_correction" in kv:
        raise ValueError(f"{path}: config key 'calibration_correction' is retired: the "
                         f"calibration mask acts in `survfuse parse-teacher --outcomes`")
    return formats.dataclass_from_kv(RunConfig, kv, path)


def _config_from_dict(raw: dict) -> RunConfig:
    """Inverse of JSON'd `asdict` (lists become tuples); unknown keys are an error."""
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


def total_loss(model: SurvivalModel, head: DiscreteHead | CoxHead, batch: dict,
               config: RunConfig, rng: np.random.Generator | None = None,
               work: Workspace | None = None):
    """Joint objective L_surv + alpha * L_AE with gradients.

    `batch` holds the modality matrices plus the head's target rows. The
    step writes into `work` (a new workspace if None), and so do the
    returned gradients.
    """
    work = Workspace() if work is None else work
    fwd = model_forward(model, batch, rng=rng, work=work)
    l_surv, grad_out = head.loss_grad(fwd.out, batch)

    l_ae = 0.0
    grad_recon = None
    if model.ae is not None:
        x = batch["ge"]
        n, d = x.shape
        resid = np.subtract(fwd.recon, x, out=work.array("resid", x.shape))
        l_ae = float(np.square(resid, out=work.array("resid_sq", x.shape)).sum() / (n * d))
        grad_recon = np.multiply(config.alpha * 2.0, resid, out=work.array("grad_recon", x.shape))
        grad_recon /= n * d

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
    """A trained model, the config that built it, its head and its training record."""

    config: RunConfig
    model: SurvivalModel
    head: DiscreteHead | CoxHead
    train_trace: list[float]
    val_trace: list[float]
    best_epoch: int
    skipped_batches: int
    dims: dict[str, int] = field(default_factory=dict)


# The training record that a report and a checkpoint both carry.
_RECORD = ("train_trace", "val_trace", "best_epoch", "skipped_batches")


def _forward(model: SurvivalModel, cohort: Cohort, indices) -> np.ndarray:
    """The model's (N, width) outputs for the samples `indices` (one inference forward)."""
    inputs = {m: modality_matrix(cohort, indices, m) for m in model.modalities}
    return model_forward(model, inputs).out


def _rows(cohort: Cohort, indices, config: RunConfig, head: DiscreteHead | CoxHead) -> dict:
    """The modality matrices and head targets of `indices`, one row per sample."""
    return {**{m: modality_matrix(cohort, indices, m) for m in config.modalities},
            **head.targets(*outcome_arrays(cohort, indices))}


def _inject(dst: SurvivalModel, src_params: dict[str, np.ndarray]) -> None:
    """Copy pretrained tensors into the joint model by parameter name."""
    dst_params = model_params(dst)
    for name, value in src_params.items():
        if name not in dst_params:
            raise ValueError(f"no target parameter {name!r} for injection")
        np.copyto(dst_params[name], value)


def _build_model(config: RunConfig, dims: dict[str, int], rng: np.random.Generator,
                 width: int) -> SurvivalModel:
    return init_model(config.fusion, config.modalities, dims, rng, width,
                      head_layers=list(config.head_layers),
                      dropout=config.dropout, ae_hidden=list(config.ae_hidden),
                      latent_dim=config.latent_dim, ae_dropout=config.ae_dropout)


def train(config: RunConfig, cohort: Cohort,
          warm_start: dict[str, np.ndarray] | None = None) -> TrainResult:
    """Mini-batch AdamW on the joint objective with early stopping.

    Monitors validation survival loss; restores the best checkpoint; then
    fits the head on train+val (the Breslow baseline of a Cox head).
    """
    result = _train_loop(config, cohort, warm_start)
    fit_idx = np.concatenate([cohort.split.train, cohort.split.val])
    result.head = result.head.fitted(lambda: (_forward(result.model, cohort, fit_idx),
                                              *outcome_arrays(cohort, fit_idx)))
    return result


def _train_loop(config: RunConfig, cohort: Cohort,
                warm_start: dict[str, np.ndarray] | None) -> TrainResult:
    """`train`'s epoch loop: the model at its best validation epoch, head unfitted."""
    split = cohort.split
    rngs = named_rngs(config.seed, ("init", "shuffle", "dropout"))
    head = init_head(config, outcome_arrays(cohort, split.train)[0])
    train_data = _rows(cohort, split.train, config, head)
    val_data = _rows(cohort, split.val, config, head)
    dims = {m: train_data[m].shape[1] for m in config.modalities}

    model = _build_model(config, dims, rngs["init"], head.width)
    if warm_start:
        _inject(model, warm_start)

    opt = init_adamw(model_params(model), _learning_rate(config),
                     weight_decay=config.weight_decay)

    n_train = split.train.size
    work = Workspace()  # every step's arrays, until the loop returns
    best_val = math.inf
    best_snapshot = model.flat.copy()
    best_epoch = 0
    since_improve = 0
    skipped = 0
    train_trace: list[float] = []
    val_trace: list[float] = []

    for epoch in range(1, config.epochs + 1):
        order = rngs["shuffle"].permutation(n_train)
        epoch_losses = []
        for start in range(0, n_train, config.batch_size):
            idx = order[start:start + config.batch_size]
            # "clip" gathers straight into `out` ("raise" buffers a copy); idx is in range
            batch = {k: np.take(v, idx, axis=0, mode="clip",
                                out=work.array(("batch", k), idx.shape + v.shape[1:], v.dtype))
                     for k, v in train_data.items()}
            if not head.trains_on(batch):
                skipped += 1
                continue
            loss, _, grads = total_loss(model, head, batch, config, rng=rngs["dropout"],
                                        work=work)
            adamw_step(model.flat, grads.flat, opt)
            epoch_losses.append(loss)
        train_trace.append(float(np.mean(epoch_losses)) if epoch_losses else math.nan)

        val_loss = head.loss_grad(model_forward(model, val_data).out, val_data)[0]
        val_trace.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = model.flat.copy()
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= config.patience:
            break

    np.copyto(model.flat, best_snapshot)
    return TrainResult(config=config, model=model, head=head, train_trace=train_trace,
                       val_trace=val_trace, best_epoch=best_epoch, skipped_batches=skipped,
                       dims=dims)


def pretrain_heads(config: RunConfig, cohort: Cohort) -> dict[str, np.ndarray]:
    """Train cov and ge heads alone at the pretraining batch size, epochs and patience.

    Returns a flat parameter dict keyed by the joint model's names: the
    single-modality heads land on head_cov / head_ge, and the ge run's
    autoencoder becomes the warm start for enc / dec.
    """
    warm: dict[str, np.ndarray] = {}
    for m in ("cov", "ge"):
        if m not in config.modalities:
            continue
        sub = replace(config, fusion="none", modalities=(m,), pretrain=False,
                      batch_size=config.pretrain_batch_size, epochs=config.pretrain_epochs,
                      patience=config.pretrain_patience)
        result = _train_loop(sub, cohort, None)
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
    clamped_values: int
    floored_percents: dict[str, int]
    imputed_curves: int

    def to_dict(self) -> dict:
        """The report as JSON-ready values, as `report.json` holds it."""
        return asdict(self)


def predict_curves(result: TrainResult, cohort: Cohort, indices) -> CurveSet:
    """The model's curves for the samples `indices` (one inference forward):
    the checked matrix for the discrete head, columns computed on demand on
    the Breslow grid for Cox (`whole()` makes the matrix)."""
    return result.head.curves(_forward(result.model, cohort, indices))


def _channel(curves: CurveSet, times, events) -> ChannelMetrics:
    return ChannelMetrics(c_td=c_td(curves, times, events), ibs=ibs(curves, times, events))


def _channels(hidden: CurveSet, times, events, percents=None,
              lam: float | None = None) -> dict[str, ChannelMetrics]:
    """Metrics of the hidden channel and, given the teacher's percents (NaN
    where absent) and the blend weight, of the verbalized and combined ones
    (`verbalized_blocks` and `combined_blocks`). Both read `hidden` a block
    of columns at a time, and so do the metrics."""
    channels = {"hidden": _channel(hidden, times, events)}
    if percents is None:
        return channels
    if np.isnan(percents).all():
        channels["verbalized"] = ChannelMetrics(
            c_td=None, ibs=None, note="no extractable teacher probabilities")
        channels["combined"] = replace(channels["hidden"],
                                       note="combined equals hidden (all verbalized missing)")
        return channels
    channels["verbalized"] = _channel(verbalized_blocks(hidden, percents), times, events)
    channels["combined"] = _channel(combined_blocks(hidden, percents, lam), times, events)
    return channels


def evaluate(result: TrainResult, cohort: Cohort) -> tuple[RunReport, CurveSet]:
    """Test-set metrics for the hidden, verbalized, and combined channels,
    and the test split's hidden curves they were read from.

    The teacher's percents are `finalize_teacher`'s. Each split's hidden
    curves are built once (`predict_curves`), and the metrics read every
    channel a block of columns at a time, so the scores equal those of the
    whole sets and no (N, T) matrix is made for the Cox grid. The report
    counts the survival values the teacher's fits clamped, each split's 0%
    estimates (raised to `PERCENT_FLOOR` before the log) and the test curves
    imputed by `mean_curve`.
    """
    config, split = result.config, cohort.split
    percents, clamped = finalize_teacher(cohort)
    selected = val_score = test_percents = None
    floored = {"val": 0, "test": 0}
    imputed = 0
    if percents is not None:
        selected, val_score = select_lambda(predict_curves(result, cohort, split.val),
                                            percents[split.val],
                                            *outcome_arrays(cohort, split.val),
                                            grid=config.lambda_grid)
        test_percents = percents[split.test]
        floored = {name: int(np.count_nonzero(percents[rows] == 0))
                   for name, rows in (("val", split.val), ("test", split.test))}
        absent = np.isnan(test_percents)
        imputed = 0 if absent.all() else int(absent.sum())
    test = predict_curves(result, cohort, split.test)
    channels = _channels(test, *outcome_arrays(cohort, split.test), test_percents, selected)
    report = RunReport(config=config, channels=channels, selected_lambda=selected,
                       lambda_val_ctd=val_score, gates=gate_values(result.model),
                       **{key: getattr(result, key) for key in _RECORD},
                       clamped_values=clamped, floored_percents=floored,
                       imputed_curves=imputed)
    return report, test


def finalize_teacher(cohort: Cohort) -> tuple[np.ndarray | None, int]:
    """`teacher_percents` of the cohort's horizon matrix: each sample's
    rounded 3-year percent, NaN where nothing was extracted (None without a
    teacher), and the number of values clamped. The cohort is left unchanged."""
    return (None, 0) if cohort.teacher_probs is None else teacher_percents(cohort.teacher_probs)


def train_and_evaluate(config: RunConfig, cohort: Cohort) -> tuple[TrainResult, RunReport]:
    """Pretrain (late fusion of several modalities, if asked), train, and
    evaluate one configuration."""
    warm = None
    if config.pretrain and gated_fusion(config.fusion, config.modalities):
        warm = pretrain_heads(config, cohort)
    result = train(config, cohort, warm_start=warm)
    return result, evaluate(result, cohort)[0]


# The cohort the suite's entries train on in this process: set by
# `_hold_cohort`, and in a worker by its initializer, so a forked worker
# shares the parent's arrays copy-on-write and no configuration pickles it.
_suite_cohort: Cohort | None = None
_PR_SET_PDEATHSIG = 1  # linux/prctl.h


def _hold_cohort(cohort: Cohort | None) -> None:
    global _suite_cohort
    _suite_cohort = cohort


def _start_worker(parent: int, cohort: Cohort) -> None:
    """Suite worker initializer: hold the cohort, and on Linux die with the
    parent, which a killed parent would otherwise leave waiting forever."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
        if os.getppid() != parent:  # the parent died before the signal was set
            os._exit(1)
    _hold_cohort(cohort)


def _suite_entry(config: RunConfig) -> tuple[RunReport | str, float]:
    """One suite entry on the held cohort: the report of `train_and_evaluate`,
    or a "failed: ..." string for its exception, with its wall seconds."""
    started = time.perf_counter()
    try:
        entry = train_and_evaluate(config, _suite_cohort)[1]
    except Exception as exc:  # noqa: BLE001 - suite must continue
        entry = f"failed: {type(exc).__name__}: {exc}"
    return entry, time.perf_counter() - started


def suite_workers(n_configs: int) -> int:
    """Worker processes for a suite of `n_configs`: one per CPU this process
    may run on, at most one per configuration; 1 (run in process) where the
    platform cannot fork."""
    # imported here, as in `run_experiment_suite`: only a suite forks, and the
    # two modules add 12-24 ms to every command that imports this one
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(n_configs, len(os.sched_getaffinity(0)))


def run_experiment_suite(named_configs: list[tuple[str, RunConfig]], cohort: Cohort,
                         timings: dict[str, float] | None = None
                         ) -> dict[str, RunReport | str]:
    """`train_and_evaluate` each configuration on the cohort's split; a
    failure is reported as that run's entry, and the suite goes on.

    The configurations run on `suite_workers` worker processes, one per CPU
    this process may run on (its affinity set: `taskset`, a cpuset), forked
    (the `fork` start method) so that they share the cohort copy-on-write.
    Each worker builds its own model and uses the process's BLAS threads
    (`SURVFUSE_THREADS`). On one CPU, or where the platform cannot fork, they
    run in this process. Either way each runs from its own seeds and the
    entries come back in the order given, so the reports are the same. A
    worker that dies (a signal, out of memory) raises RuntimeError naming
    the configurations that did not finish. No worker outlives the call, nor
    (on Linux) a killed parent. `timings[name]`, if given, receives each
    configuration's wall seconds, measured where it ran."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    configs = [config for _, config in named_configs]
    workers = suite_workers(len(configs))
    if workers <= 1:
        _hold_cohort(cohort)
        try:
            done = list(map(_suite_entry, configs))
        finally:
            _hold_cohort(None)
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker,
                                 initargs=(os.getpid(), cohort)) as pool:
            futures = [pool.submit(_suite_entry, config) for config in configs]
        lost = [(name, future.exception()) for (name, _), future in zip(named_configs, futures)
                if future.exception() is not None]
        if lost:
            raise RuntimeError(f"suite: {', '.join(name for name, _ in lost)} did not finish: "
                               f"{lost[0][1]}") from lost[0][1]
        done = [future.result() for future in futures]
    reports: dict[str, RunReport | str] = {}
    for (name, _), (entry, seconds) in zip(named_configs, done):
        reports[name] = entry
        if timings is not None:
            timings[name] = seconds
    return reports


def save_checkpoint(path: str, result: TrainResult) -> None:
    """Persist the config, the parameters, the fitted head's record and the training record."""
    manifest = {"config": asdict(result.config), "dims": result.dims, **result.head.record(),
                **{key: getattr(result, key) for key in _RECORD}}
    formats.write_checkpoint(path, model_params(result.model), manifest)


def load_checkpoint(path: str) -> TrainResult:
    """The trained model, its config, fitted head and training record, from a checkpoint."""
    tensors, manifest = formats.read_checkpoint(path)
    missing = [key for key in _RECORD if key not in manifest]
    if missing:
        raise ValueError(f"{path}: checkpoint has no training record {missing}; "
                         f"retrain the model")
    config = _config_from_dict(manifest["config"])
    head = read_head(config.head, manifest)
    model = _build_model(config, manifest["dims"], np.random.default_rng(0), head.width)
    params = model_params(model)
    if set(params) != set(tensors):
        raise ValueError("checkpoint parameters do not match the configured model")
    for name, value in tensors.items():
        if value.shape != params[name].shape:
            raise ValueError(f"checkpoint tensor {name!r} has shape {value.shape}, "
                             f"the configured model expects {params[name].shape}")
        np.copyto(params[name], value)

    return TrainResult(config=config, model=model, head=head, dims=dict(manifest["dims"]),
                       **{key: manifest[key] for key in _RECORD})


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
