"""Synthetic multimodal cohorts with known hazards, plus a simulated teacher."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import formats
from .cohort import HORIZON_YEARS
from .distill import HORIZONS, RESPONSE_KEYS, VERBALIZED_HORIZON
from .nn import sigmoid
from .timing import stage


@dataclass
class GeneratorSpec:
    n: int = 2000
    d_c: int = 8
    d_g: int = 40
    ge_latent: int = 4
    seq_len: int = 12
    d_text: int = 16
    w_text: float = 0.7
    w_cov: float = 0.7
    w_ge: float = 0.7
    base_rate: float = 0.12
    censor_rate: float = 0.04
    ge_noise: float = 0.1
    text_noise: float = 0.5
    event_family: str = "exponential"  # or 'weibull'
    weibull_shape: float = 1.5
    calibration_shift: float = 0.0     # logit-space teacher bias
    response_noise: float = 0.0        # logit-space teacher jitter
    missing_rate: float = 0.0          # per-horizon null responses
    refusal_rate: float = 0.0          # whole-sample non-numeric responses
    horizon: float = HORIZON_YEARS
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 samples")
        for name in ("d_c", "d_g", "ge_latent", "seq_len", "d_text"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.base_rate <= 0 or self.censor_rate <= 0:
            raise ValueError("hazard rates must be positive")
        for name in ("missing_rate", "refusal_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.event_family not in ("exponential", "weibull"):
            raise ValueError(f"unknown event family {self.event_family!r}")


@dataclass
class SynthResult:
    spec: GeneratorSpec
    out_dir: str
    files: dict[str, str]
    ids: list[str]
    rates: np.ndarray                      # lambda_i
    true_s3: np.ndarray = field(default=None)


def _sample_id(i: int) -> str:
    return f"s{i:06d}"


def true_survival(spec: GeneratorSpec, rates: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if spec.event_family == "weibull":
        return np.exp(-((rates[:, None] * t[None, :]) ** spec.weibull_shape))
    return np.exp(-rates[:, None] * t[None, :])


def _event_times(spec: GeneratorSpec, rates: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    u = rng.random(rates.size)
    if spec.event_family == "weibull":
        return (-np.log(u)) ** (1.0 / spec.weibull_shape) / rates
    return -np.log(u) / rates


_REFUSAL = "I cannot provide an estimate."


def _teacher_rows(spec: GeneratorSpec, ids: list[str], rates: np.ndarray,
                  rng: np.random.Generator) -> list[dict]:
    """One simulated teacher record per sample.

    The draws stay one sample at a time, because which ones happen depends on
    earlier draws: refusal, then per horizon a missing response, then noise.
    The arithmetic on the true survival runs once over the (n, 3) matrix.
    """
    refused = np.zeros(spec.n, dtype=bool)
    missing = np.zeros((spec.n, len(HORIZONS)), dtype=bool)
    noise = np.zeros((spec.n, len(HORIZONS)))
    for i in range(spec.n):
        if rng.random() < spec.refusal_rate:
            refused[i] = True
            continue
        for k in range(len(HORIZONS)):
            if rng.random() < spec.missing_rate:
                missing[i, k] = True
            elif spec.response_noise > 0:
                noise[i, k] = rng.standard_normal()

    p = np.clip(true_survival(spec, rates, np.array(HORIZONS)), 1e-6, 1.0 - 1e-6)
    # math.log per element: np.log's vector loop may round differently on some
    # CPUs, and the raw files are pinned byte for byte
    logit = np.array(list(map(math.log, (p / (1.0 - p)).ravel().tolist())))
    logit = logit.reshape(p.shape) + spec.calibration_shift
    if spec.response_noise > 0:
        logit += spec.response_noise * noise
    percents = (100.0 * sigmoid(logit)).tolist()

    rows = []
    for sid, is_refused, gaps, pcts in zip(ids, refused.tolist(), missing.tolist(), percents):
        if is_refused:
            responses = dict.fromkeys(RESPONSE_KEYS, _REFUSAL)
        else:
            responses = {key: None if gap else
                         f"The estimated {key[1:]}-year survival probability is: {pct:.1f}%."
                         for key, gap, pct in zip(RESPONSE_KEYS, gaps, pcts)}
        rows.append({"id": sid, "responses": responses,
                     "explanation": f"Synthetic case summary for {sid}."})
    return rows


def generate(spec: GeneratorSpec, out_dir: str,
             timings: dict[str, float] | None = None) -> SynthResult:
    """Write a full synthetic cohort in every on-disk interface format.

    Covariates are standard normal with the risk component in column 0; gene
    expression is a noisy linear map of a low-dimensional latent whose first
    coordinate carries risk; token matrices put a shared risk direction in
    every row. lambda_i = base * exp(w_text u_t + w_cov u_c + w_ge u_g).
    The time spent drawing and writing is added to `timings` under
    "generate" and "write".
    """
    os.makedirs(out_dir, exist_ok=True)
    with stage(timings, "generate"):
        streams = np.random.SeedSequence(spec.seed).spawn(6)
        rng_cov, rng_ge, rng_text, rng_time, rng_cens, rng_teacher = map(
            np.random.default_rng, streams)

        ids = [_sample_id(i) for i in range(spec.n)]

        x_cov = rng_cov.standard_normal((spec.n, spec.d_c))
        u_cov = x_cov[:, 0].copy()

        latent = rng_ge.standard_normal((spec.n, spec.ge_latent))
        mix = rng_ge.standard_normal((spec.ge_latent, spec.d_g)) / np.sqrt(spec.ge_latent)
        x_ge = latent @ mix + spec.ge_noise * rng_ge.standard_normal((spec.n, spec.d_g))
        u_ge = latent[:, 0].copy()

        u_text = rng_text.standard_normal(spec.n)
        direction = rng_text.standard_normal(spec.d_text)
        direction /= np.linalg.norm(direction)
        # one draw fills the samples' (L, d) noise matrices in order, the
        # same stream as one draw per sample
        noise = spec.text_noise * rng_text.standard_normal((spec.n, spec.seq_len, spec.d_text))
        hidden = u_text[:, None, None] * direction + noise

        rates = spec.base_rate * np.exp(spec.w_text * u_text + spec.w_cov * u_cov
                                        + spec.w_ge * u_ge)
        t_event = _event_times(spec, rates, rng_time)
        t_cens = -np.log(rng_cens.random(spec.n)) / spec.censor_rate
        observed = np.minimum(t_event, t_cens)
        event = t_event <= t_cens
        over = observed > spec.horizon
        observed[over] = spec.horizon
        event[over] = False
        teacher = _teacher_rows(spec, ids, rates, rng_teacher)

    files = {}

    def path(name: str) -> str:
        files[name.split(".")[0]] = os.path.join(out_dir, name)
        return files[name.split(".")[0]]

    def columns(matrix: np.ndarray) -> list[list[str]]:
        return [formats.format_floats(col) for col in matrix.T]

    with stage(timings, "write"):
        formats.write_csv_table(
            path("outcomes.csv"), ["id", "time_years", "event"],
            zip(ids, formats.format_floats(observed), np.where(event, "1", "0").tolist()))
        formats.write_csv_table(
            path("covariates.csv"), ["id"] + [f"c{j + 1}" for j in range(spec.d_c)],
            zip(ids, *columns(x_cov)))
        formats.write_csv_table(
            path("ge.csv"), ["id"] + [f"g{j + 1}" for j in range(spec.d_g)],
            zip(ids, *columns(x_ge)))
        formats.write_hidden_states(path("hidden.svhs"), dict(zip(ids, hidden)))
        formats.write_jsonl(path("teacher.jsonl"), teacher)
        formats.write_csv_table(
            path("truth.csv"), ["id", "rate", "u_text", "u_cov", "u_ge"],
            zip(ids, *columns(np.column_stack([rates, u_text, u_cov, u_ge]))))

    return SynthResult(spec=spec, out_dir=out_dir, files=files, ids=ids,
                       rates=rates,
                       true_s3=true_survival(spec, rates, np.array([VERBALIZED_HORIZON]))[:, 0])
