"""Teacher response parsing, parametric curve fitting, target sequences,
and the span-weighted text loss with optional calibration masking."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import formats

VPROB_OPEN = "«VPROB»"
VPROB_CLOSE = "«END_VPROB»"
S_FLOOR = 1e-6
HORIZONS = (1.0, 3.0, 5.0)
_RESPONSE_KEYS = ("y1", "y3", "y5")  # a teacher row's response to each horizon

# a number, optionally followed by whitespace and a percent sign
_NUMBER_RE = re.compile(r"(\d+(?:\.\d+)?|\.\d+)(\s*%)?")


@dataclass
class TeacherTable:
    """Teacher responses as columns, in file order: each sample's id, its
    explanation, and its row of the (N, len(HORIZONS)) extracted
    probabilities `probs` (NaN where nothing was extracted)."""

    ids: list[str]
    explanations: list[str]
    probs: np.ndarray


@dataclass
class TargetSequence:
    """Student target string with byte spans into its UTF-8 encoding."""

    target: str
    vprob_span: tuple[int, int]
    num_span: tuple[int, int]


@dataclass
class ParametricFit:
    family: str
    rate: float | None = None
    shape: float | None = None
    scale: float | None = None


def extract_probability(text: str | None) -> float | None:
    """Pull a survival probability out of free text, scaled to [0, 1].

    Precedence: last number attached to '%' with value in [0, 100]; else last
    bare value in [0, 1] read as a probability; else last bare value in
    (1, 100] read as a percent. None when nothing matches.
    """
    if not text:
        return None
    pct_vals: list[float] = []
    bare_vals: list[float] = []
    for m in _NUMBER_RE.finditer(text):
        v = float(m.group(1))
        if m.group(2):
            if 0.0 <= v <= 100.0:
                pct_vals.append(v)
        else:
            bare_vals.append(v)
    if pct_vals:
        return pct_vals[-1] / 100.0
    in_unit = [v for v in bare_vals if 0.0 <= v <= 1.0]
    if in_unit:
        return in_unit[-1]
    in_pct = [v for v in bare_vals if 1.0 < v <= 100.0]
    if in_pct:
        return in_pct[-1] / 100.0
    return None


def fit_parametric(points: list[tuple[float, float]], family: str = "exponential") -> ParametricFit:
    """Fit a survival family to (t, S) points by the linearizing regression.

    exponential: rho = sum t * (-ln S) / sum t^2 (least squares through origin)
    weibull:     ln(-ln S) on ln t -> slope = shape, scale = exp(-intercept/shape)
    loglogistic: ln((1-S)/S) on ln t -> slope = shape, scale = exp(-intercept/shape)
    """
    if not points:
        raise ValueError("no points to fit")
    t = np.array([p[0] for p in points], dtype=np.float64)
    s = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(t <= 0):
        raise ValueError("fit times must be positive")
    if np.any(s > 1.0) or np.any(s < 0.0):
        raise ValueError("survival values must lie in [0, 1]")
    if np.any(s == 0.0):
        warnings.warn("survival value 0 clamped for log transform", stacklevel=2)
        s = np.maximum(s, S_FLOOR)

    if family == "exponential":
        rho = float(t @ (-np.log(s)) / (t @ t))
        return ParametricFit(family="exponential", rate=rho)

    if family not in ("weibull", "loglogistic"):
        raise ValueError(f"unknown family {family!r}")
    if np.unique(t).size < 2:
        raise ValueError("two-parameter families need at least two distinct times")
    if np.any(s == 1.0):
        warnings.warn("survival value 1 clamped for log transform", stacklevel=2)
        s = np.minimum(s, 1.0 - 1e-12)
    x = np.log(t)
    if family == "weibull":
        y = np.log(-np.log(s))
    else:
        y = np.log((1.0 - s) / s)
    slope, intercept = np.polyfit(x, y, 1)
    if slope <= 0:
        raise ValueError(f"non-positive fitted shape {slope}")
    return ParametricFit(family=family, shape=float(slope),
                         scale=float(math.exp(-intercept / slope)))


def fit_survival_at(fit: ParametricFit, t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if fit.family == "exponential":
        return np.exp(-fit.rate * t)
    if fit.family == "weibull":
        return np.exp(-((t / fit.scale) ** fit.shape))
    if fit.family == "loglogistic":
        return 1.0 / (1.0 + (t / fit.scale) ** fit.shape)
    raise ValueError(f"unknown family {fit.family!r}")


def _column_means(probs: np.ndarray) -> dict[float, float]:
    """Per-horizon means of an (N, 3) matrix's non-NaN values, summed in row order."""
    means: dict[float, float] = {}
    for h, column in zip(HORIZONS, probs.T):
        vals = column[~np.isnan(column)]
        if not vals.size:
            raise ValueError(f"no extracted probability at horizon {h} anywhere in the split")
        means[h] = float(np.mean(vals))
    return means


def _exponential_rates(s: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise `fit_parametric(..., "exponential")` over each row's non-NaN points.

    rho = sum t * (-ln S) / sum t^2. In a row holding a survival value of 0,
    values below S_FLOOR are raised to it, as in the one-fit form. Returns the
    rates and the number of zeros clamped.
    """
    present = ~np.isnan(s)
    zeros = s == 0.0
    s = np.where(zeros.any(axis=1, keepdims=True), np.maximum(s, S_FLOOR), s)
    t = np.asarray(HORIZONS)
    rates = np.empty(s.shape[0])
    patterns, which = np.unique(present, axis=0, return_inverse=True)
    which = which.ravel()
    for k, cols in enumerate(patterns):
        rows = which == k
        tk = t[cols]
        y = np.ascontiguousarray(-np.log(s[np.ix_(rows, cols)]))
        # a stacked (1, m) @ (m, 1) product takes one BLAS dot per row, the
        # same sum as `t @ y` in fit_parametric (a matrix-vector product rounds
        # differently, and a rate at a rounding tie would change the percent)
        rates[rows] = np.matmul(tk[None, None, :], y[:, :, None])[:, 0, 0] / (tk @ tk)
    return rates, int(zeros.sum())


def _complete_matrix(probs: np.ndarray, means: dict[float, float]) -> tuple[np.ndarray, int]:
    """Fill the missing horizons of an (N, 3) matrix (NaN where missing): an
    exponential refit through a row's present points, or the per-horizon
    `means` for a row with none; rows are clipped to [0, 1] and made
    non-increasing. Returns the matrix and the number of zeros the refits clamped.
    """
    present = ~np.isnan(probs)
    if np.any(probs[present] < 0.0) or np.any(probs[present] > 1.0):
        raise ValueError("survival values must lie in [0, 1]")
    out = probs.copy()
    refit = present.any(axis=1) & ~present.all(axis=1)
    rates, clamped = _exponential_rates(probs[refit])
    out[refit] = np.where(present[refit], probs[refit],
                          np.exp(-rates[:, None] * np.asarray(HORIZONS)))
    empty = ~present.any(axis=1)
    if empty.any():
        out[empty] = [means[h] for h in HORIZONS]
    return np.minimum.accumulate(np.clip(out, 0.0, 1.0), axis=1), clamped


def round_to_nearest_five(x: float) -> int:
    """Nearest multiple of 5, ties away from zero."""
    if x < 0:
        return -round_to_nearest_five(-x)
    return 5 * math.floor(x / 5.0 + 0.5)


def three_year_percent(fit: ParametricFit) -> int:
    return round_to_nearest_five(float(fit_survival_at(fit, 3.0)) * 100.0)


def build_target_sequence(explanation: str, percent: int) -> TargetSequence:
    """Render the student target and record byte spans (UTF-8 offsets).

    The vprob span covers the delimited region including both delimiters;
    the numeric span covers exactly the percent digits.
    """
    if not (0 <= percent <= 100):
        raise ValueError(f"percent {percent} outside [0, 100]")
    if VPROB_OPEN in explanation or VPROB_CLOSE in explanation:
        raise ValueError("explanation contains a reserved delimiter")
    number = str(int(percent))
    prefix = f"{explanation} "
    sentence = (f"{VPROB_OPEN}\n\n The estimated 3-year survival probability "
                f"is: {number}%. {VPROB_CLOSE}")
    target = prefix + sentence
    vprob_start = len(prefix.encode("utf-8"))
    vprob_end = len(target.encode("utf-8"))
    num_start = vprob_end - len(f"{number}%. {VPROB_CLOSE}".encode("utf-8"))
    num_end = num_start + len(number.encode("utf-8"))
    return TargetSequence(target=target, vprob_span=(vprob_start, vprob_end),
                          num_span=(num_start, num_end))


def token_masks(seq: TargetSequence,
                token_offsets: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks per token: overlap with the vprob span / the numeric span.

    Offsets are byte ranges [start, end) in the same convention as the spans;
    they must be monotone and non-overlapping (gaps are fine).
    """
    prev_end = 0
    for start, end in token_offsets:
        if start < prev_end or end < start:
            raise ValueError("token offsets must be monotone and non-overlapping")
        prev_end = end
    starts = np.array([s for s, _ in token_offsets], dtype=np.int64)
    ends = np.array([e for _, e in token_offsets], dtype=np.int64)

    def overlaps(span: tuple[int, int]) -> np.ndarray:
        return (starts < span[1]) & (ends > span[0])

    return overlaps(seq.vprob_span), overlaps(seq.num_span)


def weighted_text_loss(token_nlls, vprob_mask, num_mask,
                       w: float = 2.0, w_num: float = 5.0) -> float:
    loss, _ = weighted_text_loss_grad(token_nlls, vprob_mask, num_mask, w, w_num)
    return loss


def weighted_text_loss_grad(token_nlls, vprob_mask, num_mask,
                            w: float = 2.0, w_num: float = 5.0) -> tuple[float, np.ndarray]:
    """Span-weighted mean NLL over the target tokens.

    Per-token weights: 1 outside the vprob span, w inside it, w + w_num - 1
    on numeric tokens; every sub-loss shares the full token count as its
    denominator.
    """
    nll = np.asarray(token_nlls, dtype=np.float64)
    if nll.size == 0:
        raise ValueError("empty token sequence")
    vprob_mask = np.asarray(vprob_mask, dtype=bool)
    num_mask = np.asarray(num_mask, dtype=bool)
    if vprob_mask.shape != nll.shape or num_mask.shape != nll.shape:
        raise ValueError("mask shapes must match the token sequence")
    weights = np.ones_like(nll)
    weights[vprob_mask] = w
    weights[num_mask] = w + w_num - 1.0
    grad = weights / nll.size
    return float(grad @ nll), grad


def calibration_mask(percent, time, event, horizon: float = 3.0,
                     threshold: float = 50.0):
    """Whether a sample's text loss stays in the objective.

    Excluded when the verbalized probability contradicts a known outcome:
    event before the horizon with percent above threshold, or known
    alive/at-risk at the horizon with percent below it. Censoring before the
    horizon is unknowable, so those samples stay in. Exactly-threshold
    percents always stay in. Works element-wise on arrays; scalars give a
    bool.
    """
    percent, time = np.asarray(percent), np.asarray(time)
    event = np.asarray(event, dtype=bool)
    contradicted = ((event & (time < horizon) & (percent > threshold))
                    | ((time >= horizon) & (percent < threshold)))
    keep = ~contradicted
    return bool(keep) if keep.ndim == 0 else keep


def parse_teacher_file(rows: list[dict]) -> TeacherTable:
    """The columns of teacher JSONL rows, running probability extraction.

    Each distinct response text is extracted once per call: a teacher repeats
    its phrasings, so most responses are copies of an earlier one.
    """
    ids: list[str] = []
    seen: set[str] = set()
    extracted: dict[str | None, float] = {}
    probs = np.empty((len(rows), len(HORIZONS)))
    for row, out in zip(rows, probs):
        sid = row["id"]
        if sid in seen:
            raise ValueError(f"duplicate teacher record for id {sid!r}")
        seen.add(sid)
        ids.append(sid)
        responses = row.get("responses", {})
        for j, key in enumerate(_RESPONSE_KEYS):
            text = responses.get(key)
            if text not in extracted:
                p = extract_probability(text)
                extracted[text] = math.nan if p is None else p
            out[j] = extracted[text]
    return TeacherTable(ids=ids, explanations=[row.get("explanation", "") for row in rows],
                        probs=probs)


def finalize_probs(probs: np.ndarray,
                   train: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Complete, refit and round an (N, 3) horizon matrix (NaN where missing).

    Only rows with a missing horizon get the exponential completion fit,
    every row gets the second fit, and one warning states how many survival
    values of 0 both fits clamped. A row with no extraction is completed
    with per-horizon means, taken over the extracting rows that the boolean
    mask `train` selects (all of them when it is None or selects none).
    Returns the completed matrix, the rates and the rounded 3-year percents.
    """
    # the means are only defined (and only needed) when some row has no
    # extraction at all; a fully extracting matrix must not require coverage
    means: dict[float, float] = {}
    extracted = ~np.isnan(probs).all(axis=1)
    if not extracted.all():
        pool = extracted if train is None else extracted & train
        means = _column_means(probs[pool if pool.any() else extracted])
    completed, clamped = _complete_matrix(probs, means)
    rates, refit_clamped = _exponential_rates(completed)
    if clamped + refit_clamped:
        warnings.warn(f"survival value 0 clamped for log transform: "
                      f"{clamped + refit_clamped} value(s) set to {S_FLOOR}",
                      stacklevel=3)  # the caller's caller
    percents = [round_to_nearest_five(p) for p in (np.exp(-rates * 3.0) * 100.0).tolist()]
    return completed, rates, percents


def teacher_percents(probs: np.ndarray) -> np.ndarray:
    """The teacher's estimate per row of an (N, 3) horizon matrix (NaN where
    missing): the rounded 3-year percent of the row's completed fit where
    at least one horizon was extracted (`finalize_probs` of those rows, each
    on its own probabilities), NaN where none was."""
    extracted = ~np.isnan(probs).all(axis=1)
    percents = np.full(len(probs), np.nan)
    percents[extracted] = finalize_probs(probs[extracted])[2]
    return percents


def finalize_records(table: TeacherTable, train_ids: set[str] | None = None) -> list[int]:
    """The student-target percent of each sample (`finalize_probs`): unlike
    `teacher_percents`, a sample with no extraction gets the percent of the
    horizon means over the extracting samples (of `train_ids`, if given)."""
    train = (None if train_ids is None else
             np.array([sid in train_ids for sid in table.ids], dtype=bool))
    return finalize_probs(table.probs, train)[2]


def target_rows(table: TeacherTable, percents: list[int],
                outcomes: tuple[list[str], np.ndarray, np.ndarray] | None) -> list[dict]:
    """JSONL rows for the student targets, one per sample and its percent
    (`finalize_records`), with spans and the text-loss flag.

    The flag is `calibration_mask` against `outcomes` (ids, times, events)
    for a sample they hold, and True for any other; None includes every
    sample's text loss.
    """
    if len(percents) != len(table.ids):
        raise ValueError(f"{len(percents)} percents for {len(table.ids)} samples")
    included = np.ones(len(table.ids), dtype=bool)
    if outcomes is not None:
        out_ids, times, events = outcomes
        rows = formats.id_rows(out_ids, table.ids)
        known = rows >= 0
        included[known] = calibration_mask(np.asarray(percents)[known], times[rows[known]],
                                           events[rows[known]])
    out = []
    for sid, explanation, percent, keep in zip(table.ids, table.explanations, percents,
                                               included.tolist()):
        seq = build_target_sequence(explanation, percent)
        out.append({
            "id": sid,
            "target": seq.target,
            "vprob_span": list(seq.vprob_span),
            "num_span": list(seq.num_span),
            "text_loss_included": keep,
        })
    return out
