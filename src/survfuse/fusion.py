"""Modality fusion: early concatenation and nested gated late fusion.

Both take a dict from modality name to array; only the present modalities
are keys, and they are read in MODALITY_ORDER whatever the dict's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Workspace, sigmoid

# The one order of the modalities: model heads, early-fusion columns, gates.
MODALITY_ORDER = ("text", "cov", "ge")


@dataclass
class FusionGates:
    """Gate logits; realized gates are sigmoid(logit).

    inner_logit gates cov against text, outer_logit gates ge against the rest.
    Each holds one logit per output column (a discrete head's bins; one for
    a Cox score).
    """

    inner_logit: np.ndarray
    outer_logit: np.ndarray


def init_fusion_gates(width: int) -> FusionGates:
    """Zero logits (gates at 0.5), `width` of each."""
    return FusionGates(inner_logit=np.zeros(width), outer_logit=np.zeros(width))


def _ordered(arrays: dict[str, np.ndarray]) -> list[str]:
    """The dict's modalities in MODALITY_ORDER; at least one, none unknown."""
    present = [m for m in MODALITY_ORDER if m in arrays]
    if len(present) != len(arrays):
        unknown = sorted(set(arrays) - set(MODALITY_ORDER))
        raise ValueError(f"unknown modalities {unknown}: expected {MODALITY_ORDER}")
    if not present:
        raise ValueError("no modality supplied")
    return present


def early_fuse(inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Concatenate the present modality vectors in MODALITY_ORDER."""
    parts = [np.asarray(inputs[m], dtype=np.float64) for m in _ordered(inputs)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _checked(outputs: dict[str, np.ndarray],
             gates: FusionGates) -> tuple[list[str], dict[str, np.ndarray]]:
    """The present modalities in MODALITY_ORDER, and the realized gate of
    each one after the first: the inner gate for cov, the outer for ge
    (text, first whenever present, has none). Outputs are (N, width), gates (width,)."""
    order = _ordered(outputs)
    shapes = {m: np.shape(outputs[m]) for m in order}
    if len(set(shapes.values())) != 1:
        raise ValueError(f"inconsistent modality output shapes: {shapes}")
    shape = shapes[order[0]]
    gdim = gates.outer_logit.shape
    if shape[1:] != gdim:
        raise ValueError(f"gate shape {gdim} does not match output shape {shape}")
    return order, {m: sigmoid(gates.inner_logit if m == "cov" else gates.outer_logit)
                   for m in order[1:]}


def _fold(outputs: dict[str, np.ndarray], order: list[str],
          g: dict[str, np.ndarray]) -> list[np.ndarray]:
    """The running fusion after each modality of `order`: the first passes
    through, and each later one m is blended in as (1 - g) * o + g * o_m."""
    fused = [np.asarray(outputs[order[0]], dtype=np.float64)]
    for m in order[1:]:
        fused.append((1.0 - g[m]) * fused[-1] + g[m] * outputs[m])
    return fused


def late_fuse(outputs: dict[str, np.ndarray], gates: FusionGates,
              work: Workspace | None = None) -> np.ndarray:
    """Nested gated blend over the present modalities, as a new array.

    All three: o = (1 - g_ge)[(1 - g_cov) o_text + g_cov o_cov] + g_ge o_ge.
    A fold over MODALITY_ORDER: with a modality absent its nesting level
    drops out, and a single modality passes through untouched. The realized
    gates and the fold are kept in `work` for `late_fuse_backward`.
    """
    order, g = _checked(outputs, gates)
    fused = _fold(outputs, order, g)
    if work is not None:
        work["fuse"] = order, g, fused
    return fused[-1].copy() if len(order) == 1 else fused[-1]


def late_fuse_backward(upstream: np.ndarray, outputs: dict[str, np.ndarray],
                       gates: FusionGates, work: Workspace
                       ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Gradients of `late_fuse`'s output: (per-modality gradients in
    MODALITY_ORDER, inner logit gradient, outer logit gradient).

    The realized gates and the fold are those `late_fuse` kept in `work`.
    The fold is undone from the last modality back. Gate-logit gradients
    chain through the sigmoid and sum over the samples; a gate the present
    modalities leave unused gets an exact zero.
    """
    if "fuse" not in work:
        raise ValueError("no late_fuse wrote into this workspace")
    order, g, before = work["fuse"]
    logit_grads = {"cov": np.zeros_like(gates.inner_logit),
                   "ge": np.zeros_like(gates.outer_logit)}
    d = np.asarray(upstream, dtype=np.float64)
    grads = {}
    for k in range(len(order) - 1, 0, -1):
        m = order[k]
        grads[m] = d * g[m]
        logit_grads[m] = (d * (outputs[m] - before[k - 1]) * g[m] * (1.0 - g[m])).sum(axis=0)
        d = d * (1.0 - g[m])
    grads[order[0]] = d.copy() if len(order) == 1 else d
    return {m: grads[m] for m in order}, logit_grads["cov"], logit_grads["ge"]
