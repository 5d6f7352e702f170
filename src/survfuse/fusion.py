"""Modality fusion: early concatenation and nested gated late fusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import sigmoid

# The one order of the modalities: model heads, early-fusion columns, gates.
MODALITY_ORDER = ("text", "cov", "ge")


@dataclass
class FusionGates:
    """Gate logits; realized gates are sigmoid(logit).

    inner_logit gates cov against text, outer_logit gates ge against the rest.
    Per-bin vectors (length B) for the discrete head, 0-d scalars for CoxPH.
    """

    inner_logit: np.ndarray
    outer_logit: np.ndarray

    def copy(self) -> "FusionGates":
        return FusionGates(self.inner_logit.copy(), self.outer_logit.copy())


@dataclass
class ModalityOutputs:
    """Per-modality head outputs; None marks a disabled modality."""

    text: np.ndarray | None = None
    cov: np.ndarray | None = None
    ge: np.ndarray | None = None

    def present(self) -> list[str]:
        return [m for m in MODALITY_ORDER if getattr(self, m) is not None]


def init_fusion_gates(n_bins: int | None) -> FusionGates:
    """Zero logits (gates at 0.5). n_bins=None gives scalar CoxPH gates."""
    shape = () if n_bins is None else (int(n_bins),)
    return FusionGates(inner_logit=np.zeros(shape), outer_logit=np.zeros(shape))


def early_fuse(z_text: np.ndarray | None = None,
               x_cov: np.ndarray | None = None,
               z_ge: np.ndarray | None = None) -> np.ndarray:
    """Concatenate present modality vectors in fixed order text, cov, ge."""
    parts = [np.asarray(p, dtype=np.float64)
             for p in (z_text, x_cov, z_ge) if p is not None]
    if not parts:
        raise ValueError("no modality supplied")
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _check_shapes(outputs: ModalityOutputs, gates: FusionGates) -> list[str]:
    present = outputs.present()
    if not present:
        raise ValueError("no modality outputs supplied")
    shapes = {m: getattr(outputs, m).shape for m in present}
    if len(set(shapes.values())) != 1:
        raise ValueError(f"inconsistent modality output shapes: {shapes}")
    shape = next(iter(shapes.values()))
    gdim = gates.outer_logit.shape
    if gdim != () and (len(shape) == 0 or shape[-1:] != gdim):
        raise ValueError(f"gate shape {gdim} does not match output shape {shape}")
    return present


def late_fuse(outputs: ModalityOutputs, gates: FusionGates) -> np.ndarray:
    """Nested gated blend over the present modalities.

    All three: o = (1 - g_ge)[(1 - g_cov) o_text + g_cov o_cov] + g_ge o_ge.
    With a modality disabled the corresponding nesting level drops out; a
    single modality passes through untouched.
    """
    present = _check_shapes(outputs, gates)
    if len(present) == 1:
        return np.asarray(getattr(outputs, present[0]), dtype=np.float64).copy()
    g_cov = sigmoid(gates.inner_logit)
    g_ge = sigmoid(gates.outer_logit)
    if "text" in present and "cov" in present:
        inner = (1.0 - g_cov) * outputs.text + g_cov * outputs.cov
    else:
        inner = np.asarray(outputs.text if outputs.text is not None else outputs.cov,
                           dtype=np.float64)
    if "ge" not in present:
        return inner
    return (1.0 - g_ge) * inner + g_ge * outputs.ge


@dataclass
class FusionGrads:
    outputs: ModalityOutputs
    inner_logit: np.ndarray
    outer_logit: np.ndarray


def _reduce_like(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out broadcast (leading) axes so grad matches the parameter shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad.reshape(shape)


def late_fuse_backward(upstream: np.ndarray, outputs: ModalityOutputs,
                       gates: FusionGates) -> FusionGrads:
    """Gradients of the fused output w.r.t. modality outputs and gate logits.

    Gate-logit gradients chain through the sigmoid; gates at unused nesting
    levels get exact zeros.
    """
    present = _check_shapes(outputs, gates)
    upstream = np.asarray(upstream, dtype=np.float64)
    zero_inner = np.zeros_like(gates.inner_logit)
    zero_outer = np.zeros_like(gates.outer_logit)
    if len(present) == 1:
        grads = ModalityOutputs(**{present[0]: upstream.copy()})
        return FusionGrads(grads, zero_inner, zero_outer)

    g_cov = sigmoid(gates.inner_logit)
    g_ge = sigmoid(gates.outer_logit)
    has_pair = "text" in present and "cov" in present
    has_ge = "ge" in present

    outer_weight = (1.0 - g_ge) if has_ge else 1.0
    d_inner = upstream * outer_weight
    grad_text = grad_cov = None
    grad_inner_logit = zero_inner
    if has_pair:
        inner = (1.0 - g_cov) * outputs.text + g_cov * outputs.cov
        grad_text = d_inner * (1.0 - g_cov)
        grad_cov = d_inner * g_cov
        d_gcov = d_inner * (outputs.cov - outputs.text)
        grad_inner_logit = _reduce_like(d_gcov * g_cov * (1.0 - g_cov),
                                        gates.inner_logit.shape)
    else:
        inner = np.asarray(outputs.text if outputs.text is not None else outputs.cov,
                           dtype=np.float64)
        if outputs.text is not None:
            grad_text = d_inner
        else:
            grad_cov = d_inner

    grad_ge = None
    grad_outer_logit = zero_outer
    if has_ge:
        grad_ge = upstream * g_ge
        d_gge = upstream * (outputs.ge - inner)
        grad_outer_logit = _reduce_like(d_gge * g_ge * (1.0 - g_ge),
                                        gates.outer_logit.shape)

    return FusionGrads(ModalityOutputs(text=grad_text, cov=grad_cov, ge=grad_ge),
                       grad_inner_logit, grad_outer_logit)
