"""Feed-forward network core: forward, exact analytic backward, AdamW.

All arithmetic is float64. Hidden layers are linear -> ReLU -> inverted
dropout; the output layer is linear. Dropout masks are always supplied
explicitly (training code draws them from its seeded stream), so a forward
pass is a pure function of (params, input, masks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


@dataclass
class Mlp:
    """Stacked linear layers with ReLU hidden activations and a dropout rate."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout: float = 0.0

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases], self.dropout)


@dataclass
class MlpCache:
    """Activations saved by a forward pass, consumed by the matching backward."""

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    masks: list[np.ndarray] | None
    squeezed: bool


@dataclass
class MlpGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_mlp(in_dim: int, hidden: list[int], out_dim: int, rng: np.random.Generator,
             dropout: float = 0.0) -> Mlp:
    """He-style uniform fan-in initialization; biases start at zero."""
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    dims = [in_dim] + list(hidden) + [out_dim]
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / d_in)
        weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return Mlp(weights, biases, dropout)


def draw_dropout_masks(mlp: Mlp, n_rows: int, rng: np.random.Generator) -> list[np.ndarray] | None:
    """One keep-mask per hidden layer, or None when the rate is zero."""
    n_hidden = len(mlp.weights) - 1
    if mlp.dropout == 0.0 or n_hidden == 0:
        return None
    keep = 1.0 - mlp.dropout
    return [
        (rng.random((n_rows, mlp.weights[i].shape[1])) < keep).astype(np.float64)
        for i in range(n_hidden)
    ]


def mlp_forward(mlp: Mlp, x: np.ndarray,
                masks: list[np.ndarray] | None = None) -> tuple[np.ndarray, MlpCache]:
    """Forward pass. `x` is (n, in_dim) or (in_dim,); masks enable training dropout."""
    x = np.asarray(x, dtype=np.float64)
    squeezed = x.ndim == 1
    if squeezed:
        x = x[None, :]
    if x.shape[1] != mlp.in_dim:
        raise ValueError(f"input dim {x.shape[1]} does not match first layer {mlp.in_dim}")
    n_layers = len(mlp.weights)
    if masks is not None and len(masks) != n_layers - 1:
        raise ValueError(f"expected {n_layers - 1} dropout masks, got {len(masks)}")
    keep = 1.0 - mlp.dropout
    inputs, preacts = [], []
    h = x
    for i in range(n_layers):
        inputs.append(h)
        z = h @ mlp.weights[i] + mlp.biases[i]
        preacts.append(z)
        if i < n_layers - 1:
            h = np.maximum(z, 0.0)
            if masks is not None:
                if masks[i].shape != h.shape:
                    raise ValueError(f"dropout mask {i} has shape {masks[i].shape}, "
                                     f"expected {h.shape}")
                h = h * masks[i] / keep
        else:
            h = z
    out = h[0] if squeezed else h
    return out, MlpCache(inputs, preacts, masks, squeezed)


def mlp_backward(mlp: Mlp, cache: MlpCache,
                 grad_out: np.ndarray) -> tuple[MlpGrads, np.ndarray]:
    """Exact gradients of the forward map for parameters and input."""
    g = np.asarray(grad_out, dtype=np.float64)
    if cache.squeezed:
        g = g[None, :]
    n_layers = len(mlp.weights)
    if g.shape != (cache.inputs[0].shape[0], mlp.out_dim):
        raise ValueError(f"upstream gradient shape {g.shape} does not match cached "
                         f"forward output ({cache.inputs[0].shape[0]}, {mlp.out_dim})")
    keep = 1.0 - mlp.dropout
    grad_w = [np.empty(0)] * n_layers
    grad_b = [np.empty(0)] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            if cache.masks is not None:
                g = g * cache.masks[i] / keep
            g = g * (cache.preacts[i] > 0.0)
        grad_w[i] = cache.inputs[i].T @ g
        grad_b[i] = g.sum(axis=0)
        g = g @ mlp.weights[i].T
    grad_in = g[0] if cache.squeezed else g
    return MlpGrads(grad_w, grad_b), grad_in


@dataclass(frozen=True)
class ParamLayout:
    """Where each named tensor lives in one flat float64 vector."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: np.ndarray  # (len(names) + 1,) start of each tensor, then the total size

    @classmethod
    def of(cls, params: Mapping[str, np.ndarray]) -> "ParamLayout":
        return cls(names=tuple(params),
                   shapes=tuple(np.shape(arr) for arr in params.values()),
                   offsets=np.cumsum([0] + [np.size(arr) for arr in params.values()]))

    @property
    def size(self) -> int:
        return int(self.offsets[-1])

    def gather(self, tensors: Mapping[str, np.ndarray]) -> np.ndarray:
        """The named tensors, raveled in layout order, as one new vector."""
        if not self.names:
            return np.zeros(0)
        return np.concatenate([np.ravel(tensors[name]) for name in self.names])

    def locate(self, i: int) -> tuple[str, int]:
        """The name of the tensor holding flat element `i`, and `i`'s offset inside it."""
        k = int(np.searchsorted(self.offsets, i, side="right")) - 1
        return self.names[k], int(i - self.offsets[k])

    def scatter(self, flat: np.ndarray, tensors: Mapping[str, np.ndarray]) -> None:
        """Copy the flat vector back into the named tensors, in place."""
        for name, shape, start, stop in zip(self.names, self.shapes, self.offsets[:-1],
                                            self.offsets[1:]):
            np.copyto(tensors[name], flat[start:stop].reshape(shape))


@dataclass
class AdamWState:
    """Flat first/second moments over a fixed tensor layout, plus step and hyperparameters."""

    layout: ParamLayout
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


def init_adamw(params: Mapping[str, np.ndarray], weight_decay: float = 0.01,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamWState:
    layout = ParamLayout.of(params)
    return AdamWState(layout=layout, m=np.zeros(layout.size), v=np.zeros(layout.size),
                      beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay)


def adamw_step(params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray],
               state: AdamWState, lr: float | Callable[[str], float]) -> None:
    """One decoupled-weight-decay update, in place.

    `lr` is a float or a function mapping parameter name to its group's rate.
    Parameters and gradients are gathered into the state's flat layout, updated
    as one vector (each element by the same expressions as a per-tensor
    update), and written back.
    """
    layout = state.layout
    g = layout.gather(grads)
    if not np.all(np.isfinite(g)):
        name, _ = layout.locate(np.flatnonzero(~np.isfinite(g))[0])
        raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    if callable(lr):
        rate = np.repeat([float(lr(name)) for name in layout.names], np.diff(layout.offsets))
    else:
        rate = lr
    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    p = layout.gather(params)
    m, v = state.m, state.v
    p *= 1.0 - rate * state.weight_decay
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    p -= rate * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
    layout.scatter(p, params)


def finite_difference_check(loss_fn: Callable[[dict[str, np.ndarray]], tuple[float, Mapping[str, np.ndarray]]],
                            params: dict[str, np.ndarray], probes: int = 20,
                            h: float = 1e-5, rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients against central differences at sampled coordinates.

    `loss_fn` must be deterministic (fix any dropout masks) and return
    (loss, gradient dict). Returns the worst relative discrepancy.
    """
    rng = rng or np.random.default_rng(0)
    _, grads = loss_fn(params)
    layout = ParamLayout.of({name: params[name] for name in sorted(params)})
    worst = 0.0
    for flat_idx in rng.choice(layout.size, size=min(probes, layout.size), replace=False):
        name, offset = layout.locate(flat_idx)
        idx = np.unravel_index(offset, params[name].shape)
        original = params[name][idx]
        params[name][idx] = original + h
        up, _ = loss_fn(params)
        params[name][idx] = original - h
        down, _ = loss_fn(params)
        params[name][idx] = original
        numeric = (up - down) / (2.0 * h)
        analytic = float(np.asarray(grads[name])[idx])
        scale = max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, abs(analytic - numeric) / scale)
    return worst
