"""Feed-forward network core: forward, exact analytic backward, AdamW.

All arithmetic is float64. Hidden layers are linear -> ReLU -> inverted
dropout; the output layer is linear. Dropout masks are always supplied
explicitly (training code draws them from its seeded stream), so a forward
pass is a pure function of (params, input, masks).

A forward given a `Workspace` is a training forward: it writes every
layer's input, pre-activation, activation and dropout mask there, and the
backward reads them from the same workspace, writing its input gradients
beside them. A training loop keeps its workspace across steps, so no step
after the first makes those arrays again. A forward without a workspace is
an inference forward: it keeps nothing and runs ReLU in place.

Training keeps every trainable tensor as a view into one flat vector laid
out by a `ParamLayout`; gradients are written into a second such vector, and
`adamw_step` updates the flat vector in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|): 1 / (1 + e) where x >= 0, e / (1 + e) elsewhere
    (NaN included), so exp never overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class Workspace(dict):
    """Arrays and values a training step writes into, made on first use.

    A loop that keeps its workspace reuses every array from its second step
    on; a new workspace per call allocates as plain expressions would. The
    values are the same either way.
    """

    def made(self, key, make: Callable[[], object]):
        """The value under `key`, made by `make()` on first use."""
        value = self.get(key)
        if value is None:
            value = self[key] = make()
        return value

    def array(self, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The leading `shape[0]` rows of the array kept under `key` (a last,
        partial batch writes into a full batch's arrays), made if too short."""
        buf = self.get(key)
        if buf is not None and buf.shape == shape:
            return buf
        if buf is None or len(buf) < shape[0] or buf.shape[1:] != shape[1:]:
            buf = self[key] = np.empty(shape, dtype)
        return buf[:shape[0]]

    def part(self, name: str) -> "Workspace":
        """The nested workspace of one network."""
        return self.made(name, Workspace)


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


def draw_dropout_masks(mlps: list[Mlp], n_rows: int, rng: np.random.Generator,
                       work: Workspace | None = None) -> list[list[np.ndarray] | None]:
    """Each network's keep-masks, one (n_rows, width) 0/1 matrix per hidden
    layer, or None where its rate is zero or it has no hidden layer.

    One `rng.random` call draws every masked network's uniforms into `work`,
    network after network and layer after layer in row-major order: the same
    stream, and the same masks, as one draw per layer. Each layer's uniforms
    become its mask in place.
    """
    widths = [[w.shape[1] for w in mlp.weights[:-1]] if mlp.dropout > 0.0 else []
              for mlp in mlps]
    work = Workspace() if work is None else work
    uniforms = work.array("dropout", (n_rows * sum(map(sum, widths)),))
    rng.random(out=uniforms)
    masks, start = [], 0
    for mlp, layer_widths in zip(mlps, widths):
        layers = []
        for width in layer_widths:
            u = uniforms[start:start + n_rows * width].reshape(n_rows, width)
            layers.append(np.less(u, 1.0 - mlp.dropout, out=u))
            start += n_rows * width
        masks.append(layers or None)
    return masks


def mlp_forward(mlp: Mlp, x: np.ndarray, masks: list[np.ndarray] | None = None,
                work: Workspace | None = None) -> np.ndarray:
    """The output of the (n, in_dim) input `x`; masks enable training dropout.

    Given `work` (a training forward), the input, the dropout masks and each
    layer's pre-activation and activation are written into it for
    `mlp_backward`. Without it (an inference forward) nothing is kept and
    ReLU runs in place, so two layers' activations are held at a time; the
    output is the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected an (n, {mlp.in_dim}) input, got shape {x.shape}")
    if x.shape[1] != mlp.in_dim:
        raise ValueError(f"input dim {x.shape[1]} does not match first layer {mlp.in_dim}")
    n_layers = len(mlp.weights)
    if masks is not None and len(masks) != n_layers - 1:
        raise ValueError(f"expected {n_layers - 1} dropout masks, got {len(masks)}")
    if work is not None:
        work["input"], work["masks"] = x, masks
    keep = 1.0 - mlp.dropout
    h = x
    for i, w in enumerate(mlp.weights):
        shape = (x.shape[0], w.shape[1])
        z = np.matmul(h, w, out=None if work is None else work.array(("z", i), shape))
        z += mlp.biases[i]
        if i < n_layers - 1:
            # without a workspace nothing else reads z, so ReLU may overwrite it
            h = np.maximum(z, 0.0, out=z if work is None else work.array(("h", i), shape))
            if masks is not None:
                if masks[i].shape != h.shape:
                    raise ValueError(f"dropout mask {i} has shape {masks[i].shape}, "
                                     f"expected {h.shape}")
                h *= masks[i]
                h /= keep
        else:
            h = z
    return h


def mlp_backward(mlp: Mlp, work: Workspace, grad_out: np.ndarray,
                 out: MlpGrads | None = None,
                 input_grad: bool = True) -> tuple[MlpGrads, np.ndarray | None]:
    """Exact gradients for parameters and input of the training forward
    that wrote into `work`.

    Parameter gradients are written into `out` (arrays shaped like the
    weights and biases, e.g. views of a flat gradient vector) or into new
    arrays, and each layer's input gradient into `work`. With
    `input_grad=False` the input gradient is not computed and None is
    returned in its place.
    """
    x = work.get("input")
    if x is None:
        raise ValueError("no training forward wrote into this workspace "
                         "(mlp_forward was not given it)")
    n = x.shape[0]
    g = np.asarray(grad_out, dtype=np.float64)
    n_layers = len(mlp.weights)
    if g.shape != (n, mlp.out_dim):
        raise ValueError(f"upstream gradient shape {g.shape} does not match the "
                         f"forward output ({n}, {mlp.out_dim})")
    if out is None:
        out = MlpGrads([np.empty_like(w) for w in mlp.weights],
                       [np.empty_like(b) for b in mlp.biases])
    masks = work["masks"]
    keep = 1.0 - mlp.dropout
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            # g is the fresh product of the layer above, so it is safe to scale in place
            if masks is not None:
                g *= masks[i]
                g /= keep
            g *= work[("z", i)][:n] > 0.0
        layer_in = x if i == 0 else work[("h", i - 1)][:n]
        np.matmul(layer_in.T, g, out=out.weights[i])
        g.sum(axis=0, out=out.biases[i])
        if i == 0 and not input_grad:
            return out, None
        g = np.matmul(g, mlp.weights[i].T, out=work.array(("g", i), layer_in.shape))
    return out, g


@dataclass(frozen=True)
class ParamLayout:
    """Where each named tensor lives in one flat float64 vector."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: np.ndarray  # (len(names) + 1,) start of each tensor, then the total size
    # (name, start, stop, shape) with Python ints, built once for `views`
    spans: tuple[tuple[str, int, int, tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds = self.offsets.tolist()
        object.__setattr__(self, "spans", tuple(zip(self.names, bounds, bounds[1:], self.shapes)))

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

    def views(self, flat: np.ndarray) -> "FlatViews":
        """Name -> view of `flat`, shaped as the layout says."""
        return FlatViews(flat, {name: flat[start:stop].reshape(shape)
                                for name, start, stop, shape in self.spans})

    def locate(self, i: int) -> tuple[str, int]:
        """The name of the tensor holding flat element `i`, and `i`'s offset inside it."""
        k = int(np.searchsorted(self.offsets, i, side="right")) - 1
        return self.names[k], int(i - self.offsets[k])


class FlatViews(dict):
    """A name -> array mapping whose arrays are views of one vector, `flat`."""

    def __init__(self, flat: np.ndarray, views: Mapping[str, np.ndarray]):
        super().__init__(views)
        self.flat = flat


@dataclass
class AdamWState:
    """Flat moments over a fixed tensor layout, per-element rates, step and
    hyperparameters, and two scratch vectors that hold a step's intermediate
    results, so a step makes no float temporaries."""

    layout: ParamLayout
    rate: float | np.ndarray   # learning rate, per element when groups differ
    decay: float | np.ndarray  # 1 - rate * weight_decay
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adamw(params: Mapping[str, np.ndarray], lr: float | Callable[[str], float],
               weight_decay: float = 0.01, beta1: float = 0.9, beta2: float = 0.999,
               eps: float = 1e-8) -> AdamWState:
    """Zero moments over the layout of `params`.

    `lr` is a float or a function mapping parameter name to its group's rate;
    it is read once, here, into a per-element rate vector, and the decoupled
    decay factor 1 - rate * weight_decay is built from it once too.
    """
    layout = ParamLayout.of(params)
    if callable(lr):
        rate = np.repeat([float(lr(name)) for name in layout.names], np.diff(layout.offsets))
    else:
        rate = float(lr)
    return AdamWState(layout=layout, rate=rate, decay=1.0 - rate * weight_decay,
                      m=np.zeros(layout.size), v=np.zeros(layout.size),
                      scratch=(np.empty(layout.size), np.empty(layout.size)),
                      beta1=beta1, beta2=beta2, eps=eps)


def adamw_step(p: np.ndarray, g: np.ndarray, state: AdamWState) -> None:
    """One decoupled-weight-decay update of the flat vector `p`, in place.

    `p` and `g` are laid out by `state.layout` (a mapping goes in through
    `state.layout.gather`, and `state.layout.views` reads it back). Each
    element is updated by the expressions of a per-tensor update, in the
    same order, with the results kept in the state's scratch vectors
    instead of new arrays.
    """
    if not np.isfinite(g).all():
        name, _ = state.layout.locate(np.flatnonzero(~np.isfinite(g))[0])
        raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    a, b = state.scratch
    p *= state.decay
    m *= state.beta1
    np.multiply(1.0 - state.beta1, g, out=a)
    m += a
    v *= state.beta2
    np.multiply(1.0 - state.beta2, g, out=a)
    a *= g
    v += a
    # p -= rate * (m / bias1) / (sqrt(v / bias2) + eps)
    np.divide(m, bias1, out=a)
    a *= state.rate
    np.divide(v, bias2, out=b)
    np.sqrt(b, out=b)
    b += state.eps
    a /= b
    p -= a
