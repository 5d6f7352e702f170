"""Model assembly: modality heads, optional autoencoder, and fusion gates
wired into one parameter dictionary with a shared forward/backward pass.

Every trainable tensor of a model is a view into one flat float64 vector,
`SurvivalModel.flat`, laid out in `model_params` order by
`SurvivalModel.layout`; an optimizer updates that vector in place.

`model_forward` given a `Workspace` is a training forward: every network
writes its activations and dropout masks there, the decoder runs, and
`model_backward` reads them back. Without a workspace it is an inference
forward: nothing is kept, no decoder runs and no dropout is drawn."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autoencoder import Autoencoder, init_autoencoder
from .fusion import (MODALITY_ORDER, FusionGates, early_fuse, init_fusion_gates, late_fuse,
                     late_fuse_backward)
from .nn import (FlatViews, Mlp, MlpGrads, ParamLayout, Workspace, draw_dropout_masks,
                 init_mlp, mlp_backward, mlp_forward, sigmoid)

FUSION_MODES = ("early", "late", "none")


def checked_structure(fusion: str, modalities) -> tuple[str, ...]:
    """Validate a fusion mode and modality set (a run config and a model
    both); return the modalities in MODALITY_ORDER."""
    if fusion not in FUSION_MODES:
        raise ValueError(f"unknown fusion {fusion!r}")
    ordered = tuple(m for m in MODALITY_ORDER if m in modalities)
    if not ordered or set(modalities) - set(MODALITY_ORDER):
        raise ValueError(f"bad modalities {tuple(modalities)}: need at least one "
                         f"of {MODALITY_ORDER}")
    if fusion == "none" and len(ordered) > 1:
        raise ValueError("fusion 'none' requires a single modality")
    return ordered


def gated_fusion(fusion: str, modalities) -> bool:
    """Whether a model has one head per modality blended by gates: late
    fusion of more than one modality."""
    return fusion == "late" and len(modalities) > 1


@dataclass
class SurvivalModel:
    fusion: str     # 'early' | 'late' | 'none'
    modalities: tuple[str, ...]
    heads: dict[str, Mlp]
    ae: Autoencoder | None = None
    gates: FusionGates | None = None
    layout: ParamLayout = field(init=False, repr=False, compare=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Copy the components' tensors into one vector and rebind them as views of it.
        params = model_params(self)
        self.layout = ParamLayout.of(params)
        self.flat = self.layout.gather(params)
        views = self.layout.views(self.flat)
        for prefix, mlp in _named_mlps(self):
            mlp.weights[:] = [views[f"{prefix}.w{i}"] for i in range(len(mlp.weights))]
            mlp.biases[:] = [views[f"{prefix}.b{i}"] for i in range(len(mlp.biases))]
        if self.gates is not None:
            self.gates.inner_logit = views["gates.inner"]
            self.gates.outer_logit = views["gates.outer"]


@dataclass
class ModelForward:
    out: np.ndarray                      # (N, width)
    head_outputs: dict[str, np.ndarray]  # each head's (N, width)
    recon: np.ndarray | None             # None for an inference forward or no autoencoder
    work: Workspace | None               # what a training forward wrote; None for inference


def init_model(fusion: str, modalities, dims: dict[str, int],
               rng: np.random.Generator, width: int, *, head_layers, dropout: float,
               ae_hidden, latent_dim: int, ae_dropout: float) -> SurvivalModel:
    """Build all components for one run configuration: `width` outputs per
    sample (the survival head's `width`), and gates as wide. The layer
    widths and dropout rates are `RunConfig`'s.

    `dims` maps each enabled modality to its input width (ge gives d_g; the
    heads then consume the autoencoder latent). Late fusion of several
    modalities gets one head per modality plus gates; otherwise one head
    reads the early-fused input and the model has no gates, so `gates is
    None` is how the forward and backward passes tell the two apart.
    """
    modalities = checked_structure(fusion, modalities)
    if width < 1:
        raise ValueError("the model needs at least one output")
    missing = [m for m in modalities if m not in dims]
    if missing:
        raise ValueError(f"missing dims for modalities: {missing}")

    ae = None
    if "ge" in modalities:
        ae = init_autoencoder(dims["ge"], rng, hidden=list(ae_hidden),
                              latent_dim=latent_dim, dropout=ae_dropout)
    reads = {m: ae.latent_dim if m == "ge" else dims[m] for m in modalities}

    gated = gated_fusion(fusion, modalities)
    head_reads = {f"head_{m}": (m,) for m in modalities} if gated else {"head": modalities}
    heads = {name: init_mlp(sum(reads[m] for m in read), list(head_layers), width, rng,
                            dropout=dropout)
             for name, read in head_reads.items()}
    gates = init_fusion_gates(width) if gated else None
    return SurvivalModel(fusion=fusion, modalities=modalities, heads=heads, ae=ae, gates=gates)


def _named_mlps(model: SurvivalModel):
    """(parameter-name prefix, Mlp) for every network, in model_params order."""
    yield from model.heads.items()
    if model.ae is not None:
        yield "enc", model.ae.encoder
        yield "dec", model.ae.decoder


def model_params(model: SurvivalModel) -> dict[str, np.ndarray]:
    """Flat name -> array views over every trainable tensor (shared, not copied)."""
    params: dict[str, np.ndarray] = {}
    for prefix, mlp in _named_mlps(model):
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            params[f"{prefix}.w{i}"] = w
            params[f"{prefix}.b{i}"] = b
    if model.gates is not None:
        params["gates.inner"] = model.gates.inner_logit
        params["gates.outer"] = model.gates.outer_logit
    return params


def model_forward(model: SurvivalModel, batch: dict[str, np.ndarray],
                  rng: np.random.Generator | None = None,
                  work: Workspace | None = None) -> ModelForward:
    """Run every component: a training forward into `work`, or an inference
    forward without it.

    `batch` maps modality names to matrices: text -> (N, d) pooled vectors,
    cov -> (N, d_c), ge -> (N, d_g). A training forward writes every
    network's activations into `work`, draws dropout masks from `rng` if one
    is given, and runs the autoencoder's decoder for the training loss. An
    inference forward keeps nothing, so it holds O(N x widest layer) at a
    time, skips the decoder (`recon=None`) and takes no `rng`; its outputs
    equal a training forward's without dropout, bit for bit.
    """
    if rng is not None and work is None:
        raise ValueError("dropout is drawn only in a training forward: pass a workspace")
    for m in model.modalities:
        if m not in batch:
            raise ValueError(f"batch missing modality {m!r}")
    n = batch[model.modalities[0]].shape[0]
    # every network's masks in one draw, in the order the networks run
    nets = {**({"enc": model.ae.encoder, "dec": model.ae.decoder} if model.ae else {}),
            **model.heads}
    masks = dict(zip(nets, draw_dropout_masks(list(nets.values()), n, rng, work)
                     if rng is not None else [None] * len(nets)))

    def run(name: str, x: np.ndarray) -> np.ndarray:
        return mlp_forward(nets[name], x, masks=masks[name],
                           work=None if work is None else work.part(name))

    z_ge = recon = None
    if model.ae is not None:
        z_ge = run("enc", batch["ge"])
        if work is not None:
            recon = run("dec", z_ge)

    inputs = {m: z_ge if m == "ge" else batch[m] for m in model.modalities}
    if model.gates is None:
        head_inputs = {"head": early_fuse(inputs)}
    else:
        head_inputs = {f"head_{m}": x for m, x in inputs.items()}
    head_outputs = {name: run(name, x) for name, x in head_inputs.items()}
    if model.gates is None:
        out = head_outputs["head"]
    else:
        out = late_fuse({m: head_outputs[f"head_{m}"] for m in inputs}, model.gates, work)
    return ModelForward(out=out, head_outputs=head_outputs, recon=recon, work=work)


def model_backward(model: SurvivalModel, fwd: ModelForward, grad_out: np.ndarray,
                   grad_recon: np.ndarray | None = None) -> FlatViews:
    """Gradients for every parameter of the training forward `fwd`, as views
    of one vector in `model.layout`.

    `grad_out` is dL/d(out); `grad_recon` is dL/d(recon) for the autoencoder
    term (None when the run has no reconstruction loss, and the decoder's
    gradients are zero). The encoder receives the sum of the head-path and
    decoder-path gradients. The vector (`.flat`), its views and every input
    gradient live in the forward's workspace (`fwd.work`): a forward with a
    new workspace gets a new vector, and a workspace kept across steps gets
    the same vector back each step, overwritten.
    """
    work = fwd.work
    if work is None:
        raise ValueError("an inference forward keeps nothing for a backward: "
                         "pass model_forward a workspace")
    grads = work.made("grads", lambda: model.layout.views(np.empty(model.layout.size)))

    def backward(prefix: str, mlp: Mlp, g: np.ndarray, input_grad: bool) -> np.ndarray | None:
        out = work.made(("grads", prefix), lambda: MlpGrads(
            [grads[f"{prefix}.w{i}"] for i in range(len(mlp.weights))],
            [grads[f"{prefix}.b{i}"] for i in range(len(mlp.biases))]))
        return mlp_backward(mlp, work.part(prefix), g, out=out, input_grad=input_grad)[1]

    if model.gates is None:
        head_grads = {"head": grad_out}
    else:
        by_modality, grad_inner, grad_outer = late_fuse_backward(
            grad_out, {m: fwd.head_outputs[f"head_{m}"] for m in model.modalities},
            model.gates, work)
        np.copyto(grads["gates.inner"], grad_inner)
        np.copyto(grads["gates.outer"], grad_outer)
        head_grads = {f"head_{m}": g for m, g in by_modality.items()}
    grad_z_ge = None
    for name, g in head_grads.items():
        reads_ge = model.ae is not None and name in ("head", "head_ge")
        grad_in = backward(name, model.heads[name], g, input_grad=reads_ge)
        if reads_ge:
            # ge is last in MODALITY_ORDER: the trailing latent_dim columns of the input
            grad_z_ge = grad_in[:, -model.ae.latent_dim:]

    if model.ae is not None:
        if grad_recon is not None:
            grad_z = backward("dec", model.ae.decoder, grad_recon, input_grad=True)
            grad_z += grad_z_ge
        else:
            for i in range(len(model.ae.decoder.weights)):
                grads[f"dec.w{i}"].fill(0.0)
                grads[f"dec.b{i}"].fill(0.0)
            grad_z = grad_z_ge
        backward("enc", model.ae.encoder, grad_z, input_grad=False)
    return grads


def gate_values(model: SurvivalModel) -> dict[str, list[float]] | None:
    """Realized sigmoid gates for reporting, None when the run has no gates."""
    if model.gates is None:
        return None
    return {"inner": sigmoid(model.gates.inner_logit).tolist(),
            "outer": sigmoid(model.gates.outer_logit).tolist()}
