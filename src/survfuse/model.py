"""Model assembly: modality heads, optional autoencoder, and fusion gates
wired into one parameter dictionary with a shared forward/backward pass.

Every trainable tensor of a model is a view into one flat float64 vector,
`SurvivalModel.flat`, laid out in `model_params` order by
`SurvivalModel.layout`; an optimizer updates that vector in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autoencoder import Autoencoder, init_autoencoder
from .fusion import (MODALITY_ORDER, FusionGates, ModalityOutputs, early_fuse,
                     init_fusion_gates, late_fuse, late_fuse_backward)
from .nn import (FlatViews, Mlp, MlpCache, MlpGrads, ParamLayout, draw_dropout_masks,
                 init_mlp, mlp_backward, mlp_forward, sigmoid)

DEFAULT_HEAD_LAYERS = [100, 100, 100]


@dataclass
class SurvivalModel:
    head_type: str  # 'discrete' | 'coxph'
    fusion: str     # 'early' | 'late' | 'none'
    modalities: tuple[str, ...]
    n_bins: int | None
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

    def out_dim(self) -> int:
        return self.n_bins if self.head_type == "discrete" else 1

    def copy(self) -> "SurvivalModel":
        return SurvivalModel(
            head_type=self.head_type, fusion=self.fusion, modalities=self.modalities,
            n_bins=self.n_bins, heads={k: v.copy() for k, v in self.heads.items()},
            ae=self.ae.copy() if self.ae else None,
            gates=self.gates.copy() if self.gates else None)


@dataclass
class ModelForward:
    out: np.ndarray                      # (N, B) logits or (N,) scores
    modality_outputs: ModalityOutputs | None
    head_caches: dict[str, MlpCache]
    z_ge: np.ndarray | None = None
    recon: np.ndarray | None = None
    enc_cache: MlpCache | None = None
    dec_cache: MlpCache | None = None
    batch: dict[str, np.ndarray] = field(default_factory=dict)


def init_model(head_type: str, fusion: str, modalities, dims: dict[str, int],
               rng: np.random.Generator, n_bins: int | None = None,
               head_layers=None, dropout: float = 0.3,
               ae_hidden=None, latent_dim: int = 16,
               ae_dropout: float = 0.0) -> SurvivalModel:
    """Build all components for one run configuration.

    `dims` maps each enabled modality to its input width (ge gives d_g; the
    heads then consume the autoencoder latent). Late fusion gets one head per
    modality plus gates; early/none get a single head.
    """
    modalities = tuple(m for m in MODALITY_ORDER if m in modalities)
    if not modalities:
        raise ValueError("at least one modality required")
    if head_type not in ("discrete", "coxph"):
        raise ValueError(f"unknown head type {head_type!r}")
    if fusion not in ("early", "late", "none"):
        raise ValueError(f"unknown fusion mode {fusion!r}")
    if fusion == "none" and len(modalities) > 1:
        raise ValueError("fusion 'none' requires a single modality")
    if head_type == "discrete" and (n_bins is None or n_bins < 1):
        raise ValueError("discrete head needs n_bins")
    if head_layers is None:
        head_layers = list(DEFAULT_HEAD_LAYERS)
    missing = [m for m in modalities if m not in dims]
    if missing:
        raise ValueError(f"missing dims for modalities: {missing}")

    out_dim = n_bins if head_type == "discrete" else 1
    ae = None
    if "ge" in modalities:
        hidden = list(ae_hidden) if ae_hidden is not None else [64, 32]
        ae = init_autoencoder(dims["ge"], rng, hidden=hidden,
                              latent_dim=latent_dim, dropout=ae_dropout)

    def head_in(modality: str) -> int:
        return ae.latent_dim if modality == "ge" else dims[modality]

    heads: dict[str, Mlp] = {}
    gates = None
    if fusion == "late" and len(modalities) > 1:
        for m in modalities:
            heads[f"head_{m}"] = init_mlp(head_in(m), list(head_layers), out_dim,
                                          rng, dropout=dropout)
        gates = init_fusion_gates(n_bins if head_type == "discrete" else None)
    else:
        total = sum(head_in(m) for m in modalities)
        heads["head"] = init_mlp(total, list(head_layers), out_dim, rng,
                                 dropout=dropout)
    return SurvivalModel(head_type=head_type, fusion=fusion, modalities=modalities,
                         n_bins=n_bins, heads=heads, ae=ae, gates=gates)


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


def _modality_input(model: SurvivalModel, batch: dict[str, np.ndarray],
                    z_ge: np.ndarray | None, modality: str) -> np.ndarray:
    if modality == "ge":
        return z_ge
    key = "text" if modality == "text" else "cov"
    return batch[key]


def model_forward(model: SurvivalModel, batch: dict[str, np.ndarray],
                  rng: np.random.Generator | None = None) -> ModelForward:
    """Run every component; pass `rng` to draw dropout masks (training mode).

    `batch` maps modality names to matrices: text -> (N, d) pooled vectors,
    cov -> (N, d_c), ge -> (N, d_g).
    """
    for m in model.modalities:
        if m not in batch:
            raise ValueError(f"batch missing modality {m!r}")
    n = batch[model.modalities[0]].shape[0]

    def masks_for(mlp: Mlp):
        if rng is None or mlp.dropout == 0.0:
            return None
        return draw_dropout_masks(mlp, n, rng)

    z_ge = recon = enc_cache = dec_cache = None
    if model.ae is not None:
        z_ge, enc_cache = mlp_forward(model.ae.encoder, batch["ge"],
                                      masks=masks_for(model.ae.encoder))
        recon, dec_cache = mlp_forward(model.ae.decoder, z_ge,
                                       masks=masks_for(model.ae.decoder))

    head_caches: dict[str, MlpCache] = {}
    modality_outputs = None
    if model.fusion == "late" and len(model.modalities) > 1:
        outs = {}
        for m in model.modalities:
            name = f"head_{m}"
            mlp = model.heads[name]
            x = _modality_input(model, batch, z_ge, m)
            out_m, head_caches[name] = mlp_forward(mlp, x, masks=masks_for(mlp))
            outs[m] = out_m if model.head_type == "discrete" else out_m[:, 0]
        modality_outputs = ModalityOutputs(**outs)
        out = late_fuse(modality_outputs, model.gates)
    else:
        inputs = {m: _modality_input(model, batch, z_ge, m) for m in model.modalities}
        x = early_fuse(z_text=inputs.get("text"), x_cov=inputs.get("cov"),
                       z_ge=inputs.get("ge"))
        mlp = model.heads["head"]
        out, head_caches["head"] = mlp_forward(mlp, x, masks=masks_for(mlp))
        if model.head_type == "coxph":
            out = out[:, 0]
    return ModelForward(out=out, modality_outputs=modality_outputs,
                        head_caches=head_caches, z_ge=z_ge, recon=recon,
                        enc_cache=enc_cache, dec_cache=dec_cache, batch=batch)


def model_backward(model: SurvivalModel, fwd: ModelForward, grad_out: np.ndarray,
                   grad_recon: np.ndarray | None = None) -> FlatViews:
    """Gradients for every parameter, as views of one new vector in `model.layout`.

    `grad_out` is dL/d(out); `grad_recon` is dL/d(recon) for the autoencoder
    term (None when the run has no reconstruction loss, and the decoder's
    gradients are zero). The encoder receives the sum of the head-path and
    decoder-path gradients. Each call returns a new vector (`.flat`).
    """
    grads = model.layout.views(np.empty(model.layout.size))

    def backward(prefix: str, mlp: Mlp, cache: MlpCache, g: np.ndarray,
                 input_grad: bool) -> np.ndarray | None:
        n = len(mlp.weights)
        out = MlpGrads([grads[f"{prefix}.w{i}"] for i in range(n)],
                       [grads[f"{prefix}.b{i}"] for i in range(n)])
        return mlp_backward(mlp, cache, g, out=out, input_grad=input_grad)[1]

    grad_z_ge = None
    if model.fusion == "late" and len(model.modalities) > 1:
        fusion_grads = late_fuse_backward(grad_out, fwd.modality_outputs, model.gates)
        np.copyto(grads["gates.inner"], fusion_grads.inner_logit)
        np.copyto(grads["gates.outer"], fusion_grads.outer_logit)
        for m in model.modalities:
            name = f"head_{m}"
            g = getattr(fusion_grads.outputs, m)
            if model.head_type == "coxph":
                g = g[:, None]
            grad_in = backward(name, model.heads[name], fwd.head_caches[name], g,
                               input_grad=(m == "ge"))
            if m == "ge":
                grad_z_ge = grad_in
    else:
        g = grad_out[:, None] if model.head_type == "coxph" else grad_out
        grad_in = backward("head", model.heads["head"], fwd.head_caches["head"], g,
                           input_grad="ge" in model.modalities)
        if "ge" in model.modalities:
            # ge occupies the trailing latent_dim columns of the early-fused input
            grad_z_ge = grad_in[:, -model.ae.latent_dim:]

    if model.ae is not None:
        if grad_recon is not None:
            grad_z_from_dec = backward("dec", model.ae.decoder, fwd.dec_cache, grad_recon,
                                       input_grad=True)
            grad_z = grad_z_from_dec if grad_z_ge is None else grad_z_from_dec + grad_z_ge
        else:
            for i in range(len(model.ae.decoder.weights)):
                grads[f"dec.w{i}"].fill(0.0)
                grads[f"dec.b{i}"].fill(0.0)
            grad_z = grad_z_ge
        backward("enc", model.ae.encoder, fwd.enc_cache, grad_z, input_grad=False)
    return grads


def gate_values(model: SurvivalModel) -> dict[str, list[float]] | None:
    """Realized sigmoid gates for reporting, None when the run has no gates."""
    if model.gates is None:
        return None
    return {"inner": np.atleast_1d(sigmoid(model.gates.inner_logit)).tolist(),
            "outer": np.atleast_1d(sigmoid(model.gates.outer_logit)).tolist()}
