"""Model assembly: modality heads, optional autoencoder, and fusion gates
wired into one parameter dictionary with a shared forward/backward pass.

Every trainable tensor of a model is a view into one flat float64 vector,
`SurvivalModel.flat`, laid out in `model_params` order by
`SurvivalModel.layout`; an optimizer updates that vector in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autoencoder import Autoencoder, init_autoencoder
from .fusion import (MODALITY_ORDER, FusionGates, early_fuse, init_fusion_gates, late_fuse,
                     late_fuse_backward)
from .nn import (FlatViews, Mlp, MlpCache, MlpGrads, ParamLayout, draw_dropout_masks,
                 init_mlp, mlp_backward, mlp_forward, sigmoid)

DEFAULT_HEAD_LAYERS = [100, 100, 100]
HEAD_TYPES = ("discrete", "coxph")
FUSION_MODES = ("early", "late", "none")


def checked_structure(head_type: str, fusion: str, modalities) -> tuple[str, ...]:
    """Validate a head type, fusion mode and modality set (a run config and
    a model both); return the modalities in MODALITY_ORDER."""
    if head_type not in HEAD_TYPES:
        raise ValueError(f"unknown head {head_type!r}")
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


@dataclass
class ModelForward:
    out: np.ndarray                      # (N, B) logits or (N,) scores
    head_outputs: dict[str, np.ndarray]  # each head's (N, B) logits or (N,) scores
    head_caches: dict[str, MlpCache | None]  # None without keep_cache
    recon: np.ndarray | None = None
    enc_cache: MlpCache | None = None
    dec_cache: MlpCache | None = None


def init_model(head_type: str, fusion: str, modalities, dims: dict[str, int],
               rng: np.random.Generator, n_bins: int | None = None,
               head_layers=None, dropout: float = 0.3,
               ae_hidden=None, latent_dim: int = 16,
               ae_dropout: float = 0.0) -> SurvivalModel:
    """Build all components for one run configuration.

    `dims` maps each enabled modality to its input width (ge gives d_g; the
    heads then consume the autoencoder latent). Late fusion of several
    modalities gets one head per modality plus gates; otherwise one head
    reads the early-fused input and the model has no gates, so `gates is
    None` is how the forward and backward passes tell the two apart.
    """
    modalities = checked_structure(head_type, fusion, modalities)
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
    width = {m: ae.latent_dim if m == "ge" else dims[m] for m in modalities}

    gated = gated_fusion(fusion, modalities)
    head_reads = {f"head_{m}": (m,) for m in modalities} if gated else {"head": modalities}
    heads = {name: init_mlp(sum(width[m] for m in read), list(head_layers), out_dim, rng,
                            dropout=dropout)
             for name, read in head_reads.items()}
    gates = init_fusion_gates(n_bins if head_type == "discrete" else None) if gated else None
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


def model_forward(model: SurvivalModel, batch: dict[str, np.ndarray],
                  rng: np.random.Generator | None = None,
                  keep_cache: bool = True) -> ModelForward:
    """Run every component; pass `rng` to draw dropout masks (training mode).

    `batch` maps modality names to matrices: text -> (N, d) pooled vectors,
    cov -> (N, d_c), ge -> (N, d_g). With `keep_cache=False` the networks
    keep none of the activations that only `model_backward` reads (the
    caches are None), so inference holds O(N x widest layer) at a time; the
    outputs are the same either way. An inference forward (`keep_cache=False`
    and no `rng`) also skips the autoencoder's decoder, whose output only the
    training loss reads, and returns `recon=None`; with an `rng` the decoder
    runs, so the dropout masks drawn stay the same.
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
                                      masks=masks_for(model.ae.encoder),
                                      keep_cache=keep_cache)
        if keep_cache or rng is not None:
            recon, dec_cache = mlp_forward(model.ae.decoder, z_ge,
                                           masks=masks_for(model.ae.decoder),
                                           keep_cache=keep_cache)

    inputs = {m: z_ge if m == "ge" else batch[m] for m in model.modalities}
    if model.gates is None:
        head_inputs = {"head": early_fuse(inputs)}
    else:
        head_inputs = {f"head_{m}": x for m, x in inputs.items()}
    head_outputs: dict[str, np.ndarray] = {}
    head_caches: dict[str, MlpCache | None] = {}
    for name, x in head_inputs.items():
        mlp = model.heads[name]
        out, head_caches[name] = mlp_forward(mlp, x, masks=masks_for(mlp),
                                             keep_cache=keep_cache)
        head_outputs[name] = out if model.head_type == "discrete" else out[:, 0]
    if model.gates is None:
        out = head_outputs["head"]
    else:
        out = late_fuse({m: head_outputs[f"head_{m}"] for m in inputs}, model.gates)
    return ModelForward(out=out, head_outputs=head_outputs, head_caches=head_caches,
                        recon=recon, enc_cache=enc_cache, dec_cache=dec_cache)


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

    if model.gates is None:
        head_grads = {"head": grad_out}
    else:
        by_modality, grad_inner, grad_outer = late_fuse_backward(
            grad_out, {m: fwd.head_outputs[f"head_{m}"] for m in model.modalities},
            model.gates)
        np.copyto(grads["gates.inner"], grad_inner)
        np.copyto(grads["gates.outer"], grad_outer)
        head_grads = {f"head_{m}": g for m, g in by_modality.items()}
    grad_z_ge = None
    for name, g in head_grads.items():
        reads_ge = model.ae is not None and name in ("head", "head_ge")
        grad_in = backward(name, model.heads[name], fwd.head_caches[name],
                           g[:, None] if model.head_type == "coxph" else g,
                           input_grad=reads_ge)
        if reads_ge:
            # ge is last in MODALITY_ORDER: the trailing latent_dim columns of the input
            grad_z_ge = grad_in[:, -model.ae.latent_dim:]

    if model.ae is not None:
        if grad_recon is not None:
            grad_z = backward("dec", model.ae.decoder, fwd.dec_cache, grad_recon,
                              input_grad=True) + grad_z_ge
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
