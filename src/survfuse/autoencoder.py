"""Gene-expression autoencoder: dense encoder/decoder with dimension-normalized MSE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Mlp, MlpGrads, draw_dropout_masks, init_mlp, mlp_backward, mlp_forward

# Production-scale preset; desk-scale runs pass their own layer widths.
DEFAULT_ENCODER_HIDDEN = [4096, 2048, 1024, 512, 256]
DEFAULT_LATENT_DIM = 128


@dataclass
class Autoencoder:
    encoder: Mlp
    decoder: Mlp

    @property
    def latent_dim(self) -> int:
        return self.encoder.out_dim


def init_autoencoder(input_dim: int, rng: np.random.Generator,
                     hidden: list[int] | None = None,
                     latent_dim: int | None = None,
                     dropout: float = 0.0) -> Autoencoder:
    """Mirror-image encoder/decoder. Decoder hidden stack is the encoder's reversed."""
    if hidden is None:
        hidden = DEFAULT_ENCODER_HIDDEN
    if latent_dim is None:
        latent_dim = DEFAULT_LATENT_DIM
    encoder = init_mlp(input_dim, list(hidden), latent_dim, rng, dropout=dropout)
    decoder = init_mlp(latent_dim, list(reversed(hidden)), input_dim, rng, dropout=dropout)
    return Autoencoder(encoder=encoder, decoder=decoder)


def reconstruction_loss_grad(
    ae: Autoencoder, x: np.ndarray, rng: np.random.Generator | None = None,
) -> tuple[float, MlpGrads, MlpGrads]:
    """L_AE = mean_i ||Dec(Enc(x_i)) - x_i||^2 / d_g, with gradients for both halves.

    Pass `rng` to draw fresh dropout masks for a training step; omit it for
    deterministic evaluation.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = x.shape
    enc_masks = dec_masks = None
    if rng is not None and ae.encoder.dropout > 0.0:
        enc_masks = draw_dropout_masks(ae.encoder, n, rng)
        dec_masks = draw_dropout_masks(ae.decoder, n, rng)
    z, enc_cache = mlp_forward(ae.encoder, x, masks=enc_masks)
    recon, dec_cache = mlp_forward(ae.decoder, z, masks=dec_masks)
    resid = recon - x
    loss = float((resid ** 2).sum() / (n * d))
    grad_recon = 2.0 * resid / (n * d)
    dec_grads, grad_z = mlp_backward(ae.decoder, dec_cache, grad_recon)
    enc_grads, _ = mlp_backward(ae.encoder, enc_cache, grad_z, input_grad=False)
    return loss, enc_grads, dec_grads
