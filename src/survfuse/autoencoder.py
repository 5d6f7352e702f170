"""Gene-expression autoencoder: dense encoder/decoder (`training.total_loss` adds its MSE)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Mlp, init_mlp

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
