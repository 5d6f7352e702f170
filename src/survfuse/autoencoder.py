"""Gene-expression autoencoder: dense encoder/decoder (`training.total_loss` adds its MSE)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Mlp, init_mlp


@dataclass
class Autoencoder:
    encoder: Mlp
    decoder: Mlp

    @property
    def latent_dim(self) -> int:
        return self.encoder.out_dim


def init_autoencoder(input_dim: int, rng: np.random.Generator, hidden: list[int],
                     latent_dim: int, dropout: float = 0.0) -> Autoencoder:
    """Mirror-image encoder/decoder. Decoder hidden stack is the encoder's reversed."""
    encoder = init_mlp(input_dim, list(hidden), latent_dim, rng, dropout=dropout)
    decoder = init_mlp(latent_dim, list(reversed(hidden)), input_dim, rng, dropout=dropout)
    return Autoencoder(encoder=encoder, decoder=decoder)
