"""Gradient references for the tests: central differences at sampled
coordinates, and the autoencoder's reconstruction loss on its own (the
training objective's L_AE term, with gradients for both halves)."""

from typing import Callable, Mapping

import numpy as np

from survfuse.autoencoder import Autoencoder
from survfuse.nn import (MlpGrads, ParamLayout, Workspace, draw_dropout_masks, mlp_backward,
                         mlp_forward)


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
        enc_masks, dec_masks = draw_dropout_masks([ae.encoder, ae.decoder], n, rng)
    enc_work, dec_work = Workspace(), Workspace()
    z = mlp_forward(ae.encoder, x, masks=enc_masks, work=enc_work)
    recon = mlp_forward(ae.decoder, z, masks=dec_masks, work=dec_work)
    resid = recon - x
    loss = float((resid ** 2).sum() / (n * d))
    grad_recon = 2.0 * resid / (n * d)
    dec_grads, grad_z = mlp_backward(ae.decoder, dec_work, grad_recon)
    enc_grads, _ = mlp_backward(ae.encoder, enc_work, grad_z, input_grad=False)
    return loss, enc_grads, dec_grads
