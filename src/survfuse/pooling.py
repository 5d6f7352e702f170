"""Self-attention pooling of token hidden states into fixed-size vectors."""

from __future__ import annotations

import numpy as np

# Float64 elements of the temporaries one `attention_pool` call of `pool_many`
# holds: per (L, d) sample, the stacked states, the scores, the weights and the
# pooled rows, 2 * L * (L + d). 4 MiB bounds memory at any size and length.
POOL_BLOCK_ELEMENTS = 1 << 19


def attention_pool(hidden: np.ndarray) -> np.ndarray:
    """Pool an L x d hidden-state matrix to a length-d vector, or a stack of
    n such matrices (n, L, d) to an (n, d) matrix.

    A = row_softmax(H H^T), pooled rows H~ = A H, output z = column mean of H~.
    No 1/sqrt(d) scaling on the score matrix; softmax subtracts the row max.
    Each matrix of a stack is pooled with the same operations as alone, so
    its row equals the result of pooling it alone, bit for bit.
    """
    h = np.asarray(hidden, dtype=np.float64)
    if h.ndim not in (2, 3) or 0 in h.shape[-2:]:
        raise ValueError(f"expected a non-empty L x d matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite hidden states")
    scores = h @ np.swapaxes(h, -1, -2)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    pooled = weights @ h
    return pooled.mean(axis=-2)


def pool_many(matrices) -> list[np.ndarray]:
    """`attention_pool` of each (L, d) matrix in a sequence, in order.

    Matrices of one shape are pooled together, in stacks whose temporaries
    hold at most POOL_BLOCK_ELEMENTS elements, so a cohort takes a handful
    of calls, not one per sample.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, mat in enumerate(matrices):
        if np.ndim(mat) != 2 or 0 in np.shape(mat):
            raise ValueError(f"expected a non-empty L x d matrix, got shape {np.shape(mat)}")
        groups.setdefault(np.shape(mat), []).append(i)
    out: list[np.ndarray] = [None] * len(matrices)
    for (length, width), rows in groups.items():
        step = max(1, POOL_BLOCK_ELEMENTS // (2 * length * (length + width)))
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            for i, vec in zip(block, attention_pool(np.stack([matrices[i] for i in block]))):
                out[i] = vec
    return out


def pool_all(hidden_by_id: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Pool every sample in a hidden-state mapping, preserving order."""
    return dict(zip(hidden_by_id, pool_many(list(hidden_by_id.values()))))
