import numpy as np
import pytest

from survfuse.pooling import attention_pool, pool_all, pool_many


def reference_pool(hidden):
    """Plain double-loop softmax attention, no stabilization tricks."""
    T = hidden.shape[0]
    scores = hidden @ hidden.T
    A = np.zeros_like(scores)
    for i in range(T):
        row = np.exp(scores[i] - scores[i].max())
        A[i] = row / row.sum()
    mixed = A @ hidden
    return mixed.mean(axis=0)


def test_matches_reference_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        T, d = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        hidden = rng.normal(size=(T, d))
        assert np.allclose(attention_pool(hidden), reference_pool(hidden),
                           rtol=1e-13, atol=1e-15)


def test_single_token_passthrough():
    hidden = np.array([[1.5, -2.0, 0.25]])
    assert np.allclose(attention_pool(hidden), hidden[0], rtol=1e-15)


def test_identical_tokens_average_to_the_token():
    row = np.array([0.3, -1.1, 2.0])
    hidden = np.tile(row, (6, 1))
    assert np.allclose(attention_pool(hidden), row, rtol=1e-15)


def test_scores_are_unscaled_dot_products():
    # with sqrt(d) scaling the attention would be flatter; pin the convention
    hidden = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    scores = hidden @ hidden.T
    scaled = scores / np.sqrt(hidden.shape[1])

    def pool_from(scores):
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        A = e / e.sum(axis=1, keepdims=True)
        return (A @ hidden).mean(axis=0)

    result = attention_pool(hidden)
    assert np.allclose(result, pool_from(scores), rtol=1e-13)
    assert not np.allclose(result, pool_from(scaled), rtol=1e-6)


def test_large_magnitudes_stay_finite():
    rng = np.random.default_rng(1)
    hidden = rng.normal(scale=60.0, size=(5, 4))
    pooled = attention_pool(hidden)
    assert np.all(np.isfinite(pooled))


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError):
        attention_pool(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        attention_pool(np.zeros(3))
    with pytest.raises(ValueError):
        attention_pool(np.array([[1.0, np.nan]]))


def test_pool_all_preserves_order_and_values():
    rng = np.random.default_rng(2)
    hidden = {f"s{i}": rng.normal(size=(3 + i, 4)) for i in range(4)}
    pooled = pool_all(hidden)
    assert list(pooled) == list(hidden)
    for sid in hidden:
        assert np.array_equal(pooled[sid], attention_pool(hidden[sid]))


def test_a_stack_pools_each_matrix():
    rng = np.random.default_rng(3)
    hidden = rng.normal(size=(4, 5, 3))
    pooled = attention_pool(hidden)
    assert pooled.shape == (4, 3)
    for row, mat in zip(pooled, hidden):
        assert np.array_equal(row, attention_pool(mat))


def test_pool_many_rejects_what_attention_pool_rejects():
    with pytest.raises(ValueError, match="L x d matrix"):
        pool_many([np.zeros((2, 3)), np.zeros(3)])
    with pytest.raises(ValueError, match="L x d matrix"):
        pool_many([np.zeros((0, 3))])
    with pytest.raises(ValueError, match="non-finite"):
        pool_many([np.zeros((2, 3)), np.array([[1.0, np.inf, 0.0]])])
    with pytest.raises(ValueError, match="L x d matrix"):
        attention_pool(np.zeros((2, 2, 2, 2)))
    assert pool_many([]) == []
