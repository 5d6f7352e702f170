import numpy as np
import pytest

from survfuse.nn import (AdamWState, Workspace, adamw_step, draw_dropout_masks, init_adamw,
                         init_mlp, mlp_backward, mlp_forward, sigmoid)
from gradcheck import finite_difference_check


def reference_forward(mlp, x, masks):
    """Layer-by-layer loop kept deliberately separate from the implementation."""
    h = np.asarray(x, dtype=np.float64)
    keep = 1.0 - mlp.dropout
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w + b
        if i == len(mlp.weights) - 1:
            h = z
        else:
            h = np.maximum(z, 0.0)
            if masks is not None:
                h = h * masks[i] / keep
    return h


def test_sigmoid_matches_definition_and_is_stable():
    x = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[3] == 0.5
    assert s[0] == 0.0 and s[-1] == 1.0
    mid = np.array([-5.0, -0.7, 0.3, 4.0])
    assert np.allclose(sigmoid(mid), 1.0 / (1.0 + np.exp(-mid)), rtol=1e-15)


def test_init_mlp_shapes_and_fan_in_bounds():
    rng = np.random.default_rng(0)
    mlp = init_mlp(7, [5, 4], 3, rng)
    dims = [(7, 5), (5, 4), (4, 3)]
    assert [w.shape for w in mlp.weights] == dims
    for w in mlp.weights:
        limit = np.sqrt(6.0 / w.shape[0])
        assert np.all(np.abs(w) <= limit)
        assert w.std() > 0.1 * limit
    for b, (_, d_out) in zip(mlp.biases, dims):
        assert np.array_equal(b, np.zeros(d_out))


def test_init_mlp_rejects_bad_dropout():
    with pytest.raises(ValueError):
        init_mlp(3, [2], 1, np.random.default_rng(0), dropout=1.0)


def test_forward_matches_reference_loop():
    rng = np.random.default_rng(1)
    for _ in range(20):
        depth = int(rng.integers(0, 3))
        hidden = list(rng.integers(2, 6, size=depth))
        mlp = init_mlp(int(rng.integers(2, 6)), hidden, int(rng.integers(1, 4)), rng)
        x = rng.normal(size=(int(rng.integers(1, 7)), mlp.in_dim))
        out = mlp_forward(mlp, x)
        assert np.allclose(out, reference_forward(mlp, x, None), rtol=1e-14, atol=0)


def test_forward_with_dropout_masks_matches_reference():
    rng = np.random.default_rng(2)
    mlp = init_mlp(5, [6, 6], 2, rng, dropout=0.4)
    x = rng.normal(size=(8, 5))
    (masks,) = draw_dropout_masks([mlp], 8, rng)
    assert all(set(np.unique(m)) <= {0.0, 1.0} for m in masks)
    out = mlp_forward(mlp, x, masks=masks)
    assert np.allclose(out, reference_forward(mlp, x, masks), rtol=1e-14, atol=0)


def test_forward_without_masks_is_deterministic_eval():
    rng = np.random.default_rng(3)
    mlp = init_mlp(4, [5], 2, rng, dropout=0.5)
    x = rng.normal(size=(3, 4))
    out1 = mlp_forward(mlp, x)
    out2 = mlp_forward(mlp, x)
    assert np.array_equal(out1, out2)


def test_forward_rejects_input_that_is_not_2d():
    rng = np.random.default_rng(4)
    mlp = init_mlp(4, [3], 2, rng)
    for x in (rng.normal(size=4), rng.normal(size=(1, 1, 4))):
        with pytest.raises(ValueError, match=r"expected an \(n, 4\) input"):
            mlp_forward(mlp, x)



def test_dropout_mask_draw_respects_rate():
    rng = np.random.default_rng(5)
    mlp = init_mlp(3, [200], 1, rng, dropout=0.3)
    (masks,) = draw_dropout_masks([mlp], 50, rng)
    assert len(masks) == 1
    keep_fraction = masks[0].mean()
    assert abs(keep_fraction - 0.7) < 0.02
    assert draw_dropout_masks([init_mlp(3, [4], 1, rng)], 5, rng) == [None]


def params_of(mlp):
    out = {}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"w{i}"] = w
        out[f"b{i}"] = b
    return out


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    for trial in range(10):
        depth = int(rng.integers(0, 3))
        hidden = list(rng.integers(2, 6, size=depth))
        mlp = init_mlp(4, hidden, 3, rng)
        for b in mlp.biases:
            # keep preactivations off the ReLU kink, where central FD is biased
            b += rng.normal(scale=0.2, size=b.shape)
        x = rng.normal(size=(5, 4))
        u = rng.normal(size=(5, 3))

        def loss_fn(params):
            work = Workspace()
            out = mlp_forward(mlp, x, work=work)
            grads, _ = mlp_backward(mlp, work, u)
            return float((u * out).sum()), params_of_grads(grads)

        def params_of_grads(grads):
            flat = {}
            for i, (gw, gb) in enumerate(zip(grads.weights, grads.biases)):
                flat[f"w{i}"] = gw
                flat[f"b{i}"] = gb
            return flat

        worst = finite_difference_check(loss_fn, params_of(mlp), probes=15,
                                        rng=np.random.default_rng(trial))
        assert worst < 1e-6


def test_backward_with_fixed_dropout_matches_finite_differences():
    rng = np.random.default_rng(7)
    mlp = init_mlp(4, [6, 5], 2, rng, dropout=0.5)
    for b in mlp.biases:
        b += rng.normal(scale=0.2, size=b.shape)
    x = rng.normal(size=(6, 4))
    u = rng.normal(size=(6, 2))
    (masks,) = draw_dropout_masks([mlp], 6, rng)

    def loss_fn(params):
        work = Workspace()
        out = mlp_forward(mlp, x, masks=masks, work=work)
        grads, _ = mlp_backward(mlp, work, u)
        flat = {}
        for i, (gw, gb) in enumerate(zip(grads.weights, grads.biases)):
            flat[f"w{i}"] = gw
            flat[f"b{i}"] = gb
        return float((u * out).sum()), flat

    worst = finite_difference_check(loss_fn, params_of(mlp), probes=25)
    assert worst < 1e-6


def test_backward_input_gradient():
    rng = np.random.default_rng(8)
    mlp = init_mlp(5, [4], 3, rng)
    x = rng.normal(size=(2, 5))
    u = rng.normal(size=(2, 3))
    work = Workspace()
    mlp_forward(mlp, x, work=work)
    _, grad_in = mlp_backward(mlp, work, u)
    h = 1e-6
    for i in range(2):
        for j in range(5):
            bumped = x.copy()
            bumped[i, j] += h
            up = mlp_forward(mlp, bumped)
            bumped[i, j] -= 2 * h
            down = mlp_forward(mlp, bumped)
            numeric = ((u * up).sum() - (u * down).sum()) / (2 * h)
            assert abs(numeric - grad_in[i, j]) < 1e-5



def test_backward_needs_the_workspace_a_training_forward_wrote():
    rng = np.random.default_rng(9)
    mlp = init_mlp(3, [4], 2, rng)
    x = rng.normal(size=(2, 3))
    mlp_forward(mlp, x)  # an inference forward keeps nothing
    with pytest.raises(ValueError, match="no training forward wrote into this workspace"):
        mlp_backward(mlp, Workspace(), np.ones((2, 2)))

def adamw_on_mappings(p, g, state):
    """One step on name -> array mappings, gathered into the layout and copied back."""
    flat = state.layout.gather(p)
    adamw_step(flat, state.layout.gather(g), state)
    for name, view in state.layout.views(flat).items():
        np.copyto(p[name], view)


def test_adamw_decoupled_decay_single_step():
    # one hand-computed step: decay shrinks the weight before the moment update
    p = {"w": np.array([2.0])}
    g = {"w": np.array([0.5])}
    state = init_adamw(p, lr=0.01, weight_decay=0.1)
    adamw_on_mappings(p, g, state)
    decayed = 2.0 * (1.0 - 0.01 * 0.1)
    m_hat = (0.1 * 0.5) / (1.0 - 0.9)
    v_hat = (0.001 * 0.25) / (1.0 - 0.999)
    expected = decayed - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(p["w"][0] - expected) < 1e-15


def test_adamw_zero_decay_matches_adam_reference():
    rng = np.random.default_rng(9)
    p = {"w": rng.normal(size=(3, 2))}
    ref = p["w"].copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    state = init_adamw(p, lr=0.05, weight_decay=0.0)
    for t in range(1, 6):
        g = rng.normal(size=(3, 2))
        adamw_on_mappings(p, {"w": g}, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        ref = ref - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p["w"], ref, rtol=1e-12, atol=1e-14)


def test_adamw_per_parameter_learning_rates():
    p = {"a": np.array([1.0]), "b": np.array([1.0])}
    g = {"a": np.array([1.0]), "b": np.array([1.0])}
    state = init_adamw(p, lr=lambda name: 0.1 if name == "a" else 0.0, weight_decay=0.0)
    adamw_on_mappings(p, g, state)
    assert p["a"][0] < 1.0
    assert p["b"][0] == 1.0


def test_adamw_rejects_non_finite_gradients():
    p = {"w": np.array([1.0])}
    state = init_adamw(p, lr=0.1)
    with pytest.raises(FloatingPointError):
        adamw_on_mappings(p, {"w": np.array([np.nan])}, state)


def test_adamw_error_names_first_non_finite_tensor():
    p = {"a": np.zeros(2), "b": np.zeros((2, 2)), "c": np.zeros(3)}
    g = {"a": np.ones(2), "b": np.array([[1.0, 1.0], [np.inf, 1.0]]),
         "c": np.array([np.nan, 1.0, 1.0])}
    state = init_adamw(p, lr=0.1)
    with pytest.raises(FloatingPointError, match=r"parameter 'b'"):
        adamw_on_mappings(p, g, state)
    # nothing moved, and the failed step does not count
    assert state.step == 0
    assert all(not arr.any() for arr in p.values())
