import numpy as np
import pytest

from survfuse.fusion import FusionGates, early_fuse, init_fusion_gates, late_fuse, late_fuse_backward
from survfuse.nn import Workspace, sigmoid


def scalar_late_fuse(ot, oc, og, inner_logit, outer_logit):
    """Pure-python reference for one bin."""
    g_cov = float(sigmoid(inner_logit))
    g_ge = float(sigmoid(outer_logit))
    inner = (1.0 - g_cov) * float(ot) + g_cov * float(oc)
    return (1.0 - g_ge) * inner + g_ge * float(og)


# Every 2- and 3-modality subset, in MODALITY_ORDER
SUBSETS = [("text", "cov"), ("text", "ge"), ("cov", "ge"), ("text", "cov", "ge")]


def nested_backward(subset, u, o, gc, gg):
    """The chain rule through the nested blend of `subset`, written out by
    hand: (per-modality gradients, inner logit gradient before summing,
    outer logit gradient before summing; None for an unused gate)."""
    if subset == ("text", "cov"):
        return ({"text": u * (1.0 - gc), "cov": u * gc},
                u * (o["cov"] - o["text"]) * gc * (1.0 - gc), None)
    if subset in (("text", "ge"), ("cov", "ge")):
        first = subset[0]
        return ({first: u * (1.0 - gg), "ge": u * gg},
                None, u * (o["ge"] - o[first]) * gg * (1.0 - gg))
    inner = (1.0 - gc) * o["text"] + gc * o["cov"]
    return ({"text": u * (1.0 - gg) * (1.0 - gc), "cov": u * (1.0 - gg) * gc, "ge": u * gg},
            u * (1.0 - gg) * (o["cov"] - o["text"]) * gc * (1.0 - gc),
            u * (o["ge"] - inner) * gg * (1.0 - gg))


# (output shape, gate shape): discrete logits with per-bin gates, Cox scores
# (one column) with one-element gates
SHAPES = [((3, 4), (4,)), ((5, 1), (1,))]


# ------------------------------------------------------------- early fuse


def test_early_fuse_concatenates_in_fixed_order():
    t = np.array([[1.0, 2.0]])
    c = np.array([[3.0]])
    g = np.array([[4.0, 5.0]])
    assert np.array_equal(early_fuse({"ge": g, "text": t, "cov": c}),
                          [[1.0, 2.0, 3.0, 4.0, 5.0]])
    assert np.array_equal(early_fuse({"ge": g, "cov": c}), [[3.0, 4.0, 5.0]])


def test_early_fuse_single_modality_passthrough():
    c = np.array([[3.0, 1.0]])
    assert np.array_equal(early_fuse({"cov": c}), c)


def test_early_fuse_requires_a_modality():
    with pytest.raises(ValueError):
        early_fuse({})
    with pytest.raises(ValueError, match="unknown modalities"):
        early_fuse({"cov": np.zeros((1, 2)), "image": np.zeros((1, 2))})


# -------------------------------------------------------------- late fuse


def test_init_gates_start_at_half():
    gates = init_fusion_gates(4)
    assert gates.inner_logit.shape == (4,)
    assert np.all(sigmoid(gates.inner_logit) == 0.5)
    single = init_fusion_gates(1)
    assert single.outer_logit.shape == (1,)


def test_late_fuse_matches_scalar_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, b = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        outs = {m: rng.normal(size=(n, b)) for m in ("text", "cov", "ge")}
        gates = FusionGates(inner_logit=rng.normal(size=b),
                            outer_logit=rng.normal(size=b))
        fused = late_fuse(outs, gates)
        for i in range(n):
            for k in range(b):
                assert fused[i, k] == scalar_late_fuse(
                    outs["text"][i, k], outs["cov"][i, k], outs["ge"][i, k],
                    gates.inner_logit[k], gates.outer_logit[k])


def test_late_fuse_scalar_gates_for_cox_scores():
    rng = np.random.default_rng(1)
    outs = {m: rng.normal(size=(5, 1)) for m in ("text", "cov", "ge")}
    gates = FusionGates(inner_logit=np.array([0.3]), outer_logit=np.array([-0.7]))
    fused = late_fuse(outs, gates)
    assert fused.shape == (5, 1)
    for i in range(5):
        assert fused[i, 0] == scalar_late_fuse(outs["text"][i, 0], outs["cov"][i, 0],
                                               outs["ge"][i, 0], 0.3, -0.7)


def test_late_fuse_two_modality_collapses():
    rng = np.random.default_rng(2)
    for shape, gate_shape in SHAPES:
        t, c, g = (rng.normal(size=shape) for _ in range(3))
        gates = FusionGates(inner_logit=rng.normal(size=gate_shape),
                            outer_logit=rng.normal(size=gate_shape))
        g_cov = sigmoid(gates.inner_logit)
        g_ge = sigmoid(gates.outer_logit)
        # text + cov: inner gate only; text + ge and cov + ge: outer gate only
        for outs, want in (({"text": t, "cov": c}, (1.0 - g_cov) * t + g_cov * c),
                           ({"text": t, "ge": g}, (1.0 - g_ge) * t + g_ge * g),
                           ({"cov": c, "ge": g}, (1.0 - g_ge) * c + g_ge * g)):
            # the dict's own order does not matter: the fold reads MODALITY_ORDER
            for order in (list(outs), list(outs)[::-1]):
                assert np.array_equal(late_fuse({m: outs[m] for m in order}, gates), want)


def test_late_fuse_single_modality_identity():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(2, 3))
    gates = FusionGates(inner_logit=rng.normal(size=3),
                        outer_logit=rng.normal(size=3))
    fused = late_fuse({"cov": c}, gates)
    assert np.array_equal(fused, c)
    assert not np.shares_memory(fused, c)


def test_modality_weights_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(50):
        il, ol = rng.normal(scale=3), rng.normal(scale=3)
        g_cov, g_ge = sigmoid(np.array(il)), sigmoid(np.array(ol))
        w_text = (1 - g_ge) * (1 - g_cov)
        w_cov = (1 - g_ge) * g_cov
        total = w_text + w_cov + g_ge
        assert abs(total - 1.0) < 1e-15


def test_saturated_gates_reproduce_single_modalities_exactly():
    rng = np.random.default_rng(5)
    outs = {m: rng.normal(size=(4, 6)) for m in ("text", "cov", "ge")}
    big = 800.0
    ge_only = FusionGates(inner_logit=np.zeros(6), outer_logit=np.full(6, big))
    assert np.array_equal(late_fuse(outs, ge_only), outs["ge"])
    text_only = FusionGates(inner_logit=np.full(6, -big), outer_logit=np.full(6, -big))
    assert np.array_equal(late_fuse(outs, text_only), outs["text"])
    cov_only = FusionGates(inner_logit=np.full(6, big), outer_logit=np.full(6, -big))
    assert np.array_equal(late_fuse(outs, cov_only), outs["cov"])


def test_mismatched_shapes_rejected():
    outs = {"text": np.zeros((2, 3)), "cov": np.zeros((2, 4))}
    with pytest.raises(ValueError):
        late_fuse(outs, init_fusion_gates(3))
    with pytest.raises(ValueError):
        late_fuse({}, init_fusion_gates(3))
    with pytest.raises(ValueError, match="unknown modalities"):
        late_fuse({"text": np.zeros((2, 3)), "image": np.zeros((2, 3))}, init_fusion_gates(3))
    with pytest.raises(ValueError, match="gate shape"):
        late_fuse({"text": np.zeros((2, 3)), "cov": np.zeros((2, 3))}, init_fusion_gates(4))


# --------------------------------------------------------------- backward


def fd_gradient(f, arr, h=1e-6):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        up = f()
        arr[idx] = orig - h
        down = f()
        arr[idx] = orig
        grad[idx] = (up - down) / (2 * h)
    return grad


def fused_backward(u, outs, gates):
    """`late_fuse` into a workspace, then `late_fuse_backward` from it."""
    work = Workspace()
    late_fuse(outs, gates, work)
    return late_fuse_backward(u, outs, gates, work)


def test_backward_needs_the_workspace_late_fuse_wrote():
    outs = {m: np.ones((2, 3)) for m in ("text", "cov")}
    gates = init_fusion_gates(3)
    late_fuse(outs, gates)  # without a workspace nothing is kept
    with pytest.raises(ValueError, match="no late_fuse wrote into this workspace"):
        late_fuse_backward(np.ones((2, 3)), outs, gates, Workspace())


def test_backward_matches_finite_differences_all_modalities():
    rng = np.random.default_rng(6)
    for shape, gate_shape in SHAPES:
        outs = {m: rng.normal(size=shape) for m in ("text", "cov", "ge")}
        gates = FusionGates(inner_logit=rng.normal(size=gate_shape),
                            outer_logit=rng.normal(size=gate_shape))
        u = rng.normal(size=shape)

        def objective():
            return float((u * late_fuse(outs, gates)).sum())

        grads, grad_inner, grad_outer = fused_backward(u, outs, gates)
        for m in ("text", "cov", "ge"):
            numeric = fd_gradient(objective, outs[m])
            assert np.allclose(grads[m], numeric, rtol=1e-6, atol=1e-8)
        for logit, grad in ((gates.inner_logit, grad_inner), (gates.outer_logit, grad_outer)):
            numeric = fd_gradient(objective, logit)
            assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("subset", SUBSETS)
@pytest.mark.parametrize("shape,gate_shape", SHAPES)
def test_backward_equals_nested_chain_rule(subset, shape, gate_shape):
    rng = np.random.default_rng(11)
    outs = {m: rng.normal(size=shape) for m in subset}
    gates = FusionGates(inner_logit=rng.normal(size=gate_shape),
                        outer_logit=rng.normal(size=gate_shape))
    u = rng.normal(size=shape)
    want, want_inner, want_outer = nested_backward(
        subset, u, outs, sigmoid(gates.inner_logit), sigmoid(gates.outer_logit))
    grads, grad_inner, grad_outer = fused_backward(u, outs, gates)
    assert list(grads) == list(subset)
    for m in subset:
        assert np.array_equal(grads[m], want[m]), m
    for got, per_row, logit in ((grad_inner, want_inner, gates.inner_logit),
                                (grad_outer, want_outer, gates.outer_logit)):
        assert got.shape == logit.shape
        if per_row is None:
            assert np.array_equal(got, np.zeros(gate_shape))
        else:
            assert np.array_equal(got, per_row.sum(axis=0))


def test_backward_unused_gate_gets_exact_zero():
    rng = np.random.default_rng(7)
    t, c = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    gates = FusionGates(inner_logit=rng.normal(size=3),
                        outer_logit=rng.normal(size=3))
    u = rng.normal(size=(2, 3))
    grads, _, grad_outer = fused_backward(u, {"text": t, "cov": c}, gates)
    assert np.array_equal(grad_outer, np.zeros(3))
    assert "ge" not in grads
    _, grad_inner, _ = fused_backward(u, {"text": t, "ge": c}, gates)
    assert np.array_equal(grad_inner, np.zeros(3))


def test_backward_single_modality_passes_upstream_through():
    rng = np.random.default_rng(8)
    c = rng.normal(size=(2, 3))
    u = rng.normal(size=(2, 3))
    gates = init_fusion_gates(3)
    grads, grad_inner, grad_outer = fused_backward(u, {"cov": c}, gates)
    assert list(grads) == ["cov"]
    assert np.array_equal(grads["cov"], u)
    assert not np.shares_memory(grads["cov"], u)
    assert np.array_equal(grad_inner, np.zeros(3))
    assert np.array_equal(grad_outer, np.zeros(3))
