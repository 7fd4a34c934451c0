"""Blending gates, prompted forward pass, and the hand-written backward chain."""

import math
import re

import numpy as np
import pytest

from lionprompt.deq import SolverConfig, estimate_spectral_norm
from lionprompt.errors import DivergenceError
from lionprompt.harness import ClassifierTask
from lionprompt.model import (
    GATE_EPS,
    AffineStage,
    Backbone,
    GatePair,
    PromptBlock,
    PromptModel,
    backbone_forward,
    backbone_input_vjp,
    backbone_param_vjp,
    build_prompt_model,
    forward,
    gate_coeffs,
    gate_vjp,
    loss_and_grads,
    make_backbone,
    make_head,
    param_count_report,
    predict,
)
from lionprompt.numerics import Param, batch_cross_entropy, rel_error
from lionprompt.rng import substream

TIGHT = SolverConfig(tol=1e-13)


def init_prompt_model(d, h, hidden, n_classes, seed, solver=None):
    """Fresh trainable parts around a fresh (untrained) backbone."""
    backbone = make_backbone(d, hidden, h, seed)
    return build_prompt_model(backbone, n_classes, seed, solver=solver)


def loss(model, x, y):
    """Mean cross-entropy of the batch's forward logits."""
    return batch_cross_entropy(forward(model, x).logits, np.asarray(y))[0]


def zero_grads(model):
    for p in model.trainable_params():
        p.zero_grad()


def small_model(seed=0, d=6, h=5, hidden=7, n_classes=2):
    model = init_prompt_model(d=d, h=h, hidden=hidden, n_classes=n_classes,
                              seed=seed, solver=TIGHT)
    # randomize the head: a zero head blocks gradient flow to everything above it
    rng = substream(seed, "head-rand")
    model.head.w.value = rng.normal(size=model.head.w.value.shape) * 0.5
    model.head.b.value = rng.normal(size=model.head.b.value.shape) * 0.1
    return model


def fd_param_grad(fn, param, step=1e-5):
    """Central differences over one Param's entries, restoring the value."""
    base = param.value.copy()
    flat = base.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * step
            param.value = bumped.reshape(base.shape)
            out[i] += sign * fn()
    param.value = base
    return out.reshape(base.shape) / (2.0 * step)


# --- gates -------------------------------------------------------------------

def test_gate_symmetric():
    assert gate_coeffs(0.0, 0.0) == (0.5, 0.5)


def test_gate_one_zero():
    a, b = gate_coeffs(1.0, 0.0)
    assert abs(a - 0.731059) <= 1e-6
    assert abs(b - 0.268941) <= 1e-6


def test_gate_saturation_clamped_to_open_simplex():
    a, b = gate_coeffs(50.0, -50.0)
    assert a == 1.0 - GATE_EPS
    assert b == GATE_EPS
    assert a + b == 1.0


def test_gate_simplex_property():
    rng = substream(77, "gates")
    for _ in range(200):
        ga, gb = rng.uniform(-1000.0, 1000.0, size=2)
        a, b = gate_coeffs(float(ga), float(gb))
        assert a + b == 1.0
        assert 0.0 < a < 1.0 and 0.0 < b < 1.0


def test_gate_vjp_matches_finite_differences():
    # scalar probe: L = c1*alpha + c2*beta
    ga0, gb0, c1, c2 = 0.3, -0.4, 1.7, -0.9

    def objective(ga, gb):
        a, b = gate_coeffs(ga, gb)
        return c1 * a + c2 * b

    a, b = gate_coeffs(ga0, gb0)
    dga, dgb = gate_vjp(a, b, c1, c2)
    h = 1e-6
    fd_ga = (objective(ga0 + h, gb0) - objective(ga0 - h, gb0)) / (2 * h)
    fd_gb = (objective(ga0, gb0 + h) - objective(ga0, gb0 - h)) / (2 * h)
    assert abs(dga - fd_ga) <= 1e-8
    assert abs(dgb - fd_gb) <= 1e-8
    assert dga == -dgb


# --- blending ----------------------------------------------------------------

def test_blend_input_saturated_gate_passes_input_through():
    model = small_model(1)
    model.gate1.g_alpha.value = 50.0
    model.gate1.g_beta.value = -50.0
    x = substream(2, "x").normal(size=(3, 6))
    xt = forward(model, x).xt
    assert np.max(np.abs(xt - x)) < 1e-12


def test_blend_input_closed_form_state_free_cell():
    d = 4
    rng = substream(3, "cf")
    u = rng.normal(size=(d, d))
    b = rng.normal(size=d)
    block = PromptBlock("p1", Param("p1.0.W", np.zeros((d, d))), Param("p1.0.U", u),
                        Param("p1.0.b", b))
    model = small_model(4, d=d, h=3, hidden=5)
    model.p1 = block
    x = rng.normal(size=(2, d))
    expected = 0.5 * x + 0.5 * np.tanh(x @ u.T + b)
    assert np.max(np.abs(forward(model, x).xt - expected)) <= 1e-10


def test_blend_input_preserves_shape():
    model = small_model(5)
    for n in (1, 4):
        x = substream(6, "shape", n).normal(size=(n, 6))
        assert forward(model, x).xt.shape == (n, 6)


def test_blend_repr_saturated_gate_is_backbone_of_blended_input():
    model = small_model(7)
    model.gate2.g_alpha.value = 50.0
    model.gate2.g_beta.value = -50.0
    x = substream(8, "x").normal(size=(3, 6))
    fw = forward(model, x)
    f_xt, _ = backbone_forward(model.backbone, fw.xt)
    assert np.max(np.abs(fw.zt - f_xt)) < 1e-12


def test_blend_repr_closed_form_with_state_free_cells():
    d = 4
    rng = substream(9, "idb")
    eye = np.eye(d)
    stage = AffineStage(Param("backbone.0.W", eye), Param("backbone.0.b", np.zeros(d)))
    u1, b1 = rng.normal(size=(d, d)), rng.normal(size=d)
    u2, b2 = rng.normal(size=(d, d)), rng.normal(size=d)

    def state_free(name, u, b):
        return PromptBlock(name, Param(f"{name}.0.W", np.zeros((d, d))),
                           Param(f"{name}.0.U", u), Param(f"{name}.0.b", b))

    model = PromptModel(
        backbone=Backbone(stages=[stage]),
        p1=state_free("p1", u1, b1),
        p2=state_free("p2", u2, b2),
        proj=AffineStage(Param("proj.W", eye), Param("proj.b", np.zeros(d))),
        head=make_head(d, 2),
        gate1=GatePair(Param("gate1.a", 0.0), Param("gate1.b", 0.0)),
        gate2=GatePair(Param("gate2.a", 0.0), Param("gate2.b", 0.0)),
        solver=TIGHT)
    x = rng.normal(size=(3, d))
    # F = tanh, P1 and P2 are tanh(U x + b), and proj is the identity map
    xt = 0.5 * x + 0.5 * np.tanh(x @ u1.T + b1)
    expected = 0.5 * np.tanh(xt) + 0.5 * np.tanh(np.tanh(x) @ u2.T + b2)
    assert np.max(np.abs(forward(model, x).zt - expected)) <= 1e-9


# --- full forward --------------------------------------------------------------

def test_forward_zero_head_returns_bias():
    model = init_prompt_model(d=6, h=5, hidden=7, n_classes=2, seed=11, solver=TIGHT)
    x = substream(12, "x").normal(size=(4, 6))
    logits = forward(model, x).logits
    assert logits.shape == (4, 2)
    assert np.all(logits == 0.0)


def test_forward_batch_matches_per_sample():
    model = small_model(13)
    x = substream(14, "x").normal(size=(5, 6))
    batch = forward(model, x).logits
    for i in range(5):
        single = forward(model, x[i:i + 1]).logits
        assert np.max(np.abs(batch[i] - single[0])) <= 1e-12


def test_loss_uniform_logits():
    model = init_prompt_model(d=6, h=5, hidden=7, n_classes=2, seed=15, solver=TIGHT)
    x = substream(16, "x").normal(size=(1, 6))
    assert abs(loss_and_grads(model, x, np.array([0]))[0] - math.log(2.0)) <= 1e-12


def test_loss_empty_batch_rejected():
    model = small_model(17)
    with pytest.raises(ValueError, match="empty batch"):
        loss_and_grads(model, np.zeros((0, 6)), np.array([], dtype=int))


def test_loss_and_grads_value_matches_loss():
    model = small_model(18)
    x = substream(19, "x").normal(size=(4, 6))
    y = np.array([0, 1, 1, 0])
    assert abs(loss_and_grads(model, x, y)[0] - loss(model, x, y)) <= 1e-12


def test_loss_and_grads_returns_the_forward_logits():
    model = small_model(40)
    x = substream(41, "x").normal(size=(5, 6))
    y = np.array([0, 1, 1, 0, 1])
    _, logits = loss_and_grads(model, x, y)
    assert np.array_equal(logits, forward(model, x).logits)


def test_precomputed_backbone_features_give_identical_gradients():
    x = substream(42, "x").normal(size=(4, 6))
    y = np.array([1, 0, 1, 0])
    fresh, cached = small_model(43), small_model(43)
    value_a, logits_a = loss_and_grads(fresh, x, y)
    cached.prepare(x)
    value_b, logits_b = loss_and_grads(cached, x, y)
    assert value_a == value_b and np.array_equal(logits_a, logits_b)
    for pa, pb in zip(fresh.trainable_params(), cached.trainable_params()):
        assert np.array_equal(pa.grad, pb.grad), pa.name


def random_backbone(rng, dims):
    stages = [AffineStage(Param(f"backbone.{k}.W", rng.normal(size=(dout, din)) * 0.4),
                          Param(f"backbone.{k}.b", rng.normal(size=dout) * 0.1))
              for k, (din, dout) in enumerate(zip(dims, dims[1:]))]
    return Backbone(stages=stages)


def backbone_pass(bb, x, g_out, workspace):
    """Every backbone function on one batch: outputs, caches and gradients as bytes."""
    out, cache = backbone_forward(bb, x, workspace)
    seen = [out.tobytes()] + [a.tobytes() for pair in cache for a in pair]
    seen.append(backbone_input_vjp(bb, cache, g_out, workspace).tobytes())
    for trainable in (bb.params(), [s.b for s in bb.stages]):
        for p in bb.params():
            p.zero_grad()
        assert backbone_param_vjp(bb, cache, g_out, trainable, workspace) is None
        seen += [p.grad.tobytes() for p in bb.params() if p.grad is not None]
    return seen


def test_backbone_workspace_is_bit_identical_to_fresh_arrays():
    for seed in range(6):
        rng = substream(70, "ws-shapes", seed)
        dims = [int(v) for v in rng.integers(1, 40, size=int(rng.integers(2, 5)))]
        bb = random_backbone(rng, dims)
        workspace = {}
        n_first = int(rng.integers(1, 30))
        for n in (n_first, n_first, n_first + 3):  # the last call must reallocate
            x = rng.normal(size=(n, dims[0]))
            g_out = rng.normal(size=(n, dims[-1]))
            # the expression every stage computed before workspaces existed
            h = x
            for st in bb.stages:
                h = h @ st.w.value.T + st.b.value
                h = np.tanh(h)
            assert backbone_forward(bb, x, workspace)[0].tobytes() == h.tobytes()
            assert backbone_pass(bb, x, g_out, workspace) == backbone_pass(bb, x, g_out, None)
            assert {buf.shape[0] for buf in workspace.values()} == {n}


def test_consecutive_training_steps_reuse_the_workspace_buffers():
    x = substream(46, "x").normal(size=(5, 6))
    y = np.array([0, 1, 0, 1, 1])
    model = small_model(47)
    bb = model.backbone
    clf = ClassifierTask(bb, make_head(5, 2), bb.params())
    for owner, step in ((model, lambda: loss_and_grads(model, x, y)),
                        (clf, lambda: clf.loss_and_grads(x, y))):
        step()
        first = dict(owner.workspace)
        step()
        assert first and owner.workspace.keys() == first.keys()
        assert all(owner.workspace[k] is buf for k, buf in first.items())


def test_predict_between_epochs_leaves_the_next_epoch_bit_identical():
    x = substream(48, "x").normal(size=(5, 6))
    y = np.array([1, 0, 0, 1, 1])
    for n_other in (3, 5):
        other = substream(49, "other", n_other).normal(size=(n_other, 6))
        results = []
        for interleave in (False, True):
            model = small_model(50)
            for epoch in range(2):
                zero_grads(model)
                value, logits = loss_and_grads(model, x, y)
                if epoch == 0:
                    for p in model.trainable_params():
                        p.value = p.value - 0.1 * p.grad
                    model.post_step()
                    if interleave:
                        predict(model, other)
            results.append([value, logits.tobytes()]
                           + [p.grad.tobytes() for p in model.trainable_params()])
        assert results[0] == results[1]


def test_unconverged_forward_solve_raises_naming_block_and_cell():
    model = small_model(44)
    model.solver = SolverConfig(tol=1e-8, max_iters=2)
    x = substream(45, "x").normal(size=(3, 6))
    y = np.array([0, 1, 0])
    for call in (lambda: loss_and_grads(model, x, y), lambda: predict(model, x)):
        with pytest.raises(DivergenceError, match=r"^block p1: forward solve stopped at "
                           r"residual (\S+) after 2 evaluations \(tol 1\.0e-08\)$") as exc:
            call()
        assert float(re.search(r"residual (\S+)", str(exc.value)).group(1)) > 1e-8


def test_frozen_backbone_untouched_by_training_step():
    model = small_model(20)
    x = substream(21, "x").normal(size=(6, 6))
    y = np.array([0, 1, 0, 1, 0, 1])
    before = [p.value.tobytes() for p in model.backbone.params()]
    loss_and_grads(model, x, y)
    for p in model.trainable_params():
        if p.grad is not None:
            p.value = p.value - 0.05 * p.grad
    model.post_step()
    after = [p.value.tobytes() for p in model.backbone.params()]
    assert before == after
    assert all(p.grad is None for p in model.backbone.params())


# --- gradient checks ------------------------------------------------------------

def run_end_to_end_gradcheck(model, x, y, tol=1e-5):
    zero_grads(model)
    loss_and_grads(model, x, y)
    analytic = {p.name: p.grad for p in model.trainable_params()}
    worst = ("", 0.0)
    for p in model.trainable_params():
        fd = fd_param_grad(lambda: loss(model, x, y), p)
        err = rel_error(analytic[p.name], fd)
        if err > worst[1]:
            worst = (p.name, err)
    assert worst[1] <= tol, f"worst {worst[0]}: rel err {worst[1]:.2e}"


def test_end_to_end_gradients_match_finite_differences():
    model = small_model(22)
    rng = substream(23, "data")
    x = rng.normal(size=(3, 6))
    y = np.array([0, 1, 1])
    run_end_to_end_gradcheck(model, x, y)


def test_every_trainable_param_receives_gradient():
    model = small_model(28)
    rng = substream(29, "data")
    x = rng.normal(size=(5, 6))
    y = np.array([0, 1, 0, 1, 1])
    zero_grads(model)
    loss_and_grads(model, x, y)
    for p in model.trainable_params():
        assert p.grad is not None, p.name
        assert np.any(p.grad != 0.0), p.name


def test_trainable_set_membership_and_names():
    model = init_prompt_model(d=6, h=5, hidden=7, n_classes=2, seed=30)
    names = [p.name for p in model.trainable_params()]
    assert names == ["p1.0.W", "p1.0.U", "p1.0.b", "p2.0.W", "p2.0.U", "p2.0.b",
                     "proj.W", "proj.b", "head.W", "head.b",
                     "gate1.a", "gate1.b", "gate2.a", "gate2.b"]
    assert len(set(names)) == len(names)
    backbone_names = {p.name for p in model.backbone.params()}
    assert backbone_names.isdisjoint(set(names))


def test_desk_scale_parameter_budget():
    model = init_prompt_model(d=16, h=16, hidden=448, n_classes=4, seed=31)
    trainable = sum(p.size for p in model.trainable_params())
    backbone = sum(p.size for p in model.backbone.params())
    assert trainable < 0.10 * backbone


def test_renormalize_caps_state_weights():
    model = small_model(32)
    model.p1.W = Param("p1.0.W", np.eye(6) * 5.0)
    model.post_step()
    assert estimate_spectral_norm(model.p1.W.value) <= 0.9 + 1e-6


def test_param_count_report_worked_values():
    rows = dict(param_count_report(d=768, d_tilde=64, L=12, n=50, m=16, C=10))
    assert rows["adapter"] == 1_179_648
    assert rows["vpt"] == 460_800
    assert rows["lion"] == 1_024
    with pytest.raises(ValueError):
        param_count_report(d=0, d_tilde=64, L=12, n=50, m=16, C=10)


# --- baseline classifier --------------------------------------------------------

def test_classifier_head_gradients_match_finite_differences():
    rng = substream(33, "clf")
    model = init_prompt_model(d=5, h=4, hidden=6, n_classes=3, seed=33)
    clf = ClassifierTask(model.backbone, make_head(4, 3), [])
    clf.head.w.value = rng.normal(size=(3, 4))
    x = rng.normal(size=(4, 5))
    y = np.array([0, 2, 1, 0])
    clf.head.w.zero_grad()
    clf.loss_and_grads(x, y)
    assert all(p.grad is None for p in model.backbone.params())  # head tuning
    fd = fd_param_grad(lambda: batch_cross_entropy(clf.forward(x), y)[0], clf.head.w)
    assert rel_error(clf.head.w.grad, fd) <= 1e-6


def test_classifier_bias_mode_gradients():
    rng = substream(34, "clf2")
    model = init_prompt_model(d=5, h=4, hidden=6, n_classes=2, seed=34)
    clf = ClassifierTask(model.backbone, make_head(4, 2), [s.b for s in model.backbone.stages])
    clf.head.w.value = rng.normal(size=(2, 4))
    x = rng.normal(size=(3, 5))
    y = np.array([0, 1, 1])
    clf.loss_and_grads(x, y)
    bias_param = model.backbone.stages[0].b
    assert bias_param.grad is not None
    assert model.backbone.stages[0].w.grad is None  # bias mode leaves weights alone
    fd = fd_param_grad(lambda: batch_cross_entropy(clf.forward(x), y)[0], bias_param)
    assert rel_error(bias_param.grad, fd) <= 1e-6
