"""Blending gates, prompted forward pass, and the hand-written backward chain."""

import math

import numpy as np
import pytest

from lionprompt.deq import SolverConfig, estimate_spectral_norm
from lionprompt.errors import DivergenceError, ShapeMismatchError, StateError
from lionprompt.model import (
    GATE_EPS,
    AffineStage,
    Backbone,
    BackboneClassifier,
    GatePair,
    PromptBlock,
    PromptModel,
    backbone_forward,
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
from lionprompt.numerics import Param, Tensor, batch_cross_entropy, rel_error
from lionprompt.rng import substream

TIGHT = SolverConfig(tol=1e-13)


def init_prompt_model(d, h, hidden, n_classes, seed, layers=1, solver=None):
    """Fresh trainable parts around a fresh (untrained, frozen) backbone."""
    backbone = make_backbone(d, hidden, h, seed, frozen=True)
    return build_prompt_model(backbone, n_classes, seed, layers=layers, solver=solver)


def loss(model, x, y):
    """Mean cross-entropy of the batch's forward logits."""
    return batch_cross_entropy(forward(model, x).logits, np.asarray(y))[0]


def zero_grads(model):
    for p in model.trainable_params():
        p.zero_grad()


def small_model(seed=0, d=6, h=5, hidden=7, n_classes=2, layers=1):
    model = init_prompt_model(d=d, h=h, hidden=hidden, n_classes=n_classes,
                              seed=seed, layers=layers, solver=TIGHT)
    # randomize the head: a zero head blocks gradient flow to everything above it
    rng = substream(seed, "head-rand")
    model.head.w.value = Tensor(rng.normal(size=model.head.w.value.shape) * 0.5)
    model.head.b.value = Tensor(rng.normal(size=model.head.b.value.shape) * 0.1)
    return model


def fd_param_grad(fn, param, step=1e-5):
    """Central differences over one Param's entries, restoring the value."""
    base = param.value.array.copy()
    flat = base.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * step
            param.value = Tensor(bumped.reshape(base.shape))
            out[i] += sign * fn()
    param.value = Tensor(base)
    return Tensor(out.reshape(base.shape) / (2.0 * step))


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
    model.gate1.g_alpha.value = Tensor(50.0)
    model.gate1.g_beta.value = Tensor(-50.0)
    x = substream(2, "x").normal(size=(3, 6))
    xt = forward(model, x).xt
    assert np.max(np.abs(xt - x)) < 1e-12


def test_blend_input_closed_form_state_free_cell():
    d = 4
    rng = substream(3, "cf")
    u = rng.normal(size=(d, d))
    b = rng.normal(size=d)
    block = PromptBlock(name="p1", cell_params=[(
        Param("p1.0.W", Tensor(np.zeros((d, d)))),
        Param("p1.0.U", Tensor(u)),
        Param("p1.0.b", Tensor(b)))], activation="identity")
    model = small_model(4, d=d, h=3, hidden=5)
    model.p1 = block
    x = rng.normal(size=(2, d))
    expected = 0.5 * x + 0.5 * (x @ u.T + b)
    assert np.max(np.abs(forward(model, x).xt - expected)) <= 1e-10


def test_blend_input_preserves_shape():
    model = small_model(5)
    for n in (1, 4):
        x = substream(6, "shape", n).normal(size=(n, 6))
        assert forward(model, x).xt.shape == (n, 6)


def test_blend_repr_saturated_gate_is_backbone_of_blended_input():
    model = small_model(7)
    model.gate2.g_alpha.value = Tensor(50.0)
    model.gate2.g_beta.value = Tensor(-50.0)
    x = substream(8, "x").normal(size=(3, 6))
    fw = forward(model, x)
    f_xt, _ = backbone_forward(model.backbone, fw.xt)
    assert np.max(np.abs(fw.zt - f_xt)) < 1e-12


def test_blend_repr_identity_backbone_closed_form():
    d = 4
    rng = substream(9, "idb")
    eye = Tensor(np.eye(d))
    stage = AffineStage(Param("backbone.0.W", eye), Param("backbone.0.b", Tensor(np.zeros(d))))
    u1, b1 = rng.normal(size=(d, d)), rng.normal(size=d)
    u2, b2 = rng.normal(size=(d, d)), rng.normal(size=d)

    def state_free(name, u, b):
        return PromptBlock(name=name, cell_params=[(
            Param(f"{name}.0.W", Tensor(np.zeros((d, d)))),
            Param(f"{name}.0.U", Tensor(u)),
            Param(f"{name}.0.b", Tensor(b)))], activation="identity")

    model = PromptModel(
        backbone=Backbone(stages=[stage], frozen=True),
        p1=state_free("p1", u1, b1),
        p2=state_free("p2", u2, b2),
        proj=AffineStage(Param("proj.W", eye), Param("proj.b", Tensor(np.zeros(d)))),
        head=make_head(d, 2),
        gate1=GatePair(Param("gate1.a", Tensor(0.0)), Param("gate1.b", Tensor(0.0))),
        gate2=GatePair(Param("gate2.a", Tensor(0.0)), Param("gate2.b", Tensor(0.0))),
        solver=TIGHT)
    x = rng.normal(size=(3, d))
    xt = 0.5 * x + 0.5 * (x @ u1.T + b1)
    expected = 0.5 * xt + 0.5 * (x @ u2.T + b2)
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
    f_x, _ = backbone_forward(cached.backbone, x)
    value_b, logits_b = loss_and_grads(cached, x, y, f_x=f_x)
    assert value_a == value_b and np.array_equal(logits_a, logits_b)
    for pa, pb in zip(fresh.trainable_params(), cached.trainable_params()):
        assert np.array_equal(pa.grad.array, pb.grad.array), pa.name
    with pytest.raises(ShapeMismatchError):
        loss_and_grads(cached, x, y, f_x=f_x[:1])


def test_unconverged_forward_solve_raises_naming_block_and_cell():
    model = small_model(44)
    model.solver = SolverConfig(tol=1e-8, max_iters=2)
    x = substream(45, "x").normal(size=(3, 6))
    y = np.array([0, 1, 0])
    for call in (lambda: loss_and_grads(model, x, y), lambda: predict(model, x)):
        with pytest.raises(DivergenceError, match=r"block p1 cell 0") as exc:
            call()
        assert exc.value.residual > 1e-8


def test_frozen_backbone_untouched_by_training_step():
    model = small_model(20)
    x = substream(21, "x").normal(size=(6, 6))
    y = np.array([0, 1, 0, 1, 0, 1])
    before = [p.value.array.tobytes() for p in model.backbone.params()]
    loss_and_grads(model, x, y)
    for p in model.trainable_params():
        if p.grad is not None:
            p.value = Tensor(p.value.array - 0.05 * p.grad.array)
    model.renormalize()
    after = [p.value.array.tobytes() for p in model.backbone.params()]
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


def test_end_to_end_gradients_two_layer_blocks():
    model = small_model(24, layers=2)
    rng = substream(25, "data")
    x = rng.normal(size=(2, 6))
    y = np.array([1, 0])
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
        assert np.any(p.grad.array != 0.0), p.name


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
    model.p1.cell_params[0] = (Param("p1.0.W", Tensor(np.eye(6) * 5.0)),
                               model.p1.cell_params[0][1],
                               model.p1.cell_params[0][2])
    model.renormalize()
    assert estimate_spectral_norm(model.p1.cell_params[0][0].value) <= 0.9 + 1e-6


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
    clf = BackboneClassifier(backbone=model.backbone, head=make_head(4, 3))
    clf.head.w.value = Tensor(rng.normal(size=(3, 4)))
    x = rng.normal(size=(4, 5))
    y = np.array([0, 2, 1, 0])
    clf.head.w.zero_grad()
    clf.loss_and_grads(x, y, train_backbone="none")
    fd = fd_param_grad(lambda: batch_cross_entropy(clf.forward(x), y)[0], clf.head.w)
    assert rel_error(clf.head.w.grad, fd) <= 1e-6


def test_classifier_bias_mode_gradients():
    rng = substream(34, "clf2")
    model = init_prompt_model(d=5, h=4, hidden=6, n_classes=2, seed=34)
    model.backbone.frozen = False
    clf = BackboneClassifier(backbone=model.backbone, head=make_head(4, 2))
    clf.head.w.value = Tensor(rng.normal(size=(2, 4)))
    x = rng.normal(size=(3, 5))
    y = np.array([0, 1, 1])
    clf.loss_and_grads(x, y, train_backbone="bias")
    bias_param = model.backbone.stages[0].b
    assert bias_param.grad is not None
    assert model.backbone.stages[0].w.grad is None  # bias mode leaves weights alone
    fd = fd_param_grad(lambda: batch_cross_entropy(clf.forward(x), y)[0], bias_param)
    assert rel_error(bias_param.grad, fd) <= 1e-6


def test_classifier_full_mode_requires_unfrozen():
    model = init_prompt_model(d=5, h=4, hidden=6, n_classes=2, seed=35)
    clf = BackboneClassifier(backbone=model.backbone, head=make_head(4, 2))
    x = substream(36, "x").normal(size=(2, 5))
    with pytest.raises(StateError):
        clf.loss_and_grads(x, np.array([0, 1]), train_backbone="all")
