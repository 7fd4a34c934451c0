"""Tensor plumbing, activations and the batched loss checked against finite differences."""

import math

import numpy as np
import pytest

from lionprompt.errors import EvaluationError, ShapeMismatchError
from lionprompt.numerics import (
    Param,
    Tensor,
    activate,
    activate_deriv,
    batch_cross_entropy,
    rel_error,
)
from lionprompt.rng import substream
from reference import finite_diff_grad


def test_tensor_is_immutable_and_finite():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0
    with pytest.raises(EvaluationError):
        Tensor([1.0, float("nan")])
    with pytest.raises(EvaluationError):
        Tensor([float("inf")])
    with pytest.raises(ShapeMismatchError):
        Tensor(np.zeros((2, 2, 2)))


def test_tensor_value_equality():
    assert Tensor([1.0, 2.0]) == Tensor([1, 2])
    assert Tensor([1.0]) != Tensor([[1.0]])
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ShapeMismatchError):
        Tensor([1.0, 2.0]).item()


def test_param_grad_accumulates():
    p = Param("w", Tensor([1.0, 2.0]))
    assert p.grad is None
    p.add_grad(Tensor([0.5, 0.5]))
    p.add_grad(Tensor([0.5, -0.5]))
    assert p.grad == Tensor([1.0, 0.0])
    p.zero_grad()
    assert p.grad is None
    with pytest.raises(ShapeMismatchError):
        p.add_grad(Tensor([1.0, 2.0, 3.0]))


def row_cross_entropy(logits: Tensor, label: int) -> float:
    """Mean cross-entropy of a one-row batch, as a function of that row."""
    return batch_cross_entropy(logits.array[None, :], np.array([label]))[0]


def tanh_sum(t: Tensor) -> float:
    return float(np.sum(activate(t.array, "tanh")))


def test_tanh_odd_at_zero():
    assert activate(np.array([0.0]), "tanh").tolist() == [0.0]


def test_tanh_backward_at_half():
    x = Tensor([0.5])
    g = activate_deriv(activate(x.array, "tanh"), "tanh")
    assert rel_error(g, finite_diff_grad(tanh_sum, x)) <= 1e-7


def test_cross_entropy_uniform():
    assert abs(row_cross_entropy(Tensor([0.0, 0.0]), 0) - math.log(2.0)) <= 1e-12


def test_cross_entropy_saturated():
    # -log sigmoid(20) expressed through log1p for an independent value
    expected = math.log1p(math.exp(-20.0))
    got = row_cross_entropy(Tensor([10.0, -10.0]), 0)
    assert abs(got - expected) <= 1e-15
    assert got == pytest.approx(2.06e-9, rel=5e-3)


def test_cross_entropy_nonnegative_and_stable():
    rng = substream(3, "ce-pos")
    for _ in range(50):
        logits = Tensor(rng.normal(scale=200.0, size=5))
        assert row_cross_entropy(logits, int(rng.integers(5))) >= 0.0
    # extreme logits stay finite thanks to max-subtraction
    assert math.isfinite(row_cross_entropy(Tensor([1e4, -1e4, 0.0]), 1))


def test_cross_entropy_vjp_against_finite_differences():
    rng = substream(5, "ce-vjp")
    for _ in range(5):
        logits = Tensor(rng.normal(size=(3, 6)))
        labels = rng.integers(6, size=3)
        _, g = batch_cross_entropy(logits.array, labels)
        fd = finite_diff_grad(lambda t: batch_cross_entropy(t.array, labels)[0], logits)
        assert rel_error(g, fd) <= 1e-6


def test_batch_cross_entropy_matches_single():
    rng = substream(9, "ce-batch")
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(3, size=4)
    loss, grad = batch_cross_entropy(logits, labels)
    # per-row reference: -log softmax(row)[label] and softmax(row) - onehot(label)
    singles, row_grads = [], []
    for row, label in zip(logits, labels):
        exps = [math.exp(v - max(row)) for v in row]
        singles.append(math.log(sum(exps)) - (row[label] - max(row)))
        row_grads.append(np.array(exps) / sum(exps) - np.eye(3)[label])
    assert abs(loss - np.mean(singles)) <= 1e-12
    for i in range(4):
        assert rel_error(grad[i] * 4.0, row_grads[i]) <= 1e-12


def test_finite_diff_quadratic_exact():
    g = finite_diff_grad(lambda t: t.item() ** 2, Tensor(3.0), step=1e-5)
    assert abs(g.item() - 6.0) <= 1e-6


def test_finite_diff_linear():
    x = Tensor([1.0, -2.0, 0.3])
    g = finite_diff_grad(lambda t: float(np.sum(t.array)), x)
    assert np.allclose(g.array, 1.0, atol=1e-9)


def test_finite_diff_rejects_bad_step_and_nonfinite():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, Tensor([1.0]), step=0.0)
    with pytest.raises(EvaluationError):
        finite_diff_grad(lambda t: float("nan"), Tensor([1.0]))


def test_affine_cross_entropy_chain():
    """Hand-chained analytic backward through affine + cross-entropy."""
    rng = substream(13, "affine-chain")
    w = Tensor(rng.normal(size=(3, 4)))
    x = Tensor(rng.normal(size=4))

    def f(t: Tensor) -> float:
        return row_cross_entropy(Tensor(w.array @ t.array), 1)

    _, gl = batch_cross_entropy((w.array @ x.array)[None, :], np.array([1]))
    gx = Tensor(w.array.T @ gl[0])
    fd = finite_diff_grad(f, x)
    assert rel_error(gx, fd) <= 1e-6


def test_all_primitives_twenty_seeded_points():
    for k in range(20):
        rng = substream(100 + k, "prim-sweep")
        # both activations, the derivative read off the output
        x = Tensor(rng.normal(size=5))
        for kind in ("tanh", "identity"):
            g = activate_deriv(activate(x.array, kind), kind)
            fd = finite_diff_grad(lambda t: float(np.sum(activate(t.array, kind))), x)
            assert rel_error(g, fd) <= 1e-6
        # cross_entropy
        logits = Tensor(rng.normal(size=4))
        lab = int(rng.integers(4))
        _, g = batch_cross_entropy(logits.array[None, :], np.array([lab]))
        assert rel_error(g[0], finite_diff_grad(lambda t: row_cross_entropy(t, lab),
                                                logits)) <= 1e-6
