"""Parameter state, the tanh derivative and the batched loss checked against finite differences."""

import math
import re

import numpy as np
import pytest

from lionprompt import checkpoint
from lionprompt.errors import EvaluationError, ShapeMismatchError
from lionprompt.model import build_prompt_model, loss_and_grads, make_backbone
from lionprompt.numerics import (
    Param,
    batch_cross_entropy,
    rel_error,
    tanh_deriv,
)
from lionprompt.rng import substream
from lionprompt.robust_opt import (
    OptState,
    criticality_scores,
    flat_grads,
    flat_values,
    partition,
    step,
)
from reference import finite_diff_grad


def _assert_read_only(params):
    for p in params:
        assert p.value.dtype == np.float64 and not p.value.flags.writeable, p.name
        with pytest.raises(ValueError):
            p.value[...] = 0.0


def test_param_values_are_read_only_and_finite(tmp_path):
    pm = build_prompt_model(make_backbone(4, 6, 5, seed=0), 3, seed=0)
    params = pm.trainable_params()
    _assert_read_only(pm.backbone.params() + params)
    x = substream(0, "param-ro").normal(size=(6, 4))
    loss_and_grads(pm, x, np.array([0, 1, 2, 0, 1, 2]))
    grads, values = flat_grads(params), flat_values(params)
    step(params, grads, values, partition(criticality_scores(grads, values), 0.4),
         OptState(eta=0.1))
    _assert_read_only(params)
    pm.post_step()
    _assert_read_only(params)
    path = str(tmp_path / "m.ckpt")
    checkpoint.save(path, params)
    checkpoint.restore(params, checkpoint.load(path)[0])
    _assert_read_only(params)

    w = pm.p1.W
    before = w.value
    with pytest.raises(EvaluationError, match="p1.0.W"):
        w.value = np.full(before.shape, np.nan)
    with pytest.raises(EvaluationError, match="gate1.a"):
        Param("gate1.a", float("inf"))
    with pytest.raises(ShapeMismatchError, match="p1.0.W"):
        w.value = np.zeros((2, 2, 2))
    assert w.value is before


def test_assign_flat_checks_once_and_leaves_read_only_views():
    params = [Param("a", [[1.0, 2.0], [3.0, 4.0]]), Param("b", 5.0), Param("c", [6.0, 7.0])]
    before = [p.value for p in params]
    for bad, names in (([0.0, np.nan, 0, 0, 0, np.inf, 0], "['a', 'c']"),
                       ([0.0, 0, 0, 0, -np.inf, 0, 0], "['b']")):
        with pytest.raises(EvaluationError, match=re.escape(f"non-finite update for {names}")):
            Param.assign_flat(params, np.array(bad))
        assert all(p.value is v for p, v in zip(params, before))
    with pytest.raises(ShapeMismatchError):
        Param.assign_flat(params, np.zeros(6))
    flat = np.arange(7.0)
    Param.assign_flat(params, flat)
    assert [p.value.tolist() for p in params] == [[[0.0, 1.0], [2.0, 3.0]], 4.0, [5.0, 6.0]]
    assert [p.value.shape for p in params] == [v.shape for v in before]
    _assert_read_only(params)
    with pytest.raises(ValueError):
        flat[0] = 1.0                 # nor through the vector they view
    assert params[0].value[0, 0] == 0.0


def test_param_grad_accumulates():
    p = Param("w", [1, 2])
    assert p.value.dtype == np.float64 and p.grad is None
    g = np.array([0.5, 0.5])
    p.add_grad(g)
    g[:] = 9.0                        # the accumulator is the Param's own copy
    p.add_grad(np.array([0.5, -0.5]))
    assert p.grad.tolist() == [1.0, 0.0]
    p.zero_grad()
    assert p.grad is None
    with pytest.raises(ShapeMismatchError):
        p.add_grad(np.array([1.0, 2.0, 3.0]))


def row_cross_entropy(logits: np.ndarray, label: int) -> float:
    """Mean cross-entropy of a one-row batch, as a function of that row."""
    return batch_cross_entropy(logits[None, :], np.array([label]))[0]


def tanh_sum(t: np.ndarray) -> float:
    return float(np.sum(np.tanh(t)))


def test_tanh_odd_at_zero():
    # tanh maps both signed zeros to themselves, where its slope is 1
    zeros = np.tanh(np.array([0.0, -0.0]))
    assert np.signbit(zeros).tolist() == [False, True]
    assert tanh_deriv(zeros).tolist() == [1.0, 1.0]
    into = np.full(2, 7.0)
    assert tanh_deriv(zeros, into) is into and into.tolist() == [1.0, 1.0]


def test_tanh_backward_at_half():
    x = np.array([0.5])
    g = tanh_deriv(np.tanh(x))
    assert rel_error(g, finite_diff_grad(tanh_sum, x)) <= 1e-7


def test_cross_entropy_uniform():
    assert abs(row_cross_entropy(np.array([0.0, 0.0]), 0) - math.log(2.0)) <= 1e-12


def test_cross_entropy_saturated():
    # -log sigmoid(20) expressed through log1p for an independent value
    expected = math.log1p(math.exp(-20.0))
    got = row_cross_entropy(np.array([10.0, -10.0]), 0)
    assert abs(got - expected) <= 1e-15
    assert got == pytest.approx(2.06e-9, rel=5e-3)


def test_cross_entropy_nonnegative_and_stable():
    rng = substream(3, "ce-pos")
    for _ in range(50):
        logits = rng.normal(scale=200.0, size=5)
        assert row_cross_entropy(logits, int(rng.integers(5))) >= 0.0
    # extreme logits stay finite thanks to max-subtraction
    assert math.isfinite(row_cross_entropy(np.array([1e4, -1e4, 0.0]), 1))


def test_cross_entropy_vjp_against_finite_differences():
    rng = substream(5, "ce-vjp")
    for _ in range(5):
        logits = rng.normal(size=(3, 6))
        labels = rng.integers(6, size=3)
        _, g = batch_cross_entropy(logits, labels)
        fd = finite_diff_grad(lambda t: batch_cross_entropy(t, labels)[0], logits)
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
    g = finite_diff_grad(lambda t: t.item() ** 2, np.array(3.0), step=1e-5)
    assert abs(g.item() - 6.0) <= 1e-6


def test_finite_diff_linear():
    x = np.array([1.0, -2.0, 0.3])
    g = finite_diff_grad(lambda t: float(np.sum(t)), x)
    assert np.allclose(g, 1.0, atol=1e-9)


def test_finite_diff_rejects_bad_step_and_nonfinite():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, np.array([1.0]), step=0.0)
    with pytest.raises(EvaluationError):
        finite_diff_grad(lambda t: float("nan"), np.array([1.0]))


def test_affine_cross_entropy_chain():
    """Hand-chained analytic backward through affine + cross-entropy."""
    rng = substream(13, "affine-chain")
    w = rng.normal(size=(3, 4))
    x = rng.normal(size=4)

    def f(t: np.ndarray) -> float:
        return row_cross_entropy(w @ t, 1)

    _, gl = batch_cross_entropy((w @ x)[None, :], np.array([1]))
    gx = w.T @ gl[0]
    fd = finite_diff_grad(f, x)
    assert rel_error(gx, fd) <= 1e-6


def test_all_primitives_twenty_seeded_points():
    for k in range(20):
        rng = substream(100 + k, "prim-sweep")
        # tanh, the derivative read off the output
        x = rng.normal(size=5)
        assert rel_error(tanh_deriv(np.tanh(x)), finite_diff_grad(tanh_sum, x)) <= 1e-6
        # cross_entropy
        logits = rng.normal(size=4)
        lab = int(rng.integers(4))
        _, g = batch_cross_entropy(logits[None, :], np.array([lab]))
        assert rel_error(g[0], finite_diff_grad(lambda t: row_cross_entropy(t, lab),
                                                logits)) <= 1e-6
