"""Partition semantics and the partitioned training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lionprompt.errors import DivergenceError, EvaluationError, StateError
from lionprompt.numerics import Param, Tensor, batch_cross_entropy
from lionprompt.rng import substream
from lionprompt.robust_opt import (
    CriticalityPartition,
    OptState,
    criticality_scores,
    flat_values,
    partition,
    step,
    train,
    train_plain,
)


class LogisticTask:
    """Tiny softmax regression used to drive the trainer in isolation."""

    def __init__(self, d, c, seed):
        rng = substream(seed, "logistic-init")
        self.w = Param("w", Tensor(rng.normal(size=(c, d)) * 0.1))
        self.b = Param("b", Tensor(np.zeros(c)))

    def trainable_params(self):
        return [self.w, self.b]

    def logits(self, x):
        return x @ self.w.value.array.T + self.b.value.array

    def loss_and_grads(self, x, y):
        logits = self.logits(x)
        value, g = batch_cross_entropy(logits, y)
        self.w.add_grad(g.T @ x)
        self.b.add_grad(np.sum(g, axis=0))
        return value, logits

    def predict(self, x):
        return np.argmax(self.logits(x), axis=1)


def two_blobs(seed, n=60, d=4, gap=3.0):
    rng = substream(seed, "blobs")
    x0 = rng.normal(size=(n // 2, d)) - gap / 2
    x1 = rng.normal(size=(n // 2, d)) + gap / 2
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


def params_with_grads(values, grads):
    out = []
    for i, (v, g) in enumerate(zip(values, grads)):
        p = Param(f"p{i}", Tensor(v))
        p.add_grad(Tensor(g))
        out.append(p)
    return out


# --- scores and partition ------------------------------------------------------

def test_opt_state_validation():
    OptState(eta=0.0)  # the null step is legal
    with pytest.raises(ValueError):
        OptState(eta=-0.1)
    with pytest.raises(ValueError):
        OptState(eta=0.1, tau=1.0)
    with pytest.raises(ValueError):
        OptState(eta=0.1, repartition_every=0)


def test_scores_value_times_grad():
    params = params_with_grads([[2.0], [0.0], [3.0]], [[0.5], [7.0], [0.0]])
    assert np.array_equal(criticality_scores(params), [1.0, 0.0, 0.0])


def test_scores_require_grads():
    p = Param("w", Tensor([1.0]))
    with pytest.raises(StateError):
        criticality_scores([p])


def test_partition_worked_example():
    part = partition(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), tau=0.4)
    assert part.threshold_value == 2.0
    assert int(np.sum(part.crucial_mask)) == 4
    assert np.array_equal(part.crucial_mask, [False, True, True, True, True])


def test_partition_all_equal_scores():
    part = partition(np.full(7, 3.3), tau=0.6)
    assert np.all(part.crucial_mask)


def test_partition_tiny_tau_marks_everything_crucial():
    part = partition(np.array([5.0, 1.0, 9.0]), tau=1e-9)
    assert np.all(part.crucial_mask)


def test_partition_masks_complementary():
    rng = substream(1, "scores")
    for tau in (0.2, 0.4, 0.6, 0.8):
        scores = np.abs(rng.normal(size=101))
        part = partition(scores, tau)
        assert np.all(part.crucial_mask ^ part.noncrucial_mask)
        assert np.all(part.scores[part.crucial_mask] >= part.threshold_value)
        if np.any(part.noncrucial_mask):
            assert np.all(part.scores[part.noncrucial_mask] < part.threshold_value)


def test_partition_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        partition(np.array([]), tau=0.4)
    with pytest.raises(ValueError):
        partition(np.array([1.0, np.nan]), tau=0.4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_partition_is_exhaustive_for_arbitrary_scores(scores, tau):
    part = partition(np.array(scores), tau)
    assert np.all(part.crucial_mask ^ part.noncrucial_mask)
    assert np.all(part.scores[part.crucial_mask] >= part.threshold_value)
    assert np.all(part.scores[part.noncrucial_mask] < part.threshold_value)
    # ties at the ceil(tau * M)-th smallest score all go crucial
    m = len(scores)
    assert int(np.sum(part.crucial_mask)) >= m - math.ceil(tau * m) + 1


# --- step ------------------------------------------------------------------------

def test_step_crucial_descends():
    params = params_with_grads([[1.0]], [[0.2]])
    part = partition(criticality_scores(params), tau=0.4)
    step(params, part, OptState(eta=0.1))
    assert abs(params[0].value.item() - 0.98) <= 1e-15


def test_step_soft_threshold_shrinks():
    params = params_with_grads([[0.3, -0.05]], [[0.0, 0.0]])
    part = CriticalityPartition(scores=np.zeros(2),
                                crucial_mask=np.array([False, False]),
                                noncrucial_mask=np.array([True, True]),
                                tau=0.4, threshold_value=np.inf)
    step(params, part, OptState(eta=0.1))
    assert np.allclose(params[0].value.array, [0.2, 0.0], atol=1e-15)


def test_step_rejects_misaligned_partition():
    params = params_with_grads([[1.0, 2.0]], [[0.1, 0.1]])
    part = partition(np.array([1.0]), tau=0.4)
    with pytest.raises(StateError):
        step(params, part, OptState(eta=0.1))


# --- train -----------------------------------------------------------------------

def test_train_eta_zero_is_identity():
    task = LogisticTask(d=4, c=2, seed=5)
    x, y = two_blobs(6)
    before = [p.value.array.copy() for p in task.trainable_params()]
    train(task, (x, y), OptState(eta=0.0, tau=0.4), epochs=7)
    for p, orig in zip(task.trainable_params(), before):
        assert np.array_equal(p.value.array, orig)


def test_train_aborts_on_nonfinite_loss():
    class BadTask:
        def __init__(self):
            self.p = Param("p", Tensor([1.0]))

        def trainable_params(self):
            return [self.p]

        def loss_and_grads(self, x, y):
            self.p.add_grad(Tensor([0.0]))
            return float("nan"), np.zeros((len(x), 1))

        def predict(self, x):
            return np.zeros(len(x), dtype=int)

    with pytest.raises(EvaluationError):
        train(BadTask(), (np.zeros((3, 1)), np.zeros(3, dtype=int)),
              OptState(eta=0.1), epochs=3)


def test_all_crucial_matches_manual_gradient_descent_bitwise():
    x, y = two_blobs(7)
    task_a = LogisticTask(d=4, c=2, seed=8)
    task_b = LogisticTask(d=4, c=2, seed=8)
    eta = 0.3
    train_plain(task_a, (x, y), OptState(eta=eta), epochs=25)
    for _ in range(25):
        for p in task_b.trainable_params():
            p.zero_grad()
        task_b.loss_and_grads(x, y)
        for p in task_b.trainable_params():
            p.value = Tensor(p.value.array - eta * p.grad.array)
    for pa, pb in zip(task_a.trainable_params(), task_b.trainable_params()):
        assert pa.value.array.tobytes() == pb.value.array.tobytes()


def test_train_separable_blobs_reaches_high_accuracy():
    task = LogisticTask(d=4, c=2, seed=9)
    x, y = two_blobs(10)
    log = train(task, (x, y), OptState(eta=0.5, tau=0.4), epochs=200)
    assert log.final_accuracy >= 0.99
    assert len(log.losses) == len(log.accuracies) == 200


def test_noncrucial_mean_abs_nonincreasing_between_repartitions():
    task = LogisticTask(d=6, c=3, seed=11)
    rng = substream(12, "multi")
    y = rng.integers(3, size=90)
    x = rng.normal(size=(90, 6)) + 2.5 * np.eye(6)[y * 2]
    every = 5
    log = train(task, (x, y), OptState(eta=0.2, tau=0.5, repartition_every=every),
                epochs=30)
    for i in range(1, 30):
        if i % every != 0:  # same partition as the previous epoch
            assert log.noncrucial_mean_abs[i] <= log.noncrucial_mean_abs[i - 1] + 1e-15


def test_crucial_fraction_logged_and_bounded():
    task = LogisticTask(d=4, c=2, seed=13)
    x, y = two_blobs(14)
    log = train(task, (x, y), OptState(eta=0.3, tau=0.4), epochs=10)
    for frac in log.crucial_fractions:
        assert 0.0 < frac <= 1.0
    # with tau=0.4 over a healthy score spread, roughly 60% should be crucial
    assert log.crucial_fractions[0] >= 0.5


class RecordingTask(LogisticTask):
    """LogisticTask that records every loss/logits pair and counts predicts."""

    def __init__(self, d, c, seed):
        super().__init__(d, c, seed)
        self.seen = []
        self.predicts = 0

    def loss_and_grads(self, x, y):
        value, logits = super().loss_and_grads(x, y)
        self.seen.append((value, logits.copy()))
        return value, logits

    def predict(self, x):
        self.predicts += 1
        return super().predict(x)


def test_train_predicts_exactly_once():
    task = RecordingTask(d=4, c=2, seed=15)
    x, y = two_blobs(16)
    log = train(task, (x, y), OptState(eta=0.3, tau=0.4), epochs=12)
    assert task.predicts == 1
    assert len(task.seen) == len(log.losses) == 12


def test_logged_accuracy_belongs_to_the_logged_loss():
    task = RecordingTask(d=4, c=2, seed=17)
    x, y = two_blobs(18, gap=1.0)
    log = train(task, (x, y), OptState(eta=0.5, tau=0.4), epochs=15)
    for e, (value, logits) in enumerate(task.seen):
        assert log.losses[e] == value
        assert log.accuracies[e] == float(np.mean(np.argmax(logits, axis=1) == y))
    # the logged accuracies move, so the check above is not vacuous
    assert len(set(log.accuracies)) > 1


@pytest.mark.parametrize("patience", [None, 3])
def test_final_accuracy_is_taken_after_the_last_step(patience):
    task = LogisticTask(d=4, c=2, seed=19)
    x, y = two_blobs(20, gap=1.0)
    log = train(task, (x, y), OptState(eta=0.5, tau=0.4), epochs=400,
                patience=patience, plateau_tol=1e-3)
    if patience is not None:
        assert len(log.losses) < 400   # stopped early on the plateau
    assert log.final_accuracy == float(np.mean(task.predict(x) == y))


def test_train_prepares_the_task_once():
    class PreparedTask(LogisticTask):
        def prepare(self, x):
            self.prepared.append(x)

    task = PreparedTask(d=4, c=2, seed=21)
    task.prepared = []
    x, y = two_blobs(22)
    train(task, (x, y), OptState(eta=0.3), epochs=5)
    assert len(task.prepared) == 1 and task.prepared[0] is x


def test_train_reraises_divergence_with_the_epoch():
    class DivergingTask(LogisticTask):
        calls = 0

        def loss_and_grads(self, x, y):
            self.calls += 1
            if self.calls == 3:
                raise DivergenceError("block p1 cell 0: stalled", residual=0.5)
            return super().loss_and_grads(x, y)

    x, y = two_blobs(23)
    with pytest.raises(DivergenceError, match=r"epoch 2: block p1 cell 0") as exc:
        train(DivergingTask(d=4, c=2, seed=24), (x, y), OptState(eta=0.3), epochs=5)
    assert exc.value.residual == 0.5
