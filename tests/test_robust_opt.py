"""Partition semantics and the partitioned training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lionprompt import robust_opt
from lionprompt.errors import DivergenceError, EvaluationError, StateError
from lionprompt.numerics import Param, batch_cross_entropy
from lionprompt.rng import substream
from lionprompt.robust_opt import (
    OptState,
    criticality_scores,
    flat_grads,
    flat_values,
    partition,
    step,
    train,
)


class LogisticTask:
    """Tiny softmax regression used to drive the trainer in isolation."""

    def __init__(self, d, c, seed):
        rng = substream(seed, "logistic-init")
        self.w = Param("w", rng.normal(size=(c, d)) * 0.1)
        self.b = Param("b", np.zeros(c))

    def trainable_params(self):
        return [self.w, self.b]

    def logits(self, x):
        return x @ self.w.value.T + self.b.value

    def loss_and_grads(self, x, y):
        logits = self.logits(x)
        value, g = batch_cross_entropy(logits, y)
        self.w.add_grad(g.T @ x)
        self.b.add_grad(np.sum(g, axis=0))
        return value, logits

    def predict(self, x):
        return np.argmax(self.logits(x), axis=1)


class PlainLogisticTask(LogisticTask):
    """LogisticTask whose partition covers nothing: every scalar descends."""

    def partitioned_params(self):
        return []


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
        p = Param(f"p{i}", v)
        p.add_grad(g)
        out.append(p)
    return out


def flattened(params):
    """(gradients, values) of `params`, flattened as the trainer hands them on."""
    return flat_grads(params), flat_values(params)


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
    assert np.array_equal(criticality_scores(*flattened(params)), [1.0, 0.0, 0.0])


def test_scores_require_grads():
    p = Param("w", [1.0])
    with pytest.raises(StateError):
        criticality_scores(*flattened([p]))


def assert_splits(crucial, scores):
    """`crucial` is a boolean mask of the scores' shape, every non-crucial
    score below every crucial one."""
    assert crucial.dtype == bool and crucial.shape == scores.shape
    assert scores[~crucial].max(initial=-math.inf) < scores[crucial].min()


def test_partition_worked_example():
    crucial = partition(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), tau=0.4)
    assert int(np.sum(crucial)) == 4
    assert np.array_equal(crucial, [False, True, True, True, True])


def test_partition_all_equal_scores():
    assert np.all(partition(np.full(7, 3.3), tau=0.6))


def test_partition_tiny_tau_marks_everything_crucial():
    assert np.all(partition(np.array([5.0, 1.0, 9.0]), tau=1e-9))


def test_partition_masks_complementary():
    rng = substream(1, "scores")
    for tau in (0.2, 0.4, 0.6, 0.8):
        scores = np.abs(rng.normal(size=101))
        assert_splits(partition(scores, tau), scores)


def test_partition_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        partition(np.array([]), tau=0.4)
    with pytest.raises(EvaluationError, match="non-finite"):
        partition(np.array([1.0, np.nan]), tau=0.4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_partition_is_exhaustive_for_arbitrary_scores(scores, tau):
    scores = np.array(scores)
    crucial = partition(scores, tau)
    assert_splits(crucial, scores)
    # ties at the ceil(tau * M)-th smallest score all go crucial
    m = len(scores)
    assert int(np.sum(crucial)) >= m - math.ceil(tau * m) + 1


# --- step ------------------------------------------------------------------------

def test_step_crucial_descends():
    params = params_with_grads([[1.0]], [[0.2]])
    crucial = partition(criticality_scores(*flattened(params)), tau=0.4)
    step(params, *flattened(params), crucial, OptState(eta=0.1))
    assert abs(params[0].value.item() - 0.98) <= 1e-15


def test_step_soft_threshold_shrinks():
    params = params_with_grads([[0.3, -0.05]], [[0.0, 0.0]])
    step(params, *flattened(params), np.array([False, False]), OptState(eta=0.1))
    assert np.allclose(params[0].value, [0.2, 0.0], atol=1e-15)


def test_step_rejects_misaligned_partition():
    params = params_with_grads([[1.0, 2.0]], [[0.1, 0.1]])
    crucial = partition(np.array([1.0]), tau=0.4)
    with pytest.raises(StateError):
        step(params, *flattened(params), crucial, OptState(eta=0.1))


def test_step_refuses_an_overflowing_update_before_changing_any_parameter():
    params = params_with_grads([[1.0], [1e308]], [[1.0], [-1e308]])
    crucial = partition(np.zeros(2), tau=1e-12)   # all crucial
    # the step silences its own overflow: a warning would become an error here
    with np.errstate(over="raise"), pytest.raises(EvaluationError, match=r"update for \['p1'\]$"):
        step(params, *flattened(params), crucial, OptState(eta=1.0))
    assert params[0].value.tolist() == [1.0] and params[1].value.tolist() == [1e308]


# --- train -----------------------------------------------------------------------

def test_train_eta_zero_is_identity():
    task = LogisticTask(d=4, c=2, seed=5)
    x, y = two_blobs(6)
    before = [p.value.copy() for p in task.trainable_params()]
    train(task, (x, y), OptState(eta=0.0, tau=0.4), epochs=7)
    for p, orig in zip(task.trainable_params(), before):
        assert np.array_equal(p.value, orig)


def test_train_aborts_on_nonfinite_loss():
    class BadTask:
        def __init__(self):
            self.p = Param("p", [1.0])

        def trainable_params(self):
            return [self.p]

        def loss_and_grads(self, x, y):
            self.p.add_grad(np.array([0.0]))
            return float("nan"), np.zeros((len(x), 1))

        def predict(self, x):
            return np.zeros(len(x), dtype=int)

    with pytest.raises(EvaluationError):
        train(BadTask(), (np.zeros((3, 1)), np.zeros(3, dtype=int)),
              OptState(eta=0.1), epochs=3)


def test_all_crucial_matches_manual_gradient_descent_bitwise(monkeypatch):
    x, y = two_blobs(7)
    task_a = PlainLogisticTask(d=4, c=2, seed=8)
    task_b = LogisticTask(d=4, c=2, seed=8)
    eta = 0.3

    def unreachable(grads, values):
        raise AssertionError("a task that partitions nothing was scored")

    monkeypatch.setattr(robust_opt, "criticality_scores", unreachable)
    train(task_a, (x, y), OptState(eta=eta), epochs=25)
    for _ in range(25):
        for p in task_b.trainable_params():
            p.zero_grad()
        task_b.loss_and_grads(x, y)
        for p in task_b.trainable_params():
            p.value = p.value - eta * p.grad
    for pa, pb in zip(task_a.trainable_params(), task_b.trainable_params()):
        assert pa.value.tobytes() == pb.value.tobytes()


def test_partition_leaves_unpruned_scores_crucial():
    scores = np.array([5.0, 0.0, 1.0, 2.0, 0.0, 3.0])
    pruned = np.array([True, False, True, True, False, True])
    crucial = partition(scores, tau=0.5, pruned=pruned)
    # the threshold is 2.0, the 2nd smallest of the four pruned scores
    assert np.array_equal(crucial, [True, True, False, True, True, True])
    assert np.mean(crucial) == 5 / 6
    assert np.all(partition(scores, tau=0.5, pruned=np.zeros(6, bool)))


def test_train_partitions_only_the_named_params():
    class WeightsOnlyTask(LogisticTask):
        def partitioned_params(self):
            return [self.w]

    task = WeightsOnlyTask(d=4, c=2, seed=28)
    x, y = two_blobs(29)
    log = train(task, (x, y), OptState(eta=0.3, tau=0.4), epochs=10)
    # b starts at zero, so only descent can move it; ceil(0.4 * 8) - 1 of w are non-crucial
    assert np.all(task.b.value != 0.0)
    assert [r["crucial_fraction"] for r in log.rows] == [(8 - 3 + 2) / 10] * 10


def test_train_refuses_a_partitioned_param_it_does_not_train():
    class StrayTask(LogisticTask):
        def partitioned_params(self):
            return [Param("w", self.w.value)]

    with pytest.raises(StateError, match="trainable"):
        train(StrayTask(d=4, c=2, seed=30), two_blobs(31), OptState(eta=0.3), epochs=2)


def test_train_separable_blobs_reaches_high_accuracy():
    task = LogisticTask(d=4, c=2, seed=9)
    x, y = two_blobs(10)
    log = train(task, (x, y), OptState(eta=0.5, tau=0.4), epochs=200)
    assert log.final_accuracy >= 0.99
    assert [r["epoch"] for r in log.rows] == list(range(200))


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
            assert (log.rows[i]["noncrucial_mean_abs"]
                    <= log.rows[i - 1]["noncrucial_mean_abs"] + 1e-15)


def test_crucial_fraction_logged_and_bounded():
    task = LogisticTask(d=4, c=2, seed=13)
    x, y = two_blobs(14)
    log = train(task, (x, y), OptState(eta=0.3, tau=0.4), epochs=10)
    for row in log.rows:
        assert 0.0 < row["crucial_fraction"] <= 1.0
    # with tau=0.4 over a healthy score spread, roughly 60% should be crucial
    assert log.rows[0]["crucial_fraction"] >= 0.5


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
    assert len(task.seen) == len(log.rows) == 12


def test_logged_accuracy_belongs_to_the_logged_loss():
    task = RecordingTask(d=4, c=2, seed=17)
    x, y = two_blobs(18, gap=1.0)
    log = train(task, (x, y), OptState(eta=0.5, tau=0.4), epochs=15)
    for e, (value, logits) in enumerate(task.seen):
        assert log.rows[e]["loss"] == value
        assert log.rows[e]["accuracy"] == float(np.mean(np.argmax(logits, axis=1) == y))
    # the logged accuracies move, so the check above is not vacuous
    assert len({r["accuracy"] for r in log.rows}) > 1


def test_final_accuracy_is_taken_after_the_last_step():
    task = LogisticTask(d=4, c=2, seed=19)
    x, y = two_blobs(20, gap=1.0)
    log = train(task, (x, y), OptState(eta=0.5, tau=0.4), epochs=400)
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
                raise DivergenceError("block p1: stalled at residual 5.000e-01")
            return super().loss_and_grads(x, y)

    x, y = two_blobs(23)
    with pytest.raises(DivergenceError, match=r"^epoch 2: block p1: stalled at residual "
                       r"5\.000e-01$"):
        train(DivergingTask(d=4, c=2, seed=24), (x, y), OptState(eta=0.3), epochs=5)


def test_train_names_the_epoch_of_overflowing_scores():
    class OverflowingTask(LogisticTask):
        calls = 0

        def loss_and_grads(self, x, y):
            self.calls += 1
            out = super().loss_and_grads(x, y)
            if self.calls == 2:
                self.b.add_grad(np.array([1e308, 0.0]))
                self.b.value = np.array([2.0, 0.0])
            return out

    x, y = two_blobs(26)
    with np.errstate(over="raise"), pytest.raises(     # scoring silences its own overflow
            EvaluationError, match=r"^epoch 1: criticality scores contain non-finite"):
        train(OverflowingTask(d=4, c=2, seed=27), (x, y), OptState(eta=0.3), epochs=4)


@pytest.mark.parametrize("every", [1, 2], ids=["at-scoring", "at-step"])
def test_train_names_the_epoch_and_parameter_of_a_nonfinite_gradient(every):
    class PoisonedTask(LogisticTask):
        calls = 0
        at_epoch_3 = None

        def loss_and_grads(self, x, y):
            self.calls += 1
            out = super().loss_and_grads(x, y)
            if self.calls == 4:
                self.at_epoch_3 = [p.value for p in self.trainable_params()]
                self.b.add_grad(np.array([np.nan, 0.0]))
            return out

    task = PoisonedTask(d=4, c=2, seed=25)
    x, y = two_blobs(25)
    # epoch 3 rescores with every = 1 and reuses epoch 2's partition with every = 2
    with pytest.raises(EvaluationError, match=r"^epoch 3: .*'b'"):
        train(task, (x, y), OptState(eta=0.3, repartition_every=every), epochs=6)
    assert all(p.value is v for p, v in zip(task.trainable_params(), task.at_epoch_3))
