"""Criticality-partitioned optimizer.

Every scalar the partition covers is scored by |gradient * value|; the
bottom tau quantile of those scores fixes a threshold, scores at or above
it are "crucial" and take an ordinary gradient-descent step, the rest are
shrunk toward zero by the proximal soft-threshold
sign(theta)*max(|theta|-eta, 0) — the convergent form of the raw sign
update theta - eta*sign(theta), which oscillates around zero with
amplitude eta instead of settling. Every trainable scalar outside the
partition descends as well, so a task that partitions nothing trains by
plain gradient descent, and its scores are never computed.

One trainer, duck-typed over a small task surface, drives both the
prompted model (`model.PromptModel`, itself the task) and the
plain-classifier baselines (`harness.ClassifierTask`):

    task.trainable_params() -> list[Param]
    task.loss_and_grads(X, y) -> (float, logits)  # accumulates into .grad
    task.predict(X) -> ndarray of labels
    task.partitioned_params() -> list[Param]  # optional; default: all trainable
    task.prepare(X)                      # optional, once per train call
    task.post_step()                     # optional (e.g. re-projection)
    task.metrics() -> dict[str, float]   # optional; merged into the epoch's row

Training is full-batch: one optimizer step per epoch, so `repartition_every`
counts epochs between partition refreshes. Each epoch runs one forward and
one backward pass; the logged accuracy is read off the logits that
`loss_and_grads` returns, so it belongs to the same (pre-step) parameters
as the logged loss. `predict` runs once, after the last step, for the final
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, StateError, require, require_finite, within
from .numerics import Param


@dataclass(frozen=True)
class OptState:
    """Optimizer settings: the one home of their ranges and defaults. `eta = 0`
    is allowed as the degenerate null step.

    `tau` is a quantile fraction over scores (the paper-style sweep range
    0.2-0.8 only makes sense relative to the score distribution).
    """

    eta: float
    tau: float = 0.4
    repartition_every: int = 1

    def __post_init__(self):
        require(0.0 < self.tau < 1.0, "tau", "must be strictly between 0 and 1")
        require(not self.eta < 0.0, "eta", "must be >= 0")
        require_finite("eta", self.eta)
        require(self.repartition_every >= 1, "repartition_every", "must be >= 1")


def flat_values(params: list[Param]) -> np.ndarray:
    return np.concatenate([p.value.reshape(-1) for p in params])


def flat_grads(params: list[Param]) -> np.ndarray:
    """The gradients, flattened in order; refuses missing or non-finite ones."""
    missing = [p.name for p in params if p.grad is None]
    if missing:
        raise StateError(f"gradients missing for {missing}")
    flat = np.concatenate([p.grad.reshape(-1) for p in params])
    if not np.all(np.isfinite(flat)):
        bad = [p.name for p in params if not np.all(np.isfinite(p.grad))]
        raise EvaluationError(f"non-finite gradient for {bad}")
    return flat


def criticality_scores(grads: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-scalar score |(dL/dtheta) * theta| over the flattened set."""
    with np.errstate(over="ignore"):        # an overflow scores inf: `partition` refuses it
        return np.abs(grads * values)


def partition(scores: np.ndarray, tau: float,
              pruned: np.ndarray | None = None) -> np.ndarray:
    """The boolean crucial mask: scores split at the nearest-rank tau-quantile.

    `pruned` masks the scores the partition covers (default: all). Over
    those M scores, threshold = k-th smallest with k = ceil(tau * M);
    crucial means score >= threshold (ties go crucial) or not pruned, and
    its complement is the non-crucial set, so the tau -> 0 limit marks
    everything crucial. With nothing pruned, everything is crucial.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot partition an empty score vector")
    pruned = np.ones(scores.shape, dtype=bool) if pruned is None else pruned
    covered = scores[pruned]
    if not np.all(np.isfinite(covered)):
        raise EvaluationError("criticality scores contain non-finite entries")
    threshold = -math.inf
    if covered.size:
        k = min(max(math.ceil(tau * covered.size), 1), covered.size)
        threshold = float(np.partition(covered, k - 1)[k - 1])
    return ~pruned | (scores >= threshold)


def step(params: list[Param], grads: np.ndarray, values: np.ndarray,
         crucial: np.ndarray, state: OptState) -> None:
    """Apply one partitioned update in place, all or nothing.

    Scalars in the `crucial` mask descend along the flattened `grads`; the
    rest shrink by eta toward zero (soft-threshold). `Param.assign_flat`
    refuses an update with a non-finite entry, naming its parameters,
    before any changes.
    """
    if crucial.shape != values.shape:
        raise StateError(f"partition over {crucial.size} scalars, params have {values.size}")
    with np.errstate(over="ignore"):        # an overflow is refused by name on assignment
        updated = values - state.eta * grads
    shrink = values[~crucial]
    updated[~crucial] = np.sign(shrink) * np.maximum(np.abs(shrink) - state.eta, 0.0)
    Param.assign_flat(params, updated)


@dataclass
class TrainLog:
    """The training record: one row per epoch, then the final accuracy.

    Row e holds `epoch`, `loss`, `accuracy`, `crucial_fraction` and
    `noncrucial_mean_abs`, then the task's `metrics()` merged in. Its loss
    and accuracy are both taken at the parameters epoch e started from, its
    crucial fraction is that of the mask its step used, and the rest is
    read after the step. `final_accuracy` is taken after the last step.
    """

    rows: list[dict] = field(default_factory=list)
    final_accuracy: float = math.nan

    @property
    def losses(self) -> list[float]:
        # The benchmark's tracer counts epochs as `len(out.losses)` on `train`'s
        # return; it goes when the tracer does.
        return [r["loss"] for r in self.rows]


def train(task, dataset: tuple, state: OptState, epochs: int) -> TrainLog:
    """Full-batch partitioned training on `dataset` = (inputs, labels); returns the log.

    The partition covers `task.partitioned_params()` when the task has that
    hook, and every trainable parameter otherwise; the rest descend. It is
    refreshed from fresh scores every `repartition_every` epochs and reused
    in between; one that covers nothing is all crucial and never scored.
    A non-finite loss aborts immediately rather than letting the run limp
    on; otherwise every one of the `epochs` epochs runs.
    Each epoch runs inside `errors.within("epoch N")`, the final predict inside
    `within("final predict after N epochs")`: any numeric failure in them, `post_step`
    included, names its phase (e.g. `epoch 3: non-finite loss nan`).
    """
    x, y = np.asarray(dataset[0], dtype=np.float64), np.asarray(dataset[1])
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    params = task.trainable_params()
    hook = getattr(task, "partitioned_params", None)
    named = {id(p) for p in (params if hook is None else hook())}
    if not named <= {id(p) for p in params}:
        raise StateError("partitioned parameters must all be trainable")
    pruned = np.concatenate([np.full(p.size, id(p) in named) for p in params])
    log = TrainLog()
    crucial = ~pruned
    prepare, post, metrics = (getattr(task, n, None) for n in ("prepare", "post_step", "metrics"))
    if prepare is not None:
        prepare(x)
    for epoch in range(epochs):
        with within(f"epoch {epoch}"):
            for p in params:
                p.zero_grad()
            value, logits = task.loss_and_grads(x, y)
            if not math.isfinite(value):
                raise EvaluationError(f"non-finite loss {value!r}")
            grads, values = flat_grads(params), flat_values(params)
            if pruned.any() and epoch % state.repartition_every == 0:
                crucial = partition(criticality_scores(grads, values), state.tau, pruned)
            step(params, grads, values, crucial, state)
            if post is not None:
                post()
            nc = flat_values(params)[~crucial]
            log.rows.append({"epoch": epoch, "loss": value,
                             "accuracy": float(np.mean(np.argmax(logits, axis=1) == y)),
                             "crucial_fraction": float(np.mean(crucial)),
                             "noncrucial_mean_abs": float(np.mean(np.abs(nc))) if nc.size else 0.0,
                             **(metrics() if metrics is not None else {})})
    with within(f"final predict after {len(log.rows)} epochs"):
        log.final_accuracy = float(np.mean(task.predict(x) == y))
    return log
