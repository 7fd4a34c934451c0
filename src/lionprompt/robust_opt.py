"""Criticality-partitioned optimizer.

Every trainable scalar is scored by |gradient * value|; the bottom tau
quantile of the score distribution fixes a threshold, scores at or above
it are "crucial" and take an ordinary gradient-descent step, the rest are
shrunk toward zero by the proximal soft-threshold
sign(theta)*max(|theta|-eta, 0) — the convergent form of the raw sign
update theta - eta*sign(theta), which oscillates around zero with
amplitude eta instead of settling.

The trainer is duck-typed over a small task surface so the same loop
drives both the prompted model and the plain-classifier baselines:

    task.trainable_params() -> list[Param]
    task.loss_and_grads(X, y) -> (float, logits)  # accumulates into .grad
    task.predict(X) -> ndarray of labels
    task.prepare(X)                      # optional, once per train call
    task.post_step()                     # optional (e.g. re-projection)
    task.metrics() -> dict[str, float]   # optional per-epoch extras

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

from .errors import DivergenceError, EvaluationError, StateError
from .numerics import Param, Tensor


@dataclass(frozen=True)
class OptState:
    """Optimizer settings. `eta = 0` is allowed as the degenerate null step.

    `tau` is a quantile fraction over scores (the paper-style sweep range
    0.2-0.8 only makes sense relative to the score distribution).
    """

    eta: float
    tau: float = 0.4
    repartition_every: int = 1

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0,1), got {self.tau}")
        if self.repartition_every < 1:
            raise ValueError(f"repartition_every must be >= 1, got {self.repartition_every}")


@dataclass(frozen=True)
class CriticalityPartition:
    """A frozen split of the flattened trainable set at one moment in time."""

    scores: np.ndarray
    crucial_mask: np.ndarray
    noncrucial_mask: np.ndarray
    tau: float
    threshold_value: float

    @property
    def crucial_fraction(self) -> float:
        return float(np.mean(self.crucial_mask))


def flat_values(params: list[Param]) -> np.ndarray:
    return np.concatenate([p.value.array.reshape(-1) for p in params])


def flat_grads(params: list[Param]) -> np.ndarray:
    missing = [p.name for p in params if p.grad is None]
    if missing:
        raise StateError(f"gradients missing for {missing}")
    return np.concatenate([p.grad.array.reshape(-1) for p in params])


def criticality_scores(params: list[Param]) -> np.ndarray:
    """Per-scalar score |(dL/dtheta) * theta| over the flattened set."""
    return np.abs(flat_grads(params) * flat_values(params))


def partition(scores: np.ndarray, tau: float) -> CriticalityPartition:
    """Split scores at the nearest-rank tau-quantile (ties go crucial).

    threshold = k-th smallest score with k = ceil(tau * M); crucial means
    score >= threshold, so the split is exhaustive and exclusive and the
    tau -> 0 limit marks everything crucial.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot partition an empty score vector")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite entries")
    k = math.ceil(tau * scores.size)
    k = min(max(k, 1), scores.size)
    threshold = float(np.partition(scores, k - 1)[k - 1])
    crucial = scores >= threshold
    return CriticalityPartition(scores=scores, crucial_mask=crucial,
                                noncrucial_mask=~crucial, tau=tau,
                                threshold_value=threshold)


def step(params: list[Param], part: CriticalityPartition, state: OptState) -> None:
    """Apply one partitioned update in place.

    Crucial scalars descend along the gradient; non-crucial ones shrink by
    eta toward zero (soft-threshold).
    """
    total = sum(p.size for p in params)
    if part.crucial_mask.shape != (total,):
        raise StateError(
            f"partition over {part.crucial_mask.size} scalars, params have {total}")
    grads = flat_grads(params)
    values = flat_values(params)
    descended = values - state.eta * grads
    shrunk = np.sign(values) * np.maximum(np.abs(values) - state.eta, 0.0)
    updated = np.where(part.crucial_mask, descended, shrunk)
    offset = 0
    for p in params:
        chunk = updated[offset:offset + p.size]
        p.value = Tensor(chunk.reshape(p.value.shape))
        offset += p.size


@dataclass
class TrainLog:
    """Per-epoch training trace; lists all share one index.

    `losses[e]` and `accuracies[e]` are both taken at the parameters epoch e
    started from. `final_accuracy` is taken after the last step.
    """

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    crucial_fractions: list[float] = field(default_factory=list)
    noncrucial_mean_abs: list[float] = field(default_factory=list)
    extras: list[dict] = field(default_factory=list)
    final_accuracy: float = math.nan


def _dataset_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(dataset, tuple):
        x, y = dataset
    else:
        x, y = dataset.inputs, dataset.labels
    x = x.array if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    return x, np.asarray(y)


def train(task, dataset, state: OptState, epochs: int,
          patience: int | None = None, plateau_tol: float = 1e-6) -> TrainLog:
    """Full-batch partitioned training; returns the per-epoch log.

    The partition is refreshed from fresh scores every `repartition_every`
    epochs and reused in between. A non-finite loss aborts immediately
    rather than letting the run limp on. With `patience` set, training
    stops early once the loss has not improved by more than `plateau_tol`
    for that many consecutive epochs. A `DivergenceError` from the task is
    re-raised with the epoch it happened in.
    """
    if patience is not None and patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    x, y = _dataset_arrays(dataset)
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    params = task.trainable_params()
    log = TrainLog()
    part: CriticalityPartition | None = None
    best_loss = math.inf
    stale = 0
    prepare = getattr(task, "prepare", None)
    if prepare is not None:
        prepare(x)
    for epoch in range(epochs):
        for p in params:
            p.zero_grad()
        try:
            value, logits = task.loss_and_grads(x, y)
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}", residual=exc.residual) from exc
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite loss {value!r} at epoch {epoch}")
        if part is None or epoch % state.repartition_every == 0:
            part = partition(criticality_scores(params), state.tau)
        step(params, part, state)
        post = getattr(task, "post_step", None)
        if post is not None:
            post()
        values = flat_values(params)
        nc = values[part.noncrucial_mask]
        log.losses.append(value)
        log.accuracies.append(float(np.mean(np.argmax(logits, axis=1) == y)))
        log.crucial_fractions.append(part.crucial_fraction)
        log.noncrucial_mean_abs.append(float(np.mean(np.abs(nc))) if nc.size else 0.0)
        metrics = getattr(task, "metrics", None)
        log.extras.append(metrics() if metrics is not None else {})
        if patience is not None:
            if value < best_loss - plateau_tol:
                best_loss = value
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break
    try:
        log.final_accuracy = float(np.mean(task.predict(x) == y))
    except DivergenceError as exc:
        raise DivergenceError(f"final predict after {len(log.losses)} epochs: {exc}",
                              residual=exc.residual) from exc
    return log


def train_plain(task, dataset, state: OptState, epochs: int,
                patience: int | None = None, plateau_tol: float = 1e-6) -> TrainLog:
    """Vanilla full-batch gradient descent sharing the logging format.

    Implemented as the partitioned loop with an all-crucial split so the
    two trainers are bit-comparable; used by the baseline protocols.
    """
    all_crucial = OptState(eta=state.eta, tau=1e-12, repartition_every=1)
    return train(task, dataset, all_crucial, epochs, patience, plateau_tol)
