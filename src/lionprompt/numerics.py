"""Parameters and the elementwise pieces shared by the model and the solver.

A named `Param` holding a finite, read-only value and a gradient
accumulator, the derivative of tanh (the one nonlinearity of every cell
and backbone stage) read off its output, and the batched cross-entropy
with its gradient. Everything else is a plain float64 `np.ndarray`. There
is no tape: the model graph is small and fixed, and its backward sweep is
written out by hand in `model` and `deq`, which keeps the gradient
machinery auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ShapeMismatchError


@dataclass(eq=False)
class Param:
    """A named trainable array with a gradient accumulator.

    The one place parameter state is checked: every value assigned to
    `value` (at construction, a re-projection or a checkpoint restore) or
    through `assign_flat` (an optimizer step) is converted to float64, must
    be finite and of rank at most 2, and is then marked read-only in place,
    so values shared between Params can never be written through. `grad` is
    None until a backward pass accumulates into it; the accumulator is the
    Param's own array, copied on the first add. Accumulation is
    single-writer: training is single-threaded by contract. Params compare
    by identity.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray | None = field(default=None)

    def __setattr__(self, key, v):
        if key == "value":
            v = np.asarray(v, dtype=np.float64)
            if v.ndim > 2:
                raise ShapeMismatchError(f"{self.name!r}: rank {v.ndim} > 2 not supported "
                                         f"(shape {v.shape})")
            if not np.all(np.isfinite(v)):
                raise EvaluationError(f"{self.name!r}: value contains non-finite entries")
            v.setflags(write=False)
        object.__setattr__(self, key, v)

    @staticmethod
    def assign_flat(params: list[Param], flat) -> None:
        """Assign `params`, in order, consecutive chunks of one flat vector, checked
        once: a non-finite entry is refused, naming its parameters, before any
        Param changes; then the vector turns read-only and each value is a view."""
        flat = np.asarray(flat, dtype=np.float64)
        sizes = [p.size for p in params]
        if flat.shape != (sum(sizes),):
            raise ShapeMismatchError(f"{flat.shape} flat values for {sum(sizes)} scalars")
        ends = np.cumsum(sizes)
        if not np.isfinite(flat).all():
            bad = [p.name for p, chunk in zip(params, np.split(flat, ends[:-1]))
                   if not np.isfinite(chunk).all()]
            raise EvaluationError(f"non-finite update for {bad}")
        flat.setflags(write=False)
        for p, end, n in zip(params, ends, sizes):
            object.__setattr__(p, "value", flat[end - n:end].reshape(p.value.shape))

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad = None

    def add_grad(self, g) -> None:
        ga = np.asarray(g, dtype=np.float64)
        if ga.shape != self.value.shape:
            raise ShapeMismatchError(
                f"grad shape {ga.shape} != value shape {self.value.shape} for {self.name!r}")
        if self.grad is None:
            self.grad = ga.copy()
        else:
            self.grad += ga


# --- the nonlinearity and the loss ----------------------------------------------

def tanh_deriv(out: np.ndarray, into: np.ndarray | None = None) -> np.ndarray:
    """tanh'(a) = 1 - out^2 read off out = tanh(a), into `into` if given."""
    sq = np.multiply(out, out, out=into)
    return np.subtract(1.0, sq, out=sq)


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows plus its gradient w.r.t. the logits.

    Each row's loss is -log softmax(logits_i)[label_i], computed with
    max-subtraction; its gradient softmax(logits_i) - onehot(label_i)
    carries the 1/N of the mean.
    """
    n = logits.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    z = np.sum(e, axis=1)
    losses = np.log(z) - shifted[np.arange(n), labels]
    grad = e / z[:, None]           # softmax of each row
    grad[np.arange(n), labels] -= 1.0
    return float(np.mean(losses)), grad / n


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative difference ||a-b|| / max(||a||, ||b||, tiny)."""
    aa, bb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    denom = max(float(np.linalg.norm(aa)), float(np.linalg.norm(bb)), 1e-300)
    return float(np.linalg.norm(aa - bb)) / denom
