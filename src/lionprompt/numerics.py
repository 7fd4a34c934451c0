"""Value types and the elementwise pieces shared by the model and the solver.

An immutable finite-checked `Tensor`, a named `Param` with a gradient
accumulator, the cell and stage activations with their derivatives read
off the activation output, and the batched cross-entropy with its
gradient. There is no tape: the model graph is small and fixed, and its
backward sweep is written out by hand in `model` and `deq`, which keeps the
gradient machinery auditable. All values are 64-bit reals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ShapeMismatchError


class Tensor:
    """Immutable dense array of rank 0, 1 or 2, float64, row-major.

    Finite by construction: creating a Tensor with NaN/Inf entries raises,
    so every public operation returns finite values or fails loudly.
    """

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.asarray(values, dtype=np.float64)
        if a.ndim > 2:
            raise ShapeMismatchError(f"rank {a.ndim} > 2 not supported (shape {a.shape})")
        if not np.all(np.isfinite(a)):
            raise EvaluationError("tensor contains non-finite values")
        a = a.copy()
        a.setflags(write=False)
        self._a = a

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def rank(self) -> int:
        return self._a.ndim

    @property
    def size(self) -> int:
        return self._a.size

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the values."""
        return self._a

    def item(self) -> float:
        if self._a.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.shape}")
        return float(self._a.reshape(-1)[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"Tensor({self._a.tolist()!r})"


@dataclass
class Param:
    """A named trainable tensor with a gradient accumulator.

    `grad` is None until a backward pass accumulates into it, mirroring
    the usual lazily-allocated gradient convention. Accumulation is
    single-writer: training is single-threaded by contract.
    """

    name: str
    value: Tensor
    grad: Tensor | None = field(default=None)

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad = None

    def add_grad(self, g) -> None:
        ga = g.array if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if ga.shape != self.value.shape:
            raise ShapeMismatchError(
                f"grad shape {ga.shape} != value shape {self.value.shape} for {self.name!r}")
        if self.grad is None:
            self.grad = Tensor(ga)
        else:
            self.grad = Tensor(self.grad.array + ga)


# --- activations and losses ----------------------------------------------------

ACTIVATIONS = ("tanh", "identity")


def activate(a: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise activation sigma(a); given `out`, which must be `a`, in place."""
    return np.tanh(a, out=out) if kind == "tanh" else a


def activate_deriv(out: np.ndarray, kind: str, into: np.ndarray | None = None) -> np.ndarray:
    """sigma'(a) read off out = sigma(a): 1 - out^2 for tanh, into `into` if given."""
    if kind != "tanh":
        return np.ones_like(out)
    sq = np.multiply(out, out, out=into)
    return np.subtract(1.0, sq, out=sq)


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis of an ndarray (internal helper)."""
    shifted = a - np.max(a, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


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
    logz = np.log(np.sum(np.exp(shifted), axis=1))
    losses = logz - shifted[np.arange(n), labels]
    grad = softmax_rows(logits)
    grad[np.arange(n), labels] -= 1.0
    return float(np.mean(losses)), grad / n


def rel_error(a: np.ndarray | Tensor, b: np.ndarray | Tensor) -> float:
    """Norm-wise relative difference ||a-b|| / max(||a||, ||b||, tiny)."""
    aa = a.array if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    bb = b.array if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    denom = max(float(np.linalg.norm(aa)), float(np.linalg.norm(bb)), 1e-300)
    return float(np.linalg.norm(aa - bb)) / denom
