"""Reference implementations the tests compare the package against.

Deliberately naive: one central difference per coordinate, and the cell
body applied to one state at a time, sharing no code with the solver.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from lionprompt.deq import DeqCell
from lionprompt.errors import EvaluationError, ShapeMismatchError
from lionprompt.numerics import Tensor


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, step: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    base = x.array
    flat = base.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += step
        minus[i] -= step
        fp = float(f(Tensor(plus.reshape(base.shape))))
        fm = float(f(Tensor(minus.reshape(base.shape))))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"non-finite function value near coordinate {i}")
        out[i] = (fp - fm) / (2.0 * step)
    return Tensor(out.reshape(base.shape))


def cell_forward(cell: DeqCell, z: Tensor, x: Tensor) -> Tensor:
    """One application of the cell body sigma(W z + U x + b) at state z and input x."""
    if z.shape != (cell.state_dim,):
        raise ShapeMismatchError(f"state shape {z.shape} != ({cell.state_dim},)")
    if x.shape != (cell.input_dim,):
        raise ShapeMismatchError(f"input shape {x.shape} != ({cell.input_dim},)")
    a = cell.W.array @ z.array + cell.U.array @ x.array + cell.b.array
    return Tensor(np.tanh(a) if cell.activation == "tanh" else a)
