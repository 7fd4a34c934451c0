"""Reference implementations the tests compare the package against.

Deliberately naive: one central difference per coordinate, and the cell
body applied to one state at a time, sharing no code with the solver.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from lionprompt.deq import DeqCell
from lionprompt.errors import EvaluationError, ShapeMismatchError


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    base = np.asarray(x, dtype=np.float64)
    flat = base.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += step
        minus[i] -= step
        fp = float(f(plus.reshape(base.shape)))
        fm = float(f(minus.reshape(base.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"non-finite function value near coordinate {i}")
        out[i] = (fp - fm) / (2.0 * step)
    return out.reshape(base.shape)


def cell_forward(cell: DeqCell, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One application of the cell body sigma(W z + U x + b) at state z and input x."""
    if z.shape != (cell.state_dim,):
        raise ShapeMismatchError(f"state shape {z.shape} != ({cell.state_dim},)")
    if x.shape != (cell.input_dim,):
        raise ShapeMismatchError(f"input shape {x.shape} != ({cell.input_dim},)")
    a = cell.W @ z + cell.U @ x + cell.b
    return np.tanh(a) if cell.activation == "tanh" else a
