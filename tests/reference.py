"""Reference implementations the tests compare the package against.

Deliberately naive: one central difference per coordinate, and the cell
body, its fixed point and its adjoint taken one state at a time with dense
matrices, sharing no code with the solver.
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
    return np.tanh(cell.W @ z + cell.U @ x + cell.b)


def newton_fixed_point(cell: DeqCell, x: np.ndarray, iters: int = 30) -> np.ndarray:
    """z* = tanh(W z* + U x + b) of one row by Newton's method from z = 0.

    Each step solves the dense system (I - diag(tanh') W) dz = f(z) - z,
    whose matrix is invertible because ||W||_2 <= kappa < 1.
    """
    z = np.zeros(cell.state_dim)
    for _ in range(iters):
        f = cell_forward(cell, z, x)
        jac = np.eye(cell.state_dim) - (1.0 - f * f)[:, None] * cell.W
        z = z + np.linalg.solve(jac, f - z)
    residual = np.linalg.norm(cell_forward(cell, z, x) - z)
    if residual > 1e-14:
        raise EvaluationError(f"Newton stopped at residual {residual:.3e}")
    return z


def dense_adjoint(cell: DeqCell, z: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """o with (I - J^T) o = y for one row, J = diag(tanh'(a)) W the state Jacobian at z."""
    jac = (1.0 - cell_forward(cell, z, x) ** 2)[:, None] * cell.W
    return np.linalg.solve(np.eye(cell.state_dim) - jac.T, y)
