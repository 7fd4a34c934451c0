"""Reference implementations the tests compare the package against.

Deliberately naive: one central difference per coordinate, and the cell
body, its fixed point and its adjoint taken one state at a time with dense
matrices, sharing no code with the solver. Also the two fixtures that build
a cell from plain arrays and read a VJP's parameter gradients.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

import numpy as np

from lionprompt.deq import PromptBlock
from lionprompt.errors import EvaluationError, ShapeMismatchError
from lionprompt.numerics import Param


def make_cell(W, U, b, kappa: float = 0.9) -> PromptBlock:
    """A cell over fresh Params holding the given arrays (which turn read-only)."""
    return PromptBlock("cell", Param("cell.W", W), Param("cell.U", U), Param("cell.b", b), kappa)


def vjp_grads(vjp, cell: PromptBlock, *args, **kwargs):
    """Run `vjp` (`deq_vjp_batch` or `unrolled_vjp`) on `cell` from zeroed gradients;
    return (its input gradient, the W, U and b gradients as `.W`, `.U` and `.b`)."""
    for p in cell.params():
        p.zero_grad()
    grad_x = vjp(cell, *args, **kwargs)
    return grad_x, SimpleNamespace(W=cell.W.grad, U=cell.U.grad, b=cell.b.grad)


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


def cell_forward(cell: PromptBlock, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One application of the cell body sigma(W z + U x + b) at state z and input x."""
    h, d = cell.U.value.shape
    if z.shape != (h,):
        raise ShapeMismatchError(f"state shape {z.shape} != ({h},)")
    if x.shape != (d,):
        raise ShapeMismatchError(f"input shape {x.shape} != ({d},)")
    return np.tanh(cell.W.value @ z + cell.U.value @ x + cell.b.value)


def newton_fixed_point(cell: PromptBlock, x: np.ndarray, iters: int = 30) -> np.ndarray:
    """z* = tanh(W z* + U x + b) of one row by Newton's method from z = 0.

    Each step solves the dense system (I - diag(tanh') W) dz = f(z) - z,
    whose matrix is invertible because ||W||_2 <= kappa < 1.
    """
    h = len(cell.W.value)
    z = np.zeros(h)
    for _ in range(iters):
        f = cell_forward(cell, z, x)
        jac = np.eye(h) - (1.0 - f * f)[:, None] * cell.W.value
        z = z + np.linalg.solve(jac, f - z)
    residual = np.linalg.norm(cell_forward(cell, z, x) - z)
    if residual > 1e-14:
        raise EvaluationError(f"Newton stopped at residual {residual:.3e}")
    return z


def dense_adjoint(cell: PromptBlock, z: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """o with (I - J^T) o = y for one row, J = diag(tanh'(a)) W the state Jacobian at z."""
    jac = (1.0 - cell_forward(cell, z, x) ** 2)[:, None] * cell.W.value
    return np.linalg.solve(np.eye(len(jac)) - jac.T, y)
