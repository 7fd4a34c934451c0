"""Reference implementations the tests compare the package against.

Deliberately naive: one central difference per coordinate, and the cell
body, its fixed point and its adjoint taken one state at a time with dense
matrices, sharing no code with the solver. Also the two fixtures that build
a cell from plain arrays and read a VJP's parameter gradients, and the
plain forms of two hot loops the package shortcuts byte-identically:
`exact_solve`, the fixed-point driver that takes every row's residual and
shifts every row on every evaluation, and `unrolled_vjp_every_step`, the
unrolled reference that computes every one of its Picard steps and
allocates each step's vectors afresh. `finite_diff_grad` perturbs every
coordinate itself, where the package's cross-check differences U, b and x
through the input term c = U x + b only (an exact first-order map).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable

import numpy as np

from lionprompt.deq import PromptBlock
from lionprompt.errors import DivergenceError, EvaluationError, ShapeMismatchError
from lionprompt.numerics import Param, tanh_deriv


def make_cell(W, U, b, kappa: float = 0.9) -> PromptBlock:
    """A cell over fresh Params holding the given arrays (which turn read-only)."""
    return PromptBlock("cell", Param("cell.W", W), Param("cell.U", U), Param("cell.b", b), kappa)


def vjp_grads(vjp, cell: PromptBlock, *args, **kwargs):
    """Run `vjp` (`PromptBlock.vjp` or `unrolled_vjp`) on `cell` from zeroed gradients;
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


def exact_solve(w: np.ndarray, c: np.ndarray, z0_rows: np.ndarray, cfg,
                shift=None) -> tuple[np.ndarray, int, float, bool]:
    """`deq._solve` without its screen or sparse shift: every evaluation adds
    eps_r z_j to every row r, eps 0 included, and takes the exact worst-row
    residual and the non-finite check."""
    v = np.array(z0_rows, dtype=np.float64)
    g, r, sq = np.empty_like(v), np.empty_like(v), np.empty(len(v))
    rows = np.arange(len(v))
    depth = cfg.anderson_depth
    hist_r: list[np.ndarray] = []
    hist_g: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iters + 1):
            np.matmul(v, w.T, out=g)
            if shift is not None:
                g[rows, shift[0]] += shift[2] * v[rows, shift[1]]
            g += c
            np.tanh(g, out=g)
            np.subtract(g, v, out=r)
            resid = math.sqrt(np.einsum("ij,ij->i", r, r, out=sq).max(initial=0.0))
            if not math.isfinite(resid) and not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite iterate at evaluation {k}")
            if resid <= cfg.tol or k == cfg.max_iters:
                return v, k, resid, resid <= cfg.tol
            if depth >= 2:
                hist_r.append(r.flatten())
                hist_g.append(g.flatten())
                if len(hist_r) > depth:
                    hist_r.pop(0)
                    hist_g.pop(0)
            if len(hist_r) < 2:
                v, g = g, v
                continue
            res = np.stack(hist_r, axis=1)
            gamma, *_ = np.linalg.lstsq(res[:, 1:] - res[:, :-1], res[:, -1], rcond=None)
            gs = np.stack(hist_g, axis=1)
            np.subtract(g, ((gs[:, 1:] - gs[:, :-1]) @ gamma).reshape(g.shape), out=v)
    raise AssertionError("unreachable")


def unrolled_vjp_every_step(block: PromptBlock, x: np.ndarray, y: np.ndarray,
                            n_iters: int) -> np.ndarray:
    """`deq.unrolled_vjp` computing all n_iters forward steps, a repeated
    iterate included, with the same reverse sweep and products."""
    wa, ua = block.W.value, block.U.value
    c = ua @ x + block.b.value
    zs = np.zeros((n_iters + 1, len(wa)))
    for k in range(n_iters):
        zs[k + 1] = np.tanh(wa @ zs[k] + c)
    sig = tanh_deriv(zs[1:])
    ts = np.empty_like(sig)
    zbar = y
    for k in range(n_iters - 1, -1, -1):
        ts[k] = sig[k] * zbar
        zbar = ts[k] @ wa
    t_sum = ts.sum(axis=0)
    block.W.add_grad(ts.T @ zs[:-1])
    block.U.add_grad(np.outer(t_sum, x))
    block.b.add_grad(t_sum)
    return t_sum @ ua
