"""Equilibrium prompt cell: fixed-point forward solve, implicit backward.

The cell body is a single pre-activation layer f(z) = sigma(W z + U x + b)
whose state weight is rescaled to operator norm <= kappa < 1, so f is a
contraction and the fixed point z* = f(z*) exists and is unique. The
forward pass finds z* by plain Picard iteration (the default) or Anderson
acceleration; the backward pass never unrolls the solver. It solves the
linear adjoint equation (I - J^T) o = y at z* directly, one small LU per
row, and then takes one ordinary backward step of the cell body seeded
with o. Because ||W||_2 <= kappa and |sigma'| <= 1, that matrix is always
invertible with condition number at most (1 + kappa) / (1 - kappa).

Every forward solve runs through one driver on an (n, h) float64 stack of
rows that evolve independently, each with its input term c_i = U x_i + b.
The rows share one state weight, or, for `solve_forward_stack`, may carry
one weight each (the gradient cross-checks perturb W one entry per row).
The driver stops once the worst row residual max_i ||f(z_i) - z_i|| is
within tol and reports that residual, so a converged solve certifies
every row individually. The single-row solve and VJP are the n = 1 case
of the batch code that training runs.

`unrolled_vjp` is a deliberately brute-force reference implementation
(backpropagation through a fixed number of recorded Picard steps) kept for
gradient cross-checks; it shares no solver machinery with `deq_vjp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, ShapeMismatchError
from .numerics import ACTIVATIONS, Tensor, activate, activate_deriv


@dataclass(frozen=True)
class DeqCell:
    """Parameters of one equilibrium cell f(z) = sigma(W z + U x + b).

    `W` is stored post-projection: `spectral_normalize` returns a cell whose
    stored state weight already has operator norm <= kappa, and every other
    operation uses it verbatim. Gradients are taken with respect to the
    stored (projected) weight; training re-projects after each step.
    """

    W: Tensor
    U: Tensor
    b: Tensor
    kappa: float = 0.9
    activation: str = "tanh"

    def __post_init__(self):
        h = self.W.shape[0] if self.W.rank == 2 else -1
        if self.W.rank != 2 or self.W.shape != (h, h):
            raise ShapeMismatchError(f"W must be square rank-2, got {self.W.shape}")
        if self.U.rank != 2 or self.U.shape[0] != h:
            raise ShapeMismatchError(f"U must be {h}x*, got {self.U.shape}")
        if self.b.shape != (h,):
            raise ShapeMismatchError(f"b must have shape ({h},), got {self.b.shape}")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (0,1), got {self.kappa}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def state_dim(self) -> int:
        return self.W.shape[0]

    @property
    def input_dim(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver settings.

    `anderson_depth=0` (the default) selects plain Picard, z <- f(z). A
    depth N >= 2 selects Anderson mixing over the last N residuals; depth 1
    keeps a single history entry, never mixes, and so also runs Picard.
    """

    tol: float = 1e-8
    max_iters: int = 500
    anderson_depth: int = 0

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.anderson_depth < 0:
            raise ValueError(f"anderson_depth must be >= 0, got {self.anderson_depth}")


@dataclass(frozen=True)
class SolveReport:
    z_star: Tensor
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class CellGrads:
    """Gradients for one cell's parameters, summed over the seeding batch."""

    W: Tensor
    U: Tensor
    b: Tensor


# --- spectral projection ---------------------------------------------------

def estimate_spectral_norm(w) -> float:
    """Largest singular value of a matrix, ||W||_2, from a dense SVD."""
    wa = w.array if isinstance(w, Tensor) else np.asarray(w, dtype=np.float64)
    if wa.ndim != 2:
        raise ShapeMismatchError(f"spectral norm needs a matrix, got shape {wa.shape}")
    return float(np.linalg.norm(wa, 2))


def spectral_normalize(cell: DeqCell) -> DeqCell:
    """Project the state weight onto operator norm <= kappa.

    Returns a cell with W <- W * min(1, kappa / sigma_max(W)); a weight
    already inside the ball (or identically zero) is returned unchanged.
    Idempotent up to rounding.
    """
    sigma = estimate_spectral_norm(cell.W)
    if sigma <= cell.kappa:
        return cell
    return replace(cell, W=Tensor(cell.W.array * (cell.kappa / sigma)))


# --- forward ---------------------------------------------------------------

def _solve(w: np.ndarray, c: np.ndarray, kind: str, z0_rows: np.ndarray,
           cfg: SolverConfig) -> tuple[np.ndarray, int, float, bool]:
    """Fixed-point driver on an (n, h) stack of rows z_i = sigma(W_i z_i + c_i).

    `w` is one shared (h, h) state weight or an (n, h, h) stack with one
    weight per row; `c` holds each row's input term U x_i + b. Stops once
    the worst row residual max_i ||f(z_i) - z_i|| is <= tol. Returns (point,
    evaluations, worst-row residual at point, converged); the residual
    always belongs to the returned point, so `converged` iff every row is
    within tol. Picard steps z <- f(z). Anderson mixing (type II)
    extrapolates the whole stack over the last `anderson_depth` residuals
    with one least-squares combination, taking a Picard step while the
    history holds fewer than two entries.
    """
    shared = w.ndim == 2
    v = np.array(z0_rows, dtype=np.float64)
    depth = cfg.anderson_depth
    hist_r: list[np.ndarray] = []
    hist_g: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iters + 1):
            wv = v @ w.T if shared else np.matmul(w, v[:, :, None])[:, :, 0]
            gv = activate(wv + c, kind)
            r = gv - v
            resid = math.sqrt(np.einsum("ij,ij->i", r, r).max(initial=0.0))
            if not math.isfinite(resid) and not np.all(np.isfinite(gv)):
                raise DivergenceError(f"non-finite iterate at evaluation {k}")
            if resid <= cfg.tol or k == cfg.max_iters:
                return v, k, resid, resid <= cfg.tol
            if depth >= 2:
                hist_r.append(r.reshape(-1))
                hist_g.append(gv.reshape(-1))
                if len(hist_r) > depth:
                    hist_r.pop(0)
                    hist_g.pop(0)
            if len(hist_r) < 2:
                v = gv
                continue
            res = np.stack(hist_r, axis=1)
            gamma, *_ = np.linalg.lstsq(res[:, 1:] - res[:, :-1], res[:, -1], rcond=None)
            gs = np.stack(hist_g, axis=1)
            v = gv - ((gs[:, 1:] - gs[:, :-1]) @ gamma).reshape(gv.shape)
    raise AssertionError("unreachable")


def solve_forward(cell: DeqCell, x: Tensor, cfg: SolverConfig | None = None,
                  z0: Tensor | None = None) -> SolveReport:
    """Find z* = f(z*) for one input; cell is assumed spectrally normalized.

    The n = 1 case of the driver behind `solve_forward_batch`, so it returns
    exactly row 0 of a one-row batch solve.
    """
    if x.shape != (cell.input_dim,):
        raise ShapeMismatchError(f"input shape {x.shape} != ({cell.input_dim},)")
    start = np.zeros(cell.state_dim) if z0 is None else z0.array
    if start.shape != (cell.state_dim,):
        raise ShapeMismatchError(f"z0 shape {start.shape} != ({cell.state_dim},)")
    c = x.array[None, :] @ cell.U.array.T + cell.b.array
    v, iters, resid, ok = _solve(cell.W.array, c, cell.activation, start[None, :],
                                 cfg or SolverConfig())
    return SolveReport(Tensor(v[0]), iters, resid, ok)


def solve_forward_batch(cell: DeqCell, x_rows: np.ndarray, cfg: SolverConfig | None = None,
                        z0_rows: np.ndarray | None = None) -> SolveReport:
    """Solve a batch of inputs (rows) as one stacked fixed-point problem.

    The report's `z_star` is rank-2 with one state per row, and `residual`
    is the worst row residual, so converged means every row is within tol.
    """
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2 or x_rows.shape[1] != cell.input_dim:
        raise ShapeMismatchError(f"inputs shape {x_rows.shape} != (n, {cell.input_dim})")
    shape = (x_rows.shape[0], cell.state_dim)
    start = np.zeros(shape) if z0_rows is None else np.asarray(z0_rows, dtype=np.float64)
    if start.shape != shape:
        raise ShapeMismatchError(f"z0 shape {start.shape} != {shape}")
    c = x_rows @ cell.U.array.T + cell.b.array
    v, iters, resid, ok = _solve(cell.W.array, c, cell.activation, start,
                                 cfg or SolverConfig())
    return SolveReport(Tensor(v), iters, resid, ok)


def solve_forward_stack(w: np.ndarray, c_rows: np.ndarray, activation: str,
                        cfg: SolverConfig | None = None) -> SolveReport:
    """Solve z_i = sigma(W_i z_i + c_i) for a stack of rows with given input terms.

    `c_rows` is (n, h), each row's U x_i + b already computed. `w` is one
    shared (h, h) state weight, the same product `solve_forward_batch`
    runs, or an (n, h, h) stack with one weight per row. Every weight is
    assumed to have operator norm < 1. Every row starts from zero. The
    report is that of a batch solve: `residual` is the worst row residual.
    """
    c_rows = np.asarray(c_rows, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if c_rows.ndim != 2:
        raise ShapeMismatchError(f"input terms must be (n, h), got {c_rows.shape}")
    n, h = c_rows.shape
    if w.shape not in ((h, h), (n, h, h)):
        raise ShapeMismatchError(
            f"state weight shape {w.shape} != ({h}, {h}) or ({n}, {h}, {h})")
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    v, iters, resid, ok = _solve(w, c_rows, activation, np.zeros((n, h)),
                                 cfg or SolverConfig())
    return SolveReport(Tensor(v), iters, resid, ok)


# --- backward --------------------------------------------------------------

def solve_adjoint_batch(cell: DeqCell, z_rows: np.ndarray, x_rows: np.ndarray,
                        y_rows: np.ndarray) -> np.ndarray:
    """Row-wise adjoint solves (I - W^T diag sigma'(a)) o = y, one LU per row.

    J is the state Jacobian of the cell body at (z*, x); for this body
    J^T o = W^T (sigma'(a*) * o). The equation is linear, so it is solved
    exactly rather than iterated.
    """
    h = cell.state_dim
    a = z_rows @ cell.W.array.T + x_rows @ cell.U.array.T + cell.b.array
    s = activate_deriv(activate(a, cell.activation), cell.activation)
    # (W^T diag s)_{jk} = W_kj s_k for every row at once
    mats = np.eye(h) - cell.W.array.T[None, :, :] * s[:, None, :]
    return np.linalg.solve(mats, y_rows[:, :, None])[:, :, 0]


def deq_vjp(cell: DeqCell, z_star: Tensor, x: Tensor, y: Tensor
            ) -> tuple[Tensor, CellGrads]:
    """Pull the cotangent y on z* back to the input and cell parameters.

    Implicit-function route: solve the adjoint equation for o, then take a
    single backward pass of the cell body seeded with o. Returns (grad_x,
    grads for W, U, b). The n = 1 case of `deq_vjp_batch`.
    """
    grad_x, grads = deq_vjp_batch(cell, z_star.array[None, :], x.array[None, :],
                                  y.array[None, :])
    return Tensor(grad_x[0]), grads


def deq_vjp_batch(cell: DeqCell, z_rows: np.ndarray, x_rows: np.ndarray,
                  y_rows: np.ndarray) -> tuple[np.ndarray, CellGrads]:
    """Batch form of `deq_vjp`; parameter gradients are summed over rows."""
    o = solve_adjoint_batch(cell, z_rows, x_rows, y_rows)
    a = z_rows @ cell.W.array.T + x_rows @ cell.U.array.T + cell.b.array
    t = activate_deriv(activate(a, cell.activation), cell.activation) * o
    grads = CellGrads(W=Tensor(t.T @ z_rows),
                      U=Tensor(t.T @ x_rows),
                      b=Tensor(np.sum(t, axis=0)))
    return t @ cell.U.array, grads


def unrolled_vjp(cell: DeqCell, x: Tensor, y: Tensor, n_iters: int = 500
                 ) -> tuple[Tensor, CellGrads]:
    """Brute-force reference gradient: backprop through recorded Picard steps.

    Runs n_iters plain Picard iterations from z0 = 0, records every iterate,
    and reverse-accumulates y^T z_K through the whole chain. sigma' at step
    k is read off the recorded output z_{k+1} (1 - z^2 for tanh), and the
    parameter gradients are sums over steps, taken as one product over the
    stacked per-step vectors. Exists to cross-check `deq_vjp`; linear in
    depth memory-wise, shares nothing with the solver or the adjoint, and
    is never used in the training path.
    """
    wa, ua = cell.W.array, cell.U.array
    c = ua @ x.array + cell.b.array
    zs = np.zeros((n_iters + 1, cell.state_dim))
    for k in range(n_iters):
        zs[k + 1] = activate(wa @ zs[k] + c, cell.activation)
    sig = activate_deriv(zs[1:], cell.activation)
    ts = np.empty_like(sig)
    zbar = y.array
    for k in range(n_iters - 1, -1, -1):
        ts[k] = sig[k] * zbar
        zbar = ts[k] @ wa
    t_sum = ts.sum(axis=0)
    return Tensor(t_sum @ ua), CellGrads(W=Tensor(ts.T @ zs[:-1]),
                                         U=Tensor(np.outer(t_sum, x.array)),
                                         b=Tensor(t_sum))
