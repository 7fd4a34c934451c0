"""Equilibrium prompt cell: fixed-point forward solve, implicit backward.

`PromptBlock` is the one cell type: the paper's implicit layer at each end
of the frozen backbone. Its body is a single pre-activation layer
f(z) = tanh(W z + U x + b) whose state weight `renormalize` rescales to
operator norm <= kappa < 1, so f is a contraction and the fixed point
z* = f(z*) exists and is unique. The forward pass finds z* by plain Picard
iteration (the default) or Anderson acceleration; the backward pass never
unrolls the solver. It solves the linear adjoint equation (I - J^T) o = y
at z* directly, one small LU per row, and then takes one ordinary backward
step of the cell body seeded with o. Because ||W||_2 <= kappa and
|tanh'| <= 1, that matrix is always invertible with condition number at
most (1 + kappa) / (1 - kappa).

Every forward solve runs through one driver on an (n, h) float64 stack of
rows that evolve independently, each with its input term c_i = U x_i + b.
The rows share one state weight and its product; the gradient cross-checks
shift one entry of W per row, an indexed add after that product on the rows
that move. The driver stops once the worst row residual max_i ||f(z_i) - z_i||
is within tol; `SolveReport.certified(tol)` returns z* only then, certifying
every row, and raises `DivergenceError` otherwise.
`solve_forward_batch` is the one forward solve and `PromptBlock.vjp` the
one implicit VJP, a single row being a one-row batch; training and the
gradient cross-checks both pull through that method, and the cross-checks
call the solve by its alias `solve_forward`.

`unrolled_vjp` is a deliberately brute-force reference implementation
(backpropagation through a fixed number of recorded Picard steps) kept for
gradient cross-checks; it shares no solver machinery with `PromptBlock.vjp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ShapeMismatchError, require, require_finite, within
from .numerics import Param, tanh_deriv


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver settings: the one home of their ranges and defaults.

    `anderson_depth=0` (the default) selects plain Picard, z <- f(z). A
    depth N >= 2 selects Anderson mixing over the last N residuals; depth 1
    keeps a single history entry, never mixes, and so also runs Picard.
    """

    tol: float = 1e-8
    max_iters: int = 500
    anderson_depth: int = 0

    def __post_init__(self):
        require(not self.tol <= 0.0, "tol", "must be positive")
        require_finite("tol", self.tol)     # no point is certified against NaN or inf
        require(self.max_iters >= 1, "max_iters", "must be >= 1")
        require(self.anderson_depth >= 0, "anderson_depth", "must be >= 0")


@dataclass(frozen=True, eq=False)
class SolveReport:
    z_star: np.ndarray
    iterations: int
    residual: float
    converged: bool

    def certified(self, tol: float) -> np.ndarray:
        """`z_star`, certified a fixed point within `tol`; else `DivergenceError`."""
        if not self.converged:
            raise DivergenceError(f"forward solve stopped at residual {self.residual:.3e} "
                                  f"after {self.iterations} evaluations (tol {tol:.1e})")
        return self.z_star


@dataclass
class PromptBlock:
    """One equilibrium cell z* = tanh(W z* + U x + b), solved on a batch.

    The parameters live in `Param`s, whose current values every solve and
    VJP reads, so an optimizer step immediately affects the next solve.
    `W` is stored post-projection: gradients are taken with respect to the
    stored (projected) weight, and training re-projects after each step.
    Shapes and kappa are checked once, here: a step, a projection and a
    checkpoint restore each keep every Param's shape.
    """

    name: str
    W: Param
    U: Param
    b: Param
    kappa: float = 0.9
    _svd: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        w, u, b = self.W.value, self.U.value, self.b.value
        h = w.shape[0] if w.ndim == 2 else -1
        if w.ndim != 2 or w.shape != (h, h):
            raise ShapeMismatchError(f"W must be square rank-2, got {w.shape}")
        if u.ndim != 2 or u.shape[0] != h:
            raise ShapeMismatchError(f"U must be {h}x*, got {u.shape}")
        if b.shape != (h,):
            raise ShapeMismatchError(f"b must have shape ({h},), got {b.shape}")
        check_kappa(self.kappa)

    def params(self) -> list[Param]:
        return [self.W, self.U, self.b]

    def renormalize(self) -> None:
        """Project the state weight onto operator norm <= kappa.

        W <- W * kappa / sigma when sigma = ||W||_2 > kappa; a weight already
        inside the ball (or identically zero) is left unchanged. The SVD runs
        only when a bound cannot rule out a clip: with sigma_0 = ||W_0||_2
        from the last SVD, ||W||_2 <= sigma_0 + ||W - W_0||_F, and at most
        kappa (1 - 1e-9) it proves the SVD would leave W unchanged. The
        margin is 10^4 times the rounding of sigma_0, of the Frobenius norm
        and of the SVD of W, each about h^2 2^-53 (3e-14 at h = 16).
        """
        w = self.W.value
        if self._svd is not None:
            sigma0, w0 = self._svd
            if sigma0 + np.linalg.norm(w - w0) <= self.kappa * (1.0 - 1e-9):
                return
        sigma = estimate_spectral_norm(w)
        self._svd = (sigma, w.copy())
        if sigma > self.kappa:
            self.W.value = w * (self.kappa / sigma)

    def solve(self, x_rows: np.ndarray, cfg: SolverConfig,
              start: np.ndarray | None = None) -> np.ndarray:
        """The fixed point z* of every row, starting from `start` or zero.

        Raises `DivergenceError`, naming the block, when the solve stops
        short of the tolerance or reaches a non-finite iterate.
        """
        with within(f"block {self.name}"):
            return solve_forward_batch(self, x_rows, cfg, z0_rows=start).certified(cfg.tol)

    def vjp(self, x_rows: np.ndarray, z_star: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
        """Pull row cotangents y on the fixed point `z_star` back through the
        cell: solve the adjoint equation for o, then take one backward step of
        the cell body seeded with o. Returns the input gradient per row; the
        W, U and b gradients, summed over the rows, go into the block's Params."""
        o, s = solve_adjoint_batch(self, z_star, x_rows, y_rows)
        t = s * o
        self.W.add_grad(t.T @ z_star)
        self.U.add_grad(t.T @ x_rows)
        self.b.add_grad(np.sum(t, axis=0))
        return t @ self.U.value


def check_kappa(kappa: float) -> None:
    """Refuse a contraction bound outside (0, 1), NaN included, with `ConfigError`."""
    require(0.0 < kappa < 1.0, "kappa", "must be strictly between 0 and 1")


def estimate_spectral_norm(w: np.ndarray) -> float:
    """Largest singular value of a float64 matrix, ||W||_2, from a dense SVD."""
    return float(np.linalg.norm(w, 2))


# --- forward ---------------------------------------------------------------

def _solve(w: np.ndarray, c: np.ndarray, z0_rows: np.ndarray, cfg: SolverConfig,
           shift=None) -> tuple[np.ndarray, int, float, bool]:
    """Fixed-point driver on an (n, h) stack of rows z_r = tanh(W_r z_r + c_r).

    `c` holds each row's input term U x_r + b. Row r runs the shared (h, h)
    `w`, shifted by eps_r in entry (i_r, j_r) if `shift` = (i, j, eps) is
    given: (W + eps E_ij) z = W z + eps z_j e_i, one indexed add on the rows
    whose eps is nonzero. Stops once the worst row residual
    max_r ||f(z_r) - z_r|| is <= tol, taken only where one dot product
    t = ||f(Z) - Z||_F^2 <= n tol^2 (1 + 1e-6) (the worst square is >=
    t / n; the margin covers t's rounding; a NaN t fails `bound < t`) and on
    the last evaluation. Returns (point, evaluations, worst-row residual at
    point, converged); the residual always belongs to the returned point, so
    `converged` iff every row is within tol. Picard steps z <- f(z). Anderson
    mixing (type II) extrapolates the whole stack over the last
    `anderson_depth` residuals with one least-squares combination, taking a
    Picard step while the history holds fewer than two entries. Iterates
    alternate between a copy of the start and one spare buffer, so the caller
    owns the returned point.
    """
    v = np.array(z0_rows, dtype=np.float64, order="C")
    g, r = np.empty_like(v), np.empty_like(v)
    tol, max_iters, depth = cfg.tol, cfg.max_iters, cfg.anderson_depth
    bound = len(v) * tol * tol * (1.0 + 1e-6)
    if shift is not None:  # flat positions in the (n, h) stack of the rows that move
        m = np.flatnonzero(shift[2])
        at, src, eps = m * len(w) + shift[0][m], m * len(w) + shift[1][m], shift[2][m]
    hist_r: list[np.ndarray] = []
    hist_g: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iters + 1):
            np.matmul(v, w.T, out=g)
            if shift is not None:
                g.reshape(-1)[at] += eps * v.reshape(-1)[src]
            g += c
            np.tanh(g, out=g)
            np.subtract(g, v, out=r)
            if not bound < np.vdot(r, r) or k == max_iters:
                resid = math.sqrt(np.einsum("ij,ij->i", r, r).max(initial=0.0))
                if not math.isfinite(resid) and not np.all(np.isfinite(g)):
                    raise DivergenceError(f"non-finite iterate at evaluation {k}")
                if resid <= tol or k == max_iters:
                    return v, k, resid, resid <= tol
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


def solve_forward_batch(block: PromptBlock, x_rows: np.ndarray, cfg: SolverConfig | None = None,
                        z0_rows: np.ndarray | None = None, shift=None) -> SolveReport:
    """Solve a batch of inputs (rows) as one stacked fixed-point problem.

    Row r starts from `z0_rows[r]` (copied, never written), else from zero,
    and runs W + eps_r E_{i_r j_r}, of operator norm < 1, if `shift` =
    (i, j, eps), three length-n arrays, is given. `z_star` holds one state
    per row; `residual` is the worst row's, so converged certifies every row.
    """
    x_rows = np.asarray(x_rows, dtype=np.float64)
    h, d = block.U.value.shape
    if x_rows.ndim != 2 or x_rows.shape[1] != d:
        raise ShapeMismatchError(f"inputs shape {x_rows.shape} != (n, {d})")
    n = x_rows.shape[0]
    if z0_rows is None:
        z0_rows = np.zeros((n, h))
    elif np.shape(z0_rows) != (n, h):
        raise ShapeMismatchError(f"start shape {np.shape(z0_rows)} != {(n, h)}")
    if shift is not None:
        shift = tuple(np.asarray(a) for a in shift)
        if ([a.shape for a in shift] != [(n,)] * 3
                or np.any([(a < 0) | (a >= h) for a in shift[:2]])):
            raise ShapeMismatchError(f"shift must be three ({n},) arrays with indices in "
                                     f"[0, {h}), got shapes {[a.shape for a in shift]}")
    return SolveReport(*_solve(block.W.value, x_rows @ block.U.value.T + block.b.value,
                               z0_rows, cfg or SolverConfig(), shift))


solve_forward = solve_forward_batch  # the same function; profiles count gradcheck's calls apart


# --- backward --------------------------------------------------------------

def solve_adjoint_batch(block: PromptBlock, z_rows: np.ndarray, x_rows: np.ndarray,
                        y_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise adjoint solves (I - W^T diag tanh'(a)) o = y, one LU per row.

    J is the state Jacobian of the cell body at (z*, x); for this body
    J^T o = W^T (tanh'(a*) * o). The equation is linear, so it is solved
    exactly rather than iterated. Returns (o, tanh'(a)) with a = W z + U x
    + b per row, so the cell's backward step reuses the slopes.
    """
    w = block.W.value
    a = z_rows @ w.T + x_rows @ block.U.value.T + block.b.value
    s = tanh_deriv(np.tanh(a))
    # (W^T diag s)_{jk} = W_kj s_k for every row at once, then I minus it in place; a
    # contiguous W^T keeps `mats` C-ordered, which halves the time of both steps
    mats = np.ascontiguousarray(w.T)[None, :, :] * s[:, None, :]
    np.subtract(np.eye(len(w)), mats, out=mats)
    return np.linalg.solve(mats, y_rows[:, :, None])[:, :, 0], s


def unrolled_vjp(block: PromptBlock, x: np.ndarray, y: np.ndarray, n_iters: int) -> np.ndarray:
    """Brute-force reference gradient: backprop through recorded Picard steps.

    Runs n_iters plain Picard iterations from z0 = 0, each written in place
    into the record (a repeat of its predecessor, checked every 8 steps,
    fills the rest), and reverse-accumulates y^T z_K through the whole chain
    in place. tanh' at step k is read off the recorded output z_{k+1} as
    1 - z^2, and the parameter gradients are sums over steps, taken as one
    product over the stacked per-step vectors, added to the block's Params
    as `PromptBlock.vjp` adds them; returns the input gradient. Exists to
    cross-check `PromptBlock.vjp`; shares nothing with the solver or the
    adjoint, and is never used in the training path.
    """
    wa, ua = block.W.value, block.U.value
    c = ua @ x + block.b.value
    zs = np.zeros((n_iters + 1, len(wa)))
    for k in range(n_iters):
        z = np.dot(wa, zs[k], out=zs[k + 1])
        np.tanh(np.add(z, c, out=z), out=z)
        if k % 8 == 7 and np.array_equal(z, zs[k]):
            zs[k + 2:] = z
            break
    sig = tanh_deriv(zs[1:])
    ts = np.empty_like(sig)
    zbar = np.array(y, dtype=np.float64)
    for s_k, t_k in zip(sig[::-1], ts[::-1]):
        np.multiply(s_k, zbar, out=t_k)
        np.dot(t_k, wa, out=zbar)
    t_sum = ts.sum(axis=0)
    block.W.add_grad(ts.T @ zs[:-1])
    block.U.add_grad(np.outer(t_sum, x))
    block.b.add_grad(t_sum)
    return t_sum @ ua
