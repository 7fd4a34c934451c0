"""Fixed-point solver and implicit-gradient checks for the equilibrium cell."""

import numpy as np
import pytest

from lionprompt.deq import (
    CellGrads,
    DeqCell,
    SolverConfig,
    deq_vjp,
    deq_vjp_batch,
    estimate_spectral_norm,
    solve_adjoint_batch,
    solve_forward,
    solve_forward_batch,
    solve_forward_stack,
    spectral_normalize,
    unrolled_vjp,
)
from lionprompt.errors import DivergenceError, ShapeMismatchError
from lionprompt.numerics import Tensor, rel_error
from lionprompt.rng import substream
from reference import cell_forward, finite_diff_grad


def random_cell(seed, h=6, d=4, activation="tanh", kappa=0.9):
    rng = substream(seed, "cell")
    cell = DeqCell(W=Tensor(rng.normal(size=(h, h))),
                   U=Tensor(rng.normal(size=(h, d))),
                   b=Tensor(rng.normal(size=h) * 0.1),
                   kappa=kappa, activation=activation)
    return spectral_normalize(cell)


def scalar_identity_cell(w, u=1.0, b=0.0):
    return DeqCell(W=Tensor([[w]]), U=Tensor([[u]]), b=Tensor([b]),
                   kappa=0.9, activation="identity")


def dense_forward_oracle(cell, x):
    """Closed-form fixed point of an identity-activation cell."""
    h = cell.state_dim
    rhs = cell.U.array @ x.array + cell.b.array
    return np.linalg.solve(np.eye(h) - cell.W.array, rhs)


def solve_adjoint(cell, z, x, y):
    """The adjoint solve of one row, as a one-row batch."""
    return Tensor(solve_adjoint_batch(cell, z.array[None, :], x.array[None, :],
                                      y.array[None, :])[0])


def dense_adjoint_oracle(cell, y):
    h = cell.state_dim
    return np.linalg.solve(np.eye(h) - cell.W.array.T, y.array)


# --- cell body and projection ----------------------------------------------

def test_cell_constructor_validates():
    with pytest.raises(ShapeMismatchError):
        DeqCell(W=Tensor(np.zeros((2, 3))), U=Tensor(np.zeros((2, 2))), b=Tensor(np.zeros(2)))
    with pytest.raises(ValueError):
        DeqCell(W=Tensor(np.zeros((2, 2))), U=Tensor(np.zeros((2, 2))),
                b=Tensor(np.zeros(2)), kappa=1.0)
    with pytest.raises(ValueError):
        DeqCell(W=Tensor(np.zeros((2, 2))), U=Tensor(np.zeros((2, 2))),
                b=Tensor(np.zeros(2)), activation="relu")


def test_cell_forward_state_independent_when_w_zero():
    rng = substream(1, "w0")
    cell = DeqCell(W=Tensor(np.zeros((3, 3))), U=Tensor(rng.normal(size=(3, 2))),
                   b=Tensor(rng.normal(size=3)), activation="identity")
    x = Tensor(rng.normal(size=2))
    expected = Tensor(cell.U.array @ x.array + cell.b.array)
    for z in (Tensor(np.zeros(3)), Tensor(rng.normal(size=3))):
        assert cell_forward(cell, z, x) == expected


def test_cell_forward_scalar_identity():
    cell = scalar_identity_cell(0.5, u=0.0, b=1.0)
    assert cell_forward(cell, Tensor([3.0]), Tensor([0.0])) == Tensor([2.5])


def test_cell_forward_tanh_zero():
    cell = DeqCell(W=Tensor(np.eye(2) * 0.5), U=Tensor(np.zeros((2, 2))),
                   b=Tensor(np.zeros(2)))
    assert cell_forward(cell, Tensor(np.zeros(2)), Tensor(np.zeros(2))) == Tensor(np.zeros(2))


def test_spectral_normalize_diagonal_exact():
    cell = DeqCell(W=Tensor(np.diag([2.0, 1.0])), U=Tensor(np.zeros((2, 2))),
                   b=Tensor(np.zeros(2)), kappa=0.9)
    eff = spectral_normalize(cell).W.array
    assert np.max(np.abs(eff - np.diag([0.9, 0.45]))) <= 1e-12


def test_spectral_normalize_inside_ball_unchanged():
    w = Tensor(np.diag([0.5, 0.25]))
    cell = DeqCell(W=w, U=Tensor(np.zeros((2, 2))), b=Tensor(np.zeros(2)), kappa=0.9)
    assert spectral_normalize(cell).W == w


def test_spectral_normalize_zero_matrix_unchanged():
    cell = DeqCell(W=Tensor(np.zeros((3, 3))), U=Tensor(np.zeros((3, 1))),
                   b=Tensor(np.zeros(3)))
    assert spectral_normalize(cell).W == cell.W


def test_spectral_normalize_oracle_reestimate():
    for seed in range(10):
        rng = substream(seed, "spn")
        w = Tensor(rng.normal(size=(8, 8)) * 2.0)
        cell = DeqCell(W=w, U=Tensor(np.zeros((8, 2))), b=Tensor(np.zeros(8)), kappa=0.9)
        eff = spectral_normalize(cell).W
        assert estimate_spectral_norm(eff) <= 0.9 + 1e-6
        # cross-check the norm against a dense SVD
        assert float(np.linalg.svd(eff.array, compute_uv=False)[0]) <= 0.9 + 1e-6


def test_spectral_norm_matches_svd():
    for seed in range(10):
        rng = substream(seed, "spn-exact")
        w = rng.normal(size=(12, 12)) * 3.0
        sigma = float(np.linalg.svd(w, compute_uv=False)[0])
        assert abs(estimate_spectral_norm(w) - sigma) <= 1e-13 * sigma
    assert estimate_spectral_norm(np.zeros((4, 4))) == 0.0


def test_projection_caps_operator_norm_at_kappa():
    # projected norms land on kappa itself, so allow rounding and nothing more
    for kappa in (0.5, 0.9, 0.99):
        for seed in range(10):
            rng = substream(seed, "spn-kappa")
            h = 4 + seed
            cell = DeqCell(W=Tensor(rng.normal(size=(h, h)) * 2.0),
                           U=Tensor(np.zeros((h, 1))), b=Tensor(np.zeros(h)), kappa=kappa)
            eff = spectral_normalize(cell).W.array
            assert float(np.linalg.svd(eff, compute_uv=False)[0]) <= kappa * (1.0 + 1e-12)


def test_contraction_inherited_from_normalized_weight():
    cell = random_cell(42, h=8, d=3)
    rng = substream(43, "pairs")
    x = Tensor(rng.normal(size=3))
    for _ in range(50):
        z1 = Tensor(rng.normal(size=8))
        z2 = Tensor(rng.normal(size=8))
        lhs = np.linalg.norm(cell_forward(cell, z1, x).array - cell_forward(cell, z2, x).array)
        rhs = cell.kappa * np.linalg.norm(z1.array - z2.array)
        assert lhs <= rhs + 1e-12


# --- forward solve ----------------------------------------------------------

def test_solve_scalar_geometric_series():
    cell = scalar_identity_cell(0.5, u=0.0, b=1.0)
    rep = solve_forward(cell, Tensor([0.0]), SolverConfig(tol=1e-10))
    assert rep.converged
    assert abs(rep.z_star.item() - 2.0) <= 1e-9


def test_solve_identity_cell_matches_dense_solve():
    cell = random_cell(7, h=6, d=4, activation="identity")
    rng = substream(8, "x")
    x = Tensor(rng.normal(size=4))
    rep = solve_forward(cell, x, SolverConfig(tol=1e-12))
    assert rep.converged
    assert rel_error(rep.z_star.array, dense_forward_oracle(cell, x)) <= 1e-10


def test_solve_tanh_converges_within_budget():
    for seed in range(5):
        cell = random_cell(seed, h=10, d=5)
        x = Tensor(substream(seed, "input").normal(size=5))
        rep = solve_forward(cell, x, SolverConfig(tol=1e-8, max_iters=500))
        assert rep.converged and rep.iterations <= 500
        assert rep.residual <= 1e-8
        # oracle: a much longer plain-Picard run lands on the same point
        deep = solve_forward(cell, x, SolverConfig(tol=1e-15, max_iters=5000,
                                                   anderson_depth=0))
        assert np.linalg.norm(rep.z_star.array - deep.z_star.array) <= 1e-7


def test_solve_residual_belongs_to_returned_point():
    cell = random_cell(3, h=6, d=4)
    x = Tensor(substream(4, "x").normal(size=4))
    rep = solve_forward(cell, x, SolverConfig(tol=1e-9))
    fz = cell_forward(cell, rep.z_star, x)
    assert abs(np.linalg.norm(fz.array - rep.z_star.array) - rep.residual) <= 1e-15


def test_solve_reports_nonconvergence_without_raising():
    cell = random_cell(5)
    x = Tensor(substream(6, "x").normal(size=4))
    rep = solve_forward(cell, x, SolverConfig(tol=1e-30, max_iters=10))
    assert not rep.converged
    assert rep.residual > 1e-30
    assert rep.iterations == 10


def test_solve_divergence_raises():
    cell = DeqCell(W=Tensor([[1e6]]), U=Tensor([[1.0]]), b=Tensor([0.0]),
                   activation="identity")
    with pytest.raises(DivergenceError):
        solve_forward(cell, Tensor([1.0]), SolverConfig(tol=1e-8, max_iters=500,
                                                        anderson_depth=0))


def test_uniqueness_probe_five_starts():
    cell = random_cell(11, h=8, d=4)
    x = Tensor(substream(12, "x").normal(size=4))
    cfg = SolverConfig(tol=1e-8)
    rng = substream(13, "z0")
    points = []
    for i in range(5):
        z0 = Tensor(np.zeros(8)) if i == 0 else Tensor(rng.normal(size=8) * 3.0)
        rep = solve_forward(cell, x, cfg, z0=z0)
        assert rep.converged
        points.append(rep.z_star.array)
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(points[i] - points[j]) <= 10 * cfg.tol


def test_anderson_beats_picard_on_suite():
    wins = 0
    for seed in range(20):
        cell = random_cell(100 + seed, h=12, d=6)
        x = Tensor(substream(200 + seed, "x").normal(size=6))
        and_rep = solve_forward(cell, x, SolverConfig(tol=1e-8, anderson_depth=5))
        pic_rep = solve_forward(cell, x, SolverConfig(tol=1e-8, anderson_depth=0))
        assert and_rep.converged and pic_rep.converged
        if and_rep.iterations < pic_rep.iterations:
            wins += 1
    assert wins >= 18


def test_batch_solve_matches_per_row():
    cell = random_cell(21, h=7, d=3)
    rng = substream(22, "batch")
    xs = rng.normal(size=(5, 3))
    rep = solve_forward_batch(cell, xs, SolverConfig(tol=1e-11))
    assert rep.converged
    assert rep.z_star.shape == (5, 7)
    for i in range(5):
        single = solve_forward(cell, Tensor(xs[i]), SolverConfig(tol=1e-11))
        assert np.linalg.norm(rep.z_star.array[i] - single.z_star.array) <= 1e-9


@pytest.mark.parametrize("depth", [0, 5])
def test_batch_residual_is_the_worst_row(depth):
    cell = random_cell(23, h=8, d=4)
    xs = substream(24, "batch").normal(size=(60, 4)) * 2.0
    cfg = SolverConfig(tol=1e-9, anderson_depth=depth)
    rep = solve_forward_batch(cell, xs, cfg)
    assert rep.converged
    rows = np.array([np.linalg.norm(cell_forward(cell, Tensor(z), Tensor(x)).array - z)
                     for z, x in zip(rep.z_star.array, xs)])
    assert abs(rep.residual - rows.max()) <= 1e-15
    assert np.all(rows <= cfg.tol)
    # it stops at the first certified iterate: one evaluation fewer is not enough
    short = solve_forward_batch(cell, xs, SolverConfig(tol=1e-9, anderson_depth=depth,
                                                       max_iters=rep.iterations - 1))
    assert not short.converged and short.residual > cfg.tol


@pytest.mark.parametrize("depth", [0, 5])
def test_single_solve_is_row_zero_of_a_one_row_batch(depth):
    cell = random_cell(25, h=9, d=5)
    rng = substream(26, "one-row")
    x, z0 = rng.normal(size=5), rng.normal(size=9)
    for cfg in (SolverConfig(tol=1e-12, anderson_depth=depth),
                SolverConfig(tol=1e-30, max_iters=7, anderson_depth=depth)):
        single = solve_forward(cell, Tensor(x), cfg, z0=Tensor(z0))
        batch = solve_forward_batch(cell, x[None, :], cfg, z0_rows=z0[None, :])
        assert single.z_star.array.tobytes() == batch.z_star.array[0].tobytes()
        assert (single.iterations, single.residual, single.converged) == \
            (batch.iterations, batch.residual, batch.converged)


def test_stack_solve_validates_shapes():
    c = np.zeros((3, 4))
    with pytest.raises(ShapeMismatchError):
        solve_forward_stack(np.zeros((4, 4, 4)), c, "tanh")
    with pytest.raises(ShapeMismatchError):
        solve_forward_stack(np.zeros((3, 4)), c, "tanh")
    with pytest.raises(ShapeMismatchError):
        solve_forward_stack(np.zeros((4, 4)), np.zeros(4), "tanh")
    with pytest.raises(ValueError):
        solve_forward_stack(np.zeros((4, 4)), c, "relu")


@pytest.mark.parametrize("depth", [0, 5])
def test_shared_weight_stack_is_the_batch_solve(depth):
    cell = random_cell(27, h=7, d=4)
    xs = substream(28, "stack").normal(size=(11, 4))
    cfg = SolverConfig(tol=1e-12, anderson_depth=depth)
    batch = solve_forward_batch(cell, xs, cfg)
    stack = solve_forward_stack(cell.W.array, xs @ cell.U.array.T + cell.b.array,
                                cell.activation, cfg)
    assert stack.z_star.array.tobytes() == batch.z_star.array.tobytes()
    assert (stack.iterations, stack.residual, stack.converged) == \
        (batch.iterations, batch.residual, batch.converged)


# --- adjoint and implicit gradients ----------------------------------------

def test_adjoint_scalar_geometric():
    cell = scalar_identity_cell(0.5)
    o = solve_adjoint(cell, Tensor([0.0]), Tensor([0.0]), Tensor([1.0]))
    assert abs(o.item() - 2.0) <= 1e-10


def test_adjoint_zero_jacobian_returns_cotangent():
    cell = DeqCell(W=Tensor(np.zeros((3, 3))), U=Tensor(np.zeros((3, 2))),
                   b=Tensor(np.zeros(3)), activation="identity")
    y = Tensor([1.0, -2.0, 3.0])
    o = solve_adjoint(cell, Tensor(np.zeros(3)), Tensor(np.zeros(2)), y)
    assert np.allclose(o.array, y.array, atol=1e-12)


def test_adjoint_matches_dense_solve():
    cell = random_cell(31, h=6, d=2, activation="identity")
    rng = substream(32, "adj")
    x = Tensor(rng.normal(size=2))
    y = Tensor(rng.normal(size=6))
    z = solve_forward(cell, x, SolverConfig(tol=1e-13)).z_star
    o = solve_adjoint(cell, z, x, y)
    assert rel_error(o.array, dense_adjoint_oracle(cell, y)) <= 1e-8


def test_direct_adjoint_batch_residual_per_row():
    for seed in range(5):
        cell = random_cell(500 + seed, h=16, d=16, kappa=0.99)
        rng = substream(600 + seed, "adj-resid")
        xs = rng.normal(size=(40, 16)) * 3.0
        ys = rng.normal(size=(40, 16))
        zs = solve_forward_batch(cell, xs, SolverConfig(tol=1e-12)).z_star.array
        o = solve_adjoint_batch(cell, zs, xs, ys)
        a = zs @ cell.W.array.T + xs @ cell.U.array.T + cell.b.array
        s = 1.0 - np.tanh(a) ** 2
        resid = np.linalg.norm(o - (s * o) @ cell.W.array - ys, axis=1)
        assert np.max(resid) <= 1e-12


def test_direct_adjoint_batch_matches_dense_oracle():
    cell = random_cell(35, h=8, d=3, activation="identity")
    rng = substream(36, "adj-oracle")
    xs = rng.normal(size=(6, 3))
    ys = rng.normal(size=(6, 8))
    zs = solve_forward_batch(cell, xs, SolverConfig(tol=1e-12)).z_star.array
    o = solve_adjoint_batch(cell, zs, xs, ys)
    for i in range(6):
        assert rel_error(o[i], dense_adjoint_oracle(cell, Tensor(ys[i]))) <= 1e-12


def test_vjp_scalar_closed_form():
    w, u = 0.5, 1.5
    cell = scalar_identity_cell(w, u=u)
    cfg = SolverConfig(tol=1e-13)
    x = Tensor([2.0])
    z = solve_forward(cell, x, cfg).z_star
    grad_x, grads = deq_vjp(cell, z, x, Tensor([1.0]))
    assert abs(grad_x.item() - u / (1 - w)) <= 1e-10
    # z* = ux/(1-w); d z*/dw = ux/(1-w)^2, d z*/du = x/(1-w), d z*/db = 1/(1-w)
    assert abs(grads.W.item() - u * 2.0 / (1 - w) ** 2) <= 1e-9
    assert abs(grads.U.item() - 2.0 / (1 - w)) <= 1e-9
    assert abs(grads.b.item() - 1.0 / (1 - w)) <= 1e-9


def test_vjp_grad_x_matches_finite_differences():
    cell = random_cell(41, h=8, d=5)
    rng = substream(42, "fd")
    x = Tensor(rng.normal(size=5))
    y = Tensor(rng.normal(size=8))
    cfg = SolverConfig(tol=1e-13)
    z = solve_forward(cell, x, cfg).z_star
    grad_x, _ = deq_vjp(cell, z, x, y)

    def objective(t: Tensor) -> float:
        rep = solve_forward(cell, t, cfg)
        return float(y.array @ rep.z_star.array)

    assert rel_error(grad_x, finite_diff_grad(objective, x)) <= 1e-5


def test_vjp_param_grads_match_finite_differences():
    cell = random_cell(43, h=6, d=3)
    rng = substream(44, "fdp")
    x = Tensor(rng.normal(size=3))
    y = Tensor(rng.normal(size=6))
    cfg = SolverConfig(tol=1e-13)
    z = solve_forward(cell, x, cfg).z_star
    _, grads = deq_vjp(cell, z, x, y)

    def obj_w(t: Tensor) -> float:
        c = DeqCell(W=t, U=cell.U, b=cell.b, kappa=cell.kappa, activation=cell.activation)
        return float(y.array @ solve_forward(c, x, cfg).z_star.array)

    def obj_b(t: Tensor) -> float:
        c = DeqCell(W=cell.W, U=cell.U, b=t, kappa=cell.kappa, activation=cell.activation)
        return float(y.array @ solve_forward(c, x, cfg).z_star.array)

    assert rel_error(grads.W, finite_diff_grad(obj_w, cell.W)) <= 1e-5
    assert rel_error(grads.b, finite_diff_grad(obj_b, cell.b)) <= 1e-5


def test_vjp_matches_unrolled_backprop():
    for seed in range(5):
        cell = random_cell(300 + seed, h=8, d=4)
        rng = substream(400 + seed, "unroll")
        x = Tensor(rng.normal(size=4))
        y = Tensor(rng.normal(size=8))
        cfg = SolverConfig(tol=1e-13)
        z = solve_forward(cell, x, cfg).z_star
        gx_i, g_i = deq_vjp(cell, z, x, y)
        gx_u, g_u = unrolled_vjp(cell, x, y, n_iters=500)
        assert rel_error(gx_i, gx_u) <= 1e-5
        assert rel_error(g_i.W, g_u.W) <= 1e-5
        assert rel_error(g_i.U, g_u.U) <= 1e-5
        assert rel_error(g_i.b, g_u.b) <= 1e-5


@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_unrolled_vjp_matches_step_by_step_backprop(activation):
    cell = random_cell(310, h=7, d=3, activation=activation)
    rng = substream(410, "unroll-loop")
    x, y = rng.normal(size=3), rng.normal(size=7)
    wa, ua = cell.W.array, cell.U.array
    c = ua @ x + cell.b.array
    zs = [np.zeros(7)]
    for _ in range(40):
        zs.append(np.tanh(wa @ zs[-1] + c) if activation == "tanh" else wa @ zs[-1] + c)
    grad_w, grad_u = np.zeros((7, 7)), np.zeros((7, 3))
    grad_b, grad_x = np.zeros(7), np.zeros(3)
    zbar = y.copy()
    for k in range(39, -1, -1):
        a = wa @ zs[k] + c
        t = (1.0 - np.tanh(a) ** 2 if activation == "tanh" else 1.0) * zbar
        grad_w += np.outer(t, zs[k])
        grad_u += np.outer(t, x)
        grad_b += t
        grad_x += ua.T @ t
        zbar = wa.T @ t
    gx, g = unrolled_vjp(cell, Tensor(x), Tensor(y), n_iters=40)
    for got, want in ((gx, grad_x), (g.W, grad_w), (g.U, grad_u), (g.b, grad_b)):
        assert rel_error(got.array, want) <= 1e-12


def test_batch_vjp_matches_per_row():
    cell = random_cell(51, h=6, d=4)
    rng = substream(52, "bvjp")
    xs = rng.normal(size=(4, 4))
    ys = rng.normal(size=(4, 6))
    cfg = SolverConfig(tol=1e-12)
    zrep = solve_forward_batch(cell, xs, cfg)
    gx_b, g_b = deq_vjp_batch(cell, zrep.z_star.array, xs, ys)
    acc = CellGrads(W=Tensor(np.zeros((6, 6))), U=Tensor(np.zeros((6, 4))),
                    b=Tensor(np.zeros(6)))
    for i in range(4):
        z = solve_forward(cell, Tensor(xs[i]), cfg).z_star
        gx, g = deq_vjp(cell, z, Tensor(xs[i]), Tensor(ys[i]))
        assert rel_error(gx_b[i], gx.array) <= 1e-8
        acc = CellGrads(W=Tensor(acc.W.array + g.W.array),
                        U=Tensor(acc.U.array + g.U.array),
                        b=Tensor(acc.b.array + g.b.array))
    assert rel_error(g_b.W, acc.W) <= 1e-8
    assert rel_error(g_b.U, acc.U) <= 1e-8
    assert rel_error(g_b.b, acc.b) <= 1e-8


def test_adjoint_batch_matches_single():
    cell = random_cell(61, h=5, d=3)
    rng = substream(62, "abatch")
    xs = rng.normal(size=(3, 3))
    ys = rng.normal(size=(3, 5))
    cfg = SolverConfig(tol=1e-12)
    zs = solve_forward_batch(cell, xs, cfg).z_star.array
    o_b = solve_adjoint_batch(cell, zs, xs, ys)
    for i in range(3):
        o = solve_adjoint(cell, Tensor(zs[i]), Tensor(xs[i]), Tensor(ys[i]))
        assert np.linalg.norm(o_b[i] - o.array) <= 1e-9
