"""Fixed-point solver and implicit-gradient checks for the equilibrium cell."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from lionprompt import deq
from lionprompt.deq import (
    PromptBlock,
    SolverConfig,
    estimate_spectral_norm,
    solve_adjoint_batch,
    solve_forward_batch,
    unrolled_vjp,
)
from lionprompt.errors import DivergenceError, ShapeMismatchError
from lionprompt.numerics import rel_error
from lionprompt.rng import substream
from reference import (cell_forward, dense_adjoint, finite_diff_grad, make_cell,
                       newton_fixed_point, unrolled_vjp_every_step, vjp_grads)


def random_cell(seed, h=6, d=4, kappa=0.9):
    rng = substream(seed, "cell")
    cell = make_cell(W=rng.normal(size=(h, h)),
                     U=rng.normal(size=(h, d)),
                     b=rng.normal(size=h) * 0.1,
                     kappa=kappa)
    cell.renormalize()
    return cell


def scalar_cell(w, u=1.0, b=0.0):
    return make_cell(W=np.array([[w]]), U=np.array([[u]]), b=np.array([b]), kappa=0.9)


def solve_adjoint(cell, z, x, y):
    """The adjoint solve of one row, as a one-row batch."""
    o, _ = solve_adjoint_batch(cell, z[None, :], x[None, :], y[None, :])
    return o[0]


# --- cell body and projection ----------------------------------------------

def test_cell_constructor_validates():
    with pytest.raises(ShapeMismatchError):
        make_cell(W=np.zeros((2, 3)), U=np.zeros((2, 2)), b=np.zeros(2))
    with pytest.raises(ValueError):
        make_cell(W=np.zeros((2, 2)), U=np.zeros((2, 2)),
                  b=np.zeros(2), kappa=1.0)


def test_cell_forward_state_independent_when_w_zero():
    rng = substream(1, "w0")
    cell = make_cell(W=np.zeros((3, 3)), U=rng.normal(size=(3, 2)), b=rng.normal(size=3))
    x = rng.normal(size=2)
    expected = np.tanh(cell.U.value @ x + cell.b.value)
    for z in (np.zeros(3), rng.normal(size=3)):
        assert np.array_equal(cell_forward(cell, z, x), expected)


def test_cell_forward_scalar_tanh():
    cell = scalar_cell(0.5, u=0.0, b=1.0)
    assert np.array_equal(cell_forward(cell, np.array([3.0]), np.array([0.0])), np.tanh([2.5]))


def test_cell_forward_tanh_zero():
    cell = make_cell(W=np.eye(2) * 0.5, U=np.zeros((2, 2)),
                     b=np.zeros(2))
    assert np.array_equal(cell_forward(cell, np.zeros(2), np.zeros(2)), np.zeros(2))


def test_renormalize_diagonal_exact():
    cell = make_cell(W=np.diag([2.0, 1.0]), U=np.zeros((2, 2)),
                     b=np.zeros(2), kappa=0.9)
    cell.renormalize()
    eff = cell.W.value
    assert np.max(np.abs(eff - np.diag([0.9, 0.45]))) <= 1e-12


def test_renormalize_inside_ball_unchanged():
    w = np.diag([0.5, 0.25])
    cell = make_cell(W=w, U=np.zeros((2, 2)), b=np.zeros(2), kappa=0.9)
    cell.renormalize()
    assert np.array_equal(cell.W.value, w)


def test_renormalize_zero_matrix_unchanged():
    cell = make_cell(W=np.zeros((3, 3)), U=np.zeros((3, 1)),
                     b=np.zeros(3))
    w = cell.W.value
    cell.renormalize()
    assert np.array_equal(cell.W.value, w)


def test_renormalize_oracle_reestimate():
    for seed in range(10):
        rng = substream(seed, "spn")
        w = rng.normal(size=(8, 8)) * 2.0
        cell = make_cell(W=w, U=np.zeros((8, 2)), b=np.zeros(8), kappa=0.9)
        cell.renormalize()
        eff = cell.W.value
        assert estimate_spectral_norm(eff) <= 0.9 + 1e-6
        # cross-check the norm against a dense SVD
        assert float(np.linalg.svd(eff, compute_uv=False)[0]) <= 0.9 + 1e-6


def test_renormalize_runs_the_svd_again_when_the_bound_sits_inside_its_margin(monkeypatch):
    # ||W||_2 is kappa (1 - 1e-10): inside the ball, but too close to its edge for
    # the bound sigma_0 + ||W - W_0||_F to rule out a clip, even with W unchanged
    sigma = 0.9 * (1.0 - 1e-10)
    w = np.diag([sigma, 0.5 * sigma, 0.25 * sigma])
    cell = make_cell(W=w, U=np.zeros((3, 1)), b=np.zeros(3), kappa=0.9)
    calls = []
    monkeypatch.setattr(deq, "estimate_spectral_norm",
                        lambda m: calls.append(m) or estimate_spectral_norm(m))
    cell.renormalize()
    assert len(calls) == 1 and cell._svd[0] == sigma
    cell.renormalize()
    assert len(calls) == 2
    assert np.array_equal(cell.W.value, w)


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
            cell = make_cell(W=rng.normal(size=(h, h)) * 2.0,
                             U=np.zeros((h, 1)), b=np.zeros(h), kappa=kappa)
            cell.renormalize()
            eff = cell.W.value
            assert float(np.linalg.svd(eff, compute_uv=False)[0]) <= kappa * (1.0 + 1e-12)


def test_contraction_inherited_from_normalized_weight():
    cell = random_cell(42, h=8, d=3)
    rng = substream(43, "pairs")
    x = rng.normal(size=3)
    for _ in range(50):
        z1 = rng.normal(size=8)
        z2 = rng.normal(size=8)
        lhs = np.linalg.norm(cell_forward(cell, z1, x) - cell_forward(cell, z2, x))
        rhs = cell.kappa * np.linalg.norm(z1 - z2)
        assert lhs <= rhs + 1e-12


# --- forward solve ----------------------------------------------------------

def test_solve_scalar_geometric_series():
    # z = tanh(z / 2 + 1) has slope at most 1/2, so each Picard residual at most halves
    cell = scalar_cell(0.5, u=0.0, b=1.0)
    x = np.array([[0.0]])
    rep = solve_forward_batch(cell, x, SolverConfig(tol=1e-10))
    assert rep.converged
    assert abs(rep.z_star.item() - newton_fixed_point(cell, x[0]).item()) <= 1e-10
    residuals = [solve_forward_batch(cell, x, SolverConfig(tol=1e-10, max_iters=k)).residual
                 for k in range(1, rep.iterations + 1)]
    assert all(b <= 0.5 * a for a, b in zip(residuals, residuals[1:]))


def test_solve_matches_the_newton_reference():
    cell = random_cell(7, h=6, d=4)
    rng = substream(8, "x")
    x = rng.normal(size=4)
    rep = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-12))
    assert rep.converged
    assert rel_error(rep.z_star[0], newton_fixed_point(cell, x)) <= 1e-10


def test_solve_tanh_converges_within_budget():
    for seed in range(5):
        cell = random_cell(seed, h=10, d=5)
        x = substream(seed, "input").normal(size=5)
        rep = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-8, max_iters=500))
        assert rep.converged and rep.iterations <= 500
        assert rep.residual <= 1e-8
        # oracle: a much longer plain-Picard run lands on the same point
        deep = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-15, max_iters=5000,
                                                               anderson_depth=0))
        assert np.linalg.norm(rep.z_star - deep.z_star) <= 1e-7


def test_solve_residual_belongs_to_returned_point():
    cell = random_cell(3, h=6, d=4)
    x = substream(4, "x").normal(size=4)
    rep = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-9))
    fz = cell_forward(cell, rep.z_star[0], x)
    assert abs(np.linalg.norm(fz - rep.z_star[0]) - rep.residual) <= 1e-15


def test_solve_reports_nonconvergence_without_raising():
    cell = random_cell(5)
    x = substream(6, "x").normal(size=4)
    rep = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-30, max_iters=10))
    assert not rep.converged
    assert rep.residual > 1e-30
    assert rep.iterations == 10


def test_certified_returns_a_converged_point_and_names_a_short_solve():
    cell = random_cell(5)
    x = substream(6, "x").normal(size=4)
    rep = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-10))
    assert rep.converged and rep.certified(1e-10) is rep.z_star
    short = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-30, max_iters=10))
    message = (f"forward solve stopped at residual {short.residual:.3e} "
               "after 10 evaluations (tol 1.0e-30)")
    with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
        short.certified(1e-30)


def test_solve_divergence_raises():
    cell = random_cell(9, h=3, d=2)
    x = np.array([[1.0, np.nan]])
    for depth in (0, 5):
        with pytest.raises(DivergenceError, match="non-finite iterate at evaluation 1"):
            solve_forward_batch(cell, x, SolverConfig(tol=1e-8, anderson_depth=depth))


def test_uniqueness_probe_five_starts():
    cell = random_cell(11, h=8, d=4)
    x = substream(12, "x").normal(size=4)
    cfg = SolverConfig(tol=1e-8)
    rng = substream(13, "z0")
    points = []
    for i in range(5):
        z0 = np.zeros(8) if i == 0 else rng.normal(size=8) * 3.0
        rep = solve_forward_batch(cell, x[None], cfg, z0_rows=z0[None])
        assert rep.converged
        points.append(rep.z_star[0])
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(points[i] - points[j]) <= 10 * cfg.tol


def test_anderson_beats_picard_on_suite():
    wins = 0
    for seed in range(20):
        cell = random_cell(100 + seed, h=12, d=6)
        x = substream(200 + seed, "x").normal(size=6)
        and_rep = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-8, anderson_depth=5))
        pic_rep = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-8, anderson_depth=0))
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
        single = solve_forward_batch(cell, xs[i][None], SolverConfig(tol=1e-11))
        assert np.linalg.norm(rep.z_star[i] - single.z_star[0]) <= 1e-9


@pytest.mark.parametrize("depth", [0, 5])
def test_batch_residual_is_the_worst_row(depth):
    cell = random_cell(23, h=8, d=4)
    xs = substream(24, "batch").normal(size=(60, 4)) * 2.0
    cfg = SolverConfig(tol=1e-9, anderson_depth=depth)
    rep = solve_forward_batch(cell, xs, cfg)
    assert rep.converged
    rows = np.array([np.linalg.norm(cell_forward(cell, z, x) - z)
                     for z, x in zip(rep.z_star, xs)])
    assert abs(rep.residual - rows.max()) <= 1e-15
    assert np.all(rows <= cfg.tol)
    # it stops at the first certified iterate: one evaluation fewer is not enough
    short = solve_forward_batch(cell, xs, SolverConfig(tol=1e-9, anderson_depth=depth,
                                                       max_iters=rep.iterations - 1))
    assert not short.converged and short.residual > cfg.tol


@pytest.mark.parametrize("depth", [0, 5])
def test_warm_started_batch_lands_within_the_certified_distance_of_the_cold_solve(depth):
    cell = random_cell(41, h=8, d=4)
    xs = substream(42, "warm").normal(size=(20, 4))
    exact = solve_forward_batch(cell, xs, SolverConfig(tol=1e-14, anderson_depth=depth))
    cfg = SolverConfig(tol=1e-8, anderson_depth=depth)
    cold = solve_forward_batch(cell, xs, cfg)
    noise = substream(43, "warm-start").normal(size=exact.z_star.shape)
    for start in (exact.z_star + 1e-3 * noise, 3.0 * noise):
        before = start.copy()
        warm = solve_forward_batch(cell, xs, cfg, z0_rows=start)
        assert warm.converged and warm.residual <= cfg.tol
        # a row with residual r lies within r / (1 - kappa) of its fixed point
        dist = np.linalg.norm(warm.z_star - exact.z_star, axis=1)
        assert np.all(dist <= (cfg.tol + exact.residual) / (1.0 - cell.kappa))
        assert np.array_equal(start, before)
    assert solve_forward_batch(cell, xs, cfg, z0_rows=exact.z_star + 1e-3 * noise
                               ).iterations < cold.iterations
    # a start at the answer is certified by its first evaluation
    assert solve_forward_batch(cell, xs, cfg, z0_rows=cold.z_star).iterations == 1


def test_batch_start_of_the_wrong_shape_raises():
    cell = random_cell(44, h=5, d=3)
    xs = np.zeros((4, 3))
    for bad in (np.zeros((4, 4)), np.zeros((3, 5)), np.zeros(5), np.zeros((1, 4, 5))):
        with pytest.raises(ShapeMismatchError, match="start shape"):
            solve_forward_batch(cell, xs, z0_rows=bad)


@pytest.mark.parametrize("depth", [0, 5])
def test_a_returned_fixed_point_survives_the_next_solve(depth):
    cell = random_cell(45, h=6, d=4)
    rng = substream(46, "reuse")
    cfg = SolverConfig(tol=1e-10, anderson_depth=depth)
    first = solve_forward_batch(cell, rng.normal(size=(9, 4)), cfg)
    kept = first.z_star.copy()
    second = solve_forward_batch(cell, rng.normal(size=(9, 4)), cfg, z0_rows=first.z_star)
    solve_forward_batch(cell, rng.normal(size=(9, 4)), cfg)
    assert np.array_equal(first.z_star, kept)
    assert not np.shares_memory(first.z_star, second.z_star)


def test_stack_solve_validates_shapes():
    # the gradient cross-checks' stack: identity input weight, so each row is its input term
    cell = make_cell(W=np.zeros((4, 4)), U=np.eye(4), b=np.zeros(4))
    c = np.zeros((3, 4))
    # one weight per row is not a form a cell takes
    with pytest.raises(ShapeMismatchError):
        make_cell(W=np.zeros((3, 4, 4)), U=np.eye(4), b=np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        solve_forward_batch(cell, np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        solve_forward_batch(cell, np.zeros((3, 5)))
    ok = (np.zeros(3, dtype=int), np.zeros(3, dtype=int), np.zeros(3))
    assert solve_forward_batch(cell, c, None, shift=ok).converged
    with pytest.raises(ShapeMismatchError, match="shift"):
        solve_forward_batch(cell, c, None, shift=(ok[0], ok[1], np.zeros(2)))
    with pytest.raises(ShapeMismatchError, match="shift"):
        solve_forward_batch(cell, c, None, shift=(np.array([0, 4, 1]), ok[1], ok[2]))
    with pytest.raises(ShapeMismatchError, match="shift"):
        solve_forward_batch(cell, c, None, shift=(ok[0], np.array([0, -1, 1]), ok[2]))
    with pytest.raises(ShapeMismatchError, match="shift"):
        solve_forward_batch(cell, c, None, shift=ok[:2])


# --- adjoint and implicit gradients ----------------------------------------

def test_adjoint_scalar_geometric():
    # at the origin tanh' = 1, so o = 1 + 1/2 + 1/4 + ... = 2
    cell = scalar_cell(0.5)
    o = solve_adjoint(cell, np.array([0.0]), np.array([0.0]), np.array([1.0]))
    assert abs(o.item() - 2.0) <= 1e-10


def test_adjoint_zero_jacobian_returns_cotangent():
    cell = make_cell(W=np.zeros((3, 3)), U=np.zeros((3, 2)), b=np.zeros(3))
    y = np.array([1.0, -2.0, 3.0])
    o = solve_adjoint(cell, substream(30, "z").normal(size=3), np.zeros(2), y)
    assert np.allclose(o, y, atol=1e-12)


def test_adjoint_matches_dense_solve():
    cell = random_cell(31, h=6, d=2)
    rng = substream(32, "adj")
    x = rng.normal(size=2)
    y = rng.normal(size=6)
    z = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-13)).z_star[0]
    o = solve_adjoint(cell, z, x, y)
    assert rel_error(o, dense_adjoint(cell, z, x, y)) <= 1e-12


def test_direct_adjoint_batch_residual_per_row():
    for seed in range(5):
        cell = random_cell(500 + seed, h=16, d=16, kappa=0.99)
        rng = substream(600 + seed, "adj-resid")
        xs = rng.normal(size=(40, 16)) * 3.0
        ys = rng.normal(size=(40, 16))
        zs = solve_forward_batch(cell, xs, SolverConfig(tol=1e-12)).z_star
        o, slopes = solve_adjoint_batch(cell, zs, xs, ys)
        a = zs @ cell.W.value.T + xs @ cell.U.value.T + cell.b.value
        s = 1.0 - np.tanh(a) ** 2
        assert np.max(np.abs(slopes - s)) <= 1e-15
        resid = np.linalg.norm(o - (s * o) @ cell.W.value - ys, axis=1)
        assert np.max(resid) <= 1e-12


def test_direct_adjoint_batch_matches_dense_oracle():
    cell = random_cell(35, h=8, d=3)
    rng = substream(36, "adj-oracle")
    xs = rng.normal(size=(6, 3))
    ys = rng.normal(size=(6, 8))
    zs = solve_forward_batch(cell, xs, SolverConfig(tol=1e-12)).z_star
    o, slopes = solve_adjoint_batch(cell, zs, xs, ys)
    for i in range(6):
        assert np.max(np.abs(slopes[i] - (1.0 - cell_forward(cell, zs[i], xs[i]) ** 2))) <= 1e-15
        assert rel_error(o[i], dense_adjoint(cell, zs[i], xs[i], ys[i])) <= 1e-12


def test_vjp_scalar_closed_form():
    w, u, b = 0.5, 1.5, 0.2
    cell = scalar_cell(w, u=u, b=b)
    cfg = SolverConfig(tol=1e-13)
    x = np.array([0.3])
    z = solve_forward_batch(cell, x[None], cfg).z_star
    zr = newton_fixed_point(cell, x).item()
    assert abs(z.item() - zr) <= 1e-12
    grad_x, grads = vjp_grads(PromptBlock.vjp, cell, x[None], z, np.array([[1.0]]))
    # z* = tanh(w z* + u x + b) gives d z*/d theta = s (d a/d theta) / (1 - s w), s = 1 - z*^2
    s = 1.0 - zr ** 2
    assert abs(grad_x.item() - s * u / (1 - s * w)) <= 1e-10
    assert abs(grads.W.item() - s * zr / (1 - s * w)) <= 1e-10
    assert abs(grads.U.item() - s * x.item() / (1 - s * w)) <= 1e-10
    assert abs(grads.b.item() - s / (1 - s * w)) <= 1e-10


def test_vjp_grad_x_matches_finite_differences():
    cell = random_cell(41, h=8, d=5)
    rng = substream(42, "fd")
    x = rng.normal(size=5)
    y = rng.normal(size=8)
    cfg = SolverConfig(tol=1e-13)
    z = solve_forward_batch(cell, x[None], cfg).z_star
    grad_x, _ = vjp_grads(PromptBlock.vjp, cell, x[None], z, y[None])

    def objective(t: np.ndarray) -> float:
        rep = solve_forward_batch(cell, t[None], cfg)
        return float(y @ rep.z_star[0])

    assert rel_error(grad_x, finite_diff_grad(objective, x)) <= 1e-5


def test_vjp_param_grads_match_finite_differences():
    cell = random_cell(43, h=6, d=3)
    rng = substream(44, "fdp")
    x = rng.normal(size=3)
    y = rng.normal(size=6)
    cfg = SolverConfig(tol=1e-13)
    z = solve_forward_batch(cell, x[None], cfg).z_star
    _, grads = vjp_grads(PromptBlock.vjp, cell, x[None], z, y[None])

    def obj_w(t: np.ndarray) -> float:
        c = make_cell(W=t, U=cell.U.value, b=cell.b.value, kappa=cell.kappa)
        return float(y @ solve_forward_batch(c, x[None], cfg).z_star[0])

    def obj_b(t: np.ndarray) -> float:
        c = make_cell(W=cell.W.value, U=cell.U.value, b=t, kappa=cell.kappa)
        return float(y @ solve_forward_batch(c, x[None], cfg).z_star[0])

    assert rel_error(grads.W, finite_diff_grad(obj_w, cell.W.value)) <= 1e-5
    assert rel_error(grads.b, finite_diff_grad(obj_b, cell.b.value)) <= 1e-5


def test_vjp_matches_unrolled_backprop():
    for seed in range(5):
        cell = random_cell(300 + seed, h=8, d=4)
        rng = substream(400 + seed, "unroll")
        x = rng.normal(size=4)
        y = rng.normal(size=8)
        cfg = SolverConfig(tol=1e-13)
        z = solve_forward_batch(cell, x[None], cfg).z_star
        gx_i, g_i = vjp_grads(PromptBlock.vjp, cell, x[None], z, y[None])
        gx_u, g_u = vjp_grads(unrolled_vjp, cell, x, y, n_iters=500)
        assert rel_error(gx_i, gx_u) <= 1e-5
        assert rel_error(g_i.W, g_u.W) <= 1e-5
        assert rel_error(g_i.U, g_u.U) <= 1e-5
        assert rel_error(g_i.b, g_u.b) <= 1e-5


def test_unrolled_vjp_matches_step_by_step_backprop():
    cell = random_cell(310, h=7, d=3)
    rng = substream(410, "unroll-loop")
    x, y = rng.normal(size=3), rng.normal(size=7)
    wa, ua = cell.W.value, cell.U.value
    c = ua @ x + cell.b.value
    zs = [np.zeros(7)]
    for _ in range(40):
        zs.append(np.tanh(wa @ zs[-1] + c))
    grad_w, grad_u = np.zeros((7, 7)), np.zeros((7, 3))
    grad_b, grad_x = np.zeros(7), np.zeros(3)
    zbar = y.copy()
    for k in range(39, -1, -1):
        a = wa @ zs[k] + c
        t = (1.0 - np.tanh(a) ** 2) * zbar
        grad_w += np.outer(t, zs[k])
        grad_u += np.outer(t, x)
        grad_b += t
        grad_x += ua.T @ t
        zbar = wa.T @ t
    gx, g = vjp_grads(unrolled_vjp, cell, x, y, n_iters=40)
    for got, want in ((gx, grad_x), (g.W, grad_w), (g.U, grad_u), (g.b, grad_b)):
        assert rel_error(got, want) <= 1e-12


@pytest.mark.parametrize("repeats", [True, False])
def test_unrolled_vjp_equals_the_loop_that_computes_every_step_bitwise(repeats):
    # W = 0 repeats from step 2 on (z = tanh(U x + b)), so the fill replaces 38 of
    # the 40 steps; the kappa-0.9 cell of the test above moves at every step
    cell = random_cell(310, h=7, d=3)
    if repeats:
        cell = make_cell(W=np.zeros((7, 7)), U=cell.U.value, b=cell.b.value)
    rng = substream(410, "unroll-loop")
    x, y = rng.normal(size=3), rng.normal(size=7)
    zs = [np.zeros(7)]
    for _ in range(40):
        zs.append(np.tanh(cell.W.value @ zs[-1] + cell.U.value @ x + cell.b.value))
    assert any(np.array_equal(a, b) for a, b in zip(zs, zs[1:])) == repeats
    gx, g = vjp_grads(unrolled_vjp, cell, x, y, n_iters=40)
    gx_ref, g_ref = vjp_grads(unrolled_vjp_every_step, cell, x, y, n_iters=40)
    for got, want in ((gx, gx_ref), (g.W, g_ref.W), (g.U, g_ref.U), (g.b, g_ref.b)):
        assert rel_error(got, want) == 0 and got.tobytes() == want.tobytes()


def test_batch_vjp_matches_per_row():
    cell = random_cell(51, h=6, d=4)
    rng = substream(52, "bvjp")
    xs = rng.normal(size=(4, 4))
    ys = rng.normal(size=(4, 6))
    cfg = SolverConfig(tol=1e-12)
    zrep = solve_forward_batch(cell, xs, cfg)
    _, g_b = vjp_grads(PromptBlock.vjp, cell, xs, zrep.z_star, ys)
    acc = SimpleNamespace(W=np.zeros((6, 6)), U=np.zeros((6, 4)),
                          b=np.zeros(6))
    for i in range(4):
        z = solve_forward_batch(cell, xs[i][None], cfg).z_star
        _, g = vjp_grads(PromptBlock.vjp, cell, xs[i][None], z, ys[i][None])
        acc = SimpleNamespace(W=acc.W + g.W,
                              U=acc.U + g.U,
                              b=acc.b + g.b)
    assert rel_error(g_b.W, acc.W) <= 1e-8
    assert rel_error(g_b.U, acc.U) <= 1e-8
    assert rel_error(g_b.b, acc.b) <= 1e-8


def test_adjoint_batch_matches_single():
    cell = random_cell(61, h=5, d=3)
    rng = substream(62, "abatch")
    xs = rng.normal(size=(3, 3))
    ys = rng.normal(size=(3, 5))
    cfg = SolverConfig(tol=1e-12)
    zs = solve_forward_batch(cell, xs, cfg).z_star
    o_b, _ = solve_adjoint_batch(cell, zs, xs, ys)
    for i in range(3):
        o = solve_adjoint(cell, zs[i], xs[i], ys[i])
        assert np.linalg.norm(o_b[i] - o) <= 1e-9
