"""Property tests of the batch fixed-point solve and its per-row shifts under fuzzed shapes.

A Picard iterate z_k of a rho-contraction with residual r_k lies within
r_k / (1 - rho) of every later iterate, so a row solved inside a stack,
which stops only once its worst row is within tol, is within tol / (1 - rho)
of the same row solved on its own. A row that shifts one entry of a weight
with ||W||_2 <= kappa by eps runs the map of W + eps E_ij, whose rate is at
most rho = kappa + |eps|.

The driver screens each evaluation with one dot product and shifts only
the rows whose eps is nonzero; on any stack, start, shift, Anderson depth,
iteration cap and tolerance it must return what the plain loop in
`reference.exact_solve` returns, byte for byte, or raise the same error.

A prompt block skips the SVD of its state weight when ||W_0||_2 from its
last SVD plus ||W - W_0||_F proves the projection would not clip, so its
weights must match the projection's, byte for byte, on any sequence of
weights.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lionprompt import deq
from lionprompt.deq import SolverConfig, estimate_spectral_norm, solve_forward_batch
from lionprompt.errors import DivergenceError
from lionprompt.model import PromptBlock
from lionprompt.numerics import Param
from reference import exact_solve, make_cell

CFG = SolverConfig(tol=1e-10, max_iters=2000)

shapes = st.fixed_dictionaries({
    "h": st.integers(1, 12),
    "d": st.integers(1, 8),
    "n": st.integers(1, 9),
    "kappa": st.floats(0.3, 0.9),
    "seed": st.integers(0, 2**32 - 1),
})


def draw_stack(h, d, n, kappa, seed):
    """A projected cell, n inputs, and a shift (i, j, eps) per row, |eps| <= (1 - kappa) / 2."""
    rng = np.random.default_rng(seed)
    cell = make_cell(W=rng.normal(size=(h, h)),
                     U=rng.normal(size=(h, d)),
                     b=rng.normal(size=h),
                     kappa=kappa)
    cell.renormalize()
    xs = rng.normal(size=(n, d)) * 2.0
    shift = (rng.integers(0, h, size=n), rng.integers(0, h, size=n),
             rng.uniform(-1.0, 1.0, size=n) * (1.0 - kappa) / 2.0)
    return cell, xs, shift


@settings(max_examples=60, deadline=None)
@given(shapes, st.booleans())
def test_every_stacked_row_is_near_its_own_single_row_solve(shape, shifted):
    cell, xs, (ii, jj, eps) = draw_stack(**shape)
    eps = eps * shifted
    rep = solve_forward_batch(cell, xs, CFG, shift=(ii, jj, eps))
    assert rep.converged and rep.z_star.shape == (shape["n"], shape["h"])
    for x, z, i, j, e in zip(xs, rep.z_star, ii, jj, eps):
        w = cell.W.value.copy()
        w[i, j] += e
        single = solve_forward_batch(make_cell(w, cell.U.value, cell.b.value, cell.kappa),
                                     x[None], CFG)
        assert single.converged
        bound = CFG.tol / (1.0 - shape["kappa"] - abs(e))
        assert np.linalg.norm(z - single.z_star[0]) <= bound


@settings(max_examples=60, deadline=None)
@given(shapes)
def test_a_stack_of_equal_weights_matches_the_shared_weight_batch(shape):
    cell, xs, (ii, jj, _) = draw_stack(**shape)
    batch = solve_forward_batch(cell, xs, CFG)
    stack = solve_forward_batch(cell, xs, CFG, shift=(ii, jj, np.zeros(shape["n"])))
    assert batch.converged
    assert stack.z_star.tobytes() == batch.z_star.tobytes()
    assert (stack.iterations, stack.residual, stack.converged) == \
        (batch.iterations, batch.residual, batch.converged)


def outcome(solve, w, c, z0, cfg, shift=None):
    """(point bytes, evaluations, residual, converged) of a driver, or its error message."""
    try:
        point, k, resid, converged = solve(w, c, z0, cfg, shift)
    except DivergenceError as err:
        return str(err)
    return point.tobytes(), k, resid, converged


drivers = st.fixed_dictionaries({
    "n": st.integers(1, 40),
    "h": st.integers(1, 16),
    "norm": st.floats(0.0, 1.5),    # ||W||_2; above 1 a row may never converge
    "start": st.sampled_from(["cold", "warm", "nan", "fortran"]),
    "shift": st.sampled_from([None, "some", "all"]),
    "depth": st.integers(0, 5),
    "max_iters": st.integers(1, 60),
    "seed": st.integers(0, 2**32 - 1),
})
# converges to residual exactly 0 at evaluation 30, under a tol whose square is subnormal
SUBNORMAL_EXAMPLE = {"n": 7, "h": 5, "norm": 0.3, "start": "warm", "shift": "some",
                     "depth": 0, "max_iters": 60, "seed": 0}


@settings(max_examples=150, deadline=None)
@given(drivers, st.floats(-300.0, 1.0).map(lambda e: 10.0 ** e))
@example(SUBNORMAL_EXAMPLE, 1e-158)
@example(SUBNORMAL_EXAMPLE, 1e-160)
@example({**SUBNORMAL_EXAMPLE, "start": "fortran", "shift": "all"}, 1e-10)
def test_the_screened_driver_returns_what_the_exact_loop_returns(p, tol):
    rng = np.random.default_rng(p["seed"])
    n, h = p["n"], p["h"]
    w = rng.normal(size=(h, h))
    w *= p["norm"] / max(estimate_spectral_norm(w), 1e-300)
    c = rng.normal(size=(n, h)) * 2.0
    z0 = np.zeros((n, h)) if p["start"] == "cold" else rng.uniform(-2.0, 2.0, size=(n, h))
    if p["start"] == "nan":
        z0[rng.integers(n), rng.integers(h)] = np.nan
    if p["start"] == "fortran":  # a column-major start, as `z.T` of an (h, n) array is;
        z0 = np.asfortranarray(z0)  # the driver iterates a row-major copy of it
    shift = None
    if p["shift"] is not None:
        # eps 0, -0.0 or a move of up to 0.05 per row; "all" moves every row
        eps = rng.uniform(-0.05, 0.05, size=n)
        if p["shift"] == "some":
            eps = np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0], size=n), eps)
        shift = (rng.integers(0, h, size=n), rng.integers(0, h, size=n), eps)
    cfg = SolverConfig(tol=tol, max_iters=p["max_iters"], anderson_depth=p["depth"])
    assert outcome(deq._solve, w, c, z0, cfg, shift) == \
        outcome(exact_solve, w, c, np.ascontiguousarray(z0), cfg, shift)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 16), st.integers(1, 40),
       st.one_of(st.sampled_from([1.0, 1e-150, 1e-156, 1e-160, 1e-163, 1e-200, 1e-300]),
                 st.floats(-170.0, -150.0).map(lambda e: 10.0 ** e)),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_a_tolerance_equal_to_the_residual_stops_where_the_exact_loop_does(n, h, k, scale, up,
                                                                           seed):
    # n equal rows put the total squared residual at n times the worst row's
    # square, on the screen's bound when tol is the residual at evaluation k (or
    # the next float up). Below a scale of about 1e-154 tol^2 is subnormal, and
    # below about 1.5e-162 it rounds to 0
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(h, h))
    w *= 0.9 / max(estimate_spectral_norm(w), 1e-300)
    c, z0 = np.tile(rng.normal(size=h) * scale, (n, 1)), np.zeros((n, h))
    resid = exact_solve(w, c, z0, SolverConfig(tol=1e-300, max_iters=k))[2]
    if resid > 0.0:
        cfg = SolverConfig(tol=np.nextafter(resid, np.inf) if up else resid, max_iters=k + 5)
        exact = outcome(exact_solve, w, c, z0, cfg)
        assert exact[3] and exact[1] <= k
        assert outcome(deq._solve, w, c, z0, cfg) == exact


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.floats(0.3, 0.9), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["step", "jump", "edge", "restore"]), min_size=1, max_size=30))
def test_a_block_projects_every_weight_exactly_as_the_projection_does(h, kappa, seed, moves):
    rng = np.random.default_rng(seed)
    blk = PromptBlock("p", Param("p.W", np.zeros((h, h))), Param("p.U", np.zeros((h, 1))),
                      Param("p.b", np.zeros(h)), kappa=kappa)
    seen = [blk.W.value]
    for move in moves:
        w = blk.W.value
        if move == "step":      # an optimizer-sized step from the current weight
            w = w + rng.normal(size=(h, h)) * 10.0 ** rng.uniform(-6, -2)
        elif move == "jump":    # anywhere from well inside the ball to well outside it
            w = rng.normal(size=(h, h)) * rng.uniform(0.0, 2.0) / np.sqrt(h)
        elif move == "edge":    # within 1e-8 to 1e-12 (relative) of the ball's edge, either side
            sigma = estimate_spectral_norm(w)
            if sigma > 0.0:
                w = w * (kappa * (1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-12, -8)) / sigma)
        else:                   # back to an earlier weight
            w = seen[rng.integers(len(seen))]
        blk.W.value = w
        sigma = estimate_spectral_norm(blk.W.value)
        expected = blk.W.value * (kappa / sigma) if sigma > kappa else blk.W.value
        blk.renormalize()
        assert blk.W.value.tobytes() == expected.tobytes()
        assert estimate_spectral_norm(blk.W.value) <= kappa * (1.0 + 1e-12)
        seen.append(blk.W.value)
