"""Property tests of the batch fixed-point solve and its per-row shifts under fuzzed shapes.

A Picard iterate z_k of a rho-contraction with residual r_k lies within
r_k / (1 - rho) of every later iterate, so a row solved inside a stack,
which stops only once its worst row is within tol, is within tol / (1 - rho)
of the same row solved on its own. A row that shifts one entry of a weight
with ||W||_2 <= kappa by eps runs the map of W + eps E_ij, whose rate is at
most rho = kappa + |eps|.

A prompt block skips the SVD of its state weight when ||W_0||_2 from its
last SVD plus ||W - W_0||_F proves the projection would not clip, so its
weights must match the projection's, byte for byte, on any sequence of
weights.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lionprompt.deq import SolverConfig, estimate_spectral_norm, solve_forward_batch
from lionprompt.model import PromptBlock
from lionprompt.numerics import Param
from reference import make_cell

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
