"""Property tests of the stacked fixed-point solve under fuzzed shapes.

A Picard iterate z_k of a kappa-contraction with residual r_k lies within
r_k / (1 - kappa) of every later iterate, so a row solved inside a stack,
which stops only once its worst row is within tol, is within tol / (1 - kappa)
of the same row solved on its own.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lionprompt.deq import (
    DeqCell,
    SolverConfig,
    solve_forward,
    solve_forward_batch,
    solve_forward_stack,
    spectral_normalize,
)
from lionprompt.numerics import Tensor

CFG = SolverConfig(tol=1e-10, max_iters=2000)

shapes = st.fixed_dictionaries({
    "h": st.integers(1, 12),
    "d": st.integers(1, 8),
    "n": st.integers(1, 9),
    "kappa": st.floats(0.3, 0.9),
    "activation": st.sampled_from(["tanh", "identity"]),
    "seed": st.integers(0, 2**32 - 1),
})


def draw_cells(h, d, n, kappa, activation, seed):
    """n cells sharing U and b, each with its own projected W, plus n inputs."""
    rng = np.random.default_rng(seed)
    u, b = rng.normal(size=(h, d)), rng.normal(size=h)
    cells = [spectral_normalize(DeqCell(W=Tensor(rng.normal(size=(h, h))), U=Tensor(u),
                                        b=Tensor(b), kappa=kappa, activation=activation))
             for _ in range(n)]
    return cells, rng.normal(size=(n, d)) * 2.0


@settings(max_examples=60, deadline=None)
@given(shapes, st.booleans())
def test_every_stacked_row_is_near_its_own_single_row_solve(shape, per_row):
    cells, xs = draw_cells(**shape)
    if not per_row:
        cells = [cells[0]] * len(cells)
    u, b = cells[0].U.array, cells[0].b.array
    w = np.stack([c.W.array for c in cells]) if per_row else cells[0].W.array
    rep = solve_forward_stack(w, xs @ u.T + b, shape["activation"], CFG)
    assert rep.converged and rep.z_star.shape == (shape["n"], shape["h"])
    bound = CFG.tol / (1.0 - shape["kappa"])
    for cell, x, z in zip(cells, xs, rep.z_star.array):
        single = solve_forward(cell, Tensor(x), CFG)
        assert single.converged
        assert np.linalg.norm(z - single.z_star.array) <= bound


@settings(max_examples=60, deadline=None)
@given(shapes)
def test_a_stack_of_equal_weights_matches_the_shared_weight_batch(shape):
    cells, xs = draw_cells(**shape)
    cell = cells[0]
    batch = solve_forward_batch(cell, xs, CFG)
    copies = np.broadcast_to(cell.W.array, (shape["n"],) + cell.W.shape)
    stack = solve_forward_stack(copies, xs @ cell.U.array.T + cell.b.array,
                                shape["activation"], CFG)
    assert batch.converged and stack.converged
    bound = CFG.tol / (1.0 - shape["kappa"])
    assert np.max(np.linalg.norm(stack.z_star.array - batch.z_star.array, axis=1)) <= bound
