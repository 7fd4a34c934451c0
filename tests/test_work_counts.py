"""The solver work of fixed runs is tracked like the line count.

Each run below is counted by wrapping the fixed-point driver, the spectral
norm and the adjoint solve, and its counts must equal its row of `WORK`. A
change that adds or saves a solve, an evaluation, a solved row, an SVD or
an LU call fails here until it edits that row, and says why in CHANGES.md.
"""

import pytest

from lionprompt import deq
from lionprompt.config import RunConfig
from lionprompt.harness import gradcheck_suite, run_protocol, target_task

# run -> (the tune's `RunConfig` keys beside seed 0, or None for
# `gradcheck_suite(RunConfig(cases=5))`; forward solves, total NFE, largest NFE
# of one solve, rows solved (the sum of every forward solve's row count), SVDs,
# adjoint calls). A 200-epoch lion tune solves each block once per epoch, once
# more for the final train predict and once for the held-out predict: 404
# forward solves. Each gradcheck case solves one base row and a stack of
# 2h rows.
WORK = {
    "lion seed 0": ({}, (404, 4984, 36, 80800, 10, 400)),
    "lion seed 0 shots=8": ({"shots": 8}, (404, 4582, 36, 13264, 8, 400)),
    "lion seed 0 ir=50": ({"ir": 50.0}, (404, 4447, 31, 28138, 9, 400)),
    "gradcheck cases=5": (None, (10, 342, 46, 115, 5, 5)),
}


@pytest.mark.parametrize("run", list(WORK))
def test_the_solver_work_of_a_fixed_run_stays_as_counted(source_backbone, monkeypatch, run):
    nfe, rows, svds, adjoints = [], [], [], []
    solve, norm, adjoint = deq._solve, deq.estimate_spectral_norm, deq.solve_adjoint_batch

    def counting_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        nfe.append(out[1])
        rows.append(len(args[1]))              # the (n, h) input terms c
        return out

    def counting_norm(w):
        svds.append(w.shape)
        return norm(w)

    def counting_adjoint(*args):
        adjoints.append(args[0].name)
        return adjoint(*args)

    monkeypatch.setattr(deq, "_solve", counting_solve)
    monkeypatch.setattr(deq, "estimate_spectral_norm", counting_norm)
    monkeypatch.setattr(deq, "solve_adjoint_batch", counting_adjoint)
    keys, counts = WORK[run]
    if keys is None:
        gradcheck_suite(RunConfig(cases=5))
    else:
        cfg = RunConfig(seed=0, **keys)
        run_protocol(cfg, source_backbone[0], *target_task(cfg))
    assert (len(nfe), sum(nfe), max(nfe), sum(rows), len(svds), len(adjoints)) == counts
