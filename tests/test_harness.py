"""Experiment-suite behavior: data generation, shifts, resamplers, protocols."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lionprompt import checkpoint, deq, model as m, robust_opt
from lionprompt.cli import main
from lionprompt.config import PROTOCOL_CHOICES, RunConfig
from lionprompt.deq import SolverConfig
from lionprompt.errors import ConfigError, DivergenceError, SetupError
from lionprompt.harness import (
    GRADCHECK_TOL,
    Dataset,
    _central_differences,
    _sq_loss,
    gradcheck_suite,
    make_blobs,
    make_glyphs,
    make_task,
    pretrain_backbone,
    resample_fewshot,
    resample_longtail,
    run_protocol,
    shift,
    source_task,
    target_task,
    verify_proposition1,
)
from lionprompt.numerics import rel_error
from lionprompt.rng import substream
from reference import (exact_solve, finite_diff_grad, make_cell, resample_fewshot_loop,
                       resample_longtail_loop, unrolled_vjp_every_step, vjp_grads)

# --- datasets ---------------------------------------------------------------

def test_blobs_regenerate_bit_identically():
    a = make_blobs(4, 16, 200, seed=7)
    b = make_blobs(4, 16, 200, seed=7)
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = make_blobs(4, 16, 200, seed=8)
    assert not np.array_equal(a.inputs, c.inputs)


def test_blob_splits_share_means_but_not_noise():
    tr = make_blobs(4, 16, 400, seed=3, split="train")
    te = make_blobs(4, 16, 400, seed=3, split="test")
    assert not np.array_equal(tr.inputs, te.inputs)
    for cls in range(4):
        mu_tr = tr.inputs[tr.labels == cls].mean(axis=0)
        mu_te = te.inputs[te.labels == cls].mean(axis=0)
        assert np.linalg.norm(mu_tr - mu_te) < 0.8  # same true mean, noise ~N(0,1)/sqrt(100)


def test_blob_means_pairwise_separation():
    ds = make_blobs(4, 16, 4000, seed=5)
    mus = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(mus[i] - mus[j]) - 6.0) < 0.3


def test_blobs_are_linearly_separable():
    ds = make_blobs(4, 16, 400, seed=3)
    x = ds.inputs
    means = np.stack([x[ds.labels == c].mean(axis=0) for c in range(4)])
    # nearest class mean is a linear rule: argmax_c x . mu_c - |mu_c|^2 / 2
    scores = x @ means.T - 0.5 * np.sum(means ** 2, axis=1)
    assert np.mean(np.argmax(scores, axis=1) == ds.labels) >= 0.99


def test_blob_validation():
    with pytest.raises(ValueError):
        make_blobs(20, 16, 400, seed=0)     # more classes than dimensions
    with pytest.raises(ValueError):
        make_blobs(4, 16, 12, seed=0)       # too few samples


def test_balanced_label_histogram_within_one():
    for n in (400, 401, 402, 403):
        counts = make_blobs(4, 16, n, seed=3).class_counts()
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n


def test_glyphs_are_binary_and_reproducible():
    a = make_glyphs(4, 200, seed=5)
    b = make_glyphs(4, 200, seed=5)
    assert a.d == 64
    assert set(np.unique(a.inputs)) == {0.0, 1.0}
    assert a.inputs.tobytes() == b.inputs.tobytes()


def test_glyph_flip_rate_matches_parameter():
    tr = make_glyphs(3, 600, seed=9)
    te = make_glyphs(3, 600, seed=9, split="test")
    for ds in (tr, te):
        rates = []
        for cls in range(3):
            rows = ds.inputs[ds.labels == cls]
            base = np.round(rows.mean(axis=0))    # majority vote recovers the mask
            rates.append(np.mean(rows != base))
        assert abs(np.mean(rates) - 0.1) < 0.02
    # the class masks are split-independent even though the flips are not
    for cls in range(3):
        base_tr = np.round(tr.inputs[tr.labels == cls].mean(axis=0))
        base_te = np.round(te.inputs[te.labels == cls].mean(axis=0))
        assert np.array_equal(base_tr, base_te)


# --- shifts -----------------------------------------------------------------

def shift_matrix(kind, d, seed):
    """The matrix A of a linear shift, read off the shift of the identity rows (I A^T)."""
    eye = Dataset(np.eye(d), np.zeros(d, dtype=int), 1, "train", 0)
    return shift(eye, kind, seed).inputs.T


def test_invertible_shift_round_trip():
    ds = make_blobs(4, 16, 200, seed=7)
    a = shift_matrix("invertible_linear", 16, seed=11)
    shifted = shift(ds, "invertible_linear", seed=11)
    assert np.max(np.abs(shifted.inputs - ds.inputs @ a.T)) <= 1e-12
    back = shifted.inputs @ np.linalg.inv(a).T
    assert np.max(np.abs(back - ds.inputs)) <= 1e-10
    assert np.array_equal(shifted.labels, ds.labels)
    sv = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(sv, np.linspace(2.0, 0.8, 16))


def test_identity_shift_is_a_no_op():
    ds = make_blobs(4, 16, 200, seed=7)
    assert shift(ds, "none", seed=11) is ds


def test_rotation_preserves_norms():
    ds = make_blobs(4, 16, 200, seed=7)
    rotated = shift(ds, "rotation", seed=11)
    before = np.linalg.norm(ds.inputs, axis=1)
    after = np.linalg.norm(rotated.inputs, axis=1)
    assert np.max(np.abs(before - after)) <= 1e-10
    assert abs(np.linalg.det(shift_matrix("rotation", 16, seed=11)) - 1.0) <= 1e-10


def test_noise_shift_is_deterministic():
    ds = make_blobs(4, 16, 200, seed=7)
    a = shift(ds, "noise", seed=11)
    b = shift(ds, "noise", seed=11)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, ds.inputs)


def test_shift_regenerates_from_seed():
    ds = make_blobs(4, 16, 200, seed=7)
    for kind in ("invertible_linear", "rotation"):
        a = shift(ds, kind, seed=11)
        assert a.inputs.tobytes() == shift(ds, kind, seed=11).inputs.tobytes()
        assert a.inputs.tobytes() != shift(ds, kind, seed=12).inputs.tobytes()


def test_unknown_shift_kind_rejected():
    with pytest.raises(ValueError, match="unknown shift kind 'warp'"):
        shift(make_blobs(4, 16, 200, seed=7), "warp", seed=11)


# --- resamplers ---------------------------------------------------------------

def test_longtail_worked_profile():
    ds = make_blobs(2, 8, 1000, seed=1)
    assert list(ds.class_counts()) == [500, 500]
    assert list(resample_longtail(ds, 50.0).class_counts()) == [500, 10]
    ds4 = make_blobs(4, 16, 400, seed=1)
    assert list(resample_longtail(ds4, 50.0).class_counts()) == [100, 27, 7, 2]


def test_longtail_identity_and_realized_ratio():
    ds = make_blobs(4, 16, 400, seed=1)
    assert list(resample_longtail(ds, 1.0).class_counts()) == list(ds.class_counts())
    big = make_blobs(10, 16, 10000, seed=2)
    counts = resample_longtail(big, 100.0).class_counts()
    realized = counts.max() / counts.min()
    assert abs(realized - 100.0) <= 5.0


def test_longtail_keeps_real_samples_deterministically():
    ds = make_blobs(4, 16, 400, seed=1)
    a = resample_longtail(ds, 50.0)
    b = resample_longtail(ds, 50.0)
    assert a.inputs.tobytes() == b.inputs.tobytes()
    original = {row.tobytes() for row in ds.inputs}
    assert all(row.tobytes() in original for row in a.inputs)


def test_longtail_rejects_emptied_class():
    ds = make_blobs(2, 8, 40, seed=1)      # 20 per class; 20/50 rounds to 0
    with pytest.raises(ValueError):
        resample_longtail(ds, 50.0)
    with pytest.raises(ValueError):
        resample_longtail(ds, 0.5)


def test_fewshot_counts_and_determinism():
    ds = make_blobs(4, 16, 400, seed=1)
    fs = resample_fewshot(ds, 8)
    assert fs.n == 4 * 8
    assert list(fs.class_counts()) == [8, 8, 8, 8]
    assert fs.inputs.tobytes() == resample_fewshot(ds, 8).inputs.tobytes()
    original = {row.tobytes() for row in ds.inputs}
    assert all(row.tobytes() in original for row in fs.inputs)
    with pytest.raises(ValueError):
        resample_fewshot(ds, 1000)
    assert resample_fewshot(make_blobs(5, 16, 400, seed=1), 8).n == 40


def _resampled(resample, ds, arg):
    """(inputs bytes, labels bytes) of `resample(ds, arg)`, or its ValueError text."""
    try:
        out = resample(ds, arg)
    except ValueError as exc:
        return str(exc)
    return out.inputs.tobytes(), out.labels.tobytes()


@pytest.mark.parametrize("make", [lambda c, s: make_blobs(c, 16, 200, seed=s),
                                  lambda c, s: make_glyphs(c, 200, seed=s)],
                         ids=["blobs", "glyphs"])
def test_resamplers_draw_what_the_per_resampler_loops_draw(make):
    refusals = set()
    for n_classes, seed in itertools.product(range(2, 6), (0, 1, 7, 123)):
        ds = make(n_classes, seed)
        tail = resample_longtail(ds, 7.5)          # few-shot also runs on a long-tail split
        for resample, loop, data, args in (
                (resample_longtail, resample_longtail_loop, ds, (1.0, 1.5, 7.5, 50.0, 100.0)),
                (resample_fewshot, resample_fewshot_loop, ds, (1, 3, 8, 50)),
                (resample_fewshot, resample_fewshot_loop, tail, (1, 3, 8, 50))):
            for arg in args:
                got = _resampled(resample, data, arg)
                assert got == _resampled(loop, data, arg), (n_classes, seed, resample, arg)
                if isinstance(got, str):
                    refusals.add(got.split()[-1])
    assert refusals >= {"shots", "3", "4"}      # too few rows, and emptied tail classes


# --- pretraining and protocols ---------------------------------------------------

def test_pretraining_fits_the_source_task(source_backbone):
    bb, acc = source_backbone
    assert acc >= 0.95
    assert sum(p.size for p in bb.params()) == 14800


def test_pretraining_refuses_a_failed_fit():
    with pytest.raises(SetupError):
        pretrain_backbone(RunConfig(hidden=8, eta=1e-9))


def test_unknown_protocol_rejected(source_backbone):
    bb, _ = source_backbone
    tr, te = target_task(RunConfig(seed=0))
    with pytest.raises(ConfigError, match="unsupported protocol"):
        run_protocol(RunConfig(protocol="vpt"), bb, tr, te)


def test_protocol_runs_are_deterministic(source_backbone):
    bb, _ = source_backbone
    tr, te = target_task(RunConfig(seed=0))
    st = RunConfig(protocol="head_tuning", seed=0, epochs=40)
    a = run_protocol(st, bb, tr, te)
    b = run_protocol(st, bb, tr, te)
    assert a.accuracy == b.accuracy
    assert a.trainable_params == b.trainable_params == 4 * 16 + 4


def test_protocol_runs_do_not_touch_the_shared_backbone(source_backbone):
    bb, _ = source_backbone
    tr, te = target_task(RunConfig(seed=0))
    pretrained = {p.name: p.value.tobytes() for p in bb.params()}
    for protocol in PROTOCOL_CHOICES:
        task = run_protocol(RunConfig(protocol=protocol, seed=0, epochs=20), bb, tr, te).task
        trained = {id(p) for p in task.trainable_params()}
        untrained = [p for p in task.backbone.params() if id(p) not in trained]
        assert untrained or protocol == "full_finetune"
        for p in untrained:      # what a task does not list as trainable stays as pretrained
            assert p.value.tobytes() == pretrained[p.name], (protocol, p.name)
            assert p.grad is None, (protocol, p.name)
    assert {p.name: p.value.tobytes() for p in bb.params()} == pretrained


def test_held_out_predict_names_the_phase_block_and_cell_of_a_non_finite_solve(source_backbone):
    bb, _ = source_backbone
    tr, te = target_task(RunConfig(seed=0))
    inputs = te.inputs.copy()
    inputs[3, 5] = np.nan
    with pytest.raises(DivergenceError,
                       match="^held-out predict: block p1: non-finite iterate"):
        run_protocol(RunConfig(protocol="lion", seed=0, epochs=3), bb, tr,
                     replace(te, inputs=inputs))


def test_head_tuning_recovers_the_source_task(source_backbone):
    bb, source_acc = source_backbone
    tr = make_blobs(4, 16, 400, seed=0, split="train")
    te = make_blobs(4, 16, 400, seed=0, split="test")
    res = run_protocol(RunConfig(protocol="head_tuning", seed=0), bb, tr, te)
    assert abs(res.accuracy - source_acc) <= 0.02


def test_prompted_model_beats_head_tuning_on_a_shifted_task(source_backbone):
    bb, _ = source_backbone
    tr, te = target_task(RunConfig(seed=2))
    head = run_protocol(RunConfig(protocol="head_tuning", seed=2), bb, tr, te)
    lion = run_protocol(RunConfig(protocol="lion", seed=2), bb, tr, te)
    assert lion.accuracy > head.accuracy
    full = run_protocol(RunConfig(protocol="full_finetune", seed=2, epochs=5), bb, tr, te)
    assert lion.trainable_params <= 0.10 * full.trainable_params
    assert lion.log.rows[-1].keys() == {"epoch", "loss", "accuracy", "crucial_fraction",
                                        "noncrucial_mean_abs", "alpha1", "alpha2"}


def test_lion_task_runs_the_backbone_on_raw_rows_once_per_train(monkeypatch):
    task = m.build_prompt_model(m.make_backbone(6, 7, 5, seed=3), 2, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 6))
    y = np.arange(12) % 2
    original = m.backbone_forward
    raw_calls = []

    def counting(backbone, rows, workspace=None):
        if rows.shape == x.shape and np.array_equal(rows, x):
            raw_calls.append(rows)
        return original(backbone, rows, workspace)

    monkeypatch.setattr(m, "backbone_forward", counting)
    for run in (1, 2):
        log = robust_opt.train(task, (x, y), robust_opt.OptState(eta=0.3), epochs=5)
        assert len(log.rows) == 5
        assert len(raw_calls) == run
    # rows the task was not prepared on get their own features
    task.predict(x.copy())
    assert len(raw_calls) == 3


def test_lion_epochs_warm_start_their_solves_and_predictions_stay_cold(monkeypatch,
                                                                      source_backbone):
    bb, _ = source_backbone
    tr, te = target_task(RunConfig(seed=0))
    nfe = []
    original = deq.solve_forward_batch

    def counting(cell, x_rows, cfg=None, z0_rows=None):
        rep = original(cell, x_rows, cfg, z0_rows)
        nfe.append(rep.iterations)
        return rep

    monkeypatch.setattr(deq, "solve_forward_batch", counting)
    counts, preds = [], []
    for cold in (False, True):
        task = make_task(RunConfig(protocol="lion", seed=0), bb)
        if cold:
            # keep no features and no fixed points: every solve starts from zero
            monkeypatch.setattr(task, "prepare", lambda x: None)
        nfe.clear()
        robust_opt.train(task, (tr.inputs, tr.labels), robust_opt.OptState(eta=0.3), epochs=30)
        counts.append(sum(nfe))
        preds.append(task.predict(te.inputs))
    # measured 1,114 warm against 1,558 cold evaluations (0.72)
    assert counts[0] <= 0.8 * counts[1]
    assert np.array_equal(preds[0], preds[1])


def test_a_lion_tune_runs_the_projection_svd_only_when_its_bound_fails(monkeypatch,
                                                                       source_backbone):
    bb, _ = source_backbone
    cfg = RunConfig(seed=0, epochs=60)
    original = deq.estimate_spectral_norm
    calls = []

    def counting(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(deq, "estimate_spectral_norm", counting)
    res = run_protocol(cfg, bb, *target_task(cfg))
    # measured 9, two of them at construction; one per block and epoch would be 122
    assert len(res.log.rows) == 60 and 2 <= len(calls) <= 12


_TRAINED = {}


def briefly_trained_lion_task(source_backbone):
    """A lion task trained 20 epochs on the shifted seed-0 target,
    its held-out split, and each held-out row's logits solved as a one-row batch."""
    if "task" not in _TRAINED:
        bb, _ = source_backbone
        tr, te = target_task(RunConfig(seed=0))
        task = make_task(RunConfig(protocol="lion", seed=0), bb)
        robust_opt.train(task, (tr.inputs, tr.labels), robust_opt.OptState(eta=0.3), epochs=20)
        alone = np.vstack([m.forward(task, x[None]).logits for x in te.inputs])
        _TRAINED.update(task=task, test=te, alone=alone)
    return _TRAINED["task"], _TRAINED["test"], _TRAINED["alone"]


def test_lion_partition_prunes_only_cell_weights_so_gates_and_biases_train(source_backbone):
    task, _, _ = briefly_trained_lion_task(source_backbone)
    pm = task
    assert all(abs(a - 0.5) > 1e-3 for a in (pm.gate1.coeffs()[0], pm.gate2.coeffs()[0]))
    # scalars that start at zero score |g * 0| = 0, so a partition would pin them there
    starts_at_zero = [pm.p1.b, pm.p2.b, pm.proj.b, pm.head.b, pm.gate1.g_alpha,
                      pm.gate1.g_beta, pm.gate2.g_alpha, pm.gate2.g_beta]
    assert all(np.all(p.value != 0.0) for p in starts_at_zero)
    # the exact zeros the soft-threshold leaves all lie in pruned cell weights
    zeros = {p.name for p in pm.trainable_params() if np.any(p.value == 0.0)}
    assert zeros and all(name.startswith(("p1.", "p2.")) and name.endswith((".W", ".U"))
                         for name in zeros)


def test_baselines_partition_nothing_and_log_every_scalar_crucial(source_backbone):
    bb, _ = source_backbone
    tr, te = target_task(RunConfig(seed=1))
    res = run_protocol(RunConfig(protocol="bias_tuning", seed=1, epochs=5), bb, tr, te)
    assert res.task.partitioned_params() == []
    assert [r["crucial_fraction"] for r in res.log.rows] == [1.0] * 5
    assert [r["noncrucial_mean_abs"] for r in res.log.rows] == [0.0] * 5


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_predictions_do_not_depend_on_batch_composition(source_backbone, data):
    task, te, alone = briefly_trained_lion_task(source_backbone)
    pm = task
    rows = data.draw(st.one_of(
        st.lists(st.integers(0, te.n - 1), min_size=1, max_size=40, unique=True),
        st.permutations(range(te.n))))
    batch = m.forward(pm, te.inputs[rows]).logits
    # the solver stops on the worst row, so a row's P1 and P2 fixed points lie within
    # tol / (1 - kappa) of the exact ones both in the batch and alone; carry that
    # 2 tol / (1 - kappa) through gate 1, the backbone F, proj, gate 2 and the head
    (_, b1), (a2, b2) = pm.gate1.coeffs(), pm.gate2.coeffs()
    lip_f = np.prod([np.linalg.norm(s.w.value, 2) for s in pm.backbone.stages])
    bound = (np.linalg.norm(pm.head.w.value, 2)
             * (a2 * lip_f * b1 + b2 * np.linalg.norm(pm.proj.w.value, 2))
             * 2.0 * pm.solver.tol / (1.0 - pm.p1.kappa) + 1e-12)
    assert np.all(np.linalg.norm(batch - alone[rows], axis=1) <= bound)
    # each logit moves by at most the bound, so a top-two margin over twice it holds
    top2 = np.sort(alone[rows], axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 2.0 * bound
    assert np.array_equal(task.predict(te.inputs[rows])[clear],
                          np.argmax(alone[rows], axis=1)[clear])


# --- prompt-position experiment ---------------------------------------------------

def test_input_output_asymmetry():
    rep = verify_proposition1(seed=0)
    assert rep.feasibility_gap <= 1e-10
    assert rep.input_side_loss <= 1e-3
    assert rep.output_side_loss >= 0.5
    assert rep.control_loss <= 1e-3
    assert rep.asymmetry_confirmed
    assert rep.verdict == "asymmetry confirmed"


def test_sq_loss_is_the_mean_of_squares_bit_for_bit():
    rng = substream(0, "sq-loss")
    for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 1000):
        pred = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        y = rng.normal(size=n)
        assert _sq_loss(pred, y) == float(np.mean((pred - y) ** 2))


def test_asymmetry_holds_across_seeds():
    for seed in (1, 2):
        rep = verify_proposition1(seed=seed)
        assert rep.asymmetry_confirmed


# --- gradient cross-check suite ------------------------------------------------------

def test_gradcheck_rows_all_pass():
    rows = gradcheck_suite(RunConfig(cases=5, seed=0))
    assert len(rows) == 5
    assert all(r.status == "ok" for r in rows)
    assert max(r.fd_rel_err for r in rows) <= 1e-4
    assert max(r.unrolled_rel_err for r in rows) <= 1e-5


def test_gradcheck_solves_through_the_training_solve_itself():
    # an alias, not a wrapper: gradcheck's solves run the very function training runs
    assert deq.solve_forward is deq.solve_forward_batch


def _log_gradcheck_calls(monkeypatch, stack_report=lambda rep, k: rep):
    """Log gradcheck's calls of the one forward solve (by its alias) and the one VJP.

    A solve logs ("base" or "stack", converged, evaluations, rows), where a
    stack is a solve of the central differences' block, named "fd"; a VJP
    logs ("vjp",). `stack_report(rep, k)` may replace the report that the
    k-th stack returns.
    """
    solve, vjp, log = deq.solve_forward, deq.PromptBlock.vjp, []

    def solving(cell, x_rows, cfg, z0_rows=None):
        rep, stack = solve(cell, x_rows, cfg, z0_rows), cell.name == "fd"
        log.append(("stack" if stack else "base", rep.converged, rep.iterations, len(x_rows)))
        return stack_report(rep, sum(event[0] == "stack" for event in log)) if stack else rep

    def pulling(block, *args):
        log.append(("vjp",))
        return vjp(block, *args)

    monkeypatch.setattr(deq, "solve_forward", solving)
    monkeypatch.setattr(deq.PromptBlock, "vjp", pulling)
    return log


def _calls_per_case(rows, log):
    """Split the log at each base solve; a case that passed made two solves and one VJP.

    Every case's base solve is one row and its stack, if it got that far,
    2h: the input term's coordinates, each +- step.
    """
    cases = []
    for event in log:
        if event[0] == "base":
            cases.append([])
        cases[-1].append(event)
    assert len(cases) == len(rows)
    for row, case in zip(rows, cases):
        solves = [e[3] for e in case if e[0] != "vjp"]
        assert solves == [1, 2 * row.state_dim][:len(solves)]
        if row.status == "ok":
            assert [e[0] for e in case] == ["base", "stack", "vjp"]
            assert case[0][1] and case[1][1]
        else:
            assert "vjp" not in [e[0] for e in case]
    return cases


def test_gradcheck_and_training_pull_through_one_vjp(source_backbone, monkeypatch):
    vjp, pulls = deq.PromptBlock.vjp, []

    def pulling(block, *args):
        pulls.append(block.name)
        return vjp(block, *args)

    monkeypatch.setattr(deq.PromptBlock, "vjp", pulling)
    assert [r.status for r in gradcheck_suite(RunConfig(cases=1, seed=0))] == ["ok"]
    assert pulls == ["case"]
    cfg = RunConfig(seed=0)
    tr, _ = target_task(cfg)
    task = make_task(cfg, source_backbone[0])
    del pulls[:]
    robust_opt.train(task, (tr.inputs, tr.labels), cfg.optimizer, epochs=2)
    assert pulls == ["p2", "p1"] * 2        # each epoch's one loss_and_grads


def test_gradcheck_caps_a_looser_solver_tolerance_at_its_own():
    # at tol 1e-8 the fd errors would read 2.6e-8, 1.1e-8 and 5.5e-9, not 2.6e-11,
    # 6.4e-11 and 6.0e-11
    assert (gradcheck_suite(RunConfig(cases=3, tol=1e-8))
            == gradcheck_suite(RunConfig(cases=3, tol=GRADCHECK_TOL)))


def test_gradcheck_fails_every_case_whose_fd_solves_stop_short(monkeypatch):
    log = _log_gradcheck_calls(monkeypatch)
    rows = gradcheck_suite(RunConfig(cases=5, seed=0, tol=1e-30))
    _calls_per_case(rows, log)
    stopped_short = [e[2] for e in log if e[0] != "vjp" and not e[1]]
    failed = [r for r in rows if r.status == "solver_failed"]
    # each failed case ends at its first short solve, and no "ok" case had one
    assert len(stopped_short) == len(failed) > 0
    assert stopped_short == [500] * len(failed)


def test_gradcheck_fails_a_case_whose_stack_stops_short_after_its_base_converged(
        monkeypatch):
    log = _log_gradcheck_calls(
        monkeypatch, lambda rep, k: replace(rep, converged=False) if k == 2 else rep)
    rows = gradcheck_suite(RunConfig(cases=4, seed=0))
    # each case runs one stack; case 1's is reported short
    assert [r.status for r in rows] == ["ok", "solver_failed", "ok", "ok"]
    assert np.isnan(rows[1].fd_rel_err) and np.isnan(rows[1].unrolled_rel_err)
    cases = _calls_per_case(rows, log)
    assert [e[:2] for e in cases[1]] == [("base", True), ("stack", True)]
    assert max(r.fd_rel_err for r in rows if r.status == "ok") <= 1e-4


def test_gradcheck_unroll_depth_agrees_with_500_steps(monkeypatch):
    unrolled, depths, gaps = deq.unrolled_vjp, [], []

    def flat(grad_x, grads):
        return np.concatenate([grads.W.reshape(-1), grads.U.reshape(-1),
                               grads.b, grad_x])

    def against_500(cell, x, y, n_iters):
        # the 500-step run first, so the Params keep the gradients gradcheck reads
        deep = vjp_grads(unrolled, cell, x, y, n_iters=500)
        got = vjp_grads(unrolled, cell, x, y, n_iters=n_iters)
        depths.append(n_iters)
        gaps.append(rel_error(flat(*got), flat(*deep)))

    monkeypatch.setattr(deq, "unrolled_vjp", against_500)
    for seed in range(4):
        assert all(r.status == "ok" for r in gradcheck_suite(RunConfig(cases=20, seed=seed)))
    assert len(gaps) == 80 and max(depths) < 500
    assert max(gaps) <= 1e-5 / 100


def test_gradcheck_and_tune_compute_what_the_plain_hot_loops_compute(
        source_backbone, tmp_path, monkeypatch):
    # the driver's screen and the unrolled reference's fill of a repeated iterate
    # are byte-identical shortcuts: swapping in the plain loops of `reference`
    # must leave gradcheck's rows and a lion tune's files unchanged
    def run():
        out = tmp_path / f"run{len(runs)}"
        out.mkdir()
        checkpoint.save(str(out / "backbone-blobs-s0.ckpt"), source_backbone[0].params())
        assert main(["tune", "--out", str(out), "--seed", "0", "--protocol", "lion",
                     "--epochs", "10"]) == 0
        files = {name: (out / name).read_bytes() for name in ("lion-blobs-s0.ckpt",
                                                              "lion-blobs-s0-trace.csv")}
        runs.append((gradcheck_suite(RunConfig(cases=8, seed=3)), files))

    runs = []
    run()
    monkeypatch.setattr(deq, "_solve", exact_solve)
    monkeypatch.setattr(deq, "unrolled_vjp", unrolled_vjp_every_step)
    run()
    assert all(r.status == "ok" for r in runs[0][0])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("h, d", [(5, 3), (3, 7), (16, 2)])
def test_gradcheck_stacks_match_per_entry_solves(h, d):
    rng = substream(41, "fd-stack")
    step = 1e-5
    cell = make_cell(W=rng.normal(size=(h, h)),
                     U=rng.normal(size=(h, d)),
                     b=rng.normal(size=h))
    cell.renormalize()
    x, y = rng.normal(size=d), rng.normal(size=h)
    cfg = SolverConfig(tol=1e-13)
    packed = np.concatenate([cell.W.value.reshape(-1), cell.U.value.reshape(-1),
                             cell.b.value, x])

    def objective(vec):
        w, u, b, xv = np.split(vec, [h * h, h * h + h * d, h * h + h * d + h])
        c = make_cell(W=w.reshape(h, h), U=u.reshape(h, d), b=b)
        return float(y @ deq.solve_forward_batch(c, xv[None], cfg).z_star[0])

    one_by_one = finite_diff_grad(objective, packed, step=step)
    z_star = deq.solve_forward_batch(cell, x[None], cfg).certified(cfg.tol)[0]
    stacked = _central_differences(cell, x, y, z_star, cfg, step)
    assert np.max(np.abs(stacked - one_by_one)) <= 1e-7


def test_gradcheck_reports_solver_failure_distinctly():
    rows = gradcheck_suite(RunConfig(cases=5, seed=0, tol=1e-30))
    statuses = {r.status for r in rows}
    assert "solver_failed" in statuses
    assert "gradient_failed" not in statuses
    failed = [r for r in rows if r.status == "solver_failed"]
    assert all(np.isnan(r.fd_rel_err) for r in failed)
