"""Experiment-suite behavior: data generation, shifts, resamplers, protocols."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from lionprompt import deq, model as m, robust_opt
from lionprompt.config import RunConfig
from lionprompt.deq import SolverConfig
from lionprompt.errors import ConfigError, SetupError
from lionprompt.harness import (
    PATIENCE,
    Dataset,
    LionTask,
    ShiftSpec,
    apply_shift,
    _central_differences,
    gradcheck_suite,
    make_blobs,
    make_glyphs,
    make_shift,
    make_task,
    pretrain_backbone,
    resample_fewshot,
    resample_longtail,
    run_protocol,
    verify_proposition1,
)
from lionprompt.numerics import Tensor
from lionprompt.rng import substream
from reference import finite_diff_grad

_BACKBONE_CACHE = {}


def shared_backbone():
    """One pretrained frozen backbone reused across protocol tests."""
    if "bb" not in _BACKBONE_CACHE:
        src = make_blobs(4, 16, 400, seed=0, split="train", separation=6.0)
        bb, acc = pretrain_backbone(src, hidden=448, h=16, seed=0)
        _BACKBONE_CACHE["bb"] = bb
        _BACKBONE_CACHE["acc"] = acc
    return _BACKBONE_CACHE["bb"], _BACKBONE_CACHE["acc"]


def shifted_pair(seed):
    shift = make_shift("invertible_linear", 16, seed=100 + seed)
    tr = apply_shift(make_blobs(4, 16, 200, seed=seed, split="train"), shift)
    te = apply_shift(make_blobs(4, 16, 200, seed=seed, split="test"), shift)
    return tr, te


# --- datasets ---------------------------------------------------------------

def test_blobs_regenerate_bit_identically():
    a = make_blobs(4, 16, 200, seed=7)
    b = make_blobs(4, 16, 200, seed=7)
    assert a.inputs.array.tobytes() == b.inputs.array.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = make_blobs(4, 16, 200, seed=8)
    assert not np.array_equal(a.inputs.array, c.inputs.array)


def test_blob_splits_share_means_but_not_noise():
    tr = make_blobs(4, 16, 400, seed=3, split="train")
    te = make_blobs(4, 16, 400, seed=3, split="test")
    assert not np.array_equal(tr.inputs.array, te.inputs.array)
    for cls in range(4):
        mu_tr = tr.inputs.array[tr.labels == cls].mean(axis=0)
        mu_te = te.inputs.array[te.labels == cls].mean(axis=0)
        assert np.linalg.norm(mu_tr - mu_te) < 0.8  # same true mean, noise ~N(0,1)/sqrt(100)


def test_blob_means_pairwise_separation():
    ds = make_blobs(4, 16, 4000, seed=5, separation=6.0)
    mus = np.stack([ds.inputs.array[ds.labels == c].mean(axis=0) for c in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(mus[i] - mus[j]) - 6.0) < 0.3


def test_wide_separation_is_linearly_separable():
    ds = make_blobs(4, 16, 400, seed=3, separation=10.0)
    x = ds.inputs.array
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
    assert set(np.unique(a.inputs.array)) == {0.0, 1.0}
    assert a.inputs.array.tobytes() == b.inputs.array.tobytes()


def test_glyph_flip_rate_matches_parameter():
    tr = make_glyphs(3, 600, seed=9, flip_prob=0.1)
    te = make_glyphs(3, 600, seed=9, split="test", flip_prob=0.1)
    for ds in (tr, te):
        rates = []
        for cls in range(3):
            rows = ds.inputs.array[ds.labels == cls]
            base = np.round(rows.mean(axis=0))    # majority vote recovers the mask
            rates.append(np.mean(rows != base))
        assert abs(np.mean(rates) - 0.1) < 0.02
    # the class masks are split-independent even though the flips are not
    for cls in range(3):
        base_tr = np.round(tr.inputs.array[tr.labels == cls].mean(axis=0))
        base_te = np.round(te.inputs.array[te.labels == cls].mean(axis=0))
        assert np.array_equal(base_tr, base_te)


# --- shifts -----------------------------------------------------------------

def test_invertible_shift_round_trip():
    ds = make_blobs(4, 16, 200, seed=7)
    spec = make_shift("invertible_linear", 16, seed=11)
    back = apply_shift(apply_shift(ds, spec),
                       ShiftSpec("invertible_linear", Tensor(np.linalg.inv(spec.A.array))))
    assert np.max(np.abs(back.inputs.array - ds.inputs.array)) <= 1e-10
    assert np.array_equal(back.labels, ds.labels)


def test_identity_shift_is_a_no_op():
    ds = make_blobs(4, 16, 200, seed=7)
    same = apply_shift(ds, ShiftSpec("invertible_linear", Tensor(np.eye(16))))
    assert np.array_equal(same.inputs.array, ds.inputs.array)
    assert np.array_equal(same.labels, ds.labels)


def test_rotation_preserves_norms():
    ds = make_blobs(4, 16, 200, seed=7)
    spec = make_shift("rotation", 16, seed=11)
    rotated = apply_shift(ds, spec)
    before = np.linalg.norm(ds.inputs.array, axis=1)
    after = np.linalg.norm(rotated.inputs.array, axis=1)
    assert np.max(np.abs(before - after)) <= 1e-10
    assert abs(np.linalg.det(spec.A.array) - 1.0) <= 1e-10


def test_noise_shift_is_deterministic():
    ds = make_blobs(4, 16, 200, seed=7)
    spec = make_shift("noise", 16, seed=11, noise_sigma=0.5)
    a = apply_shift(ds, spec)
    b = apply_shift(ds, spec)
    assert np.array_equal(a.inputs.array, b.inputs.array)
    assert not np.array_equal(a.inputs.array, ds.inputs.array)


def test_shift_regenerates_from_seed():
    a = make_shift("invertible_linear", 16, seed=11)
    b = make_shift("invertible_linear", 16, seed=11)
    assert a.A.array.tobytes() == b.A.array.tobytes()


def test_singular_shift_rejected():
    with pytest.raises(ValueError):
        ShiftSpec("invertible_linear", Tensor(np.zeros((4, 4))))
    with pytest.raises(ValueError):
        ShiftSpec("warp")


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
    assert a.inputs.array.tobytes() == b.inputs.array.tobytes()
    original = {row.tobytes() for row in ds.inputs.array}
    assert all(row.tobytes() in original for row in a.inputs.array)


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
    assert fs.inputs.array.tobytes() == resample_fewshot(ds, 8).inputs.array.tobytes()
    original = {row.tobytes() for row in ds.inputs.array}
    assert all(row.tobytes() in original for row in fs.inputs.array)
    with pytest.raises(ValueError):
        resample_fewshot(ds, 1000)
    assert resample_fewshot(make_blobs(5, 16, 400, seed=1), 8).n == 40


# --- pretraining and protocols ---------------------------------------------------

def test_pretraining_fits_the_source_task():
    bb, acc = shared_backbone()
    assert acc >= 0.95
    assert bb.frozen
    assert sum(p.size for p in bb.params()) == 14800


def test_pretraining_refuses_a_failed_fit():
    src = make_blobs(4, 16, 400, seed=0, split="train")
    with pytest.raises(SetupError):
        pretrain_backbone(src, hidden=448, h=16, seed=0, epochs=2, eta=1e-9)


def test_unknown_protocol_rejected():
    bb, _ = shared_backbone()
    tr, te = shifted_pair(0)
    with pytest.raises(ConfigError, match="unsupported protocol"):
        run_protocol(RunConfig(protocol="vpt"), bb, tr, te)


def test_protocol_runs_are_deterministic():
    bb, _ = shared_backbone()
    tr, te = shifted_pair(0)
    st = RunConfig(protocol="head_tuning", seed=0, epochs=40)
    a = run_protocol(st, bb, tr, te)
    b = run_protocol(st, bb, tr, te)
    assert a.accuracy == b.accuracy
    assert a.trainable_params == b.trainable_params == 4 * 16 + 4


def test_protocol_runs_do_not_touch_the_shared_backbone():
    bb, _ = shared_backbone()
    tr, te = shifted_pair(0)
    before = [p.value.array.tobytes() for p in bb.params()]
    run_protocol(RunConfig(protocol="full_finetune", seed=0, epochs=20), bb, tr, te)
    run_protocol(RunConfig(protocol="bias_tuning", seed=0, epochs=20), bb, tr, te)
    after = [p.value.array.tobytes() for p in bb.params()]
    assert before == after


def test_head_tuning_recovers_the_source_task():
    bb, source_acc = shared_backbone()
    tr = make_blobs(4, 16, 400, seed=0, split="train")
    te = make_blobs(4, 16, 400, seed=0, split="test")
    res = run_protocol(RunConfig(protocol="head_tuning", seed=0), bb, tr, te)
    assert abs(res.accuracy - source_acc) <= 0.02


def test_prompted_model_beats_head_tuning_on_a_shifted_task():
    bb, _ = shared_backbone()
    tr, te = shifted_pair(2)
    head = run_protocol(RunConfig(protocol="head_tuning", seed=2), bb, tr, te)
    lion = run_protocol(RunConfig(protocol="lion", seed=2), bb, tr, te)
    assert lion.accuracy > head.accuracy
    full = run_protocol(RunConfig(protocol="full_finetune", seed=2, epochs=5), bb, tr, te)
    assert lion.trainable_params <= 0.10 * full.trainable_params
    assert lion.log.extras[-1].keys() == {"alpha1", "alpha2"}


def test_lion_task_runs_the_backbone_on_raw_rows_once_per_train(monkeypatch):
    pm = m.build_prompt_model(m.make_backbone(6, 7, 5, seed=3, frozen=True), 2, seed=3)
    task = LionTask(pm)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 6))
    y = np.arange(12) % 2
    original = m.backbone_forward
    raw_calls = []

    def counting(backbone, rows):
        if rows.shape == x.shape and np.array_equal(rows, x):
            raw_calls.append(rows)
        return original(backbone, rows)

    monkeypatch.setattr(m, "backbone_forward", counting)
    for run in (1, 2):
        log = robust_opt.train(task, (x, y), robust_opt.OptState(eta=0.3), epochs=5)
        assert len(log.losses) == 5
        assert len(raw_calls) == run
    # rows the task was not prepared on get their own features
    task.predict(x.copy())
    assert len(raw_calls) == 3


# --- optimizer plateau stop -----------------------------------------------------

def test_patience_stops_training_early():
    ds = make_blobs(4, 16, 400, seed=3, separation=10.0)
    bb, _ = shared_backbone()
    # a vanishing step leaves the loss flat after the first epoch
    res = run_protocol(RunConfig(protocol="head_tuning", eta=1e-9, epochs=5000), bb, ds, ds)
    assert res.epochs_run == PATIENCE + 1


def test_patience_must_be_positive():
    ds = make_blobs(4, 16, 200, seed=3)
    bb, _ = shared_backbone()
    task = make_task(RunConfig(protocol="head_tuning"), bb, ds.n_classes)
    with pytest.raises(ValueError, match="patience"):
        robust_opt.train_plain(task, ds, robust_opt.OptState(eta=0.3), 5, patience=0)


# --- prompt-position experiment ---------------------------------------------------

def test_input_output_asymmetry():
    rep = verify_proposition1(seed=0)
    assert rep.feasibility_gap <= 1e-10
    assert rep.input_side_loss <= 1e-3
    assert rep.output_side_loss >= 0.5
    assert rep.control_loss <= 1e-3
    assert rep.asymmetry_confirmed
    assert rep.verdict == "asymmetry confirmed"
    assert rep.restarts == 10


def test_asymmetry_holds_across_seeds():
    for seed in (1, 2):
        rep = verify_proposition1(seed=seed)
        assert rep.asymmetry_confirmed


# --- gradient cross-check suite ------------------------------------------------------

def test_gradcheck_rows_all_pass():
    rows = gradcheck_suite(n_cases=5, seed=0)
    assert len(rows) == 5
    assert all(r.status == "ok" for r in rows)
    assert max(r.fd_rel_err for r in rows) <= 1e-4
    assert max(r.unrolled_rel_err for r in rows) <= 1e-5


def test_gradcheck_fails_every_case_whose_fd_solves_stop_short(monkeypatch):
    stopped_short = []

    def counting(solve):
        def wrapped(*args, **kwargs):
            rep = solve(*args, **kwargs)
            if not rep.converged:
                stopped_short.append(rep.iterations)
            return rep
        return wrapped

    # the base solve and the stacked finite-difference solves
    for name in ("solve_forward", "solve_forward_stack"):
        monkeypatch.setattr(deq, name, counting(getattr(deq, name)))
    rows = gradcheck_suite(n_cases=5, seed=0, solver=SolverConfig(tol=1e-30))
    failed = [r for r in rows if r.status == "solver_failed"]
    # each failed case ends at its first short solve, and no "ok" case had one
    assert len(stopped_short) == len(failed) > 0
    assert stopped_short == [500] * len(failed)


def test_gradcheck_fails_a_case_whose_stack_stops_short_after_its_base_converged(
        monkeypatch):
    solve, calls = deq.solve_forward_stack, []

    def short_on_third_call(*args, **kwargs):
        rep = solve(*args, **kwargs)
        calls.append(rep.converged)
        return replace(rep, converged=False) if len(calls) == 3 else rep

    monkeypatch.setattr(deq, "solve_forward_stack", short_on_third_call)
    rows = gradcheck_suite(n_cases=4, seed=0)
    # case 0 runs two stacks; case 1's first stack is reported short
    assert [r.status for r in rows] == ["ok", "solver_failed", "ok", "ok"]
    assert np.isnan(rows[1].fd_rel_err) and np.isnan(rows[1].unrolled_rel_err)
    assert all(calls) and len(calls) == 2 * 3 + 1
    assert max(r.fd_rel_err for r in rows if r.status == "ok") <= 1e-4


def test_gradcheck_stacks_match_per_entry_solves():
    rng = substream(41, "fd-stack")
    h, d, step = 5, 3, 1e-5
    cell = deq.spectral_normalize(deq.DeqCell(W=Tensor(rng.normal(size=(h, h))),
                                              U=Tensor(rng.normal(size=(h, d))),
                                              b=Tensor(rng.normal(size=h))))
    x, y = Tensor(rng.normal(size=d)), Tensor(rng.normal(size=h))
    cfg = SolverConfig(tol=1e-13)
    packed = np.concatenate([cell.W.array.reshape(-1), cell.U.array.reshape(-1),
                             cell.b.array, x.array])

    def objective(vec):
        w, u, b, xv = np.split(vec.array, [h * h, h * h + h * d, h * h + h * d + h])
        c = deq.DeqCell(W=Tensor(w.reshape(h, h)), U=Tensor(u.reshape(h, d)), b=Tensor(b))
        return float(y.array @ deq.solve_forward(c, Tensor(xv), cfg).z_star.array)

    one_by_one = finite_diff_grad(objective, Tensor(packed), step=step).array
    stacked = _central_differences(cell, x, y, cfg, step)
    assert np.max(np.abs(stacked - one_by_one)) <= 1e-7


def test_gradcheck_reports_solver_failure_distinctly():
    rows = gradcheck_suite(n_cases=5, seed=0, solver=SolverConfig(tol=1e-30))
    statuses = {r.status for r in rows}
    assert "solver_failed" in statuses
    assert "gradient_failed" not in statuses
    failed = [r for r in rows if r.status == "solver_failed"]
    assert all(np.isnan(r.fd_rel_err) for r in failed)
