"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; each criterion states its tolerance inline.
"""

from __future__ import annotations

import time

import numpy as np

from lionprompt import checkpoint, model, robust_opt
from lionprompt.config import RunConfig, parse, serialize
from lionprompt.deq import SolverConfig, solve_forward, spectral_normalize, DeqCell
from lionprompt.harness import (
    apply_shift,
    gradcheck_suite,
    make_blobs,
    make_shift,
    pretrain_backbone,
    resample_fewshot,
    resample_longtail,
    run_protocol,
    verify_proposition1,
)
from lionprompt.model import gate_coeffs
from lionprompt.numerics import Param, Tensor, batch_cross_entropy
from lionprompt.rng import substream

_CACHE = {}


def check(criterion: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion} ({label}): {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def shared_backbone():
    if "bb" not in _CACHE:
        src = make_blobs(4, 16, 400, seed=0, split="train", separation=6.0)
        _CACHE["bb"], _ = pretrain_backbone(src, hidden=448, h=16, seed=0)
    return _CACHE["bb"]


def transfer_sweep():
    """Head vs LION over 5 seeds on plain / long-tail / few-shot targets."""
    if "sweep" not in _CACHE:
        bb = shared_backbone()
        rows = {"plain": [], "longtail": [], "fewshot": []}
        for seed in range(5):
            shift = make_shift("invertible_linear", 16, seed=100 + seed)
            tr = apply_shift(make_blobs(4, 16, 200, seed=seed, split="train"), shift)
            te = apply_shift(make_blobs(4, 16, 200, seed=seed, split="test"), shift)
            variants = {"plain": tr,
                        "longtail": resample_longtail(tr, 50.0),
                        "fewshot": resample_fewshot(tr, 8)}
            for name, train_ds in variants.items():
                head = run_protocol(RunConfig(protocol="head_tuning", seed=seed), bb,
                                    train_ds, te)
                lion = run_protocol(RunConfig(protocol="lion", seed=seed), bb, train_ds, te)
                rows[name].append((head.accuracy, lion.accuracy))
                if "lion_params" not in _CACHE:
                    full = run_protocol(RunConfig(protocol="full_finetune", seed=seed,
                                                  epochs=3), bb, train_ds, te)
                    _CACHE["lion_params"] = lion.trainable_params
                    _CACHE["full_params"] = full.trainable_params
        _CACHE["sweep"] = rows
    return _CACHE["sweep"]


def random_cell(seed, h, d):
    rng = substream(seed, "accept-cell")
    return spectral_normalize(DeqCell(
        W=Tensor(rng.normal(size=(h, h))),
        U=Tensor(rng.normal(size=(h, d))),
        b=Tensor(rng.normal(size=h) * 0.1)))


def test_criterion_1_implicit_gradients():
    start = time.perf_counter()
    rows = gradcheck_suite(n_cases=20, seed=0, fd_step=1e-5)
    elapsed = time.perf_counter() - start
    worst_fd = max(r.fd_rel_err for r in rows)
    worst_unrolled = max(r.unrolled_rel_err for r in rows)
    ok = (all(r.status == "ok" for r in rows)
          and worst_fd <= 1e-4 and worst_unrolled <= 1e-5 and elapsed < 30.0)
    check(1, "implicit gradients", ok,
          f"20 cells: max rel err {worst_fd:.2e} vs finite differences "
          f"(tol 1e-4), {worst_unrolled:.2e} vs 500-step unrolled (tol 1e-5), "
          f"{elapsed:.1f}s (budget 30s)")


def test_criterion_2_solver_contract():
    residual_ok = True
    anderson_wins = 0
    agree_ok = True
    for seed in range(20):
        cell = random_cell(seed, h=12, d=6)
        x = Tensor(substream(seed, "accept-x").normal(size=6))
        anderson = solve_forward(cell, x, SolverConfig(tol=1e-8, anderson_depth=5))
        picard = solve_forward(cell, x, SolverConfig(tol=1e-8, anderson_depth=0))
        residual_ok &= anderson.converged and anderson.residual <= 1e-8
        residual_ok &= picard.converged and picard.residual <= 1e-8
        if anderson.iterations < picard.iterations:
            anderson_wins += 1
    cell = random_cell(99, h=10, d=4)
    x = Tensor(substream(99, "accept-x").normal(size=4))
    cfg = SolverConfig(tol=1e-10)
    starts = [np.zeros(10), np.ones(10), -np.ones(10),
              substream(99, "s1").normal(size=10),
              substream(99, "s2").normal(size=10) * 5.0]
    points = [solve_forward(cell, x, cfg, z0=Tensor(z)).z_star.array for z in starts]
    for i in range(5):
        for j in range(i + 1, 5):
            agree_ok &= bool(np.linalg.norm(points[i] - points[j]) <= 10 * cfg.tol)
    ok = residual_ok and anderson_wins >= 18 and agree_ok
    check(2, "solver contract", ok,
          f"residual <= 1e-8 on every converged solve: {residual_ok}; Anderson "
          f"beat Picard on {anderson_wins}/20 (need >= 18); 5 starts agree "
          f"within 10*tol: {agree_ok}")


def test_criterion_3_gate_simplex():
    rng = substream(0, "accept-gates")
    cases = 0
    exact = True
    for ga, gb in rng.uniform(-1000.0, 1000.0, size=(1500, 2)):
        alpha, beta = gate_coeffs(float(ga), float(gb))
        exact &= (alpha + beta == 1.0) and (0.0 < alpha < 1.0) and (0.0 < beta < 1.0)
        cases += 1
    ok = exact and cases >= 1000
    check(3, "gate simplex", ok,
          f"{cases} gate pairs in [-1000, 1000]: alpha+beta == 1 exactly and "
          f"both strictly inside (0, 1): {exact}")


def test_criterion_4_frozen_backbone():
    bb = model.clone_backbone(shared_backbone(), frozen=True)
    pm = model.build_prompt_model(bb, 4, seed=0)
    shift = make_shift("invertible_linear", 16, seed=100)
    train = apply_shift(make_blobs(4, 16, 200, seed=0, split="train"), shift)

    class Task:
        trainable_params = pm.trainable_params
        predict = staticmethod(lambda x: model.predict(pm, x))
        loss_and_grads = staticmethod(lambda x, y: model.loss_and_grads(pm, x, y))
        post_step = pm.renormalize

    before = [p.value.array.tobytes() for p in pm.backbone.params()]
    robust_opt.train(Task(), train, robust_opt.OptState(eta=0.3, tau=0.4), epochs=30)
    after = [p.value.array.tobytes() for p in pm.backbone.params()]
    grads = [p.grad for p in pm.backbone.params()]
    ok = before == after and all(g is None for g in grads)
    check(4, "frozen backbone", ok,
          f"backbone bit-identical across a 30-epoch training run: "
          f"{before == after}; no gradients accumulated on it: "
          f"{all(g is None for g in grads)}")


def test_criterion_5_prompt_position_asymmetry():
    start = time.perf_counter()
    rep = verify_proposition1(seed=0, restarts=10)
    elapsed = time.perf_counter() - start
    ok = (rep.input_side_loss <= 1e-3 and rep.output_side_loss >= 0.5
          and rep.control_loss <= 1e-3 and elapsed < 60.0)
    check(5, "input/output prompt asymmetry", ok,
          f"input side {rep.input_side_loss:.2e} (tol 1e-3); output side "
          f"min over 10 restarts {rep.output_side_loss:.2f} (floor 0.5); "
          f"control {rep.control_loss:.2e} (tol 1e-3); {elapsed:.1f}s (budget 60s)")


class _Softmax:
    """Minimal full-batch softmax regression used to compare optimizers."""

    def __init__(self, d, c, seed):
        rng = substream(seed, "accept-softmax")
        self.w = Param("sm.W", Tensor(rng.normal(size=(c, d)) * 0.01))
        self.b = Param("sm.b", Tensor(np.zeros(c)))

    def trainable_params(self):
        return [self.w, self.b]

    def loss_and_grads(self, x, y):
        logits = x @ self.w.value.array.T + self.b.value.array
        value, g = batch_cross_entropy(logits, y)
        self.w.add_grad(g.T @ x)
        self.b.add_grad(np.sum(g, axis=0))
        return value, logits

    def predict(self, x):
        return np.argmax(x @ self.w.value.array.T + self.b.value.array, axis=1)


def test_criterion_6_partitioned_optimizer():
    rng = substream(7, "accept-part")
    exhaustive = True
    for _ in range(10):
        scores = np.abs(rng.normal(size=37))
        part = robust_opt.partition(scores, tau=0.4)
        exhaustive &= bool(np.all(part.crucial_mask ^ part.noncrucial_mask))

    ds = make_blobs(3, 6, 120, seed=11)
    trained = _Softmax(6, 3, seed=5)
    robust_opt.train_plain(trained, ds, robust_opt.OptState(eta=0.2), epochs=25)
    manual = _Softmax(6, 3, seed=5)
    for _ in range(25):
        for p in manual.trainable_params():
            p.zero_grad()
        manual.loss_and_grads(ds.inputs.array, ds.labels)
        for p in manual.trainable_params():
            p.value = Tensor(p.value.array - 0.2 * p.grad.array)
    bitwise = all(a.value.array.tobytes() == b.value.array.tobytes()
                  for a, b in zip(trained.trainable_params(),
                                  manual.trainable_params()))

    shrink_task = _Softmax(6, 3, seed=6)
    log = robust_opt.train(shrink_task, ds,
                           robust_opt.OptState(eta=0.2, tau=0.4, repartition_every=5),
                           epochs=25)
    monotone = True
    for e in range(1, 25):
        if e % 5 != 0:          # comparisons within one repartition window
            monotone &= log.noncrucial_mean_abs[e] <= log.noncrucial_mean_abs[e - 1] + 1e-15
    ok = exhaustive and bitwise and monotone
    check(6, "partitioned optimizer", ok,
          f"partition exhaustive+exclusive over 10 draws: {exhaustive}; "
          f"all-crucial run bitwise equal to vanilla GD after 25 epochs: {bitwise}; "
          f"non-crucial mean |theta| non-increasing within windows: {monotone}")


def test_criterion_7_transfer_ordering():
    rows = transfer_sweep()
    means = {name: (float(np.mean([p[0] for p in pairs])),
                    float(np.mean([p[1] for p in pairs])))
             for name, pairs in rows.items()}
    plain_ok = means["plain"][1] >= means["plain"][0] + 0.02
    lt_ok = means["longtail"][1] >= means["longtail"][0]
    fs_ok = means["fewshot"][1] >= means["fewshot"][0]
    ratio = _CACHE["lion_params"] / _CACHE["full_params"]
    params_ok = ratio <= 0.10
    ok = plain_ok and lt_ok and fs_ok and params_ok
    check(7, "transfer ordering", ok,
          f"shifted blobs over 5 seeds: head {means['plain'][0]:.3f} vs prompt "
          f"{means['plain'][1]:.3f} (need +2 points); IR=50 {means['longtail'][0]:.3f} "
          f"vs {means['longtail'][1]:.3f}; 8-shot {means['fewshot'][0]:.3f} vs "
          f"{means['fewshot'][1]:.3f}; trainable ratio {ratio:.3f} (cap 0.10)")


def test_criterion_8_complexity_formulas():
    report = dict(model.param_count_report(768, 64, 12, 50, 16, 10))
    ok = (report["adapter"] == 1_179_648 and report["vpt"] == 460_800
          and report["lion"] == 1_024)
    check(8, "complexity formulas", ok,
          f"d=768, d~=64, L=12, n=50, m=16 -> adapter {report['adapter']:,}, "
          f"vpt {report['vpt']:,}, prompt {report['lion']:,} "
          f"(expect 1,179,648 / 460,800 / 1,024)")


def test_criterion_9_persistence(tmp_path):
    rng = substream(3, "accept-ckpt")
    params = [Param("a.scalar", Tensor(float(rng.normal()))),
              Param("b.vec", Tensor(rng.normal(size=9))),
              Param("c.mat", Tensor(rng.normal(size=(4, 6))))]
    first, second = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    checkpoint.save(first, params)
    blank = [Param(p.name, Tensor(np.zeros(p.value.shape))) for p in params]
    checkpoint.restore(blank, checkpoint.load(first))
    checkpoint.save(second, blank)
    ckpt_ok = open(first, "rb").read() == open(second, "rb").read()

    cfg = RunConfig(seed=9, tau=0.35, eta=0.125, tol=2.5e-9, protocol="lion",
                    dataset="glyphs", shift="rotation", ir=7.5, shots=3)
    config_ok = parse(serialize(cfg)) == cfg and parse(serialize(RunConfig())) == RunConfig()

    from lionprompt.cli import CSV_HEADER, _run_row
    bb = shared_backbone()
    tr = make_blobs(4, 16, 200, seed=0, split="train")
    te = make_blobs(4, 16, 200, seed=0, split="test")
    res = run_protocol(RunConfig(protocol="head_tuning", seed=0, epochs=5), bb, tr, te)
    row_cfg = RunConfig(protocol="head_tuning", epochs=5)
    path = tmp_path / "run.csv"
    path.write_text(CSV_HEADER + "\n" + _run_row(row_cfg, res) + "\n")
    keys = CSV_HEADER.split(",")
    values = dict(zip(keys, path.read_text().splitlines()[1].split(",")))
    csv_ok = (float(values["accuracy"]) == res.accuracy
              and int(values["trainable_params"]) == res.trainable_params
              and int(values["epochs"]) == res.epochs_run
              and float(values["wall_time_s"]) == res.wall_time_s)
    ok = ckpt_ok and config_ok and csv_ok
    check(9, "persistence", ok,
          f"checkpoint save->load->save byte-identical: {ckpt_ok}; config "
          f"round-trip equality: {config_ok}; CSV parses back to emitted "
          f"values exactly: {csv_ok}")
