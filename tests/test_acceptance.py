"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; each criterion states its tolerance inline.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from lionprompt import checkpoint, model, robust_opt
from lionprompt.config import RunConfig, parse, serialize
from lionprompt.deq import SolverConfig, solve_forward_batch
from lionprompt.harness import (
    gradcheck_suite,
    make_blobs,
    run_protocol,
    target_task,
    verify_proposition1,
)
from lionprompt.model import gate_coeffs
from lionprompt.numerics import Param, batch_cross_entropy
from lionprompt.rng import substream
from reference import make_cell

_CACHE = {}


def check(criterion: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion} ({label}): {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def transfer_sweep(bb):
    """Head vs LION over 5 seeds on plain / long-tail / few-shot targets."""
    if "sweep" not in _CACHE:
        rows = {"plain": [], "longtail": [], "fewshot": []}
        for seed in range(5):
            variants = {"plain": RunConfig(seed=seed),
                        "longtail": RunConfig(seed=seed, ir=50.0),
                        "fewshot": RunConfig(seed=seed, shots=8)}
            for name, target in variants.items():
                train_ds, te = target_task(target)
                head = run_protocol(replace(target, protocol="head_tuning"), bb, train_ds, te)
                lion = run_protocol(target, bb, train_ds, te)
                rows[name].append((head.accuracy, lion.accuracy))
                if "lion_params" not in _CACHE:
                    full = run_protocol(replace(target, protocol="full_finetune", epochs=3),
                                        bb, train_ds, te)
                    _CACHE["lion_params"] = lion.trainable_params
                    _CACHE["full_params"] = full.trainable_params
        _CACHE["sweep"] = rows
    return _CACHE["sweep"]


def random_cell(seed, h, d):
    rng = substream(seed, "accept-cell")
    cell = make_cell(
        W=rng.normal(size=(h, h)),
        U=rng.normal(size=(h, d)),
        b=rng.normal(size=h) * 0.1)
    cell.renormalize()
    return cell


def test_criterion_1_implicit_gradients():
    start = time.perf_counter()
    rows = gradcheck_suite(RunConfig())
    elapsed = time.perf_counter() - start
    worst_fd = max(r.fd_rel_err for r in rows)
    worst_unrolled = max(r.unrolled_rel_err for r in rows)
    ok = (all(r.status == "ok" for r in rows)
          and worst_fd <= 1e-4 and worst_unrolled <= 1e-5 and elapsed < 30.0)
    check(1, "implicit gradients", ok,
          f"20 cells: max rel err {worst_fd:.2e} vs finite differences "
          f"(tol 1e-4), {worst_unrolled:.2e} vs unrolled to kappa-derived depth (tol 1e-5), "
          f"{elapsed:.1f}s (budget 30s)")


def test_criterion_2_solver_contract():
    residual_ok = True
    anderson_wins = 0
    agree_ok = True
    for seed in range(20):
        cell = random_cell(seed, h=12, d=6)
        x = substream(seed, "accept-x").normal(size=6)
        anderson = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-8, anderson_depth=5))
        picard = solve_forward_batch(cell, x[None], SolverConfig(tol=1e-8, anderson_depth=0))
        residual_ok &= anderson.converged and anderson.residual <= 1e-8
        residual_ok &= picard.converged and picard.residual <= 1e-8
        if anderson.iterations < picard.iterations:
            anderson_wins += 1
    cell = random_cell(99, h=10, d=4)
    x = substream(99, "accept-x").normal(size=4)
    cfg = SolverConfig(tol=1e-10)
    starts = [np.zeros(10), np.ones(10), -np.ones(10),
              substream(99, "s1").normal(size=10),
              substream(99, "s2").normal(size=10) * 5.0]
    points = [solve_forward_batch(cell, x[None], cfg, z0_rows=z[None]).z_star[0]
              for z in starts]
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


def test_criterion_4_frozen_backbone(source_backbone):
    bb = model.clone_backbone(source_backbone[0])
    pm = model.build_prompt_model(bb, 4, seed=0)
    train, _ = target_task(RunConfig(seed=0))

    class Task:
        trainable_params = pm.trainable_params
        predict = staticmethod(lambda x: model.predict(pm, x))
        loss_and_grads = staticmethod(lambda x, y: model.loss_and_grads(pm, x, y))
        post_step = pm.post_step

    before = [p.value.tobytes() for p in pm.backbone.params()]
    robust_opt.train(Task(), (train.inputs, train.labels), robust_opt.OptState(eta=0.3, tau=0.4),
                     epochs=30)
    after = [p.value.tobytes() for p in pm.backbone.params()]
    grads = [p.grad for p in pm.backbone.params()]
    ok = before == after and all(g is None for g in grads)
    check(4, "frozen backbone", ok,
          f"backbone bit-identical across a 30-epoch training run: "
          f"{before == after}; no gradients accumulated on it: "
          f"{all(g is None for g in grads)}")


def test_criterion_5_prompt_position_asymmetry():
    start = time.perf_counter()
    rep = verify_proposition1(seed=0)
    elapsed = time.perf_counter() - start
    ok = (rep.input_side_loss <= 1e-3 and rep.output_side_loss >= 0.5
          and rep.control_loss <= 1e-3 and elapsed < 60.0)
    check(5, "input/output prompt asymmetry", ok,
          f"input side {rep.input_side_loss:.2e} (tol 1e-3); output side "
          f"least-squares minimum {rep.output_side_loss:.2f} (floor 0.5); "
          f"control {rep.control_loss:.2e} (tol 1e-3); {elapsed:.1f}s (budget 60s)")


class _Softmax:
    """Minimal full-batch softmax regression used to compare optimizers."""

    def __init__(self, d, c, seed):
        rng = substream(seed, "accept-softmax")
        self.w = Param("sm.W", rng.normal(size=(c, d)) * 0.01)
        self.b = Param("sm.b", np.zeros(c))

    def trainable_params(self):
        return [self.w, self.b]

    def loss_and_grads(self, x, y):
        logits = x @ self.w.value.T + self.b.value
        value, g = batch_cross_entropy(logits, y)
        self.w.add_grad(g.T @ x)
        self.b.add_grad(np.sum(g, axis=0))
        return value, logits

    def predict(self, x):
        return np.argmax(x @ self.w.value.T + self.b.value, axis=1)


class _PlainSoftmax(_Softmax):
    """_Softmax whose partition covers nothing, as the baselines' do."""

    def partitioned_params(self):
        return []


def test_criterion_6_partitioned_optimizer():
    rng = substream(7, "accept-part")
    ordered = True
    for _ in range(10):
        scores = np.abs(rng.normal(size=37))
        crucial = robust_opt.partition(scores, tau=0.4)
        ordered &= bool(scores[~crucial].max(initial=-np.inf) < scores[crucial].min())

    ds = make_blobs(3, 6, 120, seed=11)
    trained = _PlainSoftmax(6, 3, seed=5)
    robust_opt.train(trained, (ds.inputs, ds.labels), robust_opt.OptState(eta=0.2), epochs=25)
    manual = _Softmax(6, 3, seed=5)
    for _ in range(25):
        for p in manual.trainable_params():
            p.zero_grad()
        manual.loss_and_grads(ds.inputs, ds.labels)
        for p in manual.trainable_params():
            p.value = p.value - 0.2 * p.grad
    bitwise = all(a.value.tobytes() == b.value.tobytes()
                  for a, b in zip(trained.trainable_params(),
                                  manual.trainable_params()))

    shrink_task = _Softmax(6, 3, seed=6)
    log = robust_opt.train(shrink_task, (ds.inputs, ds.labels),
                           robust_opt.OptState(eta=0.2, tau=0.4, repartition_every=5),
                           epochs=25)
    monotone = True
    for e in range(1, 25):
        if e % 5 != 0:          # comparisons within one repartition window
            monotone &= (log.rows[e]["noncrucial_mean_abs"]
                         <= log.rows[e - 1]["noncrucial_mean_abs"] + 1e-15)
    ok = ordered and bitwise and monotone
    check(6, "partitioned optimizer", ok,
          f"every non-crucial score below every crucial one over 10 draws: {ordered}; "
          f"all-crucial run bitwise equal to vanilla GD after 25 epochs: {bitwise}; "
          f"non-crucial mean |theta| non-increasing within windows: {monotone}")


def test_criterion_7_transfer_ordering(source_backbone):
    rows = transfer_sweep(source_backbone[0])
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


def test_criterion_9_persistence(tmp_path, source_backbone):
    rng = substream(3, "accept-ckpt")
    params = [Param("a.scalar", float(rng.normal())),
              Param("b.vec", rng.normal(size=9)),
              Param("c.mat", rng.normal(size=(4, 6)))]
    first, second = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    checkpoint.save(first, params)
    blank = [Param(p.name, np.zeros(p.value.shape)) for p in params]
    checkpoint.restore(blank, checkpoint.load(first)[0])
    checkpoint.save(second, blank)
    ckpt_ok = open(first, "rb").read() == open(second, "rb").read()

    cfg = RunConfig(seed=9, tau=0.35, eta=0.125, tol=2.5e-9, protocol="lion",
                    dataset="glyphs", shift="rotation", ir=7.5, shots=3)
    config_ok = parse(serialize(cfg)) == cfg and parse(serialize(RunConfig())) == RunConfig()

    from lionprompt.cli import CSV_HEADER, _csv, _run_row
    tr, te = target_task(RunConfig(seed=0, shift="none"))
    res = run_protocol(RunConfig(protocol="head_tuning", seed=0, epochs=5), source_backbone[0],
                       tr, te)
    row_cfg = RunConfig(protocol="head_tuning", epochs=5)
    path = tmp_path / "run.csv"
    path.write_bytes(_csv(CSV_HEADER.split(","), [_run_row(row_cfg, res)]))
    keys = CSV_HEADER.split(",")
    values = dict(zip(keys, path.read_text().splitlines()[1].split(",")))
    csv_ok = (float(values["accuracy"]) == res.accuracy
              and int(values["trainable_params"]) == res.trainable_params
              and int(values["epochs"]) == len(res.log.rows)
              and float(values["wall_time_s"]) == res.wall_time_s)
    ok = ckpt_ok and config_ok and csv_ok
    check(9, "persistence", ok,
          f"checkpoint save->load->save byte-identical: {ckpt_ok}; config "
          f"round-trip equality: {config_ok}; CSV parses back to emitted "
          f"values exactly: {csv_ok}")
