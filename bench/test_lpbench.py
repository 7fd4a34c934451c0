"""Tests of the benchmark itself, at tiny sizes."""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import lpbench  # noqa: E402
from lionprompt import cli, deq  # noqa: E402

TINY = lpbench.Scale(epochs=2, targets=4, cases=2, config=("hidden = 16",))


def tiny_run(tmp_path, workload: str, trace: bool) -> tuple[lpbench.Run, dict]:
    run = lpbench.Run(workload, seed=3, seconds=0.01, trace=trace, scale=TINY)
    work = tmp_path / "work"
    work.mkdir()
    return run, run.execute(cli, deq, str(work), str(tmp_path / "spans.jsonl"))


def traced_attributes() -> dict:
    found = {}
    for modname in lpbench.TRACED_MODULES:
        mod = importlib.import_module(f"lionprompt.{modname}")
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn):
                found[(mod.__name__, attr)] = fn
    for modname, cls, meth in lpbench.TRACED_METHODS:
        owner = getattr(importlib.import_module(f"lionprompt.{modname}"), cls)
        found[(cls, meth)] = vars(owner)[meth]
    return found


# --- tracing -------------------------------------------------------------------------

def test_self_times_subtract_children():
    spans = [["root", 0.0, 10.0, -1, 0, None], ["a", 1.0, 3.0, 0, 0, None],
             ["b", 4.0, 8.0, 0, 0, None], ["c", 5.0, 6.0, 2, 0, None]]
    own = lpbench.self_times(spans)
    assert own == [4.0, 2.0, 3.0, 1.0]
    assert sum(own) == 10.0


@pytest.mark.parametrize("workload", ["lion-full", "gradcheck"])
def test_self_times_account_for_traced_wall_time(tmp_path, workload):
    run, report = tiny_run(tmp_path, workload, trace=True)
    assert report["failures"] == []
    unattributed = report["traced_wall_s"] - report["self_time_s"]
    assert 0.0 <= unattributed <= 0.05 * report["traced_wall_s"]
    assert 0.95 <= report["self_time_coverage"]["min"] <= report["self_time_coverage"]["max"] <= 1.0
    layers = report["layers"]
    assert layers["cli.main"]["calls"] == 1 + 2 * len(
        lpbench.round_commands(workload, 1, ".", TINY, "bench.cfg"))
    if workload == "lion-full":
        assert layers["deq.solve_forward_batch.p1"]["nfe"] > 0
        assert layers["deq.solve_adjoint_batch.p2"]["calls"] > 0
        assert "deq.solve_forward" not in layers
    else:
        assert layers["deq.solve_forward"]["calls"] > 0
        assert not any(k.startswith("deq.solve_forward_batch") for k in layers)
    assert set(report["per_layer"]) >= {"deq.forward_solve.self_ms", "trace.overhead_ms"}
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = traced_attributes()
    tracer = lpbench.Tracer(deq.SolverConfig().tol)
    tracer.install()
    try:
        during = traced_attributes()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("lionprompt.deq", "solve_forward_batch") in changed
        assert ("PromptBlock", "solve") in changed
        assert ("lionprompt.deq", "_solve") not in changed
    finally:
        tracer.restore()
    assert traced_attributes() == before
    tiny_run(tmp_path, "lion-lowdata", trace=True)
    assert traced_attributes() == before


# --- correctness checks --------------------------------------------------------------

def outcome(kind: str, stdout: str, rc: int = 0, target: int = 5) -> lpbench.Outcome:
    cmd = lpbench.Command(kind, target, "full", ("x",))
    return lpbench.Outcome(cmd, rc, stdout, 1.0, 1.0)


@pytest.fixture
def checker(tmp_path):
    (tmp_path / "backbone-blobs-s5.ckpt").write_bytes(b"backbone")
    (tmp_path / "lion-blobs-s5.ckpt").write_bytes(b"model")
    (tmp_path / "lion-blobs-s5-trace.csv").write_bytes(b"trace")
    chk = lpbench.Checker(str(tmp_path), cases=20)
    chk.backbone_digest = hashlib.sha256(b"backbone").hexdigest()
    return chk


TUNE_OUT = "held-out accuracy 0.9\nepochs run       2\n"


def test_checks_pass_on_matching_outputs(checker):
    assert checker.check(outcome("tune_lion", TUNE_OUT)) == []
    assert checker.check(outcome("eval_lion", "held-out accuracy 0.9\n")) == []
    assert checker.check(outcome("tune_lion", TUNE_OUT)) == []
    assert checker.check(outcome("gradcheck", "20/20 ok (0 solver failures)\n")) == []
    assert checker.check_counts(outcome("tune_lion", ""), {"nonconverged": 0, "nfe": 3}) == []


def test_check_trips_on_nonzero_exit(checker):
    assert checker.check(outcome("tune_lion", TUNE_OUT, rc=1))


def test_check_trips_on_eval_accuracy_mismatch(checker):
    checker.check(outcome("tune_lion", TUNE_OUT))
    assert checker.check(outcome("eval_lion", "held-out accuracy 0.905\n"))


def test_check_trips_when_lion_tune_changes_backbone(checker, tmp_path):
    (tmp_path / "backbone-blobs-s5.ckpt").write_bytes(b"backbonf")
    assert checker.check(outcome("tune_lion", TUNE_OUT))


def test_check_trips_when_gradcheck_is_not_all_ok(checker):
    assert checker.check(outcome("gradcheck", "19/20 ok (0 solver failures)\n"))
    assert checker.check(outcome("gradcheck", "2/2 ok (0 solver failures)\n"))


def test_check_trips_on_nonconverged_forward_solve(checker):
    assert checker.check_counts(outcome("tune_lion", ""), {"nonconverged": 1})


@pytest.mark.parametrize("artifact", ["lion-blobs-s5.ckpt", "lion-blobs-s5-trace.csv"])
def test_check_trips_when_repeat_artifacts_differ(checker, tmp_path, artifact):
    assert checker.check(outcome("tune_lion", TUNE_OUT)) == []
    (tmp_path / artifact).write_bytes(b"changed")
    assert checker.check(outcome("tune_lion", TUNE_OUT))


def test_check_trips_when_repeat_counts_differ(checker):
    assert checker.check_counts(outcome("tune_lion", ""), {"nonconverged": 0, "nfe": 3}) == []
    assert checker.check_counts(outcome("tune_lion", ""), {"nonconverged": 0, "nfe": 4})


# --- inputs ------------------------------------------------------------------------------

@pytest.mark.parametrize("workload", lpbench.WORKLOADS)
def test_seed_changes_the_inputs_and_nothing_else(workload):
    scale = lpbench.Scale()
    a, b = (lpbench.target_seeds(workload, s, scale) for s in (1, 2))
    assert a == lpbench.target_seeds(workload, 1, scale)
    assert a != b and len(a) == len(b) == len(set(a))
    for ta, tb in zip(a, b):
        ca = lpbench.round_commands(workload, ta, "out", scale, "bench.cfg")
        cb = lpbench.round_commands(workload, tb, "out", scale, "bench.cfg")
        assert len(ca) == len(cb)
        for x, y in zip(ca, cb):
            assert (x.kind, x.variant) == (y.kind, y.variant)
            assert [v for v in x.argv if v != str(ta)] == [v for v in y.argv if v != str(tb)]
            assert x.argv != y.argv


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    run, report = tiny_run(tmp_path, "lion-lowdata", trace=False)
    report["setup_s"] += 0.1
    metrics = lpbench.end_to_end(report, "lion-lowdata", 100.0, 0, len(run.outcomes))
    assert all(m["value"] > 0 for m in metrics.values())
    assert report["counts"] and report["failures"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/lpbench.py", "--workload", "gradcheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
