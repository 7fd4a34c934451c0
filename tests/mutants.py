"""The mutation table: deliberate faults, each with the tests that must catch it.

    python tests/mutants.py

Each row names one fault: a file, an exact old text and the new text that
replaces it, and the tests to run (files, or pytest node ids). Rows run one
at a time, never in parallel. Each is applied alone to a fresh temporary copy
of `src/`, `tests/` and `pyproject.toml`, and `pytest -x` runs its tests
there; the working tree is never edited. A row is

- killed when a test fails;
- survived when every test passes;
- invalid when its old text does not occur exactly once in its file, or
  when pytest errors instead (a collection, import or fixture error), exits
  otherwise, or overruns `TIMEOUT_S`.

The command prints one line per row and exits 1 on an invalid row or on a
survivor the table does not accept with a reason, else 0. A test that is
added or tightened comes with the row that shows it can fail; a change to a
guarded line updates its row. `tests/test_mutants_table.py` keeps every old
text matching without running the mutants.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                   # relative to the repo root
    old: str                    # must occur exactly once in `file`
    new: str
    tests: tuple[str, ...]      # test files or node ids, relative to the repo root
    accepted: str = ""          # why surviving is acceptable; empty: it must be killed


CLI, DEQ, HARNESS = "src/lionprompt/cli.py", "src/lionprompt/deq.py", "src/lionprompt/harness.py"
MODEL, OPT = "src/lionprompt/model.py", "src/lionprompt/robust_opt.py"
CKPT = "src/lionprompt/checkpoint.py"
T_CLI = "tests/test_cli.py"

MUTANTS = (
    Mutant("tune stops at 21 epochs", OPT,
           "    for epoch in range(epochs):", "    for epoch in range(min(epochs, 21)):",
           (f"{T_CLI}::test_a_null_step_tune_runs_and_evals_exactly",)),
    Mutant("tune runs one epoch short", OPT,
           "    for epoch in range(epochs):", "    for epoch in range(max(epochs - 1, 1)):",
           (f"{T_CLI}::test_tune_lion_reports_gates_and_evals_exactly",)),
    Mutant("renormalize skips inside its margin", DEQ,
           "<= self.kappa * (1.0 - 1e-9):", "<= self.kappa:",
           ("tests/test_deq.py::test_renormalize_runs_the_svd_again_when_the_bound_sits_"
            "inside_its_margin",)),
    Mutant("eval ignores the recorded accuracy", CLI,
           "    if repr(accuracy) != recorded:", "    if False:",
           (f"{T_CLI}::test_eval_fails_unless_it_reproduces_the_recorded_accuracy",)),
    Mutant("eval accepts a config without an accuracy", CLI,
           "    if not accuracy:", "    if False:",
           (f"{T_CLI}::test_eval_fails_unless_it_reproduces_the_recorded_accuracy",)),
    Mutant("table check misses an unmatched old text", "tests/mutants.py",
           # split, so that this row does not match itself
           "text.count(m.old) " "!= 1", "text.count(m.old) > 1",
           ("tests/test_mutants_table.py",)),
    Mutant("gradcheck tol uncapped", HARNESS,
           "tol=min(cfg.tol, GRADCHECK_TOL)", "tol=cfg.tol",
           ("tests/test_harness.py",)),
    Mutant("renormalize runs the SVD every time", DEQ,
           "                return\n        sigma = estimate_spectral_norm(w)",
           "                pass\n        sigma = estimate_spectral_norm(w)",
           ("tests/test_work_counts.py",)),
    Mutant("solve screen without its margin", DEQ,
           "bound = len(v) * tol * tol * (1.0 + 1e-6)", "bound = len(v) * tol * tol",
           ("tests/test_deq_properties.py",)),
    Mutant("partition ties go non-crucial", OPT,
           "(scores >= threshold)", "(scores > threshold)",
           ("tests/test_robust_opt.py",)),
    Mutant("gate clamp dropped", MODEL,
           "    alpha = min(max(alpha, GATE_EPS), 1.0 - GATE_EPS)\n", "",
           ("tests/test_model.py",)),
    Mutant("warm start from the last point only", MODEL,
           "z1_start, z2_start = (2.0 * zn - zo for zn, zo in zip(history[1], history[0]))",
           "z1_start, z2_start = history[1]",
           ("tests/test_work_counts.py",)),
    Mutant("adjoint with an untransposed W", DEQ,
           "mats = np.ascontiguousarray(w.T)[None, :, :]",
           "mats = np.ascontiguousarray(w)[None, :, :]",
           ("tests/test_deq.py",)),
    Mutant("eval loads without the digest", CLI,
           "checkpoint.load(path, sha256=digest)[0]", "checkpoint.load(path)[0]",
           (T_CLI,)),
    Mutant("backbone loads without its digest", CLI,
           "values, digest = checkpoint.load(path, sha256)",
           "values, digest = checkpoint.load(path)",
           (f"{T_CLI}::test_eval_refuses_a_backbone_replaced_after_the_tune",)),
    Mutant("an unrecorded backbone digest goes unchecked", CLI,
           "values, digest = checkpoint.load(path, sha256)",
           "values, digest = checkpoint.load(path, sha256 or None)",
           (f"{T_CLI}::test_eval_refuses_a_tune_whose_backbone_is_gone_or_unrecorded",)),
    Mutant("tune saves the backbone too", CLI,
           'checkpoint.save(paths["model"], res.task.trainable_params())',
           'checkpoint.save(paths["model"], res.task.backbone.params()'
           ' + res.task.trainable_params())',
           (f"{T_CLI}::test_a_tuned_checkpoint_holds_exactly_the_trainable_params",)),
    Mutant("restore ignores extra entries", CKPT,
           "    if extra:\n", "    if False:\n",
           (f"{T_CLI}::test_a_checkpoint_that_still_holds_backbone_values_is_refused",)),
    Mutant("BLAS pin keeps the caller's count", CLI,
           "    set_(1)\n", "    set_(before)\n",
           (f"{T_CLI}::test_artifacts_do_not_depend_on_the_callers_blas_thread_count",)),
    Mutant("certified ignores convergence", DEQ,
           "        if not self.converged:", "        if False:",
           ("tests/test_deq.py",)),
    Mutant("kappa projection skipped", DEQ,
           "        if sigma > self.kappa:", "        if False:",
           ("tests/test_deq.py",)),
    Mutant("non-crucial shrink by eta / 2", OPT,
           "np.maximum(np.abs(shrink) - state.eta, 0.0)",
           "np.maximum(np.abs(shrink) - state.eta / 2, 0.0)",
           ("tests/test_robust_opt.py",)),
    Mutant("gate VJP sign flipped", MODEL,
           "    return g, -g", "    return -g, g",
           ("tests/test_model.py",)),
    Mutant("pretrain floor of 299 epochs", HARNESS,
           "PRETRAIN_MIN_EPOCHS = 300 ", "PRETRAIN_MIN_EPOCHS = 299 ",
           ("tests/test_work_counts.py",)),
    Mutant("logged accuracy taken after the step", OPT,
           '"accuracy": float(np.mean(np.argmax(logits, axis=1) == y)),',
           '"accuracy": float(np.mean(task.predict(x) == y)),',
           ("tests/test_robust_opt.py",)),
)


def unmatched(mutants, root: Path = ROOT) -> list[str]:
    """The names of the rows whose old text does not occur exactly once in their file."""
    bad = []
    for m in mutants:
        path = root / m.file
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        if text.count(m.old) != 1:
            bad.append(m.name)
    return bad


def run(m: Mutant) -> tuple[str, str]:
    """(outcome, detail) of one row, run on a fresh temporary copy."""
    if unmatched([m]):
        return "invalid", f"old text does not occur exactly once in {m.file}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, dst)
        target = Path(tmp) / m.file
        target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *m.tests], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "invalid", f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    if proc.returncode == 1 and re.search(r"\b\d+ failed\b", summary) \
            and not re.search(r"\b\d+ errors?\b", summary):
        return "killed", summary
    if proc.returncode == 0:
        return "survived", summary
    return "invalid", f"pytest exit {proc.returncode}: {summary}"


def main() -> int:
    failed = 0
    for m in MUTANTS:
        start = time.perf_counter()
        outcome, detail = run(m)
        bad = outcome == "invalid" or (outcome == "survived" and not m.accepted)
        failed += bad
        note = f" (accepted: {m.accepted})" if outcome == "survived" and m.accepted else ""
        print(f"{outcome:<8} {m.name:<45} {time.perf_counter() - start:5.1f} s  "
              f"{detail}{note}", flush=True)
    print(f"{failed} row(s) need attention" if failed else "every row as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
