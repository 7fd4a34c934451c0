"""Closed-loop benchmark of the lionprompt command line.

Usage, from the root of a checkout:

    python3 bench/lpbench.py --workload lion-full --seed 1 --seconds 30 --trace 0

One client drives `lionprompt.cli.main` in this process: each command starts
only after the previous one returned. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
lines before it are a readable detail report. `--trace 0` reports the
end-to-end metrics. `--trace 1` first runs a traced pass, with spans around
the public functions of the program's layers installed from this file, then
restores every wrapped function and measures the same rounds untraced, and
reports the per-layer metrics. See bench/README.md for the workloads and
the metric map.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # before numpy and lionprompt are imported

import argparse
import contextlib
import ctypes
import functools
import glob
import hashlib
import importlib
import inspect
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

# Every workload adapts one backbone pretrained at this seed. Measured on a
# 2-core box, the backbone's seed moved a 60-epoch lion tune between 2.7 s
# and 4.3 s, so drawing it per run would bury any code change in seed noise;
# the targets, which a user varies, are drawn from the workload seed.
BACKBONE_SEED = 0
PRETRAIN_REPEATS = 3


@dataclass(frozen=True)
class Scale:
    """Sizes the workloads run at; the tests shrink them."""

    epochs: int = 60            # lion and head tunes; pretraining always runs 300
    targets: int = 32           # more than a run reaches; each round takes the next
    # Cases per gradcheck command. At its default of 20 only three commands,
    # each drawing its cell sizes from its seed, fit in a run, and their rate
    # spread 18% over five seeds; five-case commands spread the run over
    # about fifteen seeds instead.
    cases: int = 5
    config: tuple = ()          # extra `key = value` lines for the CLI config file


WORKLOADS = ("lion-full", "lion-lowdata", "gradcheck")
LOWDATA_VARIANTS = (("shots8", ["--shots", "8"]), ("ir50", ["--ir", "50"]))


@dataclass(frozen=True)
class Command:
    kind: str                  # pretrain | tune_lion | eval_lion | tune_head | eval_head | gradcheck
    target: int
    variant: str
    argv: tuple


def target_seeds(workload: str, seed: int, scale: Scale) -> list[int]:
    """The CLI seeds of one run, in round order: distinct, reproducible from
    the workload seed. Every round takes a fresh target, because the targets'
    own cost differences (about 8% on lion tunes, 16% on gradcheck) average
    out only over many of them."""
    rng = random.Random(f"{workload}/{seed}")
    return rng.sample(range(1, 1_000_000), scale.targets)


def _flags(out: str, seed: int, cfg: str, epochs: int | None = None) -> list[str]:
    flags = ["--out", out, "--seed", str(seed), "--config", cfg]
    if epochs is not None:
        flags += ["--epochs", str(epochs)]
    return flags


def pretrain_command(out: str, cfg: str) -> Command:
    return Command("pretrain", BACKBONE_SEED, "",
                   tuple(["pretrain"] + _flags(out, BACKBONE_SEED, cfg)))


def round_commands(workload: str, target: int, out: str, scale: Scale,
                   cfg: str) -> list[Command]:
    """The commands one round runs for one target seed, in order."""
    flags = _flags(out, target, cfg, scale.epochs)
    if workload == "lion-full":
        lion, head = ["--protocol", "lion"], ["--protocol", "head_tuning"]
        return [Command("tune_lion", target, "full", tuple(["tune"] + flags + lion)),
                Command("eval_lion", target, "full", tuple(["eval"] + flags + lion)),
                Command("tune_head", target, "full", tuple(["tune"] + flags + head)),
                Command("eval_head", target, "full", tuple(["eval"] + flags + head))]
    if workload == "lion-lowdata":
        cmds = []
        for variant, extra in LOWDATA_VARIANTS:
            args = flags + ["--protocol", "lion"] + extra
            cmds.append(Command("tune_lion", target, variant, tuple(["tune"] + args)))
            cmds.append(Command("eval_lion", target, variant, tuple(["eval"] + args)))
        return cmds
    if workload == "gradcheck":
        return [Command("gradcheck", target, "",
                        ("gradcheck", "--seed", str(target), "--config", cfg))]
    raise ValueError(f"unknown workload {workload!r}")


# --- running one command ---------------------------------------------------------

@dataclass
class Outcome:
    command: Command
    rc: int
    stdout: str
    wall_s: float
    cpu_s: float
    error: str = ""
    failures: list = field(default_factory=list)
    request: int = -1


def run_command(cli, cmd: Command) -> Outcome:
    """Call the CLI entry point once, capturing its output and cost."""
    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:              # argparse rejects a malformed command
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                      # the loop must go on and count it
        rc = -1
        err.write(traceback.format_exc())
    t1, cpu1 = time.perf_counter(), time.process_time()
    return Outcome(cmd, rc, out.getvalue(), t1 - t0, cpu1 - cpu0, err.getvalue())


# --- correctness checks --------------------------------------------------------------

_HELDOUT = re.compile(r"^held-out accuracy (\S+)$", re.M)
_EPOCHS = re.compile(r"^epochs run\s+(\d+)$", re.M)
_GRADCHECK = re.compile(r"^(\d+)/(\d+) ok", re.M)
_CASE = re.compile(r"^\s*\d+\s+(\d+)x(\d+)\s+(\S+)\s+\S+\s+\S+$", re.M)


def work_units(cmd_kind: str, stdout: str) -> int:
    """Work one main command did, read from its own output: epochs run for a
    tune, gradient entries checked for gradcheck (h*h + h*d + h + d per case,
    the parameters and inputs of an h-state, d-input cell)."""
    if cmd_kind == "gradcheck":
        return sum(h * h + h * d + h + d for h, d in
                   ((int(a), int(b)) for a, b, _ in _CASE.findall(stdout)))
    return int(_EPOCHS.search(stdout).group(1))


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def artifact_paths(cmd: Command, out: str) -> dict[str, str]:
    protocol = "lion" if cmd.kind.endswith("lion") else "head_tuning"
    run_id = f"{protocol}-blobs-s{cmd.target}"
    return {"model": os.path.join(out, f"{run_id}.ckpt"),
            "trace": os.path.join(out, f"{run_id}-trace.csv"),
            "backbone": os.path.join(out, f"backbone-blobs-s{cmd.target}.ckpt")}


class Checker:
    """Counts a command as failed when any of its outputs is wrong.

    A command fails when it exits non-zero; when eval's held-out accuracy is
    not exactly the accuracy tune reported; when a lion tune changes the
    backbone checkpoint's bytes; when gradcheck is not all-ok; when a traced
    forward solve returns converged=False; or when the trace CSV, the model
    checkpoint, gradcheck's table or the traced counts of a command differ
    from an earlier repeat of the same command. `seen` holds what earlier
    repeats produced, in this run and, when the caller keeps it between
    runs, in earlier runs of the same program.
    """

    def __init__(self, out: str, cases: int, seen: dict | None = None):
        self.out = out
        self.cases = cases
        self.backbone_digest: str | None = None
        self.tuned_accuracy: dict = {}
        self.seen: dict = {} if seen is None else seen

    def _repeat(self, key: tuple, value, what: str, failures: list) -> None:
        key = "/".join(str(k) for k in key)
        if key not in self.seen:
            self.seen[key] = value
        elif self.seen[key] != value:
            failures.append(f"{what} differs from an earlier repeat")

    def check(self, oc: Outcome) -> list[str]:
        cmd, failures = oc.command, []
        if oc.rc != 0:
            failures.append(f"exit code {oc.rc}: {oc.error.strip()[-300:]}")
            return failures
        key = (cmd.kind, cmd.target, cmd.variant)
        if cmd.kind == "pretrain":
            digest = _digest(os.path.join(self.out, f"backbone-blobs-s{cmd.target}.ckpt"))
            self._repeat(key + ("backbone",), digest, "backbone checkpoint", failures)
        elif cmd.kind.startswith("tune"):
            acc = _HELDOUT.search(oc.stdout)
            if acc is None:
                failures.append("tune printed no held-out accuracy")
            else:
                self.tuned_accuracy[(cmd.kind[5:], cmd.target, cmd.variant)] = acc.group(1)
            paths = artifact_paths(cmd, self.out)
            self._repeat(key + ("model",), _digest(paths["model"]), "model checkpoint", failures)
            self._repeat(key + ("trace",), _digest(paths["trace"]), "trace CSV", failures)
            if cmd.kind == "tune_lion" and _digest(paths["backbone"]) != self.backbone_digest:
                failures.append("lion tune changed the backbone checkpoint")
        elif cmd.kind.startswith("eval"):
            acc = _HELDOUT.search(oc.stdout)
            tuned = self.tuned_accuracy.get((cmd.kind[5:], cmd.target, cmd.variant))
            if acc is None or acc.group(1) != tuned:
                failures.append(f"eval accuracy {acc and acc.group(1)} != tune accuracy {tuned}")
        elif cmd.kind == "gradcheck":
            m = _GRADCHECK.search(oc.stdout)
            if m is None or not int(m.group(1)) == int(m.group(2)) == self.cases:
                failures.append(f"gradcheck not {self.cases}/{self.cases} ok")
            self._repeat(key + ("table",), hashlib.sha256(oc.stdout.encode()).hexdigest(),
                         "gradcheck table", failures)
        return failures

    def check_counts(self, oc: Outcome, counts: dict) -> list[str]:
        """Traced-only checks: convergence, and exact counts across repeats."""
        failures = []
        if counts.get("nonconverged", 0):
            failures.append(f"{counts['nonconverged']} forward solves returned converged=False")
        self._repeat((oc.command.kind, oc.command.target, oc.command.variant, "counts"),
                     counts, "traced counts", failures)
        return failures


# --- tracing -----------------------------------------------------------------------

TRACED_MODULES = ("deq", "model", "robust_opt", "harness", "checkpoint", "cli")
TRACED_METHODS = (("model", "PromptBlock", "solve"), ("model", "PromptBlock", "vjp"))
BLOCK_SPANS = ("model.PromptBlock.solve", "model.PromptBlock.vjp")
FORWARD_SOLVES = ("deq.solve_forward_batch", "deq.solve_forward")
ADJOINT_SOLVES = ("deq.solve_adjoint_batch", "deq.solve_adjoint")
NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    """Spans around the public functions of the program's layers.

    A span is [name, start, end, parent index, request id, attrs]; one CLI
    command is one request. Spans stay in memory until `write`. Install and
    restore patch module and class attributes only, never files.
    """

    def __init__(self, default_tol: float):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._default_tol = default_tol

    def install(self) -> None:
        for modname in TRACED_MODULES:
            mod = importlib.import_module(f"lionprompt.{modname}")
            for attr, fn in sorted(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    self._patch(mod, attr, f"{modname}.{attr}")
        for modname, cls, meth in TRACED_METHODS:
            owner = getattr(importlib.import_module(f"lionprompt.{modname}"), cls)
            self._patch(owner, meth, f"{modname}.{cls}.{meth}")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        block_span = name in BLOCK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                   {"block": args[0].name} if block_span else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if not block_span:
                rec[ATTRS] = self._observe(name, args, kwargs, out)
            return out

        return traced

    def _enclosing(self, names) -> list | None:
        for idx in reversed(self._stack):
            if self.spans[idx][NAME] in names:
                return self.spans[idx]
        return None

    def _observe(self, name: str, args, kwargs, out) -> dict | None:
        if name in FORWARD_SOLVES:
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
            tol = cfg.tol if cfg is not None else self._default_tol
            attrs = {"nfe": out.iterations, "converged": bool(out.converged),
                     "resid_over_tol": out.residual / tol}
            if name == "deq.solve_forward_batch":
                blk = self._enclosing(BLOCK_SPANS)
                attrs["block"] = blk[ATTRS]["block"] if blk else "none"
                attrs["under_grad"] = self._enclosing(("model.loss_and_grads",)) is not None
            return attrs
        if name == "deq.solve_adjoint_batch":
            blk = self._enclosing(BLOCK_SPANS)
            return {"block": blk[ATTRS]["block"] if blk else "none"}
        if name == "checkpoint.save":
            return {"bytes": os.path.getsize(args[0])}
        if name == "robust_opt.train":
            return {"epochs": len(out.losses)}
        return None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start": rec[START], "end": rec[END],
                                     "parent": rec[PARENT], "request": rec[REQUEST],
                                     **(rec[ATTRS] or {})}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - children[i] for i, rec in enumerate(spans)]


def layer_key(rec: list) -> str:
    attrs = rec[ATTRS] or {}
    if rec[NAME] in ("deq.solve_forward_batch", "deq.solve_adjoint_batch"):
        return f"{rec[NAME]}.{attrs['block']}"
    return rec[NAME]


def layer_table(spans: list[list], requests: set | None = None) -> dict:
    """Calls, self time and solver counts per layer function."""
    table: dict = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
    for rec, own in zip(spans, self_times(spans)):
        if requests is not None and rec[REQUEST] not in requests:
            continue
        row = table[layer_key(rec)]
        row["calls"] += 1
        row["self_ms"] += own * 1e3
        attrs = rec[ATTRS] or {}
        if "nfe" in attrs:
            row["nfe"] = row.get("nfe", 0) + attrs["nfe"]
            row["nonconverged"] = row.get("nonconverged", 0) + (not attrs["converged"])
            row["worst_resid_over_tol"] = max(row.get("worst_resid_over_tol", 0.0),
                                              attrs["resid_over_tol"])
        if "under_grad" in attrs:
            row["under_grad"] = row.get("under_grad", 0) + attrs["under_grad"]
        for counted in ("bytes", "epochs"):
            if counted in attrs:
                row[counted] = row.get(counted, 0) + attrs[counted]
    return dict(table)


def request_counts(spans: list[list], request: int) -> dict:
    """Deterministic counts of one command: calls per layer, NFE per block."""
    calls, nfe, nonconverged = Counter(), Counter(), 0
    for rec in spans:
        if rec[REQUEST] != request:
            continue
        key = layer_key(rec)
        calls[key] += 1
        attrs = rec[ATTRS] or {}
        if "nfe" in attrs:
            nfe[key] += attrs["nfe"]
            nonconverged += not attrs["converged"]
    return {"calls": dict(sorted(calls.items())), "nfe": dict(sorted(nfe.items())),
            "nonconverged": nonconverged}


# (layer, field, unit) read straight from the layer table. Self times appear
# here only for layers every workload runs, so none of them reads 0; the rest
# are in the detail report's layer table.
LAYER_FIELDS = (
    ("deq.solve_forward_batch.p1", "calls", "count"),
    ("deq.solve_forward_batch.p1", "nfe", "count"),
    ("deq.solve_forward_batch.p2", "calls", "count"),
    ("deq.solve_forward_batch.p2", "nfe", "count"),
    ("deq.solve_adjoint_batch.p1", "calls", "count"),
    ("deq.solve_adjoint_batch.p2", "calls", "count"),
    ("deq.estimate_spectral_norm", "calls", "count"),
    ("deq.estimate_spectral_norm", "self_ms", "ms"),
    ("deq.solve_forward", "calls", "count"),
    ("deq.solve_forward", "nfe", "count"),
    ("deq.solve_forward", "nonconverged", "count"),
    ("model.backbone_forward", "calls", "count"),
    ("model.backbone_forward", "self_ms", "ms"),
    ("model.backbone_param_vjp", "self_ms", "ms"),
    ("model.predict", "calls", "count"),
    ("robust_opt.train", "epochs", "count"),
    ("robust_opt.train", "self_ms", "ms"),
    ("robust_opt.criticality_scores", "self_ms", "ms"),
    ("robust_opt.partition", "self_ms", "ms"),
    ("robust_opt.step", "self_ms", "ms"),
    ("harness.pretrain_backbone", "self_ms", "ms"),
    ("checkpoint.save", "bytes", "B"),
    ("checkpoint.save", "self_ms", "ms"),
    ("cli.main", "self_ms", "ms"),
)


def _self_ms(table: dict, prefixes) -> float:
    return sum(row["self_ms"] for key, row in table.items()
               if any(key == p or key.startswith(p + ".") for p in prefixes))


def per_layer_metrics(table: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json, from one traced pass."""
    metrics = {f"{layer}.{what}": (table.get(layer, {}).get(what, 0), unit)
               for layer, what, unit in LAYER_FIELDS}
    fwd = [row for key, row in table.items() if key.startswith("deq.solve_forward_batch.")]
    calls = sum(row["calls"] for row in fwd)
    metrics["deq.solve_forward_batch.nonconverged"] = (
        sum(row["nonconverged"] for row in fwd), "count")
    metrics["deq.solve_forward_batch.worst_residual_over_tol"] = (
        max((row["worst_resid_over_tol"] for row in fwd), default=0.0), "ratio")
    metrics["model.grad_solve_share"] = (
        sum(row.get("under_grad", 0) for row in fwd) / calls if calls else 0.0, "ratio")
    metrics["deq.forward_solve.self_ms"] = (_self_ms(table, FORWARD_SOLVES), "ms")
    metrics["deq.adjoint_solve.self_ms"] = (_self_ms(table, ADJOINT_SOLVES), "ms")
    for mod in TRACED_MODULES:
        metrics[f"{mod}.self_ms"] = (_self_ms(table, [mod]), "ms")
    return metrics


# --- statistics and environment ---------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n,
           "p": None, "p_value": None}
    if n >= 11:
        pct = int(100 * (1 - 10 / n))
        ordered = sorted(values)
        out["p"], out["p_value"] = pct, ordered[max(0, -(-pct * n // 100) - 1)]
    return out


def blas_threads(np) -> int | None:
    """OpenBLAS's current thread count, asked of the library numpy loaded."""
    pkg = os.path.dirname(np.__file__)
    libs = sorted(glob.glob(os.path.join(pkg, os.pardir, "numpy.libs", "*openblas*"))
                  + glob.glob(os.path.join(pkg, ".libs", "*openblas*")))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
    }


# --- the run -------------------------------------------------------------------------------

UNMEASURED = {
    "deq.solve_adjoint_batch.nfe": "the adjoint solve returns only its solution, so its "
                                   "iteration count is not visible outside the program",
    "deq.solve_forward_batch.worst_row_residual": "a batch solve reports one Frobenius "
                                                  "residual over all rows, not each row's",
}
MAIN_KIND = {"lion-full": "tune_lion", "lion-lowdata": "tune_lion", "gradcheck": "gradcheck"}


class SetupFailed(RuntimeError):
    pass


@dataclass
class Round:
    target: int
    wall_s: float
    requests: list


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: Scale = field(default_factory=Scale)
    outcomes: list = field(default_factory=list)

    def execute(self, cli, deq, work: str, spans_path: str | None = None,
                seen: dict | None = None) -> dict:
        """Set up, run the closed loop, and return the detail report."""
        cfg = os.path.join(work, "bench.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("\n".join((f"cases = {self.scale.cases}",) + self.scale.config) + "\n")
        checker = Checker(work, self.scale.cases, seen)
        tracer = Tracer(deq.SolverConfig().tol) if self.trace else None
        targets = target_seeds(self.workload, self.seed, self.scale)

        # Set-up runs several times so setup_s can be a median; in a traced
        # run the last repeat is traced, for the layers only set-up uses.
        pretrains = []
        for i in range(PRETRAIN_REPEATS):
            traced = tracer is not None and i == PRETRAIN_REPEATS - 1
            if traced:
                tracer.install()
            try:
                pretrains.append(self._run(cli, pretrain_command(work, cfg), checker,
                                           tracer if traced else None))
            finally:
                if traced:
                    tracer.restore()
        if any(oc.failures for oc in pretrains):
            raise SetupFailed("; ".join(f for oc in pretrains for f in oc.failures))
        stage_t0 = time.perf_counter()
        backbone = os.path.join(work, f"backbone-blobs-s{BACKBONE_SEED}.ckpt")
        checker.backbone_digest = _digest(backbone)
        if self.workload != "gradcheck":
            for t in targets:          # the CLI finds a target's backbone by its seed
                shutil.copyfile(backbone, os.path.join(work, f"backbone-blobs-s{t}.ckpt"))
        stage_s = time.perf_counter() - stage_t0

        rounds = {t: round_commands(self.workload, t, work, self.scale, cfg) for t in targets}
        loop_t0 = time.perf_counter()
        traced_rounds, untraced_rounds = [], []
        order = targets
        if tracer is not None:
            # The traced pass covers two targets, then the first again so its
            # counts can be compared. The untraced rounds start with the first
            # target once more, to measure the tracing overhead.
            tracer.install()
            try:
                for t in (targets[0], targets[1], targets[0]):
                    traced_rounds.append(self._round(cli, t, rounds[t], checker, tracer))
            finally:
                tracer.restore()
            order = targets[:1] + targets[2:]
        while True:
            t = order[len(untraced_rounds) % len(order)]
            untraced_rounds.append(self._round(cli, t, rounds[t], checker, None))
            typical = statistics.median(r.wall_s for r in untraced_rounds)
            if time.perf_counter() - loop_t0 + typical > self.seconds:
                break
        loop_s = time.perf_counter() - loop_t0

        pretrain_s = [oc.wall_s for oc in pretrains]
        report = {
            "workload": self.workload, "seed": self.seed, "trace": int(self.trace),
            "backbone_seed": BACKBONE_SEED, "epochs": self.scale.epochs,
            "seconds": self.seconds, "loop_s": loop_s,
            "rounds": [{"target": r.target, "wall_s": r.wall_s, "traced": traced}
                       for traced, rs in ((True, traced_rounds), (False, untraced_rounds))
                       for r in rs],
            "setup_s": statistics.median(pretrain_s) + stage_s,
            "setup": {"pretrain_s": pretrain_s, "stage_s": stage_s},
            "commands": self._command_stats(),
            "counts": self._exact_counts(),
            "failures": [{"argv": " ".join(oc.command.argv), "why": oc.failures}
                         for oc in self.outcomes if oc.failures],
        }
        if tracer is not None:
            first_pass = {pretrains[-1].request}.union(
                *(r.requests for r in traced_rounds[:-1]))
            report.update(self._trace_report(tracer, first_pass, traced_rounds,
                                             untraced_rounds))
            if spans_path is not None:
                tracer.write(spans_path)
        return report

    def _run(self, cli, cmd: Command, checker: Checker, tracer: Tracer | None) -> Outcome:
        request = len(self.outcomes)
        if tracer is not None:
            tracer.request = request
        oc = run_command(cli, cmd)
        oc.request = request
        oc.failures = checker.check(oc)
        if tracer is not None and oc.rc == 0:
            oc.failures += checker.check_counts(oc, request_counts(tracer.spans, request))
        self.outcomes.append(oc)
        return oc

    def _round(self, cli, target: int, cmds, checker, tracer) -> Round:
        t0 = time.perf_counter()
        requests = [self._run(cli, cmd, checker, tracer).request for cmd in cmds]
        return Round(target, time.perf_counter() - t0, requests)

    def _command_stats(self) -> dict:
        """Per command kind: wall and CPU seconds, and what the outputs say.

        Figures come from the commands that passed every check, except
        gradcheck's share of ok cases, which counts every verdict printed:
        a gradcheck with a failed case exits 1 and fails its check.
        """
        by_kind = defaultdict(list)
        for oc in self.outcomes:
            by_kind[oc.command.kind].append(oc)
        stats = {}
        for kind, every in sorted(by_kind.items()):
            ocs = [oc for oc in every if not oc.failures]
            entry = {"wall_s": summarize([oc.wall_s for oc in ocs]),
                     "cpu_s": summarize([oc.cpu_s for oc in ocs])}
            if kind.startswith("tune") and ocs:
                accs = {(oc.command.target, oc.command.variant):
                        float(_HELDOUT.search(oc.stdout).group(1)) for oc in ocs}
                entry["heldout_acc_mean"] = statistics.fmean(accs.values())
            if kind in ("tune_lion", "gradcheck") and ocs:
                # Throughput is work done over the time spent doing it, so a
                # command that drew more work weighs more.
                units = sum(work_units(kind, oc.stdout) for oc in ocs)
                entry["units_per_s"] = units / sum(oc.wall_s for oc in ocs)
                entry["cpu_ms_per_unit"] = 1e3 * sum(oc.cpu_s for oc in ocs) / units
            if kind == "gradcheck":
                verdicts = [m for m in (_GRADCHECK.search(oc.stdout) for oc in every) if m]
                if verdicts:
                    entry["cases_ok_frac"] = statistics.fmean(
                        int(m.group(1)) / int(m.group(2)) for m in verdicts)
                entry["fd_rel_err_max"] = max(
                    (float(e) for oc in ocs for _, _, e in _CASE.findall(oc.stdout)), default=None)
            stats[kind] = entry
        return stats

    def _exact_counts(self) -> dict:
        """Deterministic counts per command: epochs run, gradcheck's verdict line."""
        counts = {}
        for oc in self.outcomes:
            cmd = oc.command
            if oc.failures or cmd.kind not in ("tune_lion", "tune_head", "gradcheck"):
                continue
            key = "/".join(str(p) for p in (cmd.kind, cmd.target, cmd.variant) if p != "")
            if cmd.kind == "gradcheck":
                counts.setdefault(key, _GRADCHECK.search(oc.stdout).group(0))
            else:
                counts.setdefault(key, {"epochs": int(_EPOCHS.search(oc.stdout).group(1))})
        return counts

    def _trace_report(self, tracer: Tracer, first_pass: set, traced_rounds,
                      untraced_rounds) -> dict:
        table = layer_table(tracer.spans, first_pass)
        own_by_request = defaultdict(float)
        for rec, own in zip(tracer.spans, self_times(tracer.spans)):
            own_by_request[rec[REQUEST]] += own
        coverage = [own_by_request[oc.request] / oc.wall_s for oc in self.outcomes
                    if oc.request in own_by_request]
        traced_wall = sum(self.outcomes[r].wall_s for r in first_pass)
        self_total = sum(own_by_request[r] for r in first_pass)
        t1 = traced_rounds[0].target
        overhead = (statistics.median(r.wall_s for r in traced_rounds if r.target == t1)
                    - statistics.median(r.wall_s for r in untraced_rounds if r.target == t1))
        metrics = per_layer_metrics(table)
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
        metrics["trace.unattributed_ms"] = ((traced_wall - self_total) * 1e3, "ms")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        return {
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "layers": {k: table[k] for k in sorted(table)},
            "traced_wall_s": traced_wall, "self_time_s": self_total,
            "self_time_coverage": {"min": min(coverage), "max": max(coverage)},
            "trace_overhead_s": overhead,
            "per_request_counts": {r: request_counts(tracer.spans, r)
                                   for r in sorted(first_pass)},
            "unmeasured": UNMEASURED,
        }


def named_figures(report: dict, peak_rss_mb: float, failed: int, attempted: int) -> dict:
    """Every end-to-end figure the workload has, by name, with unit and spread."""
    cmds = report["commands"]
    out = {"setup_s": {"value": report["setup_s"], "unit": "s"},
           "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
           "failed_frac": {"value": failed / attempted, "unit": "1"}}
    timings = (("lion_tune_s", "tune_lion", "wall_s"), ("lion_tune_cpu_s", "tune_lion", "cpu_s"),
               ("head_tune_s", "tune_head", "wall_s"), ("eval_s", "eval_lion", "wall_s"),
               ("gradcheck_s", "gradcheck", "wall_s"))
    for name, kind, key in timings:
        if kind in cmds:
            out[name] = {**cmds[kind][key], "unit": "s"}
    rates = (("lion_epochs_per_s", "tune_lion", "units_per_s", "1/s"),
             ("lion_cpu_ms_per_epoch", "tune_lion", "cpu_ms_per_unit", "ms"),
             ("gradcheck_entries_per_s", "gradcheck", "units_per_s", "1/s"),
             ("gradcheck_cpu_ms_per_entry", "gradcheck", "cpu_ms_per_unit", "ms"))
    for name, kind, key, unit in rates:
        if key in cmds.get(kind, {}):
            out[name] = {"value": cmds[kind][key], "unit": unit}
    if "tune_lion" in cmds:
        out["lion_heldout_acc"] = {"value": cmds["tune_lion"]["heldout_acc_mean"], "unit": "1"}
    return out


def end_to_end(report: dict, workload: str, peak_rss_mb: float, failed: int,
               attempted: int) -> dict:
    """The metrics BENCHMARK.json gates, named alike on every workload.

    The main command's speed is gated as work per second and CPU per unit of
    work, not as seconds per command: gradcheck's cell sizes are drawn per
    seed, so its seconds per command follow the draw (they spread 27% over
    five seeds), while its rate per gradient entry does not.
    """
    main = report["commands"].get(MAIN_KIND[workload], {})
    accuracy = main.get("cases_ok_frac" if workload == "gradcheck" else "heldout_acc_mean")
    values = {
        "setup_s": (report["setup_s"], "s"),
        "work_per_s": (main.get("units_per_s"), "1/s"),
        "cpu_ms_per_work": (main.get("cpu_ms_per_unit"), "ms"),
        "accuracy": (accuracy, "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def source_digest(src: str) -> str:
    """Hash of the program's sources and this file, naming the repeat store."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "lionprompt")
    for path in sorted(os.listdir(pkg)) + [os.path.abspath(__file__)]:
        if path.endswith(".py"):
            with open(os.path.join(pkg, path), "rb") as fh:
                h.update(path.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lionprompt", "cli.py")):
        print(f"lpbench: no lionprompt sources under {src}; run it from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np
    from lionprompt import cli, deq
    import_s = time.perf_counter() - PROCESS_START

    load_start = os.getloadavg()
    os.makedirs(RUNS_DIR, exist_ok=True)
    stem = os.path.join(RUNS_DIR, f"{args.workload}-s{args.seed}")
    work = f"{stem}-work-{os.getpid()}"
    os.makedirs(work)
    # Outputs of earlier runs of this program and benchmark, for the repeat checks.
    seen_path = os.path.join(RUNS_DIR, f"seen-{source_digest(src)}.json")
    seen = {}
    if os.path.exists(seen_path):
        with open(seen_path, encoding="utf-8") as fh:
            seen = json.load(fh)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        report = run.execute(cli, deq, work, f"{stem}-spans.jsonl" if args.trace else None,
                             seen)
    except SetupFailed as exc:
        print(f"lpbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(seen_path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(seen, fh)
    os.replace(seen_path + ".tmp", seen_path)

    report["setup_s"] += import_s
    report["setup"]["import_s"] = import_s
    report["environment"] = {**environment(np), "loadavg_start": load_start,
                             "loadavg_end": os.getloadavg()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(run.outcomes)
    failed = sum(1 for oc in run.outcomes if oc.failures)
    report["figures"] = named_figures(report, peak_rss_mb, failed, attempted)
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = end_to_end(report, args.workload, peak_rss_mb, failed, attempted)
        report["end_to_end"] = metrics
    with open(f"{stem}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({k: v for k, v in report.items() if k != "per_request_counts"},
                     indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
