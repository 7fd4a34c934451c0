"""Command-line entry point.

`COMMANDS` holds the commands (pretrain, tune, eval, gradcheck, prop1,
report) and `_artifact_paths` names every file they write under `out`.
Configuration merges three layers — built-in defaults, an optional
`--config` file, then explicit flags — and every command is a pure function
of the resulting config, so reruns at equal settings reproduce their
outputs byte for byte. Each command runs on one OpenBLAS thread, since the
thread count changes how the larger products are summed, and the caller's
count is restored on return (library calls outside a command run at the
caller's count). A NumPy build whose OpenBLAS cannot be found runs unpinned
and says `blas: unpinned` on stderr. `tune` saves its config next to the
checkpoint, last of its files, with the checkpoint's sha256 as a comment,
and `eval` refuses to score the checkpoint under any other config or digest.

Exit codes, each but 0 with one stderr line: 0 success; 1 check failure;
2 config error, an output that cannot be written included; 3 missing
artifact, also one that cannot be read or that its config does not vouch for.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import checkpoint, config as cfgmod, harness, model as m
from .config import RunConfig
from .errors import (
    CheckpointError,
    ConfigError,
    DivergenceError,
    EvaluationError,
    MissingArtifactError,
    SetupError,
)

CSV_HEADER = "run_id,protocol,dataset,seed,accuracy,trainable_params,epochs,wall_time_s"
RUN_COLUMNS = CSV_HEADER.split(",")
DIGEST_LINE = "# checkpoint sha256 "
TRACE_COLUMNS = ("epoch", "loss", "accuracy", "crucial_fraction", "alpha1", "alpha2")
_INTEGER_COLUMNS = ("seed", "trainable_params", "epochs")      # plain ASCII decimals
_FLOAT_COLUMNS = ("accuracy", "wall_time_s")                    # finite


# --- config plumbing -----------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Subcommands from `COMMANDS`; each takes `--config` and every `RunConfig` flag."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key = value config file")
    for f in fields(RunConfig):
        if "help" in f.metadata:
            common.add_argument(f"--{f.name.replace('_', '-')}",
                                type=cfgmod.FIELD_TYPES[f.name], help=f.metadata["help"])
    parser = argparse.ArgumentParser(
        prog="lionprompt",
        description="Implicit prompt blocks around a frozen backbone: "
                    "train, evaluate, and verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    sub.choices["report"].add_argument("paths", nargs="+", help="run CSV files to aggregate")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults <- config file <- flags."""
    cfg = RunConfig() if args.config is None else cfgmod.load_file(args.config)[0]
    return replace(cfg, **{key: value for key, value in vars(args).items()
                           if key in cfgmod.FIELD_TYPES and value is not None})


# --- artifacts -----------------------------------------------------------------

def _require(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise MissingArtifactError(f"{what} not found at {path!r} — run the "
                                   "producing command first")
    return path


def _run_id(cfg: RunConfig) -> str:
    return f"{cfg.protocol}-{cfg.dataset}-s{cfg.seed}"


def _artifact_paths(cfg: RunConfig) -> dict[str, str]:
    """Every file a command writes under `cfg.out`; `eval` and `gradcheck` write none."""
    source, run = f"{cfg.dataset}-s{cfg.seed}", _run_id(cfg)
    names = {"backbone": f"backbone-{source}.ckpt", "pretrain_report": f"pretrain-{source}.txt",
             "model": f"{run}.ckpt", "config": f"{run}.cfg", "run_csv": f"{run}.csv",
             "trace_csv": f"{run}-trace.csv", "prop1_csv": f"prop1-s{cfg.seed}.csv",
             "report_csv": "report.csv"}
    return {key: os.path.join(cfg.out, name) for key, name in names.items()}


def _load_backbone(cfg: RunConfig) -> m.Backbone:
    path = _require(_artifact_paths(cfg)["backbone"], "backbone checkpoint")
    bb = m.make_backbone(harness.source_task(cfg).d, cfg.hidden, cfg.feat_dim, cfg.seed)
    checkpoint.restore(bb.params(), checkpoint.load(path))
    return bb


# --- commands ---------------------------------------------------------------------

def cmd_pretrain(cfg: RunConfig, args: argparse.Namespace) -> int:
    src = harness.source_task(cfg)
    backbone, accuracy = harness.pretrain_backbone(
        src, cfg.hidden, cfg.feat_dim, cfg.seed, epochs=max(cfg.epochs, 300), eta=cfg.eta)
    paths = _artifact_paths(cfg)
    checkpoint.save(paths["backbone"], backbone.params())
    n_params = sum(p.size for p in backbone.params())
    report = (f"source dataset   {cfg.dataset} (seed {cfg.seed}, {src.n} samples)\n"
              f"train accuracy   {accuracy:.4f}\n"
              f"backbone params  {n_params}\n"
              f"checkpoint       {paths['backbone']}\n")
    checkpoint.write_atomic(paths["pretrain_report"], report.encode())
    print(report, end="")
    return 0


def _csv(columns, rows: list[dict]) -> bytes:
    """A `columns` header, then one line per row; a cell is `str(value)` (`repr`
    for a float), and a key the row lacks is an empty cell."""
    lines = [columns] + [[str(row[k]) if k in row else "" for k in columns] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines).encode()


def _run_row(cfg: RunConfig, res: harness.ProtocolResult) -> dict:
    return {"run_id": _run_id(cfg), "protocol": cfg.protocol, "dataset": cfg.dataset,
            "seed": cfg.seed, "accuracy": res.accuracy, "trainable_params": res.trainable_params,
            "epochs": len(res.log.rows), "wall_time_s": res.wall_time_s}


def cmd_tune(cfg: RunConfig, args: argparse.Namespace) -> int:
    backbone = _load_backbone(cfg)
    train, test = harness.target_task(cfg)
    res = harness.run_protocol(cfg, backbone, train, test)
    paths = _artifact_paths(cfg)
    # The .cfg, which binds the checkpoint by its digest, comes last, so a tune
    # cut short leaves a checkpoint that `eval` refuses rather than misattributes.
    digest = checkpoint.save(paths["model"], res.task.named_params())
    checkpoint.write_atomic(paths["run_csv"], _csv(RUN_COLUMNS, [_run_row(cfg, res)]))
    checkpoint.write_atomic(paths["trace_csv"], _csv(TRACE_COLUMNS, res.log.rows))
    checkpoint.write_atomic(paths["config"],
                            f"{cfgmod.serialize(cfg)}{DIGEST_LINE}{digest}\n".encode())
    print(f"protocol         {cfg.protocol}")
    print(f"target           {cfg.dataset} shift={cfg.shift} ir={cfg.ir} "
          f"shots={cfg.shots} (train n={train.n})")
    print(f"held-out accuracy {res.accuracy!r}")
    print(f"train accuracy   {res.log.final_accuracy:.4f}")
    zeros = sum(int(np.count_nonzero(p.value == 0.0)) for p in res.task.trainable_params())
    print(f"trainable params {res.trainable_params}")
    print(f"zero params      {zeros}")
    print(f"epochs run       {len(res.log.rows)}")
    first, last = res.log.rows[0], res.log.rows[-1]     # `RunConfig` requires epochs >= 1
    if "alpha1" in last:
        print(f"gates alpha1     {first['alpha1']:.4f} -> {last['alpha1']:.4f}")
        print(f"gates alpha2     {first['alpha2']:.4f} -> {last['alpha2']:.4f}")
        print(f"crucial fraction {first['crucial_fraction']:.3f} -> "
              f"{last['crucial_fraction']:.3f}")
    print(f"checkpoint       {paths['model']}")
    print(f"run csv          {paths['run_csv']}")
    return 0


def _check_tuned_config(cfg: RunConfig) -> str:
    """Refuse settings other than those the checkpoint was tuned under, and
    return the checkpoint sha256 the config records ('' if none).

    Every key but `out` must match: the seed and shift decide the test
    split, and the other keys decide what the checkpoint holds and how it
    is solved.
    """
    path = _require(_artifact_paths(cfg)["config"], "tuned model config")
    tuned, text = cfgmod.load_file(path, unreadable=MissingArtifactError)
    for f in fields(RunConfig):
        mine, theirs = getattr(cfg, f.name), getattr(tuned, f.name)
        if f.name != "out" and mine != theirs:
            raise ConfigError(f"{f.name!r} is {mine!r} here but was {theirs!r} when "
                              f"the model was tuned ({path!r})")
    return text.partition(f"\n{DIGEST_LINE}")[2].split("\n", 1)[0]


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    # shapes only: the tuned checkpoint holds every backbone value, bound by the .cfg digest
    backbone = m.make_backbone(harness.source_task(cfg).d, cfg.hidden, cfg.feat_dim, cfg.seed)
    path = _require(_artifact_paths(cfg)["model"], "tuned model checkpoint")
    digest = _check_tuned_config(cfg)
    task = harness.make_task(cfg, backbone)
    checkpoint.restore(task.named_params(), checkpoint.load(path, sha256=digest))
    _, test = harness.target_task(cfg)
    accuracy = harness.held_out_accuracy(task, test)
    print(f"run              {_run_id(cfg)}")
    print(f"held-out accuracy {accuracy!r}")
    print(f"test samples     {test.n}")
    return 0


def cmd_gradcheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = harness.gradcheck_suite(n_cases=cfg.cases, seed=cfg.seed, solver=cfg.solver)
    print(f"{'case':>4}  {'dims':>7}  {'vs finite diff':>14}  "
          f"{'vs unrolled':>14}  status")
    for r in rows:
        dims = f"{r.state_dim}x{r.input_dim}"
        print(f"{r.case:>4}  {dims:>7}  {r.fd_rel_err:>14.3e}  "
              f"{r.unrolled_rel_err:>14.3e}  {r.status}")
    bad = [r for r in rows if r.status != "ok"]
    solver_failures = sum(r.status == "solver_failed" for r in bad)
    print(f"{len(rows) - len(bad)}/{len(rows)} ok ({solver_failures} solver failures, "
          f"{len(bad) - solver_failures} gradient failures)")
    if bad:
        worst = max(bad, key=lambda r: (r.status == "gradient_failed",
                                        np.nan_to_num(r.fd_rel_err, nan=-1.0)))
        print(f"worst case: #{worst.case} ({worst.state_dim}x{worst.input_dim}) "
              f"status={worst.status} fd={worst.fd_rel_err:.3e} "
              f"unrolled={worst.unrolled_rel_err:.3e}")
        raise EvaluationError(f"{len(bad)} of {len(rows)} gradient checks failed")
    return 0


def cmd_prop1(cfg: RunConfig, args: argparse.Namespace) -> int:
    rep = harness.verify_proposition1(seed=cfg.seed)
    print(f"feasibility gap (closed-form W)   {rep.feasibility_gap:.3e}")
    print(f"input-side loss (retrain W)       {rep.input_side_loss:.3e}")
    print(f"output-side loss (B=-I, retrain v) {rep.output_side_loss:.4f} (exact minimum)")
    print(f"control loss (B=+I, retrain v)    {rep.control_loss:.3e}")
    print(f"verdict: {rep.verdict}")
    columns = "seed input_side_loss output_side_loss control_loss feasibility_gap verdict"
    row = {**vars(rep), "seed": cfg.seed, "verdict": rep.verdict}
    checkpoint.write_atomic(_artifact_paths(cfg)["prop1_csv"], _csv(columns.split(), [row]))
    if not rep.asymmetry_confirmed:
        raise SetupError(f"proposition 1: {rep.verdict}")
    return 0


def _read_run_rows(paths: list[str]) -> list[dict]:
    rows = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            raise MissingArtifactError(f"cannot read run file {path!r}: {exc}") from exc
        if not lines or lines[0] != CSV_HEADER:
            raise MissingArtifactError(
                f"{path!r} is not a run report (expected header {CSV_HEADER!r})")
        for ln in lines[1:]:
            row = dict(zip(RUN_COLUMNS, ln.split(",")))
            try:
                if (ln.count(",") != len(RUN_COLUMNS) - 1
                        or not all(row[k].isascii() and row[k].isdigit() for k in _INTEGER_COLUMNS)
                        or not all(np.isfinite(float(row[k])) for k in _FLOAT_COLUMNS)):
                    raise ValueError
            except ValueError:
                raise MissingArtifactError(f"{path!r}: malformed row {ln!r}") from None
            rows.append(row)
    return rows


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = _read_run_rows(args.paths)
    rows.sort(key=lambda r: float(r["accuracy"]), reverse=True)
    print(f"{'run_id':<28} {'protocol':<14} {'dataset':<7} {'seed':>4} "
          f"{'accuracy':>9} {'params':>7} {'epochs':>6}")
    for r in rows:
        print(f"{r['run_id']:<28} {r['protocol']:<14} {r['dataset']:<7} "
              f"{r['seed']:>4} {float(r['accuracy']):>9.4f} "
              f"{r['trainable_params']:>7} {r['epochs']:>6}")
    print()
    print("trainable-parameter formulas at d=768, d~=64, L=12, n=50, m=16, C=10:")
    for name, count in m.param_count_report(768, 64, 12, 50, 16, 10):
        print(f"  {name:<8} {count:>10,}")
    out_path = _artifact_paths(cfg)["report_csv"]
    checkpoint.write_atomic(out_path, _csv(RUN_COLUMNS, rows))
    print(f"\naggregated {len(rows)} runs -> {out_path}")
    return 0


COMMANDS = {
    "pretrain": (cmd_pretrain, "fit the source-task backbone and checkpoint it"),
    "tune": (cmd_tune, "adapt to the shifted target task under one protocol"),
    "eval": (cmd_eval, "re-score a tuned checkpoint on the held-out split"),
    "gradcheck": (cmd_gradcheck, "implicit vs finite-difference vs unrolled gradients"),
    "prop1": (cmd_prop1, "input-side vs output-side prompt capacity experiment"),
    "report": (cmd_report, "aggregate run CSVs into one comparison table"),
}


# --- entry point --------------------------------------------------------------------

@functools.cache
def _openblas():
    """The thread-count getter and setter of the OpenBLAS NumPy loaded, or None."""
    pkg = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(pkg, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(pkg, ".libs", "*openblas*"))):
        lib = ctypes.CDLL(path)     # NumPy loaded it already: this finds, not loads
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    The products here are small: a second thread buys no wall time, doubles
    the CPU, and sums in another order, so the output bytes would depend on
    the environment.
    """
    blas = _openblas()
    if blas is None:
        print("blas: unpinned", file=sys.stderr)
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # an overflow the code does not expect is an error, not a warning ahead of the result
    with _one_blas_thread(), np.errstate(all="raise", under="ignore"):
        try:
            command, _ = COMMANDS[args.command]
            return command(_resolve_config(args), args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (MissingArtifactError, CheckpointError) as exc:
            print(f"missing artifact: {exc}", file=sys.stderr)
            return 3
        except (SetupError, EvaluationError, DivergenceError, FloatingPointError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
