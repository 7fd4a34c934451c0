"""Command-line entry point.

Commands: pretrain, tune, eval, gradcheck, prop1, report. Configuration
merges three layers — built-in defaults, an optional `--config` file, then
explicit flags — and every command is a pure function of the resulting
config, so reruns at equal settings and an equal OpenBLAS thread count
reproduce their outputs byte for byte (the thread count changes how the
larger products are summed). `tune` saves its config next to the
checkpoint, and `eval` refuses to score the checkpoint under any other.

Exit codes: 0 success, 1 check failure, 2 config error, 3 missing artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import checkpoint, config as cfgmod, harness, model as m
from .config import RunConfig
from .deq import DivergenceError
from .errors import (
    CheckpointError,
    ConfigError,
    EvaluationError,
    MissingArtifactError,
    SetupError,
)

CSV_HEADER = "run_id,protocol,dataset,seed,accuracy,trainable_params,epochs,wall_time_s"

_N_CLASSES = 4
_SOURCE_N = 400
_TARGET_N = 200
_INPUT_DIMS = {"blobs": 16, "glyphs": 64}


# --- config plumbing -----------------------------------------------------------

_FLAG_KEYS = ("seed", "tau", "eta", "tol", "max_iters", "anderson_depth",
              "kappa", "layers", "protocol", "dataset", "shift", "ir",
              "shots", "epochs", "out")


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--tau", type=float, help="non-crucial fraction (default 0.4)")
    p.add_argument("--eta", type=float, help="learning rate")
    p.add_argument("--tol", type=float, help="fixed-point solver tolerance")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--anderson-depth", type=int, dest="anderson_depth",
                   help="0 = plain Picard (default); N >= 2 = Anderson over N residuals")
    p.add_argument("--kappa", type=float, help="contraction bound, in (0,1)")
    p.add_argument("--layers", type=int, help="cells per prompt block (default 1)")
    p.add_argument("--protocol", help="head_tuning | full_finetune | bias_tuning | lion")
    p.add_argument("--dataset", help="blobs | glyphs")
    p.add_argument("--shift", help="invertible_linear | rotation | noise | none")
    p.add_argument("--ir", type=float, help="long-tail imbalance ratio (1 = off)")
    p.add_argument("--shots", type=int, help="few-shot samples per class (0 = off)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out", help="output directory for checkpoints and reports")
    return p


def _build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="lionprompt",
        description="Implicit prompt blocks around a frozen backbone: "
                    "train, evaluate, and verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pretrain", parents=[common],
                   help="fit the source-task backbone and checkpoint it")
    sub.add_parser("tune", parents=[common],
                   help="adapt to the shifted target task under one protocol")
    sub.add_parser("eval", parents=[common],
                   help="re-score a tuned checkpoint on the held-out split")
    sub.add_parser("gradcheck", parents=[common],
                   help="implicit vs finite-difference vs unrolled gradients")
    sub.add_parser("prop1", parents=[common],
                   help="input-side vs output-side prompt capacity experiment")
    rep = sub.add_parser("report", parents=[common],
                         help="aggregate run CSVs into one comparison table")
    rep.add_argument("paths", nargs="+", help="run CSV files to aggregate")
    return parser


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set]:
    """Defaults <- config file <- flags; returns the config and explicit keys."""
    values: dict = {}
    if args.config is not None:
        values.update(cfgmod.load_file(args.config))
    for key in _FLAG_KEYS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = flag_value
    return RunConfig(**values), set(values)


# --- artifacts -----------------------------------------------------------------

def _write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _require(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise MissingArtifactError(f"{what} not found at {path!r} — run the "
                                   "producing command first")
    return path


def _backbone_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out, f"backbone-{cfg.dataset}-s{cfg.seed}.ckpt")


def _run_id(cfg: RunConfig) -> str:
    return f"{cfg.protocol}-{cfg.dataset}-s{cfg.seed}"


def _model_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out, f"{_run_id(cfg)}.ckpt")


def _tuned_config_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out, f"{_run_id(cfg)}.cfg")


# --- dataset assembly -------------------------------------------------------------

def _make_split(cfg: RunConfig, seed: int, split: str, n: int) -> harness.Dataset:
    if cfg.dataset == "blobs":
        return harness.make_blobs(_N_CLASSES, _INPUT_DIMS["blobs"], n, seed, split)
    return harness.make_glyphs(_N_CLASSES, n, seed, split)


def _source_split(cfg: RunConfig, split: str) -> harness.Dataset:
    return _make_split(cfg, cfg.seed, split, _SOURCE_N)


def _target_splits(cfg: RunConfig) -> tuple[harness.Dataset, harness.Dataset]:
    """Shifted (and optionally resampled) target task; test stays full-size."""
    d = _INPUT_DIMS[cfg.dataset]
    train = _make_split(cfg, cfg.seed, "train", _TARGET_N)
    test = _make_split(cfg, cfg.seed, "test", _TARGET_N)
    if cfg.shift != "none":
        spec = harness.make_shift(cfg.shift, d, 100 + cfg.seed)
        train, test = harness.apply_shift(train, spec), harness.apply_shift(test, spec)
    if cfg.ir > 1.0:
        train = harness.resample_longtail(train, cfg.ir)
    if cfg.shots > 0:
        train = harness.resample_fewshot(train, cfg.shots)
    return train, test


def _load_backbone(cfg: RunConfig) -> m.Backbone:
    path = _require(_backbone_path(cfg), "backbone checkpoint")
    bb = m.make_backbone(_INPUT_DIMS[cfg.dataset], cfg.hidden, cfg.feat_dim,
                         cfg.seed, frozen=True)
    checkpoint.restore(bb.params(), checkpoint.load(path))
    return bb


# --- commands ---------------------------------------------------------------------

def cmd_pretrain(cfg: RunConfig, explicit: set) -> int:
    src = _source_split(cfg, "train")
    backbone, accuracy = harness.pretrain_backbone(
        src, cfg.hidden, cfg.feat_dim, cfg.seed, epochs=max(cfg.epochs, 300))
    os.makedirs(cfg.out, exist_ok=True)
    path = _backbone_path(cfg)
    checkpoint.save(path, backbone.params())
    n_params = sum(p.size for p in backbone.params())
    report = (f"source dataset   {cfg.dataset} (seed {cfg.seed}, {src.n} samples)\n"
              f"train accuracy   {accuracy:.4f}\n"
              f"backbone params  {n_params}\n"
              f"checkpoint       {path}\n")
    _write_text(os.path.join(cfg.out, f"pretrain-{cfg.dataset}-s{cfg.seed}.txt"), report)
    print(report, end="")
    return 0


def _run_row(cfg: RunConfig, res: harness.ProtocolResult) -> str:
    return (f"{_run_id(cfg)},{res.protocol},{cfg.dataset},{cfg.seed},"
            f"{res.accuracy!r},{res.trainable_params},{res.epochs_run},"
            f"{res.wall_time_s!r}")


def _trace_csv(res: harness.ProtocolResult) -> str:
    lines = ["epoch,loss,accuracy,crucial_fraction,alpha1,alpha2"]
    for e, (loss, acc, frac, extra) in enumerate(zip(
            res.log.losses, res.log.accuracies,
            res.log.crucial_fractions, res.log.extras)):
        a1 = repr(extra["alpha1"]) if "alpha1" in extra else ""
        a2 = repr(extra["alpha2"]) if "alpha2" in extra else ""
        lines.append(f"{e},{loss!r},{acc!r},{frac!r},{a1},{a2}")
    return "\n".join(lines) + "\n"


def cmd_tune(cfg: RunConfig, explicit: set) -> int:
    backbone = _load_backbone(cfg)
    train, test = _target_splits(cfg)
    res = harness.run_protocol(cfg, backbone, train, test)
    os.makedirs(cfg.out, exist_ok=True)
    checkpoint.save(_model_path(cfg), res.task.named_params())
    _write_text(_tuned_config_path(cfg), cfgmod.serialize(cfg))
    _write_text(os.path.join(cfg.out, f"{_run_id(cfg)}.csv"),
                CSV_HEADER + "\n" + _run_row(cfg, res) + "\n")
    _write_text(os.path.join(cfg.out, f"{_run_id(cfg)}-trace.csv"), _trace_csv(res))
    print(f"protocol         {res.protocol}")
    print(f"target           {cfg.dataset} shift={cfg.shift} ir={cfg.ir} "
          f"shots={cfg.shots} (train n={train.n})")
    print(f"held-out accuracy {res.accuracy!r}")
    print(f"train accuracy   {res.train_accuracy:.4f}")
    print(f"trainable params {res.trainable_params}")
    print(f"epochs run       {res.epochs_run}")
    if res.log.extras and res.log.extras[-1]:
        first, last = res.log.extras[0], res.log.extras[-1]
        print(f"gates alpha1     {first['alpha1']:.4f} -> {last['alpha1']:.4f}")
        print(f"gates alpha2     {first['alpha2']:.4f} -> {last['alpha2']:.4f}")
        print(f"crucial fraction {res.log.crucial_fractions[0]:.3f} -> "
              f"{res.log.crucial_fractions[-1]:.3f}")
    print(f"checkpoint       {_model_path(cfg)}")
    print(f"run csv          {os.path.join(cfg.out, _run_id(cfg) + '.csv')}")
    return 0


def _check_tuned_config(cfg: RunConfig) -> None:
    """Refuse settings other than those the checkpoint was tuned under.

    Every key but `out` must match: the seed and shift decide the test
    split, and the other keys decide what the checkpoint holds and how it
    is solved.
    """
    path = _require(_tuned_config_path(cfg), "tuned model config")
    tuned = RunConfig(**cfgmod.load_file(path))
    for f in fields(RunConfig):
        mine, theirs = getattr(cfg, f.name), getattr(tuned, f.name)
        if f.name != "out" and mine != theirs:
            raise ConfigError(f"{f.name!r} is {mine!r} here but was {theirs!r} when "
                              f"the model was tuned ({path!r})")


def cmd_eval(cfg: RunConfig, explicit: set) -> int:
    backbone = _load_backbone(cfg)
    path = _require(_model_path(cfg), "tuned model checkpoint")
    _check_tuned_config(cfg)
    task = harness.make_task(cfg, backbone, _N_CLASSES)
    checkpoint.restore(task.named_params(), checkpoint.load(path))
    _, test = _target_splits(cfg)
    preds = task.predict(test.inputs.array)
    accuracy = float(np.mean(preds == test.labels))
    print(f"run              {_run_id(cfg)}")
    print(f"held-out accuracy {accuracy!r}")
    print(f"test samples     {test.n}")
    return 0


def cmd_gradcheck(cfg: RunConfig, explicit: set) -> int:
    # A training-grade solver tolerance would drown the finite-difference
    # signal, so the check runs much tighter unless one is asked for.
    tol = cfg.tol if "tol" in explicit else 1e-13
    solver = replace(cfg.solver, tol=tol)
    rows = harness.gradcheck_suite(n_cases=cfg.cases, seed=cfg.seed, solver=solver)
    print(f"{'case':>4}  {'dims':>7}  {'vs finite diff':>14}  "
          f"{'vs unrolled':>14}  status")
    for r in rows:
        dims = f"{r.state_dim}x{r.input_dim}"
        print(f"{r.case:>4}  {dims:>7}  {r.fd_rel_err:>14.3e}  "
              f"{r.unrolled_rel_err:>14.3e}  {r.status}")
    bad = [r for r in rows if r.status != "ok"]
    solver_failures = sum(1 for r in bad if r.status == "solver_failed")
    gradient_failures = sum(1 for r in bad if r.status == "gradient_failed")
    print(f"{len(rows) - len(bad)}/{len(rows)} ok "
          f"({solver_failures} solver failures, {gradient_failures} gradient failures)")
    if bad:
        worst = max(bad, key=lambda r: (r.status == "gradient_failed",
                                        np.nan_to_num(r.fd_rel_err, nan=-1.0)))
        print(f"worst case: #{worst.case} ({worst.state_dim}x{worst.input_dim}) "
              f"status={worst.status} fd={worst.fd_rel_err:.3e} "
              f"unrolled={worst.unrolled_rel_err:.3e}")
        return 1
    return 0


def cmd_prop1(cfg: RunConfig, explicit: set) -> int:
    rep = harness.verify_proposition1(seed=cfg.seed)
    print(f"feasibility gap (closed-form W)   {rep.feasibility_gap:.3e}")
    print(f"input-side loss (retrain W)       {rep.input_side_loss:.3e}")
    print(f"output-side loss (B=-I, retrain v) {rep.output_side_loss:.4f} "
          f"over {rep.restarts} restarts")
    print(f"control loss (B=+I, retrain v)    {rep.control_loss:.3e}")
    print(f"verdict: {rep.verdict}")
    os.makedirs(cfg.out, exist_ok=True)
    _write_text(
        os.path.join(cfg.out, f"prop1-s{cfg.seed}.csv"),
        "seed,input_side_loss,output_side_loss,control_loss,feasibility_gap,"
        "restarts,verdict\n"
        f"{cfg.seed},{rep.input_side_loss!r},{rep.output_side_loss!r},"
        f"{rep.control_loss!r},{rep.feasibility_gap!r},{rep.restarts},"
        f"{rep.verdict}\n")
    return 0 if rep.asymmetry_confirmed else 1


def _read_run_rows(paths: list[str]) -> list[dict]:
    rows = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        except OSError as exc:
            raise MissingArtifactError(f"cannot read run file {path!r}: {exc}") from exc
        if not lines or lines[0] != CSV_HEADER:
            raise MissingArtifactError(
                f"{path!r} is not a run report (expected header {CSV_HEADER!r})")
        keys = CSV_HEADER.split(",")
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(keys):
                raise MissingArtifactError(f"{path!r}: malformed row {ln!r}")
            rows.append(dict(zip(keys, parts)))
    return rows


def cmd_report(cfg: RunConfig, explicit: set, paths: list[str]) -> int:
    rows = _read_run_rows(paths)
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
    os.makedirs(cfg.out, exist_ok=True)
    out_path = os.path.join(cfg.out, "report.csv")
    _write_text(out_path, "\n".join(
        [CSV_HEADER] + [",".join(r[k] for k in CSV_HEADER.split(",")) for r in rows])
        + "\n")
    print(f"\naggregated {len(rows)} runs -> {out_path}")
    return 0


# --- entry point --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, explicit = _resolve_config(args)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, explicit)
        if args.command == "tune":
            return cmd_tune(cfg, explicit)
        if args.command == "eval":
            return cmd_eval(cfg, explicit)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, explicit)
        if args.command == "prop1":
            return cmd_prop1(cfg, explicit)
        return cmd_report(cfg, explicit, args.paths)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MissingArtifactError, CheckpointError) as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return 3
    except (SetupError, EvaluationError, DivergenceError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
