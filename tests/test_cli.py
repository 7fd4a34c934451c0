"""Checkpoint format, config round trips, and the command-line surface."""

from __future__ import annotations

import contextlib
import io
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lionprompt import checkpoint, cli, deq, harness
from lionprompt.cli import _build_parser, _resolve_config, main
from lionprompt.config import PROTOCOL_CHOICES, RunConfig, parse, serialize
from lionprompt.errors import CheckpointError, ConfigError
from lionprompt.numerics import Param
from lionprompt.rng import substream


def sample_params(seed=0):
    rng = substream(seed, "ckpt-test")
    return [
        Param("gate.a", float(rng.normal())),
        Param("vec.b", rng.normal(size=7)),
        Param("mat.W", rng.normal(size=(3, 5))),
    ]


# --- checkpoint binary format -------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params = sample_params()
    path = str(tmp_path / "m.ckpt")
    digest = checkpoint.save(path, params)
    loaded, loaded_digest = checkpoint.load(path)
    assert loaded_digest == digest
    assert list(loaded) == [p.name for p in params]
    for p in params:
        assert loaded[p.name].tobytes() == p.value.tobytes()
        assert loaded[p.name].shape == p.value.shape


def test_save_load_save_is_byte_identical(tmp_path):
    params = sample_params()
    first = str(tmp_path / "a.ckpt")
    second = str(tmp_path / "b.ckpt")
    checkpoint.save(first, params)
    restored = [Param(p.name, np.zeros(p.value.shape)) for p in params]
    checkpoint.restore(restored, first)
    checkpoint.save(second, restored)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_checkpoint_header_layout(tmp_path):
    path = str(tmp_path / "m.ckpt")
    checkpoint.save(path, sample_params())
    blob = open(path, "rb").read()
    assert blob[:8] == b"LIONCKPT"
    version, count = struct.unpack_from("<II", blob, 8)
    assert version == checkpoint.VERSION
    assert count == 3


def test_unknown_version_rejected_without_partial_load(tmp_path):
    path = str(tmp_path / "m.ckpt")
    checkpoint.save(path, sample_params())
    blob = bytearray(open(path, "rb").read())
    struct.pack_into("<I", blob, 8, 99)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        checkpoint.load(path)


def test_corrupt_checkpoints_rejected(tmp_path):
    path = str(tmp_path / "m.ckpt")
    checkpoint.save(path, sample_params())
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 9])      # truncated payload
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint.load(path)
    open(path, "wb").write(blob + b"\x00")             # trailing garbage
    with pytest.raises(CheckpointError, match="trailing"):
        checkpoint.load(path)
    open(path, "wb").write(b"NOTACKPT" + blob[8:])
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint.load(path)
    with pytest.raises(CheckpointError, match="does not exist"):
        checkpoint.load(str(tmp_path / "absent.ckpt"))


def _poison(path, entry, value):
    """Overwrite the first payload value of `entry` in a saved checkpoint."""
    blob = bytearray(open(path, "rb").read())
    name = entry.encode("utf-8")
    at = blob.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
    rank = struct.unpack_from("<I", blob, at)[0]
    struct.pack_into("<d", blob, at + 4 + 4 * rank, value)
    open(path, "wb").write(bytes(blob))


@pytest.mark.parametrize("bad", [float("nan"), float("-inf")], ids=["nan", "inf"])
def test_load_rejects_nonfinite_payloads(tmp_path, bad):
    path = str(tmp_path / "m.ckpt")
    checkpoint.save(path, sample_params())
    _poison(path, "vec.b", bad)
    with pytest.raises(CheckpointError, match="'vec.b'"):
        checkpoint.load(path)


def test_duplicate_names_rejected(tmp_path):
    p = Param("x", 1.0)
    with pytest.raises(CheckpointError, match="duplicate"):
        checkpoint.save(str(tmp_path / "m.ckpt"), [p, Param("x", 2.0)])


@pytest.mark.parametrize("name", ["", "n" * (checkpoint._MAX_NAME + 1), "bad\udc80"],
                         ids=["empty", "too-long", "unencodable"])
def test_save_refuses_names_load_would_reject(tmp_path, name):
    with pytest.raises(CheckpointError, match="parameter name"):
        checkpoint.save(str(tmp_path / "m.ckpt"), sample_params() + [Param(name, 1.0)])
    assert os.listdir(tmp_path) == []


# UTF-8 names of 1 to 4,096 bytes; surrogates are not encodable
names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=1400).filter(
    lambda s: len(s.encode("utf-8")) <= checkpoint._MAX_NAME)
# names filling the byte budget with characters of 1 to 4 bytes
long_names = st.builds(
    lambda stem, c: stem + c * ((checkpoint._MAX_NAME - len(stem)) // len(c.encode("utf-8"))),
    st.text("abc", max_size=8), st.sampled_from(["e", "\u00e9", "\u20ac", "\U0001f600"]))
shapes = st.lists(st.integers(0, 4), max_size=2).map(tuple)
tensors = shapes.flatmap(lambda shape: arrays(
    np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(names, long_names), min_size=1, max_size=5, unique=True),
       st.data())
def test_save_load_save_is_byte_identical_for_fuzzed_names_and_shapes(entry_names, data):
    params = [Param(n, data.draw(tensors)) for n in entry_names]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        checkpoint.save(first, params)
        blank = [Param(p.name, np.zeros(p.value.shape)) for p in params]
        checkpoint.restore(blank, first)
        checkpoint.save(second, blank)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def _header_offsets(blob):
    """Offsets of the u32 header fields of a saved checkpoint: count, then per entry
    (name_len, rank, [dims])."""
    entries, at = [], 16
    for _ in range(struct.unpack_from("<I", blob, 12)[0]):
        name_len = struct.unpack_from("<I", blob, at)[0]
        rank_at = at + 4 + name_len
        rank = struct.unpack_from("<I", blob, rank_at)[0]
        dims = [rank_at + 4 + 4 * k for k in range(rank)]
        entries.append((at, rank_at, dims))
        at = dims[-1] + 4 if dims else rank_at + 4
        at += 8 * int(np.prod(struct.unpack_from(f"<{rank}I", blob, rank_at + 4)))
    return 12, entries


# header values near the edges of u32 and of its signed reading, or anywhere in it
u32s = st.one_of(st.sampled_from([0, 1, 2, 3, 2**31 - 1, 2**31, 2**32 - 1]),
                 st.integers(0, 2**32 - 1))
forgeries = st.one_of(
    st.tuples(st.just("count"), u32s),
    st.tuples(st.just("name_len"), st.integers(0, 2), u32s),
    st.tuples(st.just("rank"), st.integers(0, 2), u32s),
    st.tuples(st.just("dims"), st.integers(0, 2), st.one_of(st.tuples(u32s, u32s),
                                                          u32s.map(lambda v: (v, v)))),
    st.tuples(st.just("truncate"), st.integers(0, 200)),
    st.tuples(st.just("byte"), st.integers(0, 200), st.integers(0, 255)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(forgeries, min_size=1, max_size=3))
@example([("dims", 2, (2**32 - 1, 2**32 - 1))])    # a product a 64-bit count wraps negative
def test_a_forged_checkpoint_is_refused_only_with_a_checkpoint_error(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        checkpoint.save(path, sample_params())
        blob = bytearray(open(path, "rb").read())
        count_at, entries = _header_offsets(blob)
        for kind, *args in sorted(edits, key=lambda e: e[0] == "truncate"):   # cuts last
            if kind == "count":
                struct.pack_into("<I", blob, count_at, args[0])
            elif kind in ("name_len", "rank"):
                struct.pack_into("<I", blob, entries[args[0]][kind == "rank"], args[1])
            elif kind == "dims":
                for at, v in zip(entries[args[0]][2], args[1]):
                    struct.pack_into("<I", blob, at, v)
            elif kind == "truncate":
                del blob[len(blob) - min(args[0], len(blob)):]
            elif kind == "byte" and args[0] < len(blob):
                blob[args[0]] = args[1]
        open(path, "wb").write(bytes(blob))
        try:
            checkpoint.load(path)
        except CheckpointError:
            pass


def test_restore_rejects_architecture_mismatch(tmp_path):
    path = str(tmp_path / "m.ckpt")
    checkpoint.save(path, sample_params())
    with pytest.raises(CheckpointError, match="lacks"):
        checkpoint.restore([Param("nope", 0.0)] + sample_params(), path)
    with pytest.raises(CheckpointError, match="unexpected"):
        checkpoint.restore(sample_params()[:2], path)
    wrong = sample_params()
    wrong[2] = Param("mat.W", np.zeros((5, 3)))
    with pytest.raises(CheckpointError, match="shape"):
        checkpoint.restore(wrong, path)


# --- config ---------------------------------------------------------------------

def test_config_round_trip_equality():
    cfg = RunConfig(seed=3, tau=0.25, eta=0.7, tol=3e-9, max_iters=123,
                    anderson_depth=4, kappa=0.85, protocol="bias_tuning",
                    dataset="glyphs", shift="rotation", ir=12.5, shots=8,
                    epochs=77, out="elsewhere", cases=9, hidden=64, feat_dim=8)
    assert parse(serialize(cfg)) == cfg
    assert parse(serialize(RunConfig())) == RunConfig()


def test_config_comments_and_whitespace():
    cfg = parse("# a comment\n\n  seed = 5   # trailing note\ntau=0.3\n")
    assert cfg.seed == 5
    assert cfg.tau == 0.3


def test_config_errors_name_the_key():
    with pytest.raises(ConfigError, match="'banana'"):
        parse("banana = 12\n")
    with pytest.raises(ConfigError, match="'tau'"):
        parse("tau = fast\n")
    with pytest.raises(ConfigError, match="'tau'"):
        RunConfig(tau=1.5)
    with pytest.raises(ConfigError, match="unsupported protocol"):
        RunConfig(protocol="vpt")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse("just some words\n")


@settings(max_examples=200, deadline=None)
@given(st.text())
@example("a#b")
@example("r\nq")
@example(" runs")
def test_an_out_either_round_trips_exactly_or_is_refused_by_name(out):
    try:
        cfg = RunConfig(out=out)
    except ConfigError as exc:
        assert "'out'" in str(exc)
        return
    assert parse(serialize(cfg)) == cfg


_FILE_ONLY_KEYS = {"cases", "hidden", "feat_dim"}


def test_flags_override_the_config_file_and_file_only_keys_come_from_it(tmp_path):
    from_file = RunConfig(seed=3, tau=0.25, eta=0.7, tol=3e-9, max_iters=123,
                          anderson_depth=4, kappa=0.85, protocol="bias_tuning",
                          dataset="glyphs", shift="rotation", ir=12.5, shots=8,
                          epochs=77, out="elsewhere", cases=9, hidden=64, feat_dim=8)
    from_flags = RunConfig(seed=5, tau=0.3, eta=0.2, tol=4e-9, max_iters=99,
                           anderson_depth=3, kappa=0.8, protocol="lion",
                           dataset="blobs", shift="noise", ir=2.5, shots=4,
                           epochs=11, out="there")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(serialize(from_file))
    argv = ["tune", "--config", str(cfgfile)]
    for f in fields(RunConfig):
        if f.name not in _FILE_ONLY_KEYS:
            argv += [f"--{f.name.replace('_', '-')}", str(getattr(from_flags, f.name))]
    args = _build_parser().parse_args(argv)
    cfg = _resolve_config(args)
    for f in fields(RunConfig):
        source = from_file if f.name in _FILE_ONLY_KEYS else from_flags
        assert getattr(cfg, f.name) == getattr(source, f.name), f.name
    only_file = _resolve_config(_build_parser().parse_args(argv[:3]))
    assert only_file == from_file


def test_every_field_but_the_file_only_keys_is_a_flag():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    tune = sub.choices["tune"]
    flags = {s for a in tune._actions for s in a.option_strings} - {"-h", "--help", "--config"}
    assert flags == {f"--{f.name.replace('_', '-')}" for f in fields(RunConfig)
                     if f.name not in _FILE_ONLY_KEYS}


def test_one_parser_serves_every_call_and_no_call_sees_anothers_flags(monkeypatch):
    seen = []

    def record(cfg, args):
        seen.append(cfg)
        return 0

    monkeypatch.setitem(cli.COMMANDS, "tune", (record, ""))
    monkeypatch.setitem(cli.COMMANDS, "eval", (record, ""))
    assert main(["tune", "--shots", "8", "--seed", "3"]) == 0
    assert main(["eval"]) == 0
    assert _build_parser() is _build_parser()
    assert (seen[0].shots, seen[0].seed) == (8, 3)
    assert seen[1] == RunConfig()


def test_anderson_depth_zero_selects_picard_and_negative_is_rejected():
    assert RunConfig().anderson_depth == 0
    assert RunConfig(anderson_depth=0).anderson_depth == 0
    for depth in (-1, 1):       # depth 1 never mixes: a second spelling of Picard
        with pytest.raises(ConfigError, match="'anderson_depth': must be 0 \\(Picard\\) or >= 2"):
            RunConfig(anderson_depth=depth)


# --- command-line surface ----------------------------------------------------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One pretrained backbone shared by the command tests."""
    out = tmp_path_factory.mktemp("cli-runs")
    rc = main(["pretrain", "--out", str(out), "--seed", "0"])
    assert rc == 0
    return out


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_pretrain_reports_and_reruns_identically(tmp_path, capsys, source_backbone):
    a, b = tmp_path / "a", tmp_path / "b"
    rc1, out1, _ = run_cli(capsys, ["pretrain", "--out", str(a), "--seed", "0"])
    rc2, out2, _ = run_cli(capsys, ["pretrain", "--out", str(b), "--seed", "0"])
    assert rc1 == rc2 == 0
    assert "train accuracy   1.0000" in out1
    ckpt = "backbone-blobs-s0.ckpt"
    assert (a / ckpt).read_bytes() == (b / ckpt).read_bytes()
    # the library tests' session backbone is this command's
    checkpoint.save(str(tmp_path / ckpt), source_backbone[0].params())
    assert (tmp_path / ckpt).read_bytes() == (a / ckpt).read_bytes()


def test_pretrain_trains_at_the_given_eta(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["pretrain", "--out", str(tmp_path), "--eta", "1e-9"])
    assert rc == 1
    assert "backbone pretraining reached" in err


def test_tune_requires_the_backbone(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["tune", "--out", str(tmp_path), "--seed", "0"])
    assert rc == 3
    assert "backbone checkpoint" in err


def test_unsupported_protocol_is_a_config_error(capsys):
    rc, _, err = run_cli(capsys, ["tune", "--protocol", "vpt"])
    assert rc == 2
    assert "unsupported protocol" in err


def test_invalid_config_file_names_the_key(tmp_path, capsys):
    bad = tmp_path / "run.cfg"
    bad.write_text("tau = banana\n")
    rc, _, err = run_cli(capsys, ["tune", "--config", str(bad)])
    assert rc == 2
    assert "'tau'" in err
    assert str(bad) in err
    rc, _, err = run_cli(capsys, ["tune", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2


@pytest.mark.parametrize("content", [None, b"seed = \xff\n", b"kappa = 2\n"],
                         ids=["directory", "not-utf8", "out-of-range"])
def test_a_config_file_that_cannot_be_read_or_used_is_named(tmp_path, capsys, content):
    path = tmp_path / "run.cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    # the file is validated alone, so a flag for the bad key does not rescue it
    for flags in ([], ["--kappa", "0.5"]):
        rc, _, err = run_cli(capsys, ["tune", "--config", str(path), *flags])
        assert rc == 2
        assert f"config file {str(path)!r}" in err


def test_an_out_of_range_flag_does_not_blame_a_valid_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("kappa = 0.5\n")
    rc, _, err = run_cli(capsys, ["tune", "--config", str(path), "--kappa", "2"])
    assert rc == 2
    assert "invalid value for 'kappa'" in err and str(path) not in err


def test_prompt_blocks_have_no_layers_setting(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--layers", "2"])
    assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("layers = 2\n")
    rc, _, err = run_cli(capsys, ["tune", "--config", str(cfgfile)])
    assert rc == 2
    assert "'layers'" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["eta", "tol", "ir"])
def test_nonfinite_float_settings_are_config_errors(key, value, capsys):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        RunConfig(**{key: float(value)})
    rc, _, err = run_cli(capsys, ["tune", f"--{key}", value])
    assert rc == 2
    assert f"'{key}'" in err


@pytest.mark.parametrize("key, value", [("ir", "1000"), ("shots", "100")])
def test_a_resampling_the_target_cannot_take_is_a_config_error(workdir, tmp_path, capsys,
                                                                key, value):
    # the target has 50 rows per class: IR 1000 empties the tail class, 100 shots overdraw
    rc, _, err = run_cli(capsys, ["tune", "--out", _own_outdir(workdir, tmp_path),
                                  "--seed", "0", f"--{key}", value])
    assert rc == 2
    assert f"invalid value for '{key}'" in err


def _accuracy_line(out):
    for line in out.splitlines():
        if line.startswith("held-out accuracy"):
            return line.split()[-1]
    raise AssertionError(f"no accuracy line in {out!r}")


def test_tune_then_eval_reproduces_accuracy_exactly(workdir, capsys):
    base = ["--out", str(workdir), "--seed", "0", "--protocol", "head_tuning"]
    rc, tune_out, _ = run_cli(capsys, ["tune", *base])
    assert rc == 0
    rc, eval_out, _ = run_cli(capsys, ["eval", *base])
    assert rc == 0
    assert _accuracy_line(tune_out) == _accuracy_line(eval_out)
    assert (workdir / "head_tuning-blobs-s0.cfg").read_text().endswith(
        f"{cli.ACCURACY_LINE}{_accuracy_line(tune_out)}\n")
    timing = (workdir / "head_tuning-blobs-s0-timing.csv").read_text().splitlines()
    assert timing[0] == "wall_time_s" and len(timing) == 2 and float(timing[1]) > 0.0


def test_a_rerun_tune_rewrites_every_file_but_its_timing_byte_for_byte(workdir, tmp_path,
                                                                       monkeypatch, capsys):
    argv = ["tune", "--out", _own_outdir(workdir, tmp_path), "--seed", "0", "--epochs", "5"]
    write, order, written = checkpoint.write_atomic, [], []
    monkeypatch.setattr(checkpoint, "write_atomic", lambda path, data: (
        order.append(os.path.basename(path)), write(path, data)))
    for _ in range(2):
        rc, tune_out, _ = run_cli(capsys, argv)
        assert rc == 0 and " csv " not in tune_out
        written.append({name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)})
    run = ["lion-blobs-s0.ckpt", "lion-blobs-s0-trace.csv", "lion-blobs-s0-timing.csv",
           "lion-blobs-s0.cfg"]
    assert order == run + run           # the .cfg, which vouches for the others, comes last
    assert set(written[0]) == set(written[1]) == {"backbone-blobs-s0.ckpt", *run}
    assert [name for name in run if written[0][name] != written[1][name]] in (
        [], ["lion-blobs-s0-timing.csv"])


def test_a_null_step_tune_runs_and_evals_exactly(workdir, tmp_path, capsys):
    # eta = 0 is the optimizer's degenerate null step: no trained value moves, the
    # loss stays flat, and the tune still runs every epoch it is given
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0", "--eta", "0",
            "--epochs", "25"]
    rc, tune_out, _ = run_cli(capsys, ["tune", *base])
    assert rc == 0
    assert "gates alpha1     0.5000 -> 0.5000" in tune_out
    assert "epochs run       25\n" in tune_out
    assert len((tmp_path / "lion-blobs-s0-trace.csv").read_text().splitlines()) == 26
    rc, eval_out, _ = run_cli(capsys, ["eval", *base])
    assert rc == 0
    assert _accuracy_line(tune_out) == _accuracy_line(eval_out)


def test_tune_lion_reports_gates_and_evals_exactly(workdir, capsys):
    base = ["--out", str(workdir), "--seed", "0", "--protocol", "lion",
            "--epochs", "40"]
    rc, tune_out, _ = run_cli(capsys, ["tune", *base])
    assert rc == 0
    assert "gates alpha1" in tune_out
    assert "crucial fraction" in tune_out
    rc, eval_out, _ = run_cli(capsys, ["eval", *base])
    assert rc == 0
    assert _accuracy_line(tune_out) == _accuracy_line(eval_out)
    trace = (workdir / "lion-blobs-s0-trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,loss,accuracy,crucial_fraction,alpha1,alpha2"
    assert len(trace) - 1 == 40
    first = trace[1].split(",")
    assert len(first) == 6 and first[4] != ""


def _record_protocol_runs(monkeypatch):
    """The `ProtocolResult` of every `harness.run_protocol` call from here on."""
    run, results = harness.run_protocol, []
    monkeypatch.setattr(harness, "run_protocol",
                        lambda *args: results.append(run(*args)) or results[-1])
    return results


@pytest.mark.parametrize("protocol", ["lion", "head_tuning"])
def test_the_trace_holds_exactly_what_the_rows_hold(workdir, tmp_path, monkeypatch, capsys,
                                                    protocol):
    results = _record_protocol_runs(monkeypatch)
    rc, tune_out, _ = run_cli(capsys, ["tune", "--out", _own_outdir(workdir, tmp_path),
                                       "--seed", "0", "--protocol", protocol, "--epochs", "8"])
    assert rc == 0
    rows = results[0].log.rows
    trace = (tmp_path / f"{protocol}-blobs-s0-trace.csv").read_text().splitlines()
    assert trace[0] == ",".join(cli.TRACE_COLUMNS)
    assert len(trace) == len(rows) + 1 == 9
    for line, row in zip(trace[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(cli.TRACE_COLUMNS) == 6
        for key, cell in zip(cli.TRACE_COLUMNS, cells):
            assert float(cell) == row[key] if key in row else cell == ""
    # the baselines have no gates: empty alpha cells, and no gate or crucial-fraction lines
    lion = protocol == "lion"
    assert all(("alpha1" in row) == ("alpha2" in row) == lion for row in rows)
    assert ("gates alpha1" in tune_out) == ("crucial fraction" in tune_out) == lion


def test_unconverged_forward_solve_fails_the_tune(workdir, capsys):
    rc, _, err = run_cli(capsys, ["tune", "--out", str(workdir), "--seed", "0",
                                  "--protocol", "lion", "--epochs", "3",
                                  "--max-iters", "2"])
    assert rc == 1
    assert "check failed: epoch 0: block p1: forward solve stopped" in err


def _record_solver_depths(monkeypatch):
    solve, depths = deq.solve_forward_batch, set()

    def recording(cell, x_rows, cfg, z0_rows=None):
        depths.add(cfg.anderson_depth)
        return solve(cell, x_rows, cfg, z0_rows)

    monkeypatch.setattr(deq, "solve_forward_batch", recording)
    return depths


def _own_outdir(workdir, tmp_path):
    """A fresh output directory holding a copy of the shared backbone."""
    name = "backbone-blobs-s0.ckpt"
    (tmp_path / name).write_bytes((workdir / name).read_bytes())
    return str(tmp_path)


def test_a_tune_with_a_line_break_in_its_out_is_one_config_error_line(workdir, tmp_path,
                                                                      monkeypatch, capsys):
    # the .cfg it would write could not be parsed back, so no eval could follow it
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "r\nq"
    out.mkdir()
    _own_outdir(workdir, out)
    rc, stdout, err = run_cli(capsys, ["tune", "--out", "r\nq", "--epochs", "2"])
    assert rc == 2 and stdout == ""
    assert err.startswith("config error: invalid value for 'out'") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["r\nq"]
    assert os.listdir(out) == ["backbone-blobs-s0.ckpt"]


def test_a_config_file_out_with_a_nul_byte_is_one_config_error_line(tmp_path, monkeypatch,
                                                                     capsys):
    # no path can hold one: `pretrain` used to train, then die in its first write
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nul.cfg").write_text("out = a\0b\n")
    rc, stdout, err = run_cli(capsys, ["pretrain", "--config", "nul.cfg"])
    assert rc == 2 and stdout == ""
    assert err.startswith("config error: config file 'nul.cfg': invalid value for 'out'")
    assert err.count("\n") == 1 and os.listdir(tmp_path) == ["nul.cfg"]


def test_default_tune_solves_with_picard(workdir, tmp_path, monkeypatch, capsys):
    depths = _record_solver_depths(monkeypatch)
    rc, _, _ = run_cli(capsys, ["tune", "--out", _own_outdir(workdir, tmp_path),
                                "--seed", "0", "--protocol", "lion", "--epochs", "5"])
    assert rc == 0
    assert depths == {0}


def test_anderson_tune_still_runs_and_evals_exactly(workdir, tmp_path, monkeypatch, capsys):
    depths = _record_solver_depths(monkeypatch)
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0", "--protocol", "lion",
            "--epochs", "20", "--anderson-depth", "5"]
    rc, tune_out, _ = run_cli(capsys, ["tune", *base])
    assert rc == 0
    rc, eval_out, _ = run_cli(capsys, ["eval", *base])
    assert rc == 0
    assert _accuracy_line(tune_out) == _accuracy_line(eval_out)
    assert depths == {5}


def test_tune_prints_how_many_trainable_scalars_end_at_zero(workdir, tmp_path, capsys):
    out = _own_outdir(workdir, tmp_path)
    rc, tune_out, _ = run_cli(capsys, ["tune", "--out", out, "--seed", "0",
                                       "--protocol", "lion", "--epochs", "20"])
    assert rc == 0
    printed = [line.split() for line in tune_out.splitlines() if line.startswith("zero params")]
    saved = checkpoint.load(os.path.join(out, "lion-blobs-s0.ckpt"))[0]
    zeros = sum(int(np.count_nonzero(v == 0.0)) for v in saved.values())
    assert zeros > 0 and printed == [["zero", "params", str(zeros)]]


def test_eval_refuses_settings_other_than_the_tune(workdir, tmp_path, capsys):
    out = _own_outdir(workdir, tmp_path)
    base = ["--out", out, "--seed", "0", "--protocol", "head_tuning", "--epochs", "5"]
    rc, _, _ = run_cli(capsys, ["tune", *base, "--shift", "rotation"])
    assert rc == 0
    rc, _, err = run_cli(capsys, ["eval", *base])
    assert rc == 2
    assert "'shift' is 'invertible_linear' here but was 'rotation'" in err
    rc, _, _ = run_cli(capsys, ["eval", *base, "--shift", "rotation"])
    assert rc == 0
    tuned_cfg = os.path.join(out, "head_tuning-blobs-s0.cfg")
    with open(tuned_cfg, "a", encoding="utf-8") as fh:
        fh.write("layers = 1\n")     # a key that .cfg files of earlier versions hold
    rc, _, err = run_cli(capsys, ["eval", *base, "--shift", "rotation"])
    assert rc == 2
    assert tuned_cfg in err and "'layers'" in err
    os.remove(tuned_cfg)
    rc, _, err = run_cli(capsys, ["eval", *base, "--shift", "rotation"])
    assert rc == 3
    assert "tuned model config" in err


def test_eval_names_a_tuned_config_edited_out_of_range(workdir, tmp_path, capsys):
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0",
            "--protocol", "head_tuning", "--epochs", "5"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    tuned_cfg = tmp_path / "head_tuning-blobs-s0.cfg"
    tuned_cfg.write_text(tuned_cfg.read_text().replace("kappa = 0.9", "kappa = 2.0"))
    rc, _, err = run_cli(capsys, ["eval", *base])
    assert rc == 2
    assert str(tuned_cfg) in err and "'kappa'" in err


def test_an_unreadable_tuned_config_is_one_missing_artifact_line(workdir, tmp_path, capsys):
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0",
            "--protocol", "head_tuning", "--epochs", "5"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    tuned_cfg = tmp_path / "head_tuning-blobs-s0.cfg"
    tuned_cfg.unlink()
    tuned_cfg.mkdir()
    rc, _, err = run_cli(capsys, ["eval", *base])
    assert rc == 3
    assert err.startswith(f"missing artifact: config file {str(tuned_cfg)!r}: ")
    assert err.count("\n") == 1


def test_eval_of_a_nonfinite_checkpoint_exits_3(workdir, tmp_path, capsys):
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0",
            "--protocol", "head_tuning", "--epochs", "5"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    _poison(str(tmp_path / "head_tuning-blobs-s0.ckpt"), "head.b", float("nan"))
    rc, _, err = run_cli(capsys, ["eval", *base])
    assert rc == 3
    assert "'head.b'" in err


def test_eval_names_the_phase_of_a_nonfinite_held_out_solve(workdir, tmp_path, monkeypatch,
                                                           capsys):
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0",
            "--protocol", "lion", "--epochs", "3"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    splits = harness.target_task

    def poisoned(cfg):
        train, test = splits(cfg)
        inputs = test.inputs.copy()
        inputs[3, 5] = np.nan
        return train, replace(test, inputs=inputs)

    monkeypatch.setattr(harness, "target_task", poisoned)
    rc, _, err = run_cli(capsys, ["eval", *base])
    assert rc == 1
    assert "check failed: held-out predict: block p1: non-finite iterate" in err


@pytest.mark.parametrize("protocol", PROTOCOL_CHOICES)
def test_a_tuned_checkpoint_holds_exactly_the_trainable_params(workdir, tmp_path, monkeypatch,
                                                               capsys, protocol):
    results = _record_protocol_runs(monkeypatch)
    rc, tune_out, _ = run_cli(capsys, ["tune", "--out", _own_outdir(workdir, tmp_path),
                                       "--seed", "0", "--protocol", protocol, "--epochs", "3"])
    assert rc == 0
    saved = checkpoint.load(str(tmp_path / f"{protocol}-blobs-s0.ckpt"))[0]
    assert list(saved) == [p.name for p in results[0].task.trainable_params()]
    scalars = sum(v.size for v in saved.values())
    assert f"trainable params {scalars}\n" in tune_out
    assert scalars == {"lion": 1400, "head_tuning": 68}.get(protocol, scalars)


def test_eval_refuses_a_backbone_replaced_after_the_tune(workdir, tmp_path, capsys):
    out = _own_outdir(workdir, tmp_path)
    base = ["--out", out, "--seed", "0", "--protocol", "lion", "--epochs", "20"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    # a pretrain at other settings writes the same file name
    assert run_cli(capsys, ["pretrain", "--out", out, "--seed", "0", "--epochs", "400",
                            "--eta", "0.1"])[0] == 0
    rc, eval_out, err = run_cli(capsys, ["eval", *base])
    assert (rc, eval_out) == (3, "")
    path = os.path.join(out, "backbone-blobs-s0.ckpt")
    assert err.startswith(f"missing artifact: {path!r} is not the checkpoint")
    assert err.count("\n") == 1


def test_eval_refuses_a_tune_whose_backbone_is_gone_or_unrecorded(workdir, tmp_path, capsys):
    out = _own_outdir(workdir, tmp_path)
    base = ["--out", out, "--seed", "0", "--protocol", "lion", "--epochs", "20"]
    rc, tune_out, _ = run_cli(capsys, ["tune", *base])
    assert rc == 0
    path = os.path.join(out, "backbone-blobs-s0.ckpt")
    cfg = tmp_path / "lion-blobs-s0.cfg"
    tuned_cfg, backbone = cfg.read_text(), open(path, "rb").read()
    assert f"\n{cli.BACKBONE_LINE}" in tuned_cfg
    cfg.write_text("".join(line for line in tuned_cfg.splitlines(keepends=True)
                           if not line.startswith(cli.BACKBONE_LINE)))
    rc, eval_out, err = run_cli(capsys, ["eval", *base])
    assert (rc, eval_out) == (3, "")
    assert err.startswith(f"missing artifact: {path!r} is not the checkpoint")
    assert "(sha256 none)" in err and err.count("\n") == 1
    cfg.write_text(tuned_cfg)
    os.remove(path)
    rc, eval_out, err = run_cli(capsys, ["eval", *base])
    assert (rc, eval_out) == (3, "")
    assert err.startswith(f"missing artifact: backbone checkpoint not found at {path!r}")
    assert err.count("\n") == 1
    open(path, "wb").write(backbone)
    rc, eval_out, err = run_cli(capsys, ["eval", *base])
    assert rc == 0 and err == ""
    assert _accuracy_line(eval_out) == _accuracy_line(tune_out)


def test_a_checkpoint_that_still_holds_backbone_values_is_refused(workdir, tmp_path, capsys):
    # the layout before tuned checkpoints held only the trainable Params
    out = _own_outdir(workdir, tmp_path)
    base = ["--out", out, "--seed", "0", "--protocol", "head_tuning", "--epochs", "5"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    ckpt, cfg = tmp_path / "head_tuning-blobs-s0.ckpt", tmp_path / "head_tuning-blobs-s0.cfg"
    tuned = checkpoint.load(str(ckpt))[0]
    backbone, _ = checkpoint.load(os.path.join(out, "backbone-blobs-s0.ckpt"))
    digest = checkpoint.save(str(ckpt), [Param(name, value) for name, value
                                         in {**backbone, **tuned}.items()])
    text = cfg.read_text()
    old = text.partition(cli.DIGEST_LINE)[2].split("\n", 1)[0]
    cfg.write_text(text.replace(old, digest))
    rc, eval_out, err = run_cli(capsys, ["eval", *base])
    assert (rc, eval_out) == (3, "")
    assert err == (f"missing artifact: checkpoint {str(ckpt)!r} has unexpected entries "
                   f"{sorted(backbone)}\n")


def test_a_backbone_with_a_wrong_shaped_entry_is_refused_naming_it(workdir, tmp_path, capsys):
    out = _own_outdir(workdir, tmp_path)
    base = ["--out", out, "--seed", "0", "--protocol", "head_tuning", "--epochs", "5"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    path, cfg = os.path.join(out, "backbone-blobs-s0.ckpt"), tmp_path / "head_tuning-blobs-s0.cfg"
    values = checkpoint.load(path)[0]
    shape = values["backbone.0.b"].shape
    values["backbone.0.b"] = values["backbone.0.b"][1:]
    digest = checkpoint.save(path, [Param(name, value) for name, value in values.items()])
    text = cfg.read_text()
    cfg.write_text(text.replace(text.partition(cli.BACKBONE_LINE)[2].split("\n", 1)[0], digest))
    # `eval` finds the file its .cfg records, and `tune` checks no digest
    for command in ("eval", "tune"):
        assert run_cli(capsys, [command, *base]) == (
            3, "", f"missing artifact: {path!r}: entry 'backbone.0.b' has shape "
                   f"{(shape[0] - 1,)}, model expects {shape}\n")


def test_eval_without_tuned_model_exits_3(workdir, capsys):
    rc, _, err = run_cli(capsys, ["eval", "--out", str(workdir), "--seed", "0",
                                  "--protocol", "full_finetune"])
    assert rc == 3
    assert "tuned model checkpoint" in err


def test_a_tune_cut_short_before_its_cfg_leaves_a_checkpoint_eval_refuses(
        workdir, tmp_path, monkeypatch, capsys):
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0", "--protocol", "lion"]
    assert run_cli(capsys, ["tune", *base, "--epochs", "40"])[0] == 0

    class Killed(BaseException):
        pass

    write = checkpoint.write_atomic

    def killed_at_the_cfg(path, data):
        if path.endswith(".cfg"):
            raise Killed(path)
        write(path, data)

    monkeypatch.setattr(checkpoint, "write_atomic", killed_at_the_cfg)
    with pytest.raises(Killed):
        main(["tune", *base, "--epochs", "5"])
    monkeypatch.undo()
    # the 5-epoch checkpoint is on disk, and no .cfg vouches for it
    rc, _, err = run_cli(capsys, ["eval", *base, "--epochs", "40"])
    assert rc == 3
    assert "tuned model config" in err


def test_eval_refuses_a_checkpoint_its_cfg_does_not_vouch_for(workdir, tmp_path, capsys):
    out = _own_outdir(workdir, tmp_path)
    (tmp_path / "backbone-blobs-s1.ckpt").write_bytes((workdir / "backbone-blobs-s0.ckpt")
                                                      .read_bytes())
    base = ["--out", out, "--protocol", "head_tuning", "--epochs", "5"]
    rc, tune_out, _ = run_cli(capsys, ["tune", *base, "--seed", "0"])
    assert rc == 0
    assert run_cli(capsys, ["tune", *base, "--seed", "1"])[0] == 0
    ckpt, cfg = tmp_path / "head_tuning-blobs-s0.ckpt", tmp_path / "head_tuning-blobs-s0.cfg"
    tuned, tuned_cfg = ckpt.read_bytes(), cfg.read_text()
    # another seed's tune has the same shapes, so only the digest tells them apart
    ckpt.write_bytes((tmp_path / "head_tuning-blobs-s1.ckpt").read_bytes())
    rc, _, err = run_cli(capsys, ["eval", *base, "--seed", "0"])
    assert rc == 3
    assert err.startswith(f"missing artifact: {str(ckpt)!r} is not the checkpoint")
    assert err.count("\n") == 1
    ckpt.write_bytes(tuned)
    cfg.write_text(tuned_cfg.replace(cli.DIGEST_LINE, "# "))
    rc, _, err = run_cli(capsys, ["eval", *base, "--seed", "0"])
    assert rc == 3 and str(ckpt) in err and "(sha256 none)" in err
    cfg.write_text(tuned_cfg)
    rc, eval_out, err = run_cli(capsys, ["eval", *base, "--seed", "0"])
    assert rc == 0 and err == ""
    assert _accuracy_line(eval_out) == _accuracy_line(tune_out)


def test_eval_fails_unless_it_reproduces_the_recorded_accuracy(workdir, tmp_path, capsys):
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0",
            "--protocol", "head_tuning", "--epochs", "5"]
    rc, tune_out, _ = run_cli(capsys, ["tune", *base])
    assert rc == 0
    cfg = tmp_path / "head_tuning-blobs-s0.cfg"
    tuned_cfg = cfg.read_text()
    recorded = f"{cli.ACCURACY_LINE}{_accuracy_line(tune_out)}\n"
    assert tuned_cfg.endswith(recorded)
    cfg.write_text(tuned_cfg.replace(recorded, f"{cli.ACCURACY_LINE}0.125\n"))
    rc, eval_out, err = run_cli(capsys, ["eval", *base])
    assert (rc, eval_out) == (1, "")
    assert err == (f"check failed: held-out accuracy {_accuracy_line(tune_out)}, "
                   "but the tune recorded 0.125\n")
    cfg.write_text(tuned_cfg.replace(recorded, ""))
    rc, eval_out, err = run_cli(capsys, ["eval", *base])
    assert (rc, eval_out) == (3, "")
    assert err.startswith(f"missing artifact: tuned model config {str(cfg)!r} records no "
                          "held-out accuracy")
    assert err.count("\n") == 1
    cfg.write_text(tuned_cfg)
    rc, eval_out, err = run_cli(capsys, ["eval", *base])
    assert rc == 0 and err == ""
    assert _accuracy_line(eval_out) == _accuracy_line(tune_out)


def _no_temporary_files(root):
    return [os.path.join(d, f) for d, _, files in os.walk(root) for f in files if ".tmp." in f]


def test_an_output_under_a_regular_file_is_one_config_error_line(tmp_path, capsys):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    rc, _, err = run_cli(capsys, ["prop1", "--out", str(blocker)])
    assert rc == 2
    path = os.path.join(str(blocker), "prop1-s0.csv")
    assert err.startswith(f"config error: cannot write {path!r}: ")
    assert err.count("\n") == 1
    assert _no_temporary_files(tmp_path) == []


def test_an_output_onto_a_directory_is_one_config_error_line_and_leaves_no_temporary(
        tmp_path, capsys):
    run = tmp_path / "run.cfg"
    run.write_text(f"{serialize(RunConfig())}{cli.ACCURACY_LINE}0.98\n")
    (tmp_path / "report.csv").mkdir()
    rc, _, err = run_cli(capsys, ["report", "--out", str(tmp_path), str(run)])
    assert rc == 2
    assert err.startswith(f"config error: cannot write {str(tmp_path / 'report.csv')!r}: ")
    assert err.count("\n") == 1
    assert _no_temporary_files(tmp_path) == []


def test_a_backbone_that_cannot_be_read_is_one_missing_artifact_line(tmp_path, capsys):
    (tmp_path / "backbone-blobs-s0.ckpt").mkdir()
    rc, _, err = run_cli(capsys, ["tune", "--out", str(tmp_path), "--seed", "0"])
    assert rc == 3
    path = str(tmp_path / "backbone-blobs-s0.ckpt")
    assert err.startswith(f"missing artifact: cannot read checkpoint {path!r}: ")
    assert err.count("\n") == 1


def test_a_backbone_with_a_forged_header_is_one_missing_artifact_line(workdir, tmp_path,
                                                                     capsys):
    # two dims of 2^32 - 1 multiply past 2^63, where a 64-bit count wraps negative
    out = _own_outdir(workdir, tmp_path)
    base = ["--out", out, "--seed", "0", "--epochs", "3"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    # each file is parsed before its digest is compared
    for command, file, name in (("eval", "lion-blobs-s0.ckpt", "p1.0.W"),
                                ("tune", "backbone-blobs-s0.ckpt", "backbone.0.W")):
        path = os.path.join(out, file)
        blob = bytearray(open(path, "rb").read())
        at = blob.index(struct.pack("<I", len(name)) + name.encode()) + 4 + len(name)
        struct.pack_into("<III", blob, at, 2, 2**32 - 1, 2**32 - 1)
        open(path, "wb").write(bytes(blob))
        rc, _, err = run_cli(capsys, [command, *base])
        assert rc == 3, command
        assert err.startswith(f"missing artifact: {path!r}: entry {name!r} dims ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["pretrain", "tune"])
@pytest.mark.parametrize("key, value", [("hidden", 10**13), ("hidden", 10**17),
                                        ("feat_dim", 10**13)])
def test_an_oversized_file_only_size_is_one_config_error_line(workdir, tmp_path, capsys,
                                                              command, key, value):
    # sizes far past any memory, refused before anything is allocated
    cfgfile = tmp_path / "big.cfg"
    cfgfile.write_text(f"{key} = {value}\nout = {_own_outdir(workdir, tmp_path)}\n")
    rc, _, err = run_cli(capsys, [command, "--config", str(cfgfile)])
    assert rc == 2
    bound = {"hidden": 4096, "feat_dim": 256}[key]
    assert err == (f"config error: config file {str(cfgfile)!r}: invalid value for "
                   f"{key!r}: must be between 1 and {bound}\n")


def test_a_failed_write_leaves_neither_the_file_nor_its_temporary(tmp_path, monkeypatch):
    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    target = tmp_path / "m.ckpt"
    with pytest.raises(ConfigError, match="No space left on device"):
        checkpoint.save(str(target), sample_params())
    assert os.listdir(tmp_path) == []


# Which `cli._artifact_paths` entries each command writes.
_WRITES = {"pretrain": {"backbone", "pretrain_report"},
           "tune": {"model", "trace_csv", "timing_csv", "config"},
           "eval": set(), "gradcheck": set(), "prop1": {"prop1_csv"},
           "report": {"report_csv"}}


def test_each_command_writes_exactly_the_files_the_table_names(workdir, tmp_path, capsys):
    assert set(_WRITES) == set(cli.COMMANDS)
    assert set().union(*_WRITES.values()) == set(cli._artifact_paths(RunConfig()))
    (tmp_path / "tuned").mkdir()
    tuned = _own_outdir(workdir, tmp_path / "tuned")
    cases = tmp_path / "g.cfg"
    cases.write_text("cases = 2\n")
    runs = [("pretrain", str(tmp_path / "pretrain" / "nested"), []),
            ("tune", tuned, ["--protocol", "head_tuning", "--epochs", "5"]),
            ("eval", tuned, ["--protocol", "head_tuning", "--epochs", "5"]),
            ("gradcheck", str(tmp_path / "gradcheck"), ["--config", str(cases)]),
            ("prop1", str(tmp_path / "prop1"), []),
            ("report", str(tmp_path / "report"),
             [os.path.join(tuned, "head_tuning-blobs-s0.cfg")])]
    for command, out, flags in runs:
        before = set(os.listdir(out)) if os.path.isdir(out) else set()
        rc, _, err = run_cli(capsys, [command, "--out", out, "--seed", "0", *flags])
        assert rc == 0, err
        after = set(os.listdir(out)) if os.path.isdir(out) else set()
        paths = cli._artifact_paths(RunConfig(out=out, protocol="head_tuning"))
        named = {os.path.basename(paths[key]) for key in _WRITES[command]}
        assert after - before == named and before <= after, command
    assert not os.path.exists(tmp_path / "gradcheck")


def test_gradcheck_row_count_and_exit(tmp_path, capsys):
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text("cases = 3\n")
    rc, out, _ = run_cli(capsys, ["gradcheck", "--config", str(cfgfile)])
    assert rc == 0
    assert "3/3 ok" in out
    rows = [ln for ln in out.splitlines() if ln.strip().endswith("ok")]
    assert len(rows) == 3


def test_gradcheck_distinguishes_solver_failure(tmp_path, capsys):
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text("cases = 5\n")
    rc, out, _ = run_cli(capsys, ["gradcheck", "--config", str(cfgfile),
                                  "--tol", "1e-30"])
    assert rc == 1
    assert "solver_failed" in out
    assert "0 gradient failures" in out
    assert "worst case" in out


def test_prop1_confirms_asymmetry(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, ["prop1", "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    assert "asymmetry confirmed" in out
    body = (tmp_path / "prop1-s0.csv").read_text().splitlines()
    assert body[0].startswith("seed,input_side_loss,output_side_loss")
    assert "asymmetry confirmed" in body[1]


def test_report_aggregates_and_sorts(workdir, tmp_path, capsys):
    paths = [str(workdir / "head_tuning-blobs-s0.cfg"),
             str(workdir / "lion-blobs-s0.cfg")]
    rc, out, _ = run_cli(capsys, ["report", "--out", str(tmp_path), *paths])
    assert rc == 0
    lines = out.splitlines()
    table = [ln for ln in lines if "blobs" in ln and "s0" in ln]
    assert len(table) == 2
    accs = []
    for ln in table:
        accs.append(float(ln.split()[4]))
    assert accs == sorted(accs, reverse=True)
    assert "1,179,648" in out and "460,800" in out and "1,024" in out
    report_csv = (tmp_path / "report.csv").read_text().splitlines()
    assert report_csv[0] == "run_id,protocol,dataset,seed,accuracy,trainable_params,epochs"
    assert len(report_csv) == 3


@pytest.mark.parametrize("protocol", ["lion", "head_tuning"])
def test_report_counts_the_params_tune_printed(workdir, tmp_path, capsys, protocol):
    out = _own_outdir(workdir, tmp_path)
    rc, tune_out, _ = run_cli(capsys, ["tune", "--out", out, "--seed", "0",
                                       "--protocol", protocol, "--epochs", "3"])
    assert rc == 0
    rc, _, _ = run_cli(capsys, ["report", "--out", out,
                                os.path.join(out, f"{protocol}-blobs-s0.cfg")])
    assert rc == 0
    header, row = (tmp_path / "report.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert f"trainable params {row['trainable_params']}\n" in tune_out
    assert row["trainable_params"] == {"lion": "1400", "head_tuning": "68"}[protocol]
    assert (row["accuracy"], row["epochs"]) == (_accuracy_line(tune_out), "3")


def test_report_rejects_unreadable_run_file(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,run\n1,2,3\n")
    rc, _, err = run_cli(capsys, ["report", str(junk)])
    assert rc == 2
    assert "junk.csv" in err
    bad_number = tmp_path / "bad-number.cfg"
    bad_number.write_text(f"{serialize(RunConfig())}{cli.ACCURACY_LINE}abc\n")
    rc, _, err = run_cli(capsys, ["report", str(bad_number)])
    assert rc == 3
    assert "bad-number.cfg" in err and "records no held-out accuracy" in err
    rc, _, err = run_cli(capsys, ["report", str(tmp_path / "absent.cfg")])
    assert rc == 3
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"seed = 0\n\xff\n")
    rc, _, err = run_cli(capsys, ["report", str(binary)])
    assert rc == 2
    assert "binary.cfg" in err


_RECORD = (f"{serialize(RunConfig(protocol='head_tuning', epochs=5))}{cli.DIGEST_LINE}{'0' * 64}\n"
           f"{cli.BACKBONE_LINE}{'0' * 64}\n{cli.ACCURACY_LINE}0.98\n")
_record_lines = st.one_of(
    st.sampled_from(_RECORD.splitlines()), st.text(max_size=20),
    st.sampled_from([f"{cli.ACCURACY_LINE}{v}" for v in
                     ("nan", "-1.0", "1e999", "1_0", " 0.5", "1.0", "0.0", "0.5 ", "")]),
    st.sampled_from(["seed = 007", "epochs = +3", "hidden = 4096", "feat_dim = 256",
                     "protocol = lion", "kappa = 1.0", "anderson_depth = 1", "layers = 1"]))
_records = st.one_of(st.binary(max_size=300),
                     st.lists(_record_lines, max_size=24).map(lambda ls: "\n".join(ls).encode()))


@settings(max_examples=200, deadline=None)
@given(_records)
def test_report_on_any_record_succeeds_or_is_one_refusal_line(blob):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(blob)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["report", "--out", out, path])
    err = [ln for ln in stderr.getvalue().splitlines() if ln != "blas: unpinned"]
    prefix = {2: "config error: ", 3: "missing artifact: "}
    assert (rc, err) == (0, []) or (rc in prefix and len(err) == 1
                                    and err[0].startswith(prefix[rc])), (rc, err)


@pytest.mark.parametrize("column, value", [
    ("seed", "0.5"), ("accuracy", "nan"), ("trainable_params", "1e3"), ("epochs", "inf"),
    ("wall_time_s", "-inf"), ("seed", "-1"), ("accuracy", "1e999"), ("accuracy", "1e3"),
    ("accuracy", "1_0"), ("accuracy", "1.5"), ("wall_time_s", " 0.5 "), ("accuracy", "-0.5"),
    ("accuracy", " 0.98"), ("accuracy", "0.98 "), ("accuracy", "")])
def test_report_refuses_a_number_a_run_never_writes(workdir, tmp_path, capsys, column, value):
    # a tuned record holding it is refused by `report` as by `eval`, with one line and one
    # exit code; a record has no line for the parameter count or the wall time at all
    base = ["--out", _own_outdir(workdir, tmp_path), "--seed", "0",
            "--protocol", "head_tuning", "--epochs", "5"]
    assert run_cli(capsys, ["tune", *base])[0] == 0
    cfg = tmp_path / "head_tuning-blobs-s0.cfg"
    good = tmp_path / "good.cfg"
    good.write_text(cfg.read_text())                # a valid record rescues none
    key = cli.ACCURACY_LINE if column == "accuracy" else f"{column} = "
    cfg.write_text("".join(f"{line}\n" for line in cfg.read_text().splitlines()
                           if not line.startswith(key)) + f"{key}{value}\n")
    report = run_cli(capsys, ["report", *base, str(good), str(cfg)])
    assert report == run_cli(capsys, ["eval", *base])
    rc, out, err = report
    (line,) = [ln for ln in err.splitlines() if ln != "blas: unpinned"]
    if column == "accuracy":
        assert (rc, out, line) == (3, "", f"missing artifact: tuned model config {str(cfg)!r} "
                                          "records no held-out accuracy — tune again")
    else:
        why = (f"invalid value for {column!r}: " if column in ("seed", "epochs")
               else f"unknown config key {column!r}")
        assert (rc, out) == (2, "")
        assert line.startswith(f"config error: config file {str(cfg)!r}: {why}")
    assert not (tmp_path / "report.csv").exists()


def test_gradcheck_never_solves_looser_than_its_own_tolerance(tmp_path, capsys):
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text("cases = 3\n")
    argv = ["gradcheck", "--config", str(cfgfile)]
    rc, default_out, _ = run_cli(capsys, argv)
    assert rc == 0
    rc, loose_out, _ = run_cli(capsys, [*argv, "--tol", "1e-8"])
    assert rc == 0
    assert loose_out == default_out


def test_gradcheck_runs_at_the_configured_kappa(tmp_path, capsys):
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text("cases = 3\n")
    argv = ["gradcheck", "--config", str(cfgfile)]
    tables = {kappa: run_cli(capsys, [*argv, "--kappa", kappa]) for kappa in ("0.5", "0.9", "0.99")}
    assert run_cli(capsys, argv) == tables["0.9"]
    for rc, out, err in tables.values():
        assert (rc, err) == (0, "") and "3/3 ok" in out
    assert len({out for _, out, _ in tables.values()}) == 3
    rc, out, err = run_cli(capsys, [*argv, "--kappa", "0.9999"])
    assert (rc, out) == (2, "")
    assert err == ("config error: invalid value for 'kappa': gradcheck's unrolled reference "
                   f"would need more than {harness.MAX_UNROLL_DEPTH:,} steps\n")


def test_gradcheck_with_anderson_mixes_the_stacks(tmp_path, capsys):
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text("cases = 3\n")
    rc, out, _ = run_cli(capsys, ["gradcheck", "--config", str(cfgfile),
                                  "--anderson-depth", "5"])
    assert rc == 0
    assert "3/3 ok" in out
    assert sum(ln.strip().endswith(" ok") for ln in out.splitlines()) == 3


# --- the BLAS thread pin ----------------------------------------------------------

def _blas():
    blas = cli._openblas()
    if blas is None:
        pytest.skip("this NumPy's OpenBLAS exposes no thread-count setter")
    return blas


def test_commands_run_on_one_blas_thread_and_restore_the_callers_count(tmp_path, monkeypatch,
                                                                        capsys):
    get, set_ = _blas()
    suite, seen = harness.gradcheck_suite, []

    def recording(*args, **kwargs):
        seen.append(get())
        return suite(*args, **kwargs)

    monkeypatch.setattr(harness, "gradcheck_suite", recording)
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text("cases = 2\n")
    session = get()
    set_(2)
    try:
        assert run_cli(capsys, ["gradcheck", "--config", str(cfgfile)])[0] == 0
        assert seen == [1] and get() == 2
        assert run_cli(capsys, ["tune", "--protocol", "vpt"])[0] == 2
        assert get() == 2
    finally:
        set_(session)


def test_an_unpinnable_blas_runs_the_command_unchanged(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text("cases = 2\n")
    argv = ["gradcheck", "--config", str(cfgfile)]
    rc, pinned_out, pinned_err = run_cli(capsys, argv)
    assert rc == 0 and pinned_err == ""
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0
    assert err == "blas: unpinned\n"
    assert out == pinned_out


def _command(argv, **env):
    """Run `python -m lionprompt argv` in a fresh process with this tree's `src` first."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "lionprompt", *argv], env=env,
                          capture_output=True, text=True)


def test_artifacts_do_not_depend_on_the_callers_blas_thread_count(tmp_path):
    names = ("backbone-blobs-s0.ckpt", "lion-blobs-s0.ckpt", "lion-blobs-s0-trace.csv")
    written = {}
    for threads in ("2", "1"):
        out = tmp_path / f"threads-{threads}"
        for argv in (["pretrain"], ["tune", "--protocol", "lion", "--epochs", "20"]):
            proc = _command([*argv, "--seed", "0", "--out", str(out)],
                            OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        written[threads] = {name: (out / name).read_bytes() for name in names}
    assert [n for n in names if written["2"][n] != written["1"][n]] == []


@pytest.mark.parametrize("protocol", ["lion", "full_finetune"])
def test_an_overflowing_update_is_one_line_on_stderr(workdir, tmp_path, protocol):
    # no NumPy overflow warning may reach stderr ahead of the error line
    proc = _command(["tune", "--out", _own_outdir(workdir, tmp_path), "--seed", "0",
                     "--protocol", protocol, "--eta", "1e300"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("check failed: epoch 1: non-finite update for ['")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("]\n")


def test_an_overflow_no_check_anticipates_names_its_phase(workdir, tmp_path):
    # the one head step is finite; the logits of the final predict overflow
    proc = _command(["tune", "--out", _own_outdir(workdir, tmp_path), "--seed", "0",
                     "--protocol", "head_tuning", "--eta", "1.1388890283839211e308",
                     "--epochs", "1"])
    assert proc.returncode == 1
    assert proc.stderr == ("check failed: final predict after 1 epochs: "
                           "overflow encountered in matmul\n")
