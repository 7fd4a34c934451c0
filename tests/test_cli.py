"""Checkpoint format, config round trips, and the command-line surface."""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lionprompt import checkpoint, deq
from lionprompt.cli import CSV_HEADER, main
from lionprompt.config import RunConfig, parse, serialize
from lionprompt.errors import CheckpointError, ConfigError
from lionprompt.numerics import Param, Tensor
from lionprompt.rng import substream


def sample_params(seed=0):
    rng = substream(seed, "ckpt-test")
    return [
        Param("gate.a", Tensor(float(rng.normal()))),
        Param("vec.b", Tensor(rng.normal(size=7))),
        Param("mat.W", Tensor(rng.normal(size=(3, 5)))),
    ]


# --- checkpoint binary format -------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params = sample_params()
    path = str(tmp_path / "m.ckpt")
    checkpoint.save(path, params)
    loaded = checkpoint.load(path)
    assert list(loaded) == [p.name for p in params]
    for p in params:
        assert loaded[p.name].array.tobytes() == p.value.array.tobytes()
        assert loaded[p.name].shape == p.value.shape


def test_save_load_save_is_byte_identical(tmp_path):
    params = sample_params()
    first = str(tmp_path / "a.ckpt")
    second = str(tmp_path / "b.ckpt")
    checkpoint.save(first, params)
    restored = [Param(p.name, Tensor(np.zeros(p.value.shape))) for p in params]
    checkpoint.restore(restored, checkpoint.load(first))
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


def test_duplicate_names_rejected(tmp_path):
    p = Param("x", Tensor(1.0))
    with pytest.raises(CheckpointError, match="duplicate"):
        checkpoint.save(str(tmp_path / "m.ckpt"), [p, Param("x", Tensor(2.0))])


@pytest.mark.parametrize("name", ["", "n" * (checkpoint._MAX_NAME + 1), "bad\udc80"],
                         ids=["empty", "too-long", "unencodable"])
def test_save_refuses_names_load_would_reject(tmp_path, name):
    with pytest.raises(CheckpointError, match="parameter name"):
        checkpoint.save(str(tmp_path / "m.ckpt"), sample_params() + [Param(name, Tensor(1.0))])
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
    params = [Param(n, Tensor(data.draw(tensors))) for n in entry_names]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        checkpoint.save(first, params)
        blank = [Param(p.name, Tensor(np.zeros(p.value.shape))) for p in params]
        checkpoint.restore(blank, checkpoint.load(first))
        checkpoint.save(second, blank)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def test_restore_rejects_architecture_mismatch(tmp_path):
    path = str(tmp_path / "m.ckpt")
    checkpoint.save(path, sample_params())
    loaded = checkpoint.load(path)
    with pytest.raises(CheckpointError, match="lacks"):
        checkpoint.restore([Param("nope", Tensor(0.0))] + sample_params(), loaded)
    with pytest.raises(CheckpointError, match="unexpected"):
        checkpoint.restore(sample_params()[:2], loaded)
    wrong = sample_params()
    wrong[2] = Param("mat.W", Tensor(np.zeros((5, 3))))
    with pytest.raises(CheckpointError, match="shape"):
        checkpoint.restore(wrong, loaded)


# --- config ---------------------------------------------------------------------

def test_config_round_trip_equality():
    cfg = RunConfig(seed=3, tau=0.25, eta=0.7, tol=3e-9, max_iters=123,
                    anderson_depth=4, kappa=0.85, layers=2, protocol="bias_tuning",
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


def test_anderson_depth_zero_selects_picard_and_negative_is_rejected():
    assert RunConfig().anderson_depth == 0
    assert RunConfig(anderson_depth=0).anderson_depth == 0
    with pytest.raises(ConfigError, match="'anderson_depth'"):
        RunConfig(anderson_depth=-1)


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


def test_pretrain_reports_and_reruns_identically(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    rc1, out1, _ = run_cli(capsys, ["pretrain", "--out", str(a), "--seed", "0"])
    rc2, out2, _ = run_cli(capsys, ["pretrain", "--out", str(b), "--seed", "0"])
    assert rc1 == rc2 == 0
    assert "train accuracy   1.0000" in out1
    ckpt = "backbone-blobs-s0.ckpt"
    assert (a / ckpt).read_bytes() == (b / ckpt).read_bytes()


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
    rc, _, err = run_cli(capsys, ["tune", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2


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
    run_csv = (workdir / "head_tuning-blobs-s0.csv").read_text().splitlines()
    assert run_csv[0] == CSV_HEADER
    row = run_csv[1].split(",")
    assert row[1] == "head_tuning"
    assert float(row[4]) == float(_accuracy_line(tune_out))


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
    assert len(trace) - 1 <= 40
    first = trace[1].split(",")
    assert len(first) == 6 and first[4] != ""


def test_unconverged_forward_solve_fails_the_tune(workdir, capsys):
    rc, _, err = run_cli(capsys, ["tune", "--out", str(workdir), "--seed", "0",
                                  "--protocol", "lion", "--epochs", "3",
                                  "--max-iters", "2"])
    assert rc == 1
    assert "check failed: epoch 0: block p1 cell 0: forward solve stopped" in err


def _record_solver_depths(monkeypatch):
    solve, depths = deq.solve_forward_batch, set()

    def recording(cell, x_rows, cfg=None, z0_rows=None):
        depths.add(cfg.anderson_depth)
        return solve(cell, x_rows, cfg, z0_rows)

    monkeypatch.setattr(deq, "solve_forward_batch", recording)
    return depths


def _own_outdir(workdir, tmp_path):
    """A fresh output directory holding a copy of the shared backbone."""
    name = "backbone-blobs-s0.ckpt"
    (tmp_path / name).write_bytes((workdir / name).read_bytes())
    return str(tmp_path)


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
    os.remove(os.path.join(out, "head_tuning-blobs-s0.cfg"))
    rc, _, err = run_cli(capsys, ["eval", *base, "--shift", "rotation"])
    assert rc == 3
    assert "tuned model config" in err


def test_eval_without_tuned_model_exits_3(workdir, capsys):
    rc, _, err = run_cli(capsys, ["eval", "--out", str(workdir), "--seed", "0",
                                  "--protocol", "full_finetune"])
    assert rc == 3
    assert "tuned model checkpoint" in err


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
    paths = [str(workdir / "head_tuning-blobs-s0.csv"),
             str(workdir / "lion-blobs-s0.csv")]
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
    assert report_csv[0] == CSV_HEADER
    assert len(report_csv) == 3


def test_report_rejects_unreadable_run_file(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,run\n1,2,3\n")
    rc, _, err = run_cli(capsys, ["report", str(junk)])
    assert rc == 3
    assert "junk.csv" in err
    rc, _, err = run_cli(capsys, ["report", str(tmp_path / "absent.csv")])
    assert rc == 3


def test_gradcheck_with_anderson_mixes_the_stacks(tmp_path, capsys):
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text("cases = 3\n")
    rc, out, _ = run_cli(capsys, ["gradcheck", "--config", str(cfgfile),
                                  "--anderson-depth", "5"])
    assert rc == 0
    assert "3/3 ok" in out
    assert sum(ln.strip().endswith(" ok") for ln in out.splitlines()) == 3
