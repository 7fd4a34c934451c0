"""Every outcome of `tune`, `eval`, `gradcheck`, `pretrain` and `prop1` is one documented line.

Over `RunConfig`'s accepted domain, the file-only keys included, each
command exits 0 with nothing on stderr, or exits 1, 2 or 3 with exactly one
stderr line that starts with that exit code's prefix; a failed check of
`tune` or `eval` names its phase. Nothing else reaches
stderr: an escaping exception fails the test with its traceback, and a NumPy
warning is turned into one. A tune that succeeds is reproduced by `eval`.
`pretrain` runs at least 300 epochs, so its draws keep the backbone at
`hidden` <= 32 and `feat_dim` <= 8; `prop1` reads only the seed.
"""

import contextlib
import io
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from lionprompt import checkpoint
from lionprompt.cli import main
from lionprompt.config import (DATASET_CHOICES, PROTOCOL_CHOICES, SHIFT_CHOICES, RunConfig,
                               serialize)

PREFIXES = {1: "check failed: ", 2: "config error: ", 3: "missing artifact: "}
# A failed check in `tune` or `eval` names the phase it happened in.
PHASES = {"tune": ("check failed: epoch ", "check failed: final predict after ",
                   "check failed: held-out predict: "),
          "eval": ("check failed: held-out predict: ",)}


def open_unit():
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def run_configs(seed, dataset, hidden, feat_dim):
    """Accepted `RunConfig`s with these draws for the keys that pick the backbone.

    Epochs, cases, the iteration cap and the Anderson depth are bounded so
    that every example runs in milliseconds; every other key spans its domain.
    """
    return st.builds(
        RunConfig, seed=seed, tau=open_unit(), eta=st.floats(0.0, allow_infinity=False),
        tol=st.floats(0.0, exclude_min=True, allow_infinity=False),
        max_iters=st.integers(1, 200), anderson_depth=st.integers(0, 5), kappa=open_unit(),
        protocol=st.sampled_from(PROTOCOL_CHOICES), dataset=dataset,
        shift=st.sampled_from(SHIFT_CHOICES),
        ir=st.one_of(st.just(1.0), st.floats(1.0, 60.0), st.floats(1.0, allow_infinity=False)),
        shots=st.one_of(st.just(0), st.integers(0, 60)), epochs=st.integers(1, 3),
        cases=st.integers(1, 3), hidden=hidden, feat_dim=feat_dim)


# Half the draws fit the one pretrained backbone (blobs, seed 0, 448 -> 16); the
# others may name a backbone that is absent or of another shape.
configs = st.one_of(
    run_configs(st.just(0), st.just("blobs"), st.just(448), st.just(16)),
    run_configs(st.integers(0, 3), st.sampled_from(DATASET_CHOICES),
                st.integers(1, 500), st.integers(1, 32)))


@pytest.fixture(scope="module")
def outdir(source_backbone, tmp_path_factory):
    out = tmp_path_factory.mktemp("outcomes")
    checkpoint.save(str(out / "backbone-blobs-s0.ckpt"), source_backbone[0].params())
    return out


def run(command, cfg_path):
    """(exit code, stdout, stderr lines but `blas: unpinned`) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main([command, "--config", cfg_path])
    return rc, out.getvalue(), [ln for ln in err.getvalue().splitlines()
                                if ln != "blas: unpinned"]


def accuracy(stdout):
    return next(ln.split()[-1] for ln in stdout.splitlines() if ln.startswith("held-out"))


def documented(command, cfg, out):
    """(exit code, stdout) of `command` run on `cfg` in `out`, its stderr checked."""
    cfg_path = out / "run.cfg"
    cfg_path.write_text(serialize(replace(cfg, out=str(out))))
    rc, stdout, err = run(command, str(cfg_path))
    assert rc in (0, 1, 2, 3), (command, rc)
    if rc == 0:
        assert err == [], (command, err)
    else:
        assert len(err) == 1 and err[0].startswith(PREFIXES[rc]), (command, rc, err)
        if rc == 1 and command in PHASES:
            assert err[0].startswith(PHASES[command]), (command, err)
    return rc, stdout


@settings(max_examples=60, deadline=None)
@given(configs)
def test_every_outcome_is_one_documented_line(outdir, cfg):
    outcomes = {command: documented(command, cfg, outdir)
                for command in ("tune", "eval", "gradcheck")}
    if outcomes["tune"][0] == 0:
        assert outcomes["eval"][0] == 0
        assert accuracy(outcomes["eval"][1]) == accuracy(outcomes["tune"][1])


@settings(max_examples=12, deadline=None)
@given(run_configs(st.integers(0, 2**64), st.sampled_from(DATASET_CHOICES),
                   st.integers(1, 32), st.integers(1, 8)))
def test_every_pretrain_outcome_is_one_documented_line(tmp_path_factory, cfg):
    # its own directory: a pretrain here must not replace the backbone `outdir` holds
    documented("pretrain", cfg, tmp_path_factory.mktemp("pretrain"))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**64))
def test_every_prop1_outcome_is_one_documented_line(tmp_path_factory, seed):
    documented("prop1", RunConfig(seed=seed), tmp_path_factory.mktemp("prop1"))
