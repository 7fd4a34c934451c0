"""Each run setting has one home: the type that consumes it owns its range and default.

`SolverConfig` owns `tol`, `max_iters` and `anderson_depth`, `OptState` owns
`eta` and `tau`, and `PromptBlock` owns `kappa`. `RunConfig` builds those
owners rather than restating their checks, so over each key's boundary
values it refuses exactly what the owner refuses, with the owner's message,
and its defaults are the owners' defaults.
"""

import inspect
import math

import numpy as np
import pytest

from lionprompt import model
from lionprompt.config import RunConfig
from lionprompt.deq import PromptBlock, SolverConfig
from lionprompt.errors import ConfigError
from lionprompt.numerics import Param
from lionprompt.robust_opt import OptState

FLOATS = (-math.inf, -1.0, -5e-324, 0.0, 5e-324, 0.5, 1.0, 2.0, math.inf, math.nan)
INTS = (-1, 0, 1, 2)


def block(kappa):
    return PromptBlock("p", Param("p.W", np.zeros((2, 2))), Param("p.U", np.zeros((2, 1))),
                       Param("p.b", np.zeros(2)), kappa=kappa)


# key -> (the owner built with that key at a value, the values to try, those it accepts)
OWNERS = {
    "tol": (lambda v: SolverConfig(tol=v), FLOATS, (5e-324, 0.5, 1.0, 2.0)),
    "max_iters": (lambda v: SolverConfig(max_iters=v), INTS, (1, 2)),
    "anderson_depth": (lambda v: SolverConfig(anderson_depth=v), INTS, (0, 2)),
    "eta": (lambda v: OptState(eta=v), FLOATS, (0.0, 5e-324, 0.5, 1.0, 2.0)),
    "tau": (lambda v: OptState(eta=RunConfig.eta, tau=v), FLOATS, (5e-324, 0.5)),
    "kappa": (block, FLOATS, (5e-324, 0.5)),
}


def refusal(build, value):
    """The message `build(value)` raises its `ConfigError` with, or None if it accepts."""
    try:
        build(value)
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("key", OWNERS)
def test_run_config_refuses_exactly_what_the_owner_refuses(key):
    build, values, _ = OWNERS[key]
    for value in values:
        owner = refusal(build, value)
        assert refusal(lambda v: RunConfig(**{key: v}), value) == owner, (key, value)
        assert owner is None or owner.startswith(f"invalid value for {key!r}: "), owner


@pytest.mark.parametrize("key", OWNERS)
def test_each_owner_accepts_exactly_its_range(key):
    build, values, accepted = OWNERS[key]
    assert tuple(v for v in values if refusal(build, v) is None) == accepted


@pytest.mark.parametrize("key", [k for k, (_, values, _) in OWNERS.items() if values is FLOATS])
def test_no_owner_accepts_a_nonfinite_value(key):
    build, _, _ = OWNERS[key]
    for value in (math.nan, math.inf, -math.inf):
        assert refusal(build, value) is not None, (key, value)


def test_the_null_step_is_a_valid_run_setting():
    assert RunConfig(eta=0.0).eta == 0.0
    assert refusal(lambda v: RunConfig(eta=v), -1.0) == "invalid value for 'eta': must be >= 0"


def test_run_config_defaults_are_the_owners_defaults():
    cfg = RunConfig()
    assert cfg.solver == SolverConfig()
    assert cfg.optimizer == OptState(eta=cfg.eta)
    assert cfg.kappa == PromptBlock.kappa
    assert inspect.signature(model.build_prompt_model).parameters["kappa"].default == cfg.kappa
