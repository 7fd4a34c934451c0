"""`errors.within`, the one rule that names the phase of a numeric failure."""

import numpy as np
import pytest

from lionprompt.errors import ConfigError, DivergenceError, EvaluationError, within


@pytest.mark.parametrize("kind", [DivergenceError, EvaluationError])
def test_within_keeps_the_type_and_prefixes_the_phase(kind):
    original = kind("stalled")
    with pytest.raises(kind, match=r"^epoch 3: stalled$") as exc, within("epoch 3"):
        raise original
    assert type(exc.value) is kind and exc.value.__cause__ is original


def test_within_turns_a_floating_point_error_into_an_evaluation_error():
    with pytest.raises(EvaluationError, match=r"^held-out predict: overflow encountered in "
                       r"multiply$") as exc, \
            np.errstate(over="raise"), within("held-out predict"):
        np.array([1e308]) * 10.0
    assert isinstance(exc.value.__cause__, FloatingPointError)


def test_within_nests_outer_first():
    with pytest.raises(DivergenceError, match=r"^epoch 0: block p1: stalled$"), \
            within("epoch 0"), within("block p1"):
        raise DivergenceError("stalled")
    with pytest.raises(EvaluationError, match=r"^epoch 0: block p1: invalid value "), \
            np.errstate(invalid="raise"), within("epoch 0"), within("block p1"):
        np.array([np.inf]) - np.inf


def test_within_passes_other_errors_and_success_through():
    original = ConfigError("bad key")
    with pytest.raises(ConfigError) as exc, within("epoch 0"):
        raise original
    assert exc.value is original
    with within("epoch 0"):
        value = 1.0
    assert value == 1.0
