"""Exception taxonomy, `require` (a setting out of range) and `within` (a failure's phase)."""

import contextlib
import math


class LionPromptError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(LionPromptError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class EvaluationError(LionPromptError, RuntimeError):
    """A numeric evaluation produced non-finite values."""


class DivergenceError(LionPromptError, RuntimeError):
    """A fixed-point solve diverged or failed to converge; the message says how far."""


class StateError(LionPromptError, RuntimeError):
    """An operation was called in an invalid state (e.g. missing gradients)."""


class ConfigError(LionPromptError, ValueError):
    """A config file or flag value is invalid; the message names the key."""


def require(ok: bool, key: str, why: str) -> None:
    """Unless `ok`, raise `ConfigError`: `invalid value for 'key': why`."""
    if not ok:
        raise ConfigError(f"invalid value for {key!r}: {why}")


def require_finite(key: str, value: float) -> None:
    require(math.isfinite(value), key, f"must be finite, got {value!r}")


class MissingArtifactError(LionPromptError, FileNotFoundError):
    """A required input file (checkpoint, run report) does not exist."""


class CheckpointError(LionPromptError, ValueError):
    """A checkpoint file is malformed or has an unsupported version."""


class SetupError(LionPromptError, RuntimeError):
    """An experiment precondition could not be established."""


@contextlib.contextmanager
def within(where: str):
    """Re-raise a numeric failure in the body as `where: message`.

    `DivergenceError` and `EvaluationError` keep their type; a NumPy `FloatingPointError`
    becomes an `EvaluationError`. Nesting reads outer-first: `epoch 0: block p1: ...`.
    """
    try:
        yield
    except (DivergenceError, EvaluationError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except FloatingPointError as exc:
        raise EvaluationError(f"{where}: {exc}") from exc
