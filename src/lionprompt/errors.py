"""Exception taxonomy shared across the package, and `within`, which names a failure's phase."""

import contextlib


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
