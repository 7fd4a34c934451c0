"""Implicit prompt tuning around a frozen backbone.

Equilibrium prompt blocks solved to a fixed point, softmax blending
gates, and a criticality-partitioned optimizer, all on a small dense
numeric core with hand-written backward rules.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DivergenceError,
    EvaluationError,
    LionPromptError,
    MissingArtifactError,
    SetupError,
    ShapeMismatchError,
    StateError,
)
from .numerics import Param

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "DivergenceError",
    "EvaluationError",
    "LionPromptError",
    "MissingArtifactError",
    "Param",
    "SetupError",
    "ShapeMismatchError",
    "StateError",
    "__version__",
]
