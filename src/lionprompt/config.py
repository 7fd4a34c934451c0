"""Line-oriented run configuration.

The on-disk format is `key = value`, one per line, with `#` starting a
comment (full-line or trailing). Values are typed by the corresponding
RunConfig field; serialization uses shortest round-trip float repr and
`out` is one line without '#', NUL or surrounding spaces, so
parse(serialize(c)) == c holds exactly for every valid config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .deq import SolverConfig
from .errors import ConfigError

PROTOCOL_CHOICES = ("head_tuning", "full_finetune", "bias_tuning", "lion")
DATASET_CHOICES = ("blobs", "glyphs")
SHIFT_CHOICES = ("invertible_linear", "rotation", "noise", "none")


def _flag(default, help_text: str):
    """A field the CLI also offers as a flag (`max_iters` -> `--max-iters`) with this help."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Every knob a command reads; each field with help text is also a CLI flag."""

    seed: int = _flag(0, "seed of the data, the shift and every initialisation")
    tau: float = _flag(0.4, "non-crucial fraction (default 0.4)")
    eta: float = _flag(0.3, "learning rate")
    tol: float = _flag(1e-8, "fixed-point solver tolerance")
    max_iters: int = _flag(500, "fixed-point iteration cap per solve")
    anderson_depth: int = _flag(0, "0 = plain Picard; N >= 2 = Anderson over N residuals")
    kappa: float = _flag(0.9, "contraction bound, in (0,1)")
    protocol: str = _flag("lion", " | ".join(PROTOCOL_CHOICES))
    dataset: str = _flag("blobs", " | ".join(DATASET_CHOICES))
    shift: str = _flag("invertible_linear", " | ".join(SHIFT_CHOICES))
    ir: float = _flag(1.0, "long-tail imbalance ratio (1 = off)")
    shots: int = _flag(0, "few-shot samples per class (0 = off)")
    epochs: int = _flag(200, "training epochs (pretrain runs at least 300)")
    out: str = _flag("runs", "output directory for checkpoints and reports")
    cases: int = 20
    hidden: int = 448
    feat_dim: int = 16

    def __post_init__(self):
        def bad(key, why):
            raise ConfigError(f"invalid value for {key!r}: {why}")

        if self.seed < 0:
            bad("seed", "must be >= 0")
        if not 0.0 < self.tau < 1.0:
            bad("tau", "must be strictly between 0 and 1")
        if self.eta <= 0.0:
            bad("eta", "must be positive")
        if self.tol <= 0.0:
            bad("tol", "must be positive")
        if self.max_iters < 1:
            bad("max_iters", "must be >= 1")
        if self.anderson_depth < 0:
            bad("anderson_depth", "must be >= 0")
        if not 0.0 < self.kappa < 1.0:
            bad("kappa", "must be strictly between 0 and 1")
        if self.protocol not in PROTOCOL_CHOICES:
            raise ConfigError(f"unsupported protocol {self.protocol!r} "
                              f"(choose from {', '.join(PROTOCOL_CHOICES)})")
        if self.dataset not in DATASET_CHOICES:
            bad("dataset", f"choose from {', '.join(DATASET_CHOICES)}")
        if self.shift not in SHIFT_CHOICES:
            bad("shift", f"choose from {', '.join(SHIFT_CHOICES)}")
        if self.ir < 1.0:
            bad("ir", "must be >= 1")
        if self.shots < 0:
            bad("shots", "must be >= 0")
        if self.epochs < 1:
            bad("epochs", "must be >= 1")
        if set("#\0") & set(self.out) or self.out.strip().splitlines() != [self.out]:
            bad("out", "must be a non-empty one-line path without '#', NUL or outer spaces")
        if self.cases < 1:
            bad("cases", "must be >= 1")
        if not 1 <= self.hidden <= 4096:
            bad("hidden", "must be between 1 and 4096")
        if not 1 <= self.feat_dim <= 256:
            bad("feat_dim", "must be between 1 and 256")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                bad(f.name, f"must be finite, got {value!r}")

    @property
    def solver(self) -> SolverConfig:
        """The fixed-point solver settings these knobs select."""
        return SolverConfig(tol=self.tol, max_iters=self.max_iters,
                            anderson_depth=self.anderson_depth)


FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
               for f in fields(RunConfig)}


def parse(text: str) -> RunConfig:
    """Full file -> config: defaults overlaid with the file's `key = value` lines."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = (part.strip() for part in body.partition("="))
        if key not in FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = FIELD_TYPES[key](raw)
        except ValueError:
            raise ConfigError(f"invalid value for {key!r}: {raw!r} is not a valid "
                              f"{FIELD_TYPES[key].__name__}") from None
    return RunConfig(**values)


def serialize(cfg: RunConfig) -> str:
    """Emit the config as a parseable, diffable text block."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def load_file(path: str, unreadable: type[Exception] = ConfigError) -> tuple[RunConfig, str]:
    """The validated config in a file, and the file's text; every error names the file.

    An unreadable file raises `unreadable`, an invalid one `ConfigError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse(text), text
    except OSError as exc:
        raise unreadable(f"config file {path!r}: {exc.strerror}") from None
    except (UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
