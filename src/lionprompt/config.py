"""Line-oriented run configuration.

The on-disk format is `key = value`, one per line, with `#` starting a
comment (full-line or trailing). Values are typed by the corresponding
RunConfig field; serialization uses shortest round-trip float repr, so
parse(serialize(c)) == c holds exactly for every valid config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .deq import SolverConfig
from .errors import ConfigError

PROTOCOL_CHOICES = ("head_tuning", "full_finetune", "bias_tuning", "lion")
DATASET_CHOICES = ("blobs", "glyphs")
SHIFT_CHOICES = ("invertible_linear", "rotation", "noise", "none")


@dataclass(frozen=True)
class RunConfig:
    """Every knob a command reads, mirrored one-to-one by the CLI flags."""

    seed: int = 0
    tau: float = 0.4
    eta: float = 0.3
    tol: float = 1e-8
    max_iters: int = 500
    anderson_depth: int = 0
    kappa: float = 0.9
    layers: int = 1
    protocol: str = "lion"
    dataset: str = "blobs"
    shift: str = "invertible_linear"
    ir: float = 1.0
    shots: int = 0
    epochs: int = 200
    out: str = "runs"
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
        if self.layers < 1:
            bad("layers", "must be >= 1")
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
        if not self.out:
            bad("out", "must be a non-empty path")
        if self.cases < 1:
            bad("cases", "must be >= 1")
        if self.hidden < 1:
            bad("hidden", "must be >= 1")
        if self.feat_dim < 1:
            bad("feat_dim", "must be >= 1")

    @property
    def solver(self) -> SolverConfig:
        """The fixed-point solver settings these knobs select."""
        return SolverConfig(tol=self.tol, max_iters=self.max_iters,
                            anderson_depth=self.anderson_depth)


_FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
                for f in fields(RunConfig)}


def coerce(key: str, raw: str):
    """Parse one raw string value to its field's type, naming the key on failure."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"invalid value for {key!r}: {raw!r} is not a valid {kind.__name__}") from None


def parse_text(text: str) -> dict:
    """Read `key = value` lines into a typed dict (not yet a full config)."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        values[key.strip()] = coerce(key.strip(), raw.strip())
    return values


def parse(text: str) -> RunConfig:
    """Full file -> config: defaults overlaid with the file's keys."""
    return RunConfig(**parse_text(text))


def serialize(cfg: RunConfig) -> str:
    """Emit the config as a parseable, diffable text block."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def load_file(path: str) -> dict:
    """Typed key dict from a config file; missing file is a config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_text(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} does not exist") from None
