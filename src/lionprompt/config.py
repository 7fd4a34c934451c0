"""Line-oriented run configuration.

The on-disk format is `key = value`, one per line, with `#` starting a
comment (full-line or trailing). Values are typed by the corresponding
RunConfig field; serialization uses shortest round-trip float repr and
`out` is one line without '#', NUL or surrounding spaces, so
parse(serialize(c)) == c holds exactly for every valid config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .deq import PromptBlock, SolverConfig, check_kappa
from .errors import ConfigError, require, require_finite
from .robust_opt import OptState

PROTOCOL_CHOICES = ("head_tuning", "full_finetune", "bias_tuning", "lion")
DATASET_CHOICES = ("blobs", "glyphs")
SHIFT_CHOICES = ("invertible_linear", "rotation", "noise", "none")


def _flag(default, help_text: str):
    """A field the CLI also offers as a flag (`max_iters` -> `--max-iters`) with this help."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Every knob a command reads; each field with help text is also a CLI flag. The
    optimizer, solver and cell keys take their ranges and defaults from their owners."""

    seed: int = _flag(0, "seed of the data, the shift and every initialisation")
    tau: float = _flag(OptState.tau, "non-crucial fraction")
    eta: float = _flag(0.3, "learning rate")
    tol: float = _flag(SolverConfig.tol, "fixed-point solver tolerance")
    max_iters: int = _flag(SolverConfig.max_iters, "fixed-point iteration cap per solve")
    anderson_depth: int = _flag(SolverConfig.anderson_depth,
                                "0 = plain Picard; N >= 2 = Anderson over N residuals")
    kappa: float = _flag(PromptBlock.kappa, "contraction bound, in (0,1)")
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
        require(self.seed >= 0, "seed", "must be >= 0")
        self.optimizer, self.solver  # building them refuses their keys out of range
        check_kappa(self.kappa)
        if self.protocol not in PROTOCOL_CHOICES:
            raise ConfigError(f"unsupported protocol {self.protocol!r} "
                              f"(choose from {', '.join(PROTOCOL_CHOICES)})")
        require(self.dataset in DATASET_CHOICES, "dataset",
                f"choose from {', '.join(DATASET_CHOICES)}")
        require(self.shift in SHIFT_CHOICES, "shift", f"choose from {', '.join(SHIFT_CHOICES)}")
        require(not self.ir < 1.0, "ir", "must be >= 1")
        require(self.shots >= 0, "shots", "must be >= 0")
        require(self.epochs >= 1, "epochs", "must be >= 1")
        require(not set("#\0") & set(self.out) and self.out.strip().splitlines() == [self.out],
                "out", "must be a non-empty one-line path without '#', NUL or outer spaces")
        require(self.cases >= 1, "cases", "must be >= 1")
        require(1 <= self.hidden <= 4096, "hidden", "must be between 1 and 4096")
        require(1 <= self.feat_dim <= 256, "feat_dim", "must be between 1 and 256")
        for f in fields(self):
            if isinstance(getattr(self, f.name), float):
                require_finite(f.name, getattr(self, f.name))

    @property
    def optimizer(self) -> OptState:
        """The optimizer settings these knobs select."""
        return OptState(eta=self.eta, tau=self.tau)

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
