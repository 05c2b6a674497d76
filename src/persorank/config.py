"""Pipeline configuration: defaults < key = value file < ``-O`` overrides < flags.

Each config key is stored in one field: of ``PipelineConfig`` or of its
``GenConfig`` and ``TrainSettings`` sections.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .logs import SERP_SIZE

TEST_WINDOW_DAYS = 3


class ConfigError(ValueError):
    """Invalid configuration value or unknown key."""


@dataclass(frozen=True)
class GenConfig:
    """Synthetic generator settings."""

    n_users: int = 100
    n_days: int = 30
    queries_per_user_per_day: int = 3
    n_queries: int = 500
    n_terms: int = 400
    n_documents: int = 3000
    n_domains: int = 300
    preference_strength: float = 0.9
    repeat_query_prob: float = 0.5
    rng_seed: int = 7

    def validate(self) -> None:
        counts = {
            "n_users": self.n_users,
            "n_days": self.n_days,
            "queries_per_user_per_day": self.queries_per_user_per_day,
            "n_queries": self.n_queries,
            "n_terms": self.n_terms,
            "n_documents": self.n_documents,
            "n_domains": self.n_domains,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.preference_strength <= 1.0:
            raise ConfigError("preference_strength must be in [0, 1]")
        if not 0.0 <= self.repeat_query_prob <= 1.0:
            raise ConfigError("repeat_query_prob must be in [0, 1]")
        if self.n_days < 4:
            raise ConfigError("n_days must be >= 4")
        if self.n_documents < SERP_SIZE:
            raise ConfigError(f"n_documents must be >= {SERP_SIZE}")

    @property
    def train_days(self) -> int:
        """Days 1..train_days are the training period; the rest is test."""
        return self.n_days - TEST_WINDOW_DAYS


@dataclass
class TrainSettings:
    """Network and optimiser settings; ``cutoff`` is the NDCG cutoff."""

    hidden: int = 64
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_queries: int = 100
    patience: int = 10
    cutoff: int = 10

    def validate(self) -> None:
        if not 10 <= self.hidden <= 200:
            raise ConfigError("hidden must be within [10, 200]")
        if min(self.epochs, self.batch_queries, self.patience) < 1 or self.learning_rate <= 0:
            raise ConfigError("invalid training settings")


@dataclass
class PipelineConfig:
    """Effective settings for every pipeline stage.

    All seeds are explicit so any artifact can be regenerated bit-exactly.
    """

    # artifact paths (resolved relative to the working directory)
    log_path: str = "log.tsv"
    cache_path: str = "sessions.cache"
    targets_path: str = "targets.csv"
    features_dir: str = "."
    models_dir: str = "."
    reports_dir: str = "."

    train_days: int = 27

    # seeds
    partition_seed: int = 1
    train_seed: int = 2
    blend_split_seed: int = 3

    generator: GenConfig = field(default_factory=GenConfig)
    # model hyperparameters; training.cutoff also drives the blend and eval
    training: TrainSettings = field(default_factory=TrainSettings)

    def validate(self) -> None:
        if self.train_days < 1:
            raise ConfigError("train_days must be >= 1")
        if self.training.cutoff < 1:
            raise ConfigError("ndcg_cutoff must be >= 1")
        self.generator.validate()
        self.training.validate()


def seed(raw: str) -> int:
    """Parse a seed: a non-negative integer."""
    value = int(raw)
    if value < 0:
        raise ValueError("seeds must be non-negative")
    return value


def finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# The sections of PipelineConfig, and the config key of each section field
# whose name differs from its key.
_SECTIONS = {"generator": GenConfig, "training": TrainSettings}
_KEY_OF_FIELD = {"rng_seed": "synth_seed", "hidden": "hidden_units", "cutoff": "ndcg_cutoff"}

# Config key -> (section, or None for PipelineConfig's own fields; field).
_KEY_FIELDS = {
    _KEY_OF_FIELD.get(f.name, f.name): (section, f)
    for section, cls in [(None, PipelineConfig), *_SECTIONS.items()]
    for f in dataclasses.fields(cls)
    if f.name not in _SECTIONS
}

# Each config key's value parser, read from the field annotations; every
# key named *_seed is a seed.
KEY_TYPES = {
    key: seed if key.endswith("_seed") else {"int": int, "float": finite_float}.get(f.type, str)
    for key, (_, f) in _KEY_FIELDS.items()
}


def load_config(
    path: str | Path | None,
    overrides: list[str] | None = None,
    flags: dict | None = None,
) -> PipelineConfig:
    """Build and validate the effective config from a file, overrides and flags.

    The file holds one ``key = value`` per line; blank lines and lines
    starting with ``#`` are ignored. ``-O`` overrides win over file values,
    and flags (raw strings keyed by config key) win over both.
    """
    pairs = []
    if path is not None:
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from None
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"cannot read config file: {exc}") from None
        lines = (line.strip() for line in text.splitlines())
        pairs = [line for line in lines if line and not line.startswith("#")]
    assigned = []
    for pair in pairs + list(overrides or []):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {pair!r}")
        assigned.append((key.strip(), value.strip()))
    fields: dict = {section: {} for section in (None, *_SECTIONS)}
    for key, raw in assigned + list((flags or {}).items()):
        if key not in _KEY_FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        section, f = _KEY_FIELDS[key]
        try:
            fields[section][f.name] = KEY_TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
    cfg = PipelineConfig(
        **fields[None], **{name: cls(**fields[name]) for name, cls in _SECTIONS.items()}
    )
    cfg.validate()
    return cfg
