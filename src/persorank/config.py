"""Pipeline configuration: defaults < key = value file < ``-O`` overrides < flags.

Every config key is one field of ``Config``, under the same name.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .logs import SERP_SIZE


class ConfigError(ValueError):
    """Invalid configuration value or unknown key."""


# The largest count of gen's vocabularies, users and days: every id and day that
# gen writes then has at most the 18 digits that `parse` reads (`logs._LINE`).
MAX_COUNT = 10**18 - 1

# The most time one query of a gen session spans (`synth._user_sessions`): up
# to 30 units before its first click, then up to ten clicks, each followed by a
# dwell of at most 900; 120 without a click. A session of q queries ends before
# q times this, and its SERP ids are below q.
QUERY_SPAN = 30 + SERP_SIZE * 900

# The range of each numeric key but learning_rate, both ends included.
_RANGES = {
    **dict.fromkeys(["n_users", "n_days", "n_queries", "n_terms", "n_domains"], (1, MAX_COUNT)),
    "queries_per_user_per_day": (1, MAX_COUNT // QUERY_SPAN),
    **dict.fromkeys(["train_days", "epochs", "batch_queries", "patience", "ndcg_cutoff"],
                    (1, math.inf)),
    **dict.fromkeys(["synth_seed", "partition_seed", "train_seed", "blend_split_seed"],
                    (0, math.inf)),
    "n_documents": (SERP_SIZE, MAX_COUNT),
    "preference_strength": (0.0, 1.0),
    "repeat_query_prob": (0.0, 1.0),
    "hidden_units": (10, 200),
}


@dataclasses.dataclass(frozen=True)
class Config:
    """Effective settings for every pipeline stage, each range-checked when made.

    All seeds are explicit so any artifact can be regenerated bit-exactly.
    """

    # artifact paths (resolved relative to the working directory)
    log_path: str = "log.tsv"
    cache_path: str = "sessions.cache"
    targets_path: str = "targets.csv"
    features_dir: str = "."
    models_dir: str = "."
    reports_dir: str = "."

    # synthetic generator
    n_users: int = 100
    n_days: int = 30
    queries_per_user_per_day: int = 3
    n_queries: int = 500
    n_terms: int = 400
    n_documents: int = 3000
    n_domains: int = 300
    preference_strength: float = 0.9
    repeat_query_prob: float = 0.5

    # days 1..train_days are the training period, the later days the test period
    train_days: int = 27

    # seeds
    synth_seed: int = 7
    partition_seed: int = 1
    train_seed: int = 2
    blend_split_seed: int = 3

    # network and optimiser; ndcg_cutoff also drives the blend and eval
    hidden_units: int = 64
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_queries: int = 100
    patience: int = 10
    ndcg_cutoff: int = 10

    def __post_init__(self) -> None:
        for key, (low, high) in _RANGES.items():
            value = getattr(self, key)
            if not low <= value <= high:
                bound = (f">= {low}" if value < low else f"<= {high}" if value > high
                         else f"within [{low}, {high}]")  # nan is neither below nor above
                raise ConfigError(f"{key} must be {bound}, got {value!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and above 0, "
                              f"got {self.learning_rate!r}")
        if self.train_days >= self.n_days:
            raise ConfigError(f"train_days must be below n_days ({self.n_days}), "
                              f"got {self.train_days}")
        # gen numbers each user's sessions of up to two a training day and one test day.
        if self.n_users * (2 * self.train_days + 1) > MAX_COUNT:
            raise ConfigError(f"n_users * (2 * train_days + 1) must be <= {MAX_COUNT}, the "
                              f"most sessions gen can number, got n_users={self.n_users} and "
                              f"train_days={self.train_days}")


def seed(raw: str) -> int:
    """Parse a seed: a non-negative integer."""
    value = int(raw)
    if value < 0:
        raise ValueError("seeds must be non-negative")
    return value


# Each config key's value parser, read from the field annotations. Config
# rejects the floats that parse but are not finite.
KEY_TYPES = {
    f.name: {"int": int, "float": float}.get(f.type, str)
    for f in dataclasses.fields(Config)
}


def load_config(
    path: str | Path | None,
    overrides: list[str] | None = None,
    flags: dict | None = None,
) -> Config:
    """Build the effective config from a file, overrides and flags.

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
    values = {}
    for key, raw in assigned + list((flags or {}).items()):
        if key not in KEY_TYPES:
            raise ConfigError(f"unknown config key: {key}")
        try:
            values[key] = KEY_TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
    return Config(**values)
