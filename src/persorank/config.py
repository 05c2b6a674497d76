"""Pipeline configuration: defaults < key = value file < ``-O`` overrides < flags."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration value or unknown key."""


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

    # shared pipeline settings
    train_days: int = 27
    ndcg_cutoff: int = 10
    threads: int = 1

    # seeds
    partition_seed: int = 1
    train_seed: int = 2
    blend_split_seed: int = 3
    synth_seed: int = 7

    # synthetic generator settings
    n_users: int = 100
    n_days: int = 30
    queries_per_user_per_day: int = 3
    n_queries: int = 500
    n_terms: int = 400
    n_documents: int = 3000
    n_domains: int = 300
    preference_strength: float = 0.9
    repeat_query_prob: float = 0.5

    # model hyperparameters
    hidden_units: int = 64
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_queries: int = 100
    patience: int = 10

    def validate(self) -> None:
        if self.train_days < 1:
            raise ConfigError("train_days must be >= 1")
        if self.ndcg_cutoff < 1:
            raise ConfigError("ndcg_cutoff must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


# Each config key's value type, read from the field annotations.
KEY_TYPES = {
    f.name: {"int": int, "float": float}.get(f.type, str)
    for f in dataclasses.fields(PipelineConfig)
}


def parse_assignments(pairs: list[str]) -> dict:
    """Parse "key=value" strings, validating keys against the config schema."""
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key, raw = key.strip(), value.strip()
        if not sep:
            raise ConfigError(f"expected key=value, got {pair!r}")
        if key not in KEY_TYPES:
            raise ConfigError(f"unknown config key: {key}")
        try:
            out[key] = KEY_TYPES[key](raw)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return out


def load_config(
    path: str | Path | None,
    overrides: list[str] | None = None,
    flags: dict | None = None,
) -> PipelineConfig:
    """Build the effective config from an optional file, overrides and flags.

    The file holds one ``key = value`` per line; blank lines and lines
    starting with ``#`` are ignored. ``-O`` overrides win over file values,
    and parsed flags (already typed, keyed by field name) win over both.
    """
    values: dict = {}
    if path is not None:
        lines = Path(path).read_text().splitlines()
        assignments = [
            line for line in (l.strip() for l in lines)
            if line and not line.startswith("#")
        ]
        values.update(parse_assignments(assignments))
    if overrides:
        values.update(parse_assignments(overrides))
    if flags:
        values.update(flags)
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg
