import tracemalloc

import pytest
from hypothesis import settings

from persorank import features
from persorank.config import Config
from persorank.logs import SessionColumns, label_sessions, parse_log, sessionize
from persorank.partition import ROLES, select_targets
from persorank.synth import generate_lines

# Property tests draw the same examples on every run; each keeps its own max_examples.
settings.register_profile("persorank", derandomize=True, deadline=None)
settings.load_profile("persorank")


class Corpus:
    def __init__(self, cfg, sessions, stats, targets, report, seed):
        self.cfg = cfg
        self.sessions = sessions
        self.columns = SessionColumns.of(sessions)
        self.stats = stats
        self.targets = targets
        self.report = report
        self.partition_seed = seed
        self.train_days = cfg.train_days


def generated_sessions(gen_cfg: Config):
    """The labeled sessions of gen's log, read back line by line, and gen's counts.

    The sessions come from the line-by-line reference (`parse_log`,
    `sessionize`, `label_sessions`), not from `parse_columns`, which gen counts
    with, so the oracles built on them stay independent of the array parser.
    """
    lines, stats = generate_lines(gen_cfg)
    sessions = sessionize(parse_log(lines))
    label_sessions(sessions)
    return sessions, stats


def extract_all(columns: SessionColumns, targets, train_days: int = 27,
                seed: int = 0) -> dict[str, features.FeatureTable]:
    """Every role's feature table, extracted as `persorank extract` extracts them."""
    extraction = features.Extraction.read(columns, targets, train_days, seed)
    extraction.index()
    return {role: features.extract_targets(extraction, role) for role in ROLES}


def traced_peak(run) -> int:
    """The traced peak of `run()` above what is traced when it starts, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def make_corpus(gen_cfg: Config, partition_seed: int = 5) -> Corpus:
    sessions, stats = generated_sessions(gen_cfg)
    targets, report = select_targets(
        SessionColumns.of(sessions), train_days=gen_cfg.train_days, seed=partition_seed
    )
    return Corpus(gen_cfg, sessions, stats, targets, report, partition_seed)


@pytest.fixture(scope="session")
def small_corpus():
    """40 users, shared read-only across tests; do not mutate."""
    return make_corpus(
        Config(
            n_users=40,
            queries_per_user_per_day=3,
            n_queries=300,
            n_terms=200,
            n_documents=1500,
            n_domains=120,
            preference_strength=0.9,
            repeat_query_prob=0.5,
            synth_seed=11,
        )
    )
