"""Deterministic synthetic click-log generator with planted preferences.

Each user holds latent preferences: a preferred document per query (drawn
from the query's candidate pool, biased toward the query's globally popular
document and toward the user's preferred domains) that the user tends to
click and read for a long time. The emitted base ranking is only weakly
correlated with those preferences, so re-ranking from history has headroom
to improve NDCG. With preference_strength 0 the clicks carry no planted
signal at all.

Each user's sessions are planned first, then written straight to log
records, with action times chosen so that the gap after each click is its
planned dwell. The counts returned with the lines are taken from the lines
themselves by the array parser, `logs.parse_columns`, so they are what
`parse` reads from the log.

The same seed always produces byte-identical output. Per-user randomness
comes from independent streams keyed on (seed, user id), so generation
order cannot change the data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .config import GenConfig
from .logs import (
    DWELL_LONG,
    SERP_SIZE,
    ClickAction,
    CorpusStats,
    LogRecord,
    QueryAction,
    SessionMeta,
    corpus_stats,
    format_record,
    parse_columns,
)

POOL_SIZE = 20

# cascade simulation constants
BASE_CLICK_PROB = 0.08
PREF_CLICK_BOOST = 0.57
CONTINUE_AFTER_POSITION = 0.90
STOP_AFTER_SHORT_CLICK = 0.30
STOP_AFTER_LONG_CLICK = 0.80
SPLIT_DAY_PROB = 0.30
PREF_TOP_BIAS = 0.25


@dataclass(frozen=True)
class QueryInfo:
    terms: tuple[int, ...]
    pool: tuple[int, ...]
    popular_doc: int


def _build_vocab(cfg: GenConfig) -> tuple[list[QueryInfo], list[int]]:
    rng = random.Random(f"{cfg.rng_seed}:vocab")
    doc_domains = [rng.randrange(cfg.n_domains) for _ in range(cfg.n_documents)]
    queries = []
    pool_size = min(POOL_SIZE, cfg.n_documents)
    for _ in range(cfg.n_queries):
        n_terms = rng.randint(1, min(4, cfg.n_terms))
        terms = tuple(sorted(rng.sample(range(cfg.n_terms), n_terms)))
        pool = tuple(rng.sample(range(cfg.n_documents), pool_size))
        queries.append(QueryInfo(terms=terms, pool=pool, popular_doc=rng.choice(pool)))
    return queries, doc_domains


def _noise_dwell(rng: random.Random) -> int:
    r = rng.random()
    if r < 0.25:
        return rng.randint(5, 49)
    if r < 0.90:
        return rng.randint(50, 399)
    return rng.randint(400, 800)


@dataclass
class _UserState:
    rng: random.Random
    preferred_domains: list[int]
    preferred_doc: dict[int, int] = field(default_factory=dict)
    seen_queries: list[int] = field(default_factory=list)


def _pick_query(state: _UserState, cfg: GenConfig) -> int:
    rng = state.rng
    if state.seen_queries and rng.random() < cfg.repeat_query_prob:
        return rng.choice(state.seen_queries)
    qid = rng.randrange(cfg.n_queries)
    if qid not in state.seen_queries:
        state.seen_queries.append(qid)
    return qid


def _preferred_doc(state: _UserState, qid: int, vocab: list[QueryInfo],
                   doc_domains: list[int]) -> int:
    doc = state.preferred_doc.get(qid)
    if doc is not None:
        return doc
    rng = state.rng
    info = vocab[qid]
    if rng.random() < 0.5:
        doc = info.popular_doc
    else:
        in_domain = [d for d in info.pool if doc_domains[d] in state.preferred_domains]
        if in_domain and rng.random() < 0.8:
            doc = rng.choice(in_domain)
        else:
            doc = rng.choice(info.pool)
    state.preferred_doc[qid] = doc
    return doc


def _make_serp(state: _UserState, qid: int, vocab: list[QueryInfo],
               doc_domains: list[int]) -> tuple[list[int], int]:
    """Ten pool documents with the preferred one at a weakly top-biased slot."""
    rng = state.rng
    preferred = _preferred_doc(state, qid, vocab, doc_domains)
    others = [d for d in vocab[qid].pool if d != preferred]
    docs = rng.sample(others, SERP_SIZE - 1)
    if rng.random() < PREF_TOP_BIAS:
        slot = rng.randrange(SERP_SIZE // 2)
    else:
        slot = rng.randrange(SERP_SIZE)
    docs.insert(slot, preferred)
    return docs, preferred


def _simulate_clicks(state: _UserState, docs: list[int], preferred: int,
                     p: float) -> list[tuple[int, int]]:
    """Cascade scan over the SERP; returns (doc, intended dwell) in click order."""
    rng = state.rng
    clicks = []
    for doc in docs:
        click_prob = BASE_CLICK_PROB
        if doc == preferred:
            click_prob += PREF_CLICK_BOOST * p
        if rng.random() < click_prob:
            if doc == preferred and rng.random() < p:
                dwell = rng.randint(DWELL_LONG, 900)
            else:
                dwell = _noise_dwell(rng)
            clicks.append((doc, dwell))
            stop_prob = (
                STOP_AFTER_LONG_CLICK if dwell >= DWELL_LONG else STOP_AFTER_SHORT_CLICK
            )
            if rng.random() < stop_prob:
                break
        if rng.random() >= CONTINUE_AFTER_POSITION:
            break
    return clicks


@dataclass
class _PlannedSession:
    user_id: int
    day: int
    user_seq: int
    impressions: list[tuple[int, list[int], list[tuple[int, int]], bool]]
    # (query_id, documents, clicks as (doc, dwell), is_test)


def _plan_user(cfg: GenConfig, user_id: int, vocab: list[QueryInfo],
               doc_domains: list[int]) -> list[_PlannedSession]:
    rng = random.Random(f"{cfg.rng_seed}:user:{user_id}")
    state = _UserState(
        rng=rng,
        preferred_domains=rng.sample(range(cfg.n_domains), min(2, cfg.n_domains)),
    )
    p = cfg.preference_strength
    sessions: list[_PlannedSession] = []
    seq = 0

    def plan_impressions(count: int, mark_last_test: bool):
        imps = []
        for i in range(count):
            qid = _pick_query(state, cfg)
            docs, preferred = _make_serp(state, qid, vocab, doc_domains)
            clicks = _simulate_clicks(state, docs, preferred, p)
            is_test = mark_last_test and i == count - 1
            imps.append((qid, docs, clicks, is_test))
        return imps

    for day in range(1, cfg.train_days + 1):
        count = cfg.queries_per_user_per_day
        if count >= 2 and rng.random() < SPLIT_DAY_PROB:
            first = rng.randint(1, count - 1)
            chunks = [first, count - first]
        else:
            chunks = [count]
        for chunk in chunks:
            sessions.append(
                _PlannedSession(user_id, day, seq, plan_impressions(chunk, False))
            )
            seq += 1

    test_day = rng.randint(cfg.train_days + 1, cfg.n_days)
    sessions.append(
        _PlannedSession(
            user_id, test_day, seq,
            plan_impressions(cfg.queries_per_user_per_day, True),
        )
    )
    return sessions


def _session_records(plan: _PlannedSession, session_id: int, rng: random.Random,
                     vocab: list[QueryInfo], doc_domains: list[int]) -> list[LogRecord]:
    """The log records of one planned session, each click's dwell realized by the next action."""
    records: list[LogRecord] = [SessionMeta(session_id, plan.day, plan.user_id)]
    t = 0
    for serp_id, (qid, docs, clicks, is_test) in enumerate(plan.impressions):
        records.append(QueryAction(session_id, t, serp_id, is_test, qid, vocab[qid].terms,
                                   tuple((doc, doc_domains[doc]) for doc in docs)))
        if not clicks:
            t += rng.randint(30, 120)
            continue
        t += rng.randint(3, 30)
        for doc, dwell in clicks:
            records.append(ClickAction(session_id, t, serp_id, doc))
            t += dwell
    return records


def generate_lines(cfg: GenConfig) -> tuple[list[str], CorpusStats]:
    """The full log as serialized lines, and the counts of that log as `parse` reads it."""
    cfg.validate()
    vocab, doc_domains = _build_vocab(cfg)
    plans = [plan for user_id in range(1, cfg.n_users + 1)
             for plan in _plan_user(cfg, user_id, vocab, doc_domains)]
    plans.sort(key=lambda pl: (pl.day, pl.user_id, pl.user_seq))

    lines = []
    for session_id, plan in enumerate(plans, 1):
        timing_rng = random.Random(f"{cfg.rng_seed}:times:{plan.user_id}:{plan.user_seq}")
        lines.extend(map(format_record, _session_records(
            plan, session_id, timing_rng, vocab, doc_domains)))
    columns = parse_columns(line + "\n" for line in lines)
    if columns is None:
        raise RuntimeError("the array parser declined a generated log")
    return lines, corpus_stats(columns, cfg.train_days)
