"""Deterministic synthetic click-log generator with planted preferences.

Each user holds latent preferences: a preferred document per query (drawn
from the query's candidate pool, biased toward the query's globally popular
document and toward the user's preferred domains) that the user tends to
click and read for a long time. The emitted base ranking is only weakly
correlated with those preferences, so re-ranking from history has headroom
to improve NDCG. With preference_strength 0 the clicks carry no planted
signal at all.

Each session is written as text as soon as it is planned, with action
times chosen so that the gap after each click is its planned dwell; only
the session ids wait until every session is known. The counts returned
with the lines are taken from the lines themselves by the array parser,
`logs.parse_columns`, one day at a time, so they are what `parse` reads
from the log.

The same seed always produces byte-identical output. Per-user randomness
comes from independent streams keyed on (seed, user id), so generation
order cannot change the data. Planning a session draws from its streams
by the standard library's own algorithms, called below its public
wrappers: `a + rng._randbelow(n)` is `randrange(a, a + n)`, and so
`randint` and `choice`, and `_sample` is `Random.sample`'s loop. Each
stream yields the values the wrappers would, at a fraction of the calls.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .logs import DWELL_LONG, SERP_SIZE, CorpusStats, corpus_stats, distinct, parse_columns

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


def _build_vocab(cfg: Config) -> tuple[list[QueryInfo], list[int]]:
    rng = random.Random(f"{cfg.synth_seed}:vocab")
    doc_domains = [rng.randrange(cfg.n_domains) for _ in range(cfg.n_documents)]
    queries = []
    pool_size = min(POOL_SIZE, cfg.n_documents)
    for _ in range(cfg.n_queries):
        n_terms = rng.randint(1, min(4, cfg.n_terms))
        terms = tuple(sorted(rng.sample(range(cfg.n_terms), n_terms)))
        pool = tuple(rng.sample(range(cfg.n_documents), pool_size))
        queries.append(QueryInfo(terms=terms, pool=pool, popular_doc=rng.choice(pool)))
    return queries, doc_domains


def _sample(getrandbits, population: list, k: int) -> list:
    """`Random.sample(population, k)` of the stream whose `getrandbits` is given.

    Its pool loop, which it runs for any population of up to 21 items, with
    each `_randbelow(m)` drawn as that draws it: `m.bit_length()` bits at a
    time until they fall below m. Overwrites `population`.
    """
    n = len(population)
    if not 0 <= k <= n <= 21:
        raise ValueError(f"sample of {k} from {n} is outside the pool loop")
    result = []
    for m in range(n, n - k, -1):
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        result.append(population[j])
        population[j] = population[m - 1]  # move the unselected last item into the vacancy
    return result


def _noise_dwell(rng: random.Random) -> int:
    r = rng.random()
    if r < 0.25:
        return 5 + rng._randbelow(45)  # randint(5, 49)
    if r < 0.90:
        return 50 + rng._randbelow(350)  # randint(50, 399)
    return 400 + rng._randbelow(401)  # randint(400, 800)


@dataclass
class _UserState:
    rng: random.Random
    preferred_domains: list[int]
    preferred_doc: dict[int, int] = field(default_factory=dict)
    seen_queries: list[int] = field(default_factory=list)


def _pick_query(state: _UserState, cfg: Config) -> int:
    rng = state.rng
    seen = state.seen_queries
    if seen and rng.random() < cfg.repeat_query_prob:
        return seen[rng._randbelow(len(seen))]
    qid = rng._randbelow(cfg.n_queries)
    if qid not in seen:
        seen.append(qid)
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
            doc = in_domain[rng._randbelow(len(in_domain))]
        else:
            doc = info.pool[rng._randbelow(len(info.pool))]
    state.preferred_doc[qid] = doc
    return doc


def _make_serp(state: _UserState, qid: int, vocab: list[QueryInfo],
               doc_domains: list[int]) -> tuple[list[int], int]:
    """Ten pool documents with the preferred one at a weakly top-biased slot."""
    rng = state.rng
    preferred = _preferred_doc(state, qid, vocab, doc_domains)
    others = [d for d in vocab[qid].pool if d != preferred]
    docs = _sample(rng.getrandbits, others, SERP_SIZE - 1)
    slot = rng._randbelow(SERP_SIZE // 2 if rng.random() < PREF_TOP_BIAS else SERP_SIZE)
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
                dwell = DWELL_LONG + rng._randbelow(901 - DWELL_LONG)  # randint(.., 900)
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


def _user_sessions(cfg: Config, user_id: int, vocab: list[QueryInfo], doc_domains: list[int],
                   query_text: list[str], pair_text: list[str]) -> Iterator[tuple[int, str]]:
    """Day and log text of each of user `user_id`'s sessions, in session order.

    A session's text is its log lines joined by newlines, each line without
    its leading session id, which depends on every user's sessions. Clicks
    and dwells come from the user's stream, action times from a stream of
    the session's own, so formatting a session as soon as it is planned
    draws what planning all sessions first would.
    """
    rng = random.Random(f"{cfg.synth_seed}:user:{user_id}")
    state = _UserState(
        rng=rng,
        preferred_domains=rng.sample(range(cfg.n_domains), min(2, cfg.n_domains)),
    )
    p = cfg.preference_strength
    seq = 0

    def session(day: int, count: int, mark_last_test: bool) -> str:
        """One session's text; each click's dwell is realized by the next action."""
        nonlocal seq
        times = random.Random(f"{cfg.synth_seed}:times:{user_id}:{seq}")
        seq += 1
        out = [f"\tM\t{day}\t{user_id}"]
        t = 0
        for serp_id in range(count):
            qid = _pick_query(state, cfg)
            docs, preferred = _make_serp(state, qid, vocab, doc_domains)
            clicks = _simulate_clicks(state, docs, preferred, p)
            kind = "T" if mark_last_test and serp_id == count - 1 else "Q"
            pairs = "\t".join([pair_text[doc] for doc in docs])
            out.append(f"\t{t}\t{kind}\t{serp_id}\t{query_text[qid]}\t{pairs}")
            if not clicks:
                t += 30 + times._randbelow(91)  # randint(30, 120)
                continue
            t += 3 + times._randbelow(28)  # randint(3, 30)
            for doc, dwell in clicks:
                out.append(f"\t{t}\tC\t{serp_id}\t{doc}")
                t += dwell
        return "\n".join(out)

    count = cfg.queries_per_user_per_day
    for day in range(1, cfg.train_days + 1):
        if count >= 2 and rng.random() < SPLIT_DAY_PROB:
            first = rng.randint(1, count - 1)
            chunks = [first, count - first]
        else:
            chunks = [count]
        for chunk in chunks:
            yield day, session(day, chunk, False)
    test_day = rng.randint(cfg.train_days + 1, cfg.n_days)
    yield test_day, session(test_day, count, True)


def _total(days: list[CorpusStats], seen: list[np.ndarray]) -> CorpusStats:
    """The counts of a log from those of its days and its distinct queries, documents and users."""
    def total(name: str) -> int:
        return sum(getattr(day, name) for day in days)

    queries, documents, users = seen
    return CorpusStats(
        unique_queries=len(queries),
        unique_documents=len(documents),
        unique_users=len(users),
        training_sessions=total("training_sessions"),
        test_sessions=total("test_sessions"),
        training_clicks=total("training_clicks"),
        total_records=total("total_records"),
        grade_counts={period: {grade: sum(day.grade_counts[period][grade] for day in days)
                               for grade in grades}
                      for period, grades in days[0].grade_counts.items()},
    )


def generate_lines(cfg: Config) -> tuple[list[str], CorpusStats]:
    """The full log as serialized lines, and the counts of that log as `parse` reads it.

    Sessions are numbered in (day, user, session) order. A day's lines are
    counted by `parse_columns` as soon as they are made: sessions never
    span days, so the counts of the days add up to those of the log.
    """
    vocab, doc_domains = _build_vocab(cfg)
    query_text = [f"{qid}\t{','.join(map(str, info.terms))}" for qid, info in enumerate(vocab)]
    pair_text = [f"{doc},{domain}" for doc, domain in enumerate(doc_domains)]
    by_day: dict[int, list[str]] = {}  # only the days that hold sessions
    for user_id in range(1, cfg.n_users + 1):  # so each day lists its sessions by user
        for day, text in _user_sessions(cfg, user_id, vocab, doc_domains, query_text,
                                        pair_text):
            by_day.setdefault(day, []).append(text)

    lines: list[str] = []
    days: list[CorpusStats] = []
    seen = [np.empty(0, np.int64)] * 3
    session_id = 0
    for day in sorted(by_day):
        start = len(lines)
        for text in by_day.pop(day):  # the day's texts become its lines
            session_id += 1
            sid = str(session_id)
            lines.extend((sid + text.replace("\n", "\n" + sid)).split("\n"))
        columns = parse_columns(line + "\n" for line in lines[start:])
        if columns is None:
            raise RuntimeError(f"the array parser declined day {day} of a generated log")
        days.append(corpus_stats(columns, cfg.train_days))
        seen = [distinct(np.concatenate((known, ids), axis=None)) for known, ids in zip(
            seen, (columns.query_id, columns.documents, columns.user_id))]
    return lines, _total(days, seen)
