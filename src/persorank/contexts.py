"""Inverted query index, per-user histories, and context assembly.

Both indexes cover the training period only (day <= train_days). Six
contexts are assembled for a (user, query) target: the user's earlier
repetitions of the query (documents / domains), the user's earlier other
queries (documents / domains), and other users' training-period
repetitions of the query (documents / domains). "Earlier" is judged by the
tie-broken session order shared with the partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .logs import CODE_CLICKED, CODE_GAINS, SERP_SIZE, DataError, Grade, Session, SessionColumns
from .partition import order_sessions, session_ranks

OrderKey = tuple[int, int]  # (session rank in user's timeline, time_passed)


class ItemKind(Enum):
    DOCUMENT = "document"
    DOMAIN = "domain"


@dataclass
class Occurrence:
    """One training-period impression as seen by the indexes.

    Carries the grades (not just gains) so that click flags remain exact:
    a short-dwell click has gain 0 but still counts as clicked. Lookup maps
    for item positions and the impression's click ranks are precomputed
    because feature extraction probes them heavily.
    """

    user_id: int
    day: int
    session_id: int
    time_passed: int
    order_key: OrderKey
    query_id: int
    terms: tuple[int, ...]
    documents: tuple[int, ...]
    domains: tuple[int, ...]
    grades: tuple[Grade, ...]
    gains: tuple[int, ...]
    doc_ranks: dict[int, tuple[int, ...]]
    domain_ranks: dict[int, tuple[int, ...]]
    click_ranks: tuple[int, ...]

    def item_ranks(self, kind: ItemKind, item: int) -> tuple[int, ...]:
        """Ascending 1-based positions where the item appears, () if absent."""
        table = self.doc_ranks if kind is ItemKind.DOCUMENT else self.domain_ranks
        return table.get(item, ())


@dataclass
class Context:
    """Entries relating to one target: impressions with aligned item/grade lists.

    The sums of an exact context's features are exact and rounded once.
    """

    kind: ItemKind
    occurrences: list[Occurrence]
    exact: bool = False

    def __len__(self) -> int:
        return len(self.occurrences)


QueryIndex = dict[int, list[Occurrence]]
UserHistory = dict[int, list[Occurrence]]

INDEX_SORT_KEY = lambda occ: (occ.day, occ.session_id, occ.time_passed)  # noqa: E731


def make_occurrence(session: Session, imp, rank: int) -> Occurrence:
    grades = tuple(imp.labels)
    doc_ranks: dict[int, tuple[int, ...]] = {
        doc: (pos,) for pos, doc in enumerate(imp.documents, 1)
    }
    domain_ranks: dict[int, tuple[int, ...]] = {}
    for pos, domain in enumerate(imp.domains, 1):
        domain_ranks[domain] = domain_ranks.get(domain, ()) + (pos,)
    click_ranks = tuple(
        pos for pos, g in enumerate(grades, 1) if g.clicked
    )
    return Occurrence(
        user_id=session.user_id,
        day=session.day,
        session_id=session.session_id,
        time_passed=imp.time_passed,
        order_key=(rank, imp.time_passed),
        query_id=imp.query_id,
        terms=imp.terms,
        documents=imp.documents,
        domains=imp.domains,
        grades=grades,
        gains=tuple(g.gain for g in grades),
        doc_ranks=doc_ranks,
        domain_ranks=domain_ranks,
        click_ranks=click_ranks,
    )


def _indexed(ordered: dict[int, list[Session]], train_days: int):
    """(session rank, session, impression) of each training-period impression, by user."""
    for user_id in sorted(ordered):
        for rank, session in enumerate(ordered[user_id]):
            if session.day > train_days:
                continue
            for imp in session.impressions:
                if imp.labels is None:
                    raise ValueError(f"impression serp={imp.serp_id} in session "
                                     f"{session.session_id} is unlabeled")
                yield rank, session, imp


def build(
    ordered: dict[int, list[Session]], train_days: int = 27
) -> tuple[QueryIndex, UserHistory]:
    """Index every labeled training-period impression.

    `ordered` is the tie-broken per-user session order from
    partition.order_sessions; session ranks there define the order keys.
    Occurrence lists come out sorted by (day, session_id, time_passed).
    """
    query_index: QueryIndex = {}
    user_history: UserHistory = {}
    for rank, session, imp in _indexed(ordered, train_days):
        occ = make_occurrence(session, imp, rank)
        query_index.setdefault(imp.query_id, []).append(occ)
        user_history.setdefault(session.user_id, []).append(occ)
    for occurrences in query_index.values():
        occurrences.sort(key=INDEX_SORT_KEY)
    for occurrences in user_history.values():
        occurrences.sort(key=INDEX_SORT_KEY)
    return query_index, user_history


@dataclass(eq=False)
class IndexRows:
    """The impressions `build` indexes, as arrays with one row each.

    Rows follow `INDEX_SORT_KEY`, ties in `build`'s order, so one query's
    (or user's) rows in row order are its index list. Columns 0-9 of
    `items` are codes into `documents`, columns 10-19 codes into `domains`
    plus len(documents). Code -1 marks the earlier slot of a document
    listed twice, which counts only at its last slot, as in `doc_ranks`.
    """

    users: np.ndarray       # (N,) user ids
    queries: np.ndarray     # (N,) query ids
    ranks: np.ndarray       # (N,) session rank; (rank, time) is the order key
    times: np.ndarray       # (N,) time_passed
    items: np.ndarray       # (N, 20) document codes, then domain codes
    gains: np.ndarray       # (N, 10) int8
    clicked: np.ndarray     # (N, 10) bool
    last_click: np.ndarray  # (N,) bottom-most clicked rank, 0 without clicks
    variants: np.ndarray    # (N,) index into `terms`, one per distinct term tuple
    terms: list[frozenset[int]]  # the term set of each variant
    documents: np.ndarray   # sorted distinct document ids
    domains: np.ndarray     # sorted distinct domain ids


def training_rows(columns: SessionColumns, train_days: int = 27) -> tuple[np.ndarray, np.ndarray]:
    """The impression rows `build` indexes, in its order, and their session rows.

    An unlabeled one raises DataError.
    """
    session = columns.impression_sessions()
    at = np.flatnonzero(columns.day[session] <= train_days)
    s = session[at]
    unlabeled = columns.grades[at, 0] < 0
    if unlabeled.any():
        i = np.argmax(unlabeled)
        raise DataError(f"impression serp={columns.serp_id[at[i]]} in session "
                        f"{columns.session_id[s[i]]} is unlabeled")
    # Session ids are unique, so tied rows share a session and keep its list order, as in build.
    order = np.lexsort((columns.time_passed[at], columns.session_id[s], columns.day[s]))
    return at[order], s[order]


def index_rows(columns: SessionColumns, ranks: np.ndarray, train_days: int = 27) -> IndexRows:
    """The rows `build` indexes, from the session columns.

    `ranks` holds each session's rank, as `partition.rank_sessions` gives it.
    """
    at, s = training_rows(columns, train_days)
    shape = (len(at), SERP_SIZE)
    document_ids, doc_codes = np.unique(columns.documents[at], return_inverse=True)
    domain_ids, domain_codes = np.unique(columns.domains[at], return_inverse=True)
    doc_codes = doc_codes.reshape(shape)  # the inverse's shape differs across numpy versions
    for gap in range(1, SERP_SIZE):  # -1 at the earlier slot of a document listed twice
        earlier = doc_codes[:, :-gap]
        earlier[earlier == doc_codes[:, gap:]] = -1
    grades = columns.grades[at]
    clicked = CODE_CLICKED[grades]
    variants, terms = columns.term_variants(at)
    return IndexRows(
        users=columns.user_id[s],
        queries=columns.query_id[at],
        ranks=ranks[s],
        times=columns.time_passed[at],
        items=np.hstack([doc_codes, domain_codes.reshape(shape) + len(document_ids)]),
        gains=CODE_GAINS[grades],
        clicked=clicked,
        last_click=np.where(clicked, np.arange(1, SERP_SIZE + 1), 0).max(axis=1, initial=0),
        variants=variants,
        terms=[frozenset(t) for t in terms],
        documents=document_ids,
        domains=domain_ids,
    )


def build_from_sessions(
    sessions: list[Session], train_days: int = 27, seed: int = 0
) -> tuple[QueryIndex, UserHistory, dict[tuple[int, int], int]]:
    """Convenience wrapper: order sessions, build indexes, return rank map."""
    ordered = order_sessions(sessions, seed)
    query_index, user_history = build(ordered, train_days)
    return query_index, user_history, session_ranks(ordered)


def assemble_contexts(
    user_id: int,
    query_id: int,
    target_key: OrderKey,
    query_index: QueryIndex,
    user_history: UserHistory,
) -> tuple[Context, Context, Context, Context, Context, Context]:
    """The six contexts for a (user, query) target, in canonical order.

    1: user's earlier repetitions of the query, document items
    2: same entries, domain items
    3: user's earlier other queries, document items
    4: same entries, domain items
    5: other users' training-period repetitions of the query, document items
    6: same entries, domain items

    Contexts 5-6 are exact (see `Context`).
    """
    history = user_history.get(user_id, [])
    same_query = [
        o for o in history if o.query_id == query_id and o.order_key < target_key
    ]
    other_query = [
        o for o in history if o.query_id != query_id and o.order_key < target_key
    ]
    others = [o for o in query_index.get(query_id, []) if o.user_id != user_id]
    return (
        Context(ItemKind.DOCUMENT, same_query),
        Context(ItemKind.DOMAIN, same_query),
        Context(ItemKind.DOCUMENT, other_query),
        Context(ItemKind.DOMAIN, other_query),
        Context(ItemKind.DOCUMENT, others, exact=True),
        Context(ItemKind.DOMAIN, others, exact=True),
    )
