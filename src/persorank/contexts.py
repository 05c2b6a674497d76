"""Inverted query index, per-user histories, and context assembly.

Both indexes cover the training period only (day <= train_days). Six
contexts are assembled for a (user, query) target: the user's earlier
repetitions of the query (documents / domains), the user's earlier other
queries (documents / domains), and other users' training-period
repetitions of the query (documents / domains). "Earlier" is judged by the
tie-broken session order shared with the partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .logs import Grade, Session
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


@dataclass(eq=False)
class QueryColumns:
    """Every indexed impression of one query as arrays, rows in index order.

    Row n of `items` holds the codes of its documents in columns 0..W-1 and
    of its domains in columns W..2W-1, where W is the longest result list.
    Codes number the query's distinct documents and domains from 0 in one
    shared sequence, so any id fits a small dtype and one comparison serves
    both item kinds. Code -1 fills the slots that never match: padding of a
    short result list, and the earlier slots of a document listed twice,
    which counts only at its last slot, as in `Occurrence.doc_ranks`.
    """

    users: np.ndarray       # (N,) int32 user codes
    items: np.ndarray       # (N, 2W) int16/int32 document then domain codes
    gains: np.ndarray       # (N, W) int8
    clicked: np.ndarray     # (N, W) bool
    last_click: np.ndarray  # (N,) int16, bottom-most clicked slot, 0 without clicks
    variants: np.ndarray    # (N,) int32 index into `terms`
    terms: list[tuple[int, ...]]  # distinct term tuples of the query's rows
    user_codes: dict[int, int]
    document_codes: dict[int, int]
    domain_codes: dict[int, int]

    @classmethod
    def from_occurrences(cls, occurrences: list[Occurrence]) -> "QueryColumns":
        width = max(max(len(o.documents), len(o.domains)) for o in occurrences)
        users: dict[int, int] = {}
        docs: dict[int, int] = {}
        domains: dict[int, int] = {}
        variants: dict[tuple[int, ...], int] = {}
        item_rows, gain_rows, click_slots = [], [], []
        for row, o in enumerate(occurrences):
            codes = [docs.setdefault(d, len(docs) + len(domains)) for d in o.documents]
            if len(o.doc_ranks) < len(o.documents):
                codes = [
                    c if o.doc_ranks[d] == (pos,) else -1
                    for pos, (c, d) in enumerate(zip(codes, o.documents), 1)
                ]
            codes += [-1] * (width - len(o.documents))
            codes += [domains.setdefault(d, len(docs) + len(domains)) for d in o.domains]
            codes += [-1] * (width - len(o.domains))
            item_rows.append(codes)
            gain_rows.append(o.gains + (0,) * (width - len(o.gains)))
            click_slots.extend(row * width + r - 1 for r in o.click_ranks)
        clicked = np.zeros((len(occurrences), width), dtype=bool)
        clicked.flat[click_slots] = True
        n_codes = len(docs) + len(domains)
        return cls(
            users=np.array(
                [users.setdefault(o.user_id, len(users)) for o in occurrences],
                dtype=np.int32,
            ),
            items=np.array(item_rows, dtype=np.int16 if n_codes <= 2**15 else np.int32),
            gains=np.array(gain_rows, dtype=np.int8),
            clicked=clicked,
            last_click=np.array(
                [o.click_ranks[-1] if o.click_ranks else 0 for o in occurrences],
                dtype=np.int16,
            ),
            variants=np.array(
                [variants.setdefault(o.terms, len(variants)) for o in occurrences],
                dtype=np.int32,
            ),
            terms=list(variants),
            user_codes=users,
            document_codes=docs,
            domain_codes=domains,
        )


@dataclass
class Context:
    """Entries relating to one target: impressions with aligned item/grade lists.

    Contexts 5 and 6 from `assemble_contexts` given query columns also carry
    the query's `columns` and the `keep` mask of their rows that belong to
    other users; `occurrences` lists the same rows as objects.
    """

    kind: ItemKind
    occurrences: list[Occurrence]
    columns: QueryColumns | None = field(default=None, compare=False)
    keep: np.ndarray | None = field(default=None, compare=False)  # (N,) bool over rows

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
    for user_id in sorted(ordered):
        for rank, session in enumerate(ordered[user_id]):
            if session.day > train_days:
                continue
            for imp in session.impressions:
                if imp.labels is None:
                    raise ValueError(
                        f"impression serp={imp.serp_id} in session "
                        f"{session.session_id} is unlabeled"
                    )
                occ = make_occurrence(session, imp, rank)
                query_index.setdefault(imp.query_id, []).append(occ)
                user_history.setdefault(user_id, []).append(occ)
    for occurrences in query_index.values():
        occurrences.sort(key=INDEX_SORT_KEY)
    for occurrences in user_history.values():
        occurrences.sort(key=INDEX_SORT_KEY)
    return query_index, user_history


def build_from_sessions(
    sessions: list[Session], train_days: int = 27, seed: int = 0
) -> tuple[QueryIndex, UserHistory, dict[tuple[int, int], int]]:
    """Convenience wrapper: order sessions, build indexes, return rank map."""
    ordered = order_sessions(sessions, seed)
    query_index, user_history = build(ordered, train_days)
    return query_index, user_history, session_ranks(ordered)


def lookup(query_index: QueryIndex, query_id: int) -> list[Occurrence]:
    return query_index.get(query_id, [])


def assemble_contexts(
    user_id: int,
    query_id: int,
    target_key: OrderKey,
    query_index: QueryIndex,
    user_history: UserHistory,
    query_columns: dict[int, QueryColumns] | None = None,
) -> tuple[Context, Context, Context, Context, Context, Context]:
    """The six contexts for a (user, query) target, in canonical order.

    1: user's earlier repetitions of the query, document items
    2: same entries, domain items
    3: user's earlier other queries, document items
    4: same entries, domain items
    5: other users' training-period repetitions of the query, document items
    6: same entries, domain items

    When `query_columns` holds the query, contexts 5 and 6 carry its columns
    and the mask of other users' rows.
    """
    history = user_history.get(user_id, [])
    same_query = [
        o for o in history if o.query_id == query_id and o.order_key < target_key
    ]
    other_query = [
        o for o in history if o.query_id != query_id and o.order_key < target_key
    ]
    others = [o for o in query_index.get(query_id, []) if o.user_id != user_id]
    columns = keep = None
    if query_columns is not None and query_id in query_columns:
        columns = query_columns[query_id]
        keep = columns.users != columns.user_codes.get(user_id, -1)
    return (
        Context(ItemKind.DOCUMENT, same_query),
        Context(ItemKind.DOMAIN, same_query),
        Context(ItemKind.DOCUMENT, other_query),
        Context(ItemKind.DOMAIN, other_query),
        Context(ItemKind.DOCUMENT, others, columns, keep),
        Context(ItemKind.DOMAIN, others, columns, keep),
    )
