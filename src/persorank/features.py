"""Context features for (user, query, document) targets.

Twenty features are computed per context and target item (a document id or
a domain id, depending on the context). They summarize how much relevance
the item accumulated, how often it was shown, clicked, skipped (not clicked
with some click below it) or missed (not clicked with every click above
it), at which ranks, and how similar the context queries are to the target
query. Concatenating the six context blocks and appending the original
engine rank yields the 121-value vector. Evidence that is absent always
contributes 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .contexts import (
    Context,
    ItemKind,
    Occurrence,
    QueryColumns,
    assemble_contexts,
    build,
)
from .logs import DataError, Impression, Session
from .partition import ROLES, TargetSet, order_sessions, session_ranks

N_CONTEXTS = 6
N_CONTEXT_FEATURES = 20
N_FEATURES = N_CONTEXTS * N_CONTEXT_FEATURES + 1

CONTEXT_COLUMNS = [
    f"c{k}_g{j}"
    for k in range(1, N_CONTEXTS + 1)
    for j in range(1, N_CONTEXT_FEATURES + 1)
]
ID_COLUMNS = ["user_id", "query_id", "session_id", "serp_id", "doc_id"]
HEADER = ID_COLUMNS + CONTEXT_COLUMNS + ["base_rank", "gain"]

# Column index of the heuristic re-ranking signal (c1_g1): total historical
# relevance of the document over the user's earlier repetitions of the query.
HIST_RELEVANCE_INDEX = 0


def similarity(a_terms: Iterable[int], b_terms: Iterable[int]) -> float:
    """Intersection-over-union of two term sets; 0 when both are empty."""
    a, b = set(a_terms), set(b_terms)
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


class EventFlags(NamedTuple):
    shown: bool
    clicked: bool
    skipped: bool
    missed: bool
    r_shown: int
    r_clicked: int
    r_skipped: int
    r_missed: int


def event_flags(item: int, occurrence: Occurrence, kind: ItemKind) -> EventFlags:
    """How the item fared in one impression.

    An item occupying several positions (possible for domains) is located at
    its topmost position. Skipped means shown, not clicked, with at least
    one click strictly below; missed means shown, not clicked, with every
    click strictly above. Ranks are 1-based and 0 when the flag is off.
    """
    ranks = occurrence.item_ranks(kind, item)
    if not ranks:
        return EventFlags(False, False, False, False, 0, 0, 0, 0)
    clicked_ranks = [r for r in ranks if occurrence.grades[r - 1].clicked]
    if clicked_ranks:
        return EventFlags(True, True, False, False, ranks[0], clicked_ranks[0], 0, 0)
    top = ranks[0]
    clicks = occurrence.click_ranks
    if clicks and any(c > top for c in clicks):
        return EventFlags(True, False, True, False, top, 0, top, 0)
    if clicks:
        return EventFlags(True, False, False, True, top, 0, 0, top)
    return EventFlags(True, False, False, False, top, 0, 0, 0)


def context_features(
    item: int, query_terms: Sequence[int], context: Context
) -> list[float]:
    """The 20-value feature block for one item against one context."""
    gain_sum = 0.0
    slot_count = 0
    gain_max: float | None = None
    gain_min: float | None = None

    shown_n = clicked_n = skipped_n = missed_n = 0
    sim_clicked_sum = sim_skipped_sum = sim_missed_sum = 0.0
    sim_clicked_max = sim_skipped_max = sim_missed_max = 0.0
    shown_disc = clicked_disc = skipped_disc = missed_disc = 0.0
    clicked_rank_max = 0
    clicked_rank_min = 0

    kind = context.kind
    for occ in context.occurrences:
        ranks = occ.item_ranks(kind, item)
        if not ranks:
            continue
        for r in ranks:
            gain = occ.gains[r - 1]
            gain_sum += gain
            slot_count += 1
            if gain_max is None or gain > gain_max:
                gain_max = gain
            if gain_min is None or gain < gain_min:
                gain_min = gain

        flags = event_flags(item, occ, kind)
        shown_n += 1
        shown_disc += 1.0 / flags.r_shown
        if flags.clicked:
            sim = similarity(query_terms, occ.terms)
            clicked_n += 1
            clicked_disc += 1.0 / flags.r_clicked
            sim_clicked_sum += sim
            if sim > sim_clicked_max:
                sim_clicked_max = sim
            if flags.r_clicked > clicked_rank_max:
                clicked_rank_max = flags.r_clicked
            if clicked_rank_min == 0 or flags.r_clicked < clicked_rank_min:
                clicked_rank_min = flags.r_clicked
        elif flags.skipped:
            sim = similarity(query_terms, occ.terms)
            skipped_n += 1
            skipped_disc += 1.0 / flags.r_skipped
            sim_skipped_sum += sim
            if sim > sim_skipped_max:
                sim_skipped_max = sim
        elif flags.missed:
            sim = similarity(query_terms, occ.terms)
            missed_n += 1
            missed_disc += 1.0 / flags.r_missed
            sim_missed_sum += sim
            if sim > sim_missed_max:
                sim_missed_max = sim

    return [
        gain_sum,                                            # g1 total gain
        gain_sum / slot_count if slot_count else 0.0,        # g2 mean gain
        float(gain_max) if gain_max is not None else 0.0,    # g3 max gain
        float(gain_min) if gain_min is not None else 0.0,    # g4 min gain
        sim_clicked_sum / clicked_n if clicked_n else 0.0,   # g5
        sim_clicked_max,                                     # g6
        sim_skipped_sum / skipped_n if skipped_n else 0.0,   # g7
        sim_skipped_max,                                     # g8
        sim_missed_sum / missed_n if missed_n else 0.0,      # g9
        sim_missed_max,                                      # g10
        float(shown_n),                                      # g11
        float(clicked_n),                                    # g12
        float(skipped_n),                                    # g13
        float(missed_n),                                     # g14
        shown_disc,                                          # g15
        clicked_disc,                                        # g16
        float(clicked_rank_max),                             # g17
        float(clicked_rank_min),                             # g18
        skipped_disc,                                        # g19
        missed_disc,                                         # g20
    ]


# Value summed for each event row of `columnar_features`: 0 the inverse
# top rank, 1 the inverse clicked rank, 2 the query similarity.
_EVENT_VALUE = np.array([0, 1, 0, 0, 2, 2, 2])


def columnar_features(
    documents: Sequence[int],
    domains: Sequence[int],
    query_terms: Sequence[int],
    context: Context,
) -> dict[ItemKind, np.ndarray]:
    """`context_features` of every document and domain at once.

    `context` carries query columns (contexts 5 and 6 from
    `assemble_contexts`); the result, a (len(items), 20) float64 array per
    item kind, holds the blocks of both contexts, since they share their
    rows. One masked pass finds every slot of a kept row that holds a
    wanted item, then reduces per (row, item) and per item. Rows outside
    `context.keep` add 0 to every count and nothing to any sum. Float sums
    run in row order (`np.bincount`), which reproduces the scalar loop's
    bits; `np.sum` adds pairwise and could change the last bit.
    """
    cols = context.columns
    width = cols.gains.shape[1]
    n_codes = len(cols.document_codes) + len(cols.domain_codes)
    wanted = [cols.document_codes.get(d, n_codes) for d in documents]
    wanted += [cols.domain_codes.get(d, n_codes) for d in domains]
    # One feature row per distinct wanted code; `inverse` maps items to rows.
    distinct: dict[int, int] = {}
    inverse = [distinct.setdefault(code, len(distinct)) for code in wanted]
    n_items = len(distinct)
    lookup = np.full(n_codes + 2, -1)  # code -1 reads the last entry
    lookup[list(distinct)] = np.arange(n_items)
    slot_item = lookup[cols.items]
    rows, slot = np.nonzero((slot_item >= 0) & context.keep[:, None])
    item = slot_item[rows, slot]
    pos = slot % width + 1  # 1-based rank
    gain = cols.gains[rows, pos - 1].astype(np.int64)
    hit = cols.clicked[rows, pos - 1]

    slot_count = np.bincount(item, minlength=n_items)
    gain_sum = np.bincount(item, weights=gain, minlength=n_items)  # exact integers
    gain_max = np.zeros(n_items, dtype=np.int64)
    np.maximum.at(gain_max, item, gain)  # gains are >= 0
    gain_min = np.full(n_items, np.iinfo(np.int64).max)
    np.minimum.at(gain_min, item, gain)

    # Per (row, item): topmost slot and topmost clicked slot, `none` if absent.
    none = width + 1
    cell = rows * n_items + item
    top = np.full(len(cols.users) * n_items, none)
    np.minimum.at(top, cell, pos)
    r_clicked = np.full_like(top, none)
    np.minimum.at(r_clicked, cell[hit], pos[hit])
    top = top.reshape(-1, n_items)
    r_clicked = r_clicked.reshape(top.shape)
    shown = top < none
    clicked = r_clicked < none
    unclicked = shown & ~clicked
    last_click = cols.last_click[:, None]
    skipped = unclicked & (last_click > top)
    missed = unclicked & ~skipped & (last_click > 0)
    sims = np.array([similarity(query_terms, t) for t in cols.terms])
    sim = np.broadcast_to(sims[cols.variants][:, None], top.shape)

    # Sums per (event, item). np.bincount adds its weights one at a time in
    # input order, and the flat event indices run event by event, then row
    # by row, so every float sum accumulates in row order.
    events = np.stack([shown, clicked, skipped, missed, clicked, skipped, missed])
    values = np.stack([1.0 / top, 1.0 / r_clicked, sim]).reshape(3, -1)
    event, at = np.divmod(np.flatnonzero(events), top.size)
    bins = event * n_items + at % n_items
    weights = values[_EVENT_VALUE[event], at]
    n_bins = len(_EVENT_VALUE) * n_items
    ordered = np.bincount(bins, weights, minlength=n_bins).reshape(-1, n_items)
    counts = np.bincount(bins, minlength=n_bins).reshape(-1, n_items)
    shown_disc, clicked_disc, skipped_disc, missed_disc = ordered[:4]
    sim_clicked, sim_skipped, sim_missed = ordered[4:]
    shown_n, clicked_n, skipped_n, missed_n = counts[:4]

    def mean(total, n):
        return np.divide(total, n, out=np.zeros(n_items), where=n > 0)

    block = np.stack(
        [
            gain_sum,
            mean(gain_sum, slot_count),
            gain_max,
            np.where(slot_count > 0, gain_min, 0),
            mean(sim_clicked, clicked_n),
            np.where(clicked, sim, 0.0).max(axis=0),
            mean(sim_skipped, skipped_n),
            np.where(skipped, sim, 0.0).max(axis=0),
            mean(sim_missed, missed_n),
            np.where(missed, sim, 0.0).max(axis=0),
            shown_n,
            clicked_n,
            skipped_n,
            missed_n,
            shown_disc,
            clicked_disc,
            np.where(clicked, r_clicked, 0).max(axis=0),
            np.where(clicked_n > 0, r_clicked.min(axis=0), 0),
            skipped_disc,
            missed_disc,
        ],
        axis=1,
    )[inverse]
    return {
        ItemKind.DOCUMENT: block[: len(documents)],
        ItemKind.DOMAIN: block[len(documents) :],
    }


@dataclass
class FeatureVector:
    user_id: int
    query_id: int
    session_id: int
    serp_id: int
    doc_id: int
    values: list[float]  # 120 context features + base rank
    gain: int | None = None


def extract_impression(
    user_id: int,
    imp: Impression,
    session_id: int,
    six_contexts: Sequence[Context],
) -> list[FeatureVector]:
    """One feature vector per document of the target impression.

    Document contexts (1, 3, 5) are probed with the document id; domain
    contexts (2, 4, 6) with the document's domain id.
    """
    if len(six_contexts) != N_CONTEXTS:
        raise ValueError(f"expected {N_CONTEXTS} contexts, got {len(six_contexts)}")
    gains = imp.gains() if imp.labels is not None else None
    blocks = []
    columnar = None  # contexts 5 and 6 share their rows: one pass serves both
    for context in six_contexts:
        items = imp.documents if context.kind is ItemKind.DOCUMENT else imp.domains
        if context.columns is None:
            blocks.append([context_features(item, imp.terms, context) for item in items])
            continue
        if columnar is None:
            columnar = columnar_features(imp.documents, imp.domains, imp.terms, context)
        blocks.append(columnar[context.kind].tolist())
    rows = []
    for pos, (doc, _) in enumerate(zip(imp.documents, imp.domains)):
        values = [v for block in blocks for v in block[pos]]
        values.append(float(pos + 1))  # original engine rank
        rows.append(
            FeatureVector(
                user_id=user_id,
                query_id=imp.query_id,
                session_id=session_id,
                serp_id=imp.serp_id,
                doc_id=doc,
                values=values,
                gain=gains[pos] if gains is not None else None,
            )
        )
    return rows


def extract_targets(
    sessions: list[Session],
    targets: TargetSet,
    train_days: int = 27,
    seed: int = 0,
) -> dict[str, list[FeatureVector]]:
    """Feature vectors for every target, grouped by role.

    Within each role the targets are processed in (user_id, session_id,
    serp_id) order, so output is deterministic. The session order seed must
    match the one used for partitioning.
    """
    ordered = order_sessions(sessions, seed)
    query_index, user_history = build(ordered, train_days)
    ranks = session_ranks(ordered)
    impressions = {
        (s.user_id, s.session_id, imp.serp_id): imp
        for user_sessions in ordered.values()
        for s in user_sessions
        for imp in s.impressions
    }
    refs = {
        role: sorted((r.user_id, r.session_id, r.serp_id) for r in targets.by_role(role))
        for role in ROLES
    }
    # Columns of the queries that targets ask for, built once for all roles.
    target_queries = {
        impressions[key].query_id
        for keys in refs.values()
        for key in keys
        if key in impressions
    }
    query_columns = {
        q: QueryColumns.from_occurrences(query_index[q])
        for q in target_queries
        if q in query_index
    }
    out: dict[str, list[FeatureVector]] = {}
    for role in ROLES:
        out[role] = rows = []
        for user_id, session_id, serp_id in refs[role]:
            imp = impressions.get((user_id, session_id, serp_id))
            if imp is None:
                raise DataError(
                    f"target user={user_id} session={session_id} serp={serp_id} "
                    "not found in the parsed sessions"
                )
            six = assemble_contexts(
                user_id,
                imp.query_id,
                (ranks[(user_id, session_id)], imp.time_passed),
                query_index,
                user_history,
                query_columns,
            )
            rows += extract_impression(user_id, imp, session_id, six)
    return out


def write_features(rows: Iterable[FeatureVector], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for row in rows:
            writer.writerow(
                [row.user_id, row.query_id, row.session_id, row.serp_id, row.doc_id]
                + [repr(v) for v in row.values]
                + ["" if row.gain is None else row.gain]
            )


@dataclass
class FeatureTable:
    """A feature or score file's contents as arrays grouped by target (10 rows each)."""

    user_ids: np.ndarray     # (T,)
    query_ids: np.ndarray    # (T,)
    session_ids: np.ndarray  # (T,)
    serp_ids: np.ndarray     # (T,)
    doc_ids: np.ndarray      # (T, 10)
    x: np.ndarray            # (T, 10, 121) float64; (T, 10, 0) for score files
    base_ranks: np.ndarray   # (T, 10) float64
    gains: np.ndarray | None  # (T, 10) float64, None when unlabeled

    @property
    def n_targets(self) -> int:
        return self.x.shape[0]

    @property
    def n_docs(self) -> int:
        return self.x.shape[0] * self.x.shape[1]

    def flat_x(self) -> np.ndarray:
        return self.x.reshape(self.n_docs, self.x.shape[2])


def read_features(path: str | Path) -> FeatureTable:
    """Load a feature CSV; malformed content raises DataError (see _read_grouped)."""
    table, _ = _read_grouped(path, HEADER, N_FEATURES)
    return table


def _read_grouped(
    path: str | Path, header: list[str], n_features: int
) -> tuple[FeatureTable, np.ndarray]:
    """Parse the grouped-CSV layout that feature and score files share.

    Each target is 10 consecutive rows: four target id columns and a doc
    id, then number columns, one of them `base_rank` and one `gain`, which
    is empty for unlabeled documents. Returns the table, whose x holds the
    first `n_features` number columns, and every number column other than
    the gain as (T, 10, columns). A file with any empty gain loads with
    gains=None.

    Malformed content raises DataError: an unexpected header, a row count
    that is not a multiple of 10, rows with the wrong number of fields,
    target ids that change within a group, ids that are not integers, and
    values that are not numbers or not finite.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise DataError(f"unexpected header in {path}")
        raw = list(reader)
    if len(raw) % 10 != 0:
        raise DataError(f"{path}: row count {len(raw)} is not a multiple of 10")
    width = len(header)
    g = header.index("gain")
    numbers = header[len(ID_COLUMNS) : g] + header[g + 1 :]
    n_targets = len(raw) // 10
    ids = np.empty((n_targets, 4), dtype=np.int64)
    doc_ids = np.empty((n_targets, 10), dtype=np.int64)
    values = np.empty((n_targets, 10, len(numbers)), dtype=np.float64)
    gains = np.empty((n_targets, 10), dtype=np.float64)
    labeled = True
    for i, row in enumerate(raw):
        t, j = divmod(i, 10)
        if len(row) != width:
            raise DataError(f"{path}: line {i + 2} has {len(row)} fields, expected {width}")
        if row[:4] != raw[t * 10][:4]:
            raise DataError(f"{path}: line {i + 2} changes target within a group of 10")
        try:
            if j == 0:
                ids[t] = [int(v) for v in row[:4]]
            doc_ids[t, j] = int(row[4])
            values[t, j] = [float(v) for v in row[len(ID_COLUMNS) : g] + row[g + 1 :]]
            if row[g]:
                gains[t, j] = float(row[g])
            else:
                labeled = False
        except ValueError as exc:
            raise DataError(f"{path}: line {i + 2}: {exc}") from None

    finite = np.isfinite(values).all(axis=2)
    if labeled:
        finite &= np.isfinite(gains)
    if not finite.all():
        t, j = np.argwhere(~finite)[0]
        raise DataError(f"{path}: line {t * 10 + j + 2} holds a non-finite value")

    table = FeatureTable(
        user_ids=ids[:, 0].copy(),
        query_ids=ids[:, 1].copy(),
        session_ids=ids[:, 2].copy(),
        serp_ids=ids[:, 3].copy(),
        doc_ids=doc_ids,
        x=values[:, :, :n_features],
        base_ranks=values[:, :, numbers.index("base_rank")].copy(),
        gains=gains if labeled else None,
    )
    return table, values
