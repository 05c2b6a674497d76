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
import math
import re
import warnings
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cache import atomic_write
from .contexts import Context, IndexRows, ItemKind, Occurrence, index_rows
from .contexts import assemble_contexts, build  # noqa: F401  (perfbench/spans.py wraps them here)
from .logs import CODE_GAINS, SERP_SIZE, DataError, Impression, Session, SessionColumns, decoding
from .partition import ROLES, TargetSet, rank_sessions
from .partition import order_sessions  # noqa: F401  (perfbench/spans.py wraps it here)

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


@dataclass
class FeatureTable:
    """Feature or score rows as arrays grouped by target (10 rows each)."""

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


def extract_impression(
    user_id: int,
    imp: Impression,
    session_id: int,
    six_contexts: Sequence[Context],
) -> FeatureTable:
    """The one-target table of the impression's documents.

    Document contexts (1, 3, 5) are probed with the document id; domain
    contexts (2, 4, 6) with the document's domain id.
    """
    if len(six_contexts) != N_CONTEXTS:
        raise ValueError(f"expected {N_CONTEXTS} contexts, got {len(six_contexts)}")
    blocks = []
    for context in six_contexts:
        items = imp.documents if context.kind is ItemKind.DOCUMENT else imp.domains
        blocks.append([context_features(item, imp.terms, context) for item in items])
    x = np.array([[[v for block in blocks for v in block[pos]] + [float(pos + 1)]  # engine rank
                   for pos in range(len(imp.documents))]])
    one = SessionColumns.of([Session(session_id, user_id, 0, [imp])])
    target = np.array([[user_id, session_id, imp.serp_id]], dtype=np.int64)
    return _table(target, one, np.zeros(1, dtype=np.int64), x)


def _table(targets: np.ndarray, columns: SessionColumns, at: np.ndarray,
           x: np.ndarray) -> FeatureTable:
    """(T, 3) `targets` (user, session, serp ids), impression rows `at`, with values `x`."""
    user_ids, session_ids, serp_ids = targets.T.copy()
    grades = columns.grades[at]
    return FeatureTable(
        user_ids, columns.query_id[at], session_ids, serp_ids, columns.documents[at],
        x, x[..., -1].copy(),
        CODE_GAINS[grades].astype(np.float64) if (grades >= 0).all() else None,
    )


# Targets per kernel call. It bounds the hit arrays of one call, and with
# them peak memory, while sharing numpy's fixed cost per call among many.
CHUNK_TARGETS = 256


def _codes(vocabulary: np.ndarray, ids) -> np.ndarray:
    """Index of each id in the sorted `vocabulary`, -1 where it is absent."""
    at = np.searchsorted(vocabulary, ids)
    found = np.append(vocabulary, 0)[at] == ids  # `at` past the end reads the padding 0
    return np.where(found & (at < len(vocabulary)), at, -1)


# How an item fared in a row, as `event_flags` judges it at its topmost slot.
SHOWN, CLICKED, SKIPPED, MISSED = range(4)
N_EVENTS = 4
# The attributes of an (index row, item) occurrence, padded to 8 bytes so
# that gathering them by slot moves one word per hit.
OCCURRENCE = np.dtype({
    "names": ["top", "n_slots", "gain_sum", "gain_max", "gain_min", "r_clicked", "event"],
    "formats": [np.int8] * 7,
    "itemsize": 8,
})


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a flat array, by one `np.sort`.

    Newer numpy's `np.unique` finds them by hashing, which takes several
    times as long on these integer arrays.
    """
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _occurrences(rows: IndexRows) -> np.ndarray:
    """The attributes of each row's item occurrences, (N, 20) in the layout of `items`.

    At every slot: whether it is its item's topmost slot in the row, how
    many slots the item fills, their gain sum, max and min, the item's
    topmost clicked rank (0 if none), and its event, judged as if the slot
    were the item's topmost. Every value is at most 20, so int8 holds it. A
    document fills one slot, so only rows where a domain fills several need
    an aggregation pass.
    """
    rank = np.arange(1, SERP_SIZE + 1, dtype=np.int8)
    table = np.zeros(rows.items.shape, OCCURRENCE)
    table["top"] = rows.items >= 0
    table["n_slots"] = 1
    for field in "gain_sum", "gain_max", "gain_min":
        table[field] = np.tile(rows.gains, 2)
    table["r_clicked"] = np.tile(np.where(rows.clicked, rank, 0), 2)
    domains = rows.items[:, SERP_SIZE:]
    ordered = np.sort(domains, axis=1)
    multi = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    same = domains[multi, :, None] == domains[multi, None, :]  # slot i's domain fills slot j
    gains = np.broadcast_to(rows.gains[multi, None, :], same.shape)
    clicked = np.broadcast_to(np.where(rows.clicked[multi, None, :], rank, 127), same.shape)
    top_click = clicked.min(axis=2, where=same, initial=127)
    block = table[multi, SERP_SIZE:]
    block["top"] = ~(same & np.tri(SERP_SIZE, k=-1, dtype=bool)).any(axis=2)
    block["n_slots"] = same.sum(axis=2)
    block["gain_sum"] = gains.sum(axis=2, where=same)
    block["gain_max"] = gains.max(axis=2, where=same, initial=-128)
    block["gain_min"] = gains.min(axis=2, where=same, initial=127)
    block["r_clicked"] = np.where(top_click < 127, top_click, 0)
    table[multi, SERP_SIZE:] = block
    last_click = rows.last_click[:, None]
    table["event"] = np.where(table["r_clicked"] > 0, CLICKED,
                              np.where(last_click > np.tile(rank, 2), SKIPPED,
                                       np.where(last_click > 0, MISSED, SHOWN)))
    return table


class _Slots(NamedTuple):
    """The topmost slot of every occurrence, by (item, segment) key, then row."""

    keys: np.ndarray      # sorted item code * len(segments) + segment code
    slots: np.ndarray     # row * 20 + column in `IndexRows.items` of each key
    segments: np.ndarray  # sorted distinct segment ids: users, or queries

    @classmethod
    def of(cls, rows: IndexRows, top: np.ndarray, segment_of_row: np.ndarray) -> "_Slots":
        segments, seg = np.unique(segment_of_row, return_inverse=True)
        width, n = 2 * SERP_SIZE, top.size
        # One sort of item * n + the slot's place in (segment, row) order. With
        # no more item codes than slots, it stays in int64 below 150 M rows.
        by_segment = np.argsort(seg, kind="stable")
        place = np.empty_like(by_segment)
        place[by_segment] = np.arange(len(seg))
        slots = np.flatnonzero(top)
        item, at = np.divmod(np.sort(rows.items.ravel()[slots] * n
                                     + place[slots // width] * width + slots % width), n)
        slots = by_segment[at // width] * width + at % width
        return cls(item * len(segments) + seg[slots // width], slots, segments)

    def hits(self, segment_of_target: np.ndarray, items: np.ndarray):
        """(item, slot) of each occurrence of a target's item in its segment.

        Item t * 20 + j is `items[t, j]`, one of the targets' (T, 20) item
        codes. Hits come by item, then in row order.
        """
        seg = _codes(self.segments, segment_of_target)[:, None]
        wanted = np.where((seg >= 0) & (items >= 0), items * len(self.segments) + seg, -1).ravel()
        lo = np.searchsorted(self.keys, wanted, "left")
        n = np.searchsorted(self.keys, wanted, "right") - lo
        return (np.repeat(np.arange(len(wanted)), n),
                self.slots[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)])


def _pair_blocks(rows: IndexRows, occurrences: np.ndarray, hits, keep: np.ndarray,
                 terms) -> np.ndarray:
    """Blocks of one context pair for a chunk of targets, (T, 10, 40).

    Each document position holds its document's block, then its domain's.
    `keep` marks the `hits` in the context; `terms` are the targets' query
    terms. Each hit is one occurrence and gathers its attributes by slot.
    Counts, similarity sums and discount sums are one `np.bincount` each,
    by (item, event); gain sums, slot counts and the shown discount go by
    item. `np.bincount` adds each bin in row order, as `context_features`
    does (`np.sum` adds pairwise). Maxima and minima reduce each item's run
    of hits.
    """
    u, slot = (a[keep] for a in hits)
    n_targets, width = len(terms), 2 * SERP_SIZE
    n_u = n_targets * width
    occ = occurrences.ravel()[slot]
    event, r_clicked = occ["event"], occ["r_clicked"]
    top = slot % SERP_SIZE + 1
    # Similarity once per distinct (target terms, row terms), where an event needs it.
    judged = event != SHOWN
    n_terms = len(rows.terms)
    wanted = u[judged] // width * n_terms + rows.variants[slot[judged] // width]
    pairs = _distinct(wanted)
    sim = np.zeros(len(u))
    sim[judged] = np.array([similarity(terms[p // n_terms], rows.terms[p % n_terms])
                            for p in pairs.tolist()])[np.searchsorted(pairs, wanted)]

    def by_event(weights=None):
        return np.bincount(u * N_EVENTS + event, weights, n_u * N_EVENTS).reshape(n_u, -1).T

    def mean(sums, counts):
        return np.divide(sums, counts, out=np.zeros(n_u), where=counts > 0)

    starts = np.flatnonzero(np.diff(u, prepend=-1))

    def per_item(ufunc, values):
        out = np.zeros(n_u, values.dtype)
        out[u[starts]] = ufunc.reduceat(values, starts)
        return out

    def sim_max(e):
        return per_item(np.maximum, np.where(event == e, sim, 0.0))

    counts, sims = by_event(), by_event(sim)
    discounts = by_event(1.0 / np.where(event == CLICKED, r_clicked, top))
    gain_sum, slot_count = np.bincount(u, occ["gain_sum"], n_u), np.bincount(u, occ["n_slots"], n_u)
    top_click = per_item(np.minimum, np.where(event == CLICKED, r_clicked, 127))
    block = np.stack([
        # g1-g4: total, mean, max and min gain over the item's slots
        gain_sum, mean(gain_sum, slot_count),
        per_item(np.maximum, occ["gain_max"]), per_item(np.minimum, occ["gain_min"]),
        # g5-g10: mean and max similarity when clicked, skipped, missed
        mean(sims[CLICKED], counts[CLICKED]), sim_max(CLICKED),
        mean(sims[SKIPPED], counts[SKIPPED]), sim_max(SKIPPED),
        mean(sims[MISSED], counts[MISSED]), sim_max(MISSED),
        # g11-g16: shown, clicked, skipped, missed counts; shown, clicked discounts
        counts.sum(axis=0), counts[CLICKED], counts[SKIPPED], counts[MISSED],
        np.bincount(u, 1.0 / top, n_u), discounts[CLICKED],
        # g17-g20: max and min clicked rank; skipped, missed discounts
        per_item(np.maximum, r_clicked), np.where(top_click < 127, top_click, 0),
        discounts[SKIPPED], discounts[MISSED],
    ], axis=1, dtype=np.float64)
    return (block.reshape(n_targets, 2, SERP_SIZE, -1).swapaxes(1, 2)
            .reshape(n_targets, SERP_SIZE, -1))


def _target_blocks(rows: IndexRows, occurrences: np.ndarray, slots: tuple[_Slots, _Slots],
                   columns: SessionColumns, at: np.ndarray, terms: list[tuple[int, ...]],
                   users, ranks):
    """(T, 10, 121) feature values of the target impressions at rows `at`.

    `terms` are their query terms, `users` and `ranks` their users and
    session ranks. Contexts 1-2 (the user's earlier rows of the query) and
    5-6 (other users' rows of it) come from the query's segment, 3-4 (the
    user's earlier rows of other queries) from the user's.
    """
    queries, times = columns.query_id[at], columns.time_passed[at]
    domains = _codes(rows.domains, columns.domains[at])
    items = np.hstack([_codes(rows.documents, columns.documents[at]),
                       np.where(domains >= 0, domains + len(rows.documents), -1)])

    def earlier(hits):
        """Each hit's target and row, and whether the row precedes the target."""
        t, row = hits[0] // (2 * SERP_SIZE), hits[1] // (2 * SERP_SIZE)
        rank = rows.ranks[row]
        return t, row, (rank < ranks[t]) | ((rank == ranks[t]) & (rows.times[row] < times[t]))

    q_hits, u_hits = slots[0].hits(queries, items), slots[1].hits(users, items)
    (tq, q_row, q_earlier), (tu, u_row, u_earlier) = earlier(q_hits), earlier(u_hits)
    own = rows.users[q_row] == users[tq]
    other_query = rows.queries[u_row] != queries[tu]
    return np.concatenate([
        _pair_blocks(rows, occurrences, q_hits, own & q_earlier, terms),
        _pair_blocks(rows, occurrences, u_hits, other_query & u_earlier, terms),
        _pair_blocks(rows, occurrences, q_hits, ~own, terms),
        np.arange(1.0, SERP_SIZE + 1)[None, :, None].repeat(len(at), axis=0),  # base rank
    ], axis=2)


def extract_targets(
    columns: SessionColumns,
    targets: TargetSet,
    train_days: int = 27,
    seed: int = 0,
) -> dict[str, FeatureTable]:
    """The feature table of each role's targets.

    Within each role the targets are in (user_id, session_id, serp_id)
    order, so output is deterministic. The session order seed must match
    the one used for partitioning. The values equal `extract_impression`
    over `assemble_contexts` bit for bit. The attributes of every (index
    row, item) occurrence are computed once (`_occurrences`) and indexed by
    topmost slot (`_Slots`); the values come from one kernel call per
    context pair and chunk of `CHUNK_TARGETS`. A role with any unlabeled
    target gets gains=None.
    """
    ranks = rank_sessions(columns, seed)
    rows = index_rows(columns, ranks, train_days)
    occurrences = _occurrences(rows)
    top = occurrences["top"]
    slots = (_Slots.of(rows, top, rows.queries), _Slots.of(rows, top, rows.users))
    session = columns.impression_sessions()
    out: dict[str, FeatureTable] = {}
    for role in ROLES:
        ids = targets.by_role(role)
        ids = ids[np.lexsort(ids.T[::-1])]  # by user, session, serp; duplicates kept
        at = columns.rows_of(ids)
        users, target_ranks = columns.user_id[session[at]], ranks[session[at]]
        terms = columns.term_tuples(at)
        x = np.empty((len(ids), SERP_SIZE, N_FEATURES))
        for start in range(0, len(ids), CHUNK_TARGETS):
            chunk = slice(start, start + CHUNK_TARGETS)
            x[chunk] = _target_blocks(rows, occurrences, slots, columns, at[chunk],
                                      terms[chunk], users[chunk], target_ranks[chunk])
        out[role] = _table(ids, columns, at, x)
    return out


# Targets per join when writing a grouped CSV. Their row strings are made
# block by block, and small blocks keep the heap from growing on every file.
WRITE_TARGETS = 32


def write_features(table: FeatureTable, path: str | Path) -> None:
    """Write a feature file: ten rows per target, values in `repr` digits, gains as integers.

    An unlabeled table leaves every gain empty. See `_write_grouped`.
    """
    gains = (table.gains.astype(np.int64).ravel().tolist() if table.gains is not None
             else repeat(""))
    _write_grouped(path, HEADER, table, table.x, (f"{gain}\r\n" for gain in gains))


def _write_grouped(path: str | Path, header: list[str], table: FeatureTable,
                   values: np.ndarray, ends: Iterable[str]) -> None:
    """Write the grouped-CSV layout that `_read_grouped` reads.

    Each row is its target's four id columns and its doc id, then its
    (T, 10, k) `values` in `repr` digits, each with its trailing comma, then
    the row's string from `ends`: the rest of the row and its line end.
    Lines end in CRLF, as `csv.writer` ends them. Each distinct value is
    formatted once, found by sorting the values' bits, which keeps -0.0
    apart from 0.0. Each block of `WRITE_TARGETS` targets is one join over
    a (rows, k + 2) array of strings: each row's id prefix, its values, its
    end.
    """
    n_targets, k = table.n_targets, values.shape[-1]
    bits = values.view(np.int64)
    patterns = _distinct(bits.ravel())
    digits = np.array([f"{value!r}," for value in patterns.view(np.float64).tolist()],
                      dtype=object)
    heads = ["{},{},{},{},".format(*ids) for ids in zip(
        table.user_ids.tolist(), table.query_ids.tolist(),
        table.session_ids.tolist(), table.serp_ids.tolist())]
    ends = iter(ends)
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_targets, WRITE_TARGETS):
            block = slice(start, start + WRITE_TARGETS)
            prefixes = [f"{head}{doc}," for head, docs in zip(heads[block],
                                                              table.doc_ids[block].tolist())
                        for doc in docs]
            fields = np.empty((len(prefixes), k + 2), dtype=object)
            fields[:, 0] = np.array(prefixes, dtype=object)
            fields[:, 1:-1] = digits[np.searchsorted(patterns, bits[block].reshape(-1, k))]
            fields[:, -1] = np.array(list(islice(ends, len(prefixes))), dtype=object)
            fh.write("".join(fields.ravel().tolist()))


def read_features(path: str | Path) -> FeatureTable:
    """Load a feature CSV; malformed content raises DataError (see _read_grouped)."""
    table, _ = _read_grouped(path, HEADER, N_FEATURES)
    return table


def _gain(field: str) -> float:
    """An empty gain (unlabeled) reads as NaN; a written gain must be finite."""
    gain = float(field) if field else math.nan
    if field and not math.isfinite(gain):
        raise ValueError(field)  # numpy reports the field and its column
    return gain


def _read_grouped(
    path: str | Path, header: list[str], n_features: int
) -> tuple[FeatureTable, np.ndarray]:
    """Parse the grouped-CSV layout that feature and score files share.

    Each target is 10 consecutive rows: four target id columns and a doc
    id, then number columns, one of them `base_rank` and one `gain`, which
    is empty for unlabeled documents. Returns the table, whose x holds the
    first `n_features` number columns, and every number column as
    (T, 10, columns). A file with any empty gain loads with gains=None.

    The body is parsed once, into int64 ids and float64 numbers. Malformed
    content raises DataError naming the first bad line: an unexpected
    header, a row count that is not a multiple of 10, a blank line, a row
    with the wrong number of fields, an id that is not an int64, a value
    that is not a number, target ids that change within a group, and
    non-finite values.
    """
    n_ids, gain = len(ID_COLUMNS), header.index("gain")
    row = np.dtype([("ids", np.int64, n_ids), ("numbers", np.float64, len(header) - n_ids)])

    def parse(lines: list[str]) -> np.ndarray:
        if not lines:
            return np.empty(0, row)  # loadtxt would warn that the input holds no data
        with warnings.catch_warnings():
            # Older numpy reads an int field that fails to parse through float, only
            # warning; as an error, loadtxt reports it as the field's ValueError.
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1,
                              converters={gain: _gain})

    with decoding(path), open(path, encoding="utf-8") as fh:
        if next(csv.reader([fh.readline()]), None) != header:
            raise DataError(f"unexpected header in {path}")
        lines = list(fh)
    if len(lines) % 10 != 0:
        raise DataError(f"{path}: row count {len(lines)} is not a multiple of 10")
    try:
        rows = parse(lines) if all(map(str.strip, lines)) else None  # loadtxt skips blank lines
    except ValueError:
        rows = None
    if rows is None:
        for n, line in enumerate(lines, start=2):  # numpy's row numbers are not file lines
            if not line.strip():
                raise DataError(f"{path}: line {n} is blank")
            try:
                parse([line])
            except ValueError as exc:
                reason = re.sub(r" at row \d+", "", str(exc)).split(";")[0]
                raise DataError(f"{path}: line {n}: {reason}") from None
    ids = rows["ids"].reshape(-1, 10, n_ids)
    numbers = rows["numbers"].reshape(-1, 10, len(header) - n_ids)
    gains = numbers[..., gain - n_ids]
    finite = np.isfinite(numbers)
    finite[..., gain - n_ids] = True  # an empty gain reads as NaN; `_gain` checked the others
    for bad, what in (((ids[:, :, :4] != ids[:, :1, :4]).any(axis=2),
                       "changes target within a group of 10"),
                      (~finite.all(axis=2), "holds a non-finite value")):
        if bad.any():
            raise DataError(f"{path}: line {np.argmax(bad) + 2} {what}")
    table = FeatureTable(
        *ids[:, 0, :4].T.copy(),
        doc_ids=ids[:, :, 4].copy(),
        x=numbers[:, :, :n_features],
        base_ranks=numbers[..., header.index("base_rank") - n_ids].copy(),
        gains=None if np.isnan(gains).any() else gains.copy(),
    )
    return table, numbers
