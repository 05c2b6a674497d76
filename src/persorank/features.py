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
import operator
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
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


def overlap(a_terms: Iterable[int], b_terms: Iterable[int]) -> tuple[int, int]:
    """Intersection and union sizes of two term sets."""
    a, b = set(a_terms), set(b_terms)
    return len(a & b), len(a | b)


def similarity(a_terms: Iterable[int], b_terms: Iterable[int]) -> float:
    """Intersection-over-union of two term sets; 0 when both are empty."""
    inter, union = overlap(a_terms, b_terms)
    return inter / union if union else 0.0


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
    """The 20-value feature block for one item against one context.

    Similarity and discount sums add in row order, as floats, except in an
    exact context (5-6), where they add as fractions and each value is
    rounded once.
    """
    ratio = Fraction if context.exact else operator.truediv

    def sim_of(terms: Sequence[int]):
        inter, union = overlap(query_terms, terms)
        return ratio(inter, union or 1)  # 0 when both sets are empty

    gain_sum = 0.0
    slot_count = 0
    gain_max: float | None = None
    gain_min: float | None = None

    shown_n = clicked_n = skipped_n = missed_n = 0
    sim_clicked_sum = sim_skipped_sum = sim_missed_sum = ratio(0, 1)
    sim_clicked_max = sim_skipped_max = sim_missed_max = ratio(0, 1)
    shown_disc = clicked_disc = skipped_disc = missed_disc = ratio(0, 1)
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
        shown_disc += ratio(1, flags.r_shown)
        if flags.clicked:
            sim = sim_of(occ.terms)
            clicked_n += 1
            clicked_disc += ratio(1, flags.r_clicked)
            sim_clicked_sum += sim
            if sim > sim_clicked_max:
                sim_clicked_max = sim
            if flags.r_clicked > clicked_rank_max:
                clicked_rank_max = flags.r_clicked
            if clicked_rank_min == 0 or flags.r_clicked < clicked_rank_min:
                clicked_rank_min = flags.r_clicked
        elif flags.skipped:
            sim = sim_of(occ.terms)
            skipped_n += 1
            skipped_disc += ratio(1, flags.r_skipped)
            sim_skipped_sum += sim
            if sim > sim_skipped_max:
                sim_skipped_max = sim
        elif flags.missed:
            sim = sim_of(occ.terms)
            missed_n += 1
            missed_disc += ratio(1, flags.r_missed)
            sim_missed_sum += sim
            if sim > sim_missed_max:
                sim_missed_max = sim

    return [
        gain_sum,                                            # g1 total gain
        gain_sum / slot_count if slot_count else 0.0,        # g2 mean gain
        float(gain_max) if gain_max is not None else 0.0,    # g3 max gain
        float(gain_min) if gain_min is not None else 0.0,    # g4 min gain
        float(sim_clicked_sum / clicked_n) if clicked_n else 0.0,  # g5
        float(sim_clicked_max),                              # g6
        float(sim_skipped_sum / skipped_n) if skipped_n else 0.0,  # g7
        float(sim_skipped_max),                              # g8
        float(sim_missed_sum / missed_n) if missed_n else 0.0,  # g9
        float(sim_missed_max),                               # g10
        float(shown_n),                                      # g11
        float(clicked_n),                                    # g12
        float(skipped_n),                                    # g13
        float(missed_n),                                     # g14
        float(shown_disc),                                   # g15
        float(clicked_disc),                                 # g16
        float(clicked_rank_max),                             # g17
        float(clicked_rank_min),                             # g18
        float(skipped_disc),                                 # g19
        float(missed_disc),                                  # g20
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
    segments: np.ndarray  # sorted distinct segment ids of the rows

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


def _overlaps(pairs: np.ndarray, terms: list[frozenset[int]],
              variants: list[frozenset[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union sizes of each target * len(variants) + variant in `pairs`.

    `terms` are the targets' term sets, `variants` the rows'.
    """
    target, variant = np.divmod(pairs, len(variants))
    inter = np.fromiter((len(terms[t] & variants[v]) for t, v in zip(target.tolist(),
                                                                      variant.tolist())),
                        np.int64, len(pairs))
    sizes = np.fromiter(map(len, terms), np.int64, len(terms))
    return inter, sizes[target] + np.fromiter(map(len, variants), np.int64)[variant] - inter


def _by_position(block: np.ndarray, n_targets: int) -> np.ndarray:
    """(T * 20, k) values by item, document items first, as (T, 10, 2k) by document position."""
    return (block.reshape(n_targets, 2, SERP_SIZE, -1).swapaxes(1, 2)
            .reshape(n_targets, SERP_SIZE, -1))


def _pair_blocks(rows: IndexRows, occurrences: np.ndarray, hits, keep: np.ndarray,
                 terms) -> np.ndarray:
    """Blocks of one of contexts 1-4's pairs for a chunk of targets, (T, 10, 40).

    Each document position holds its document's block, then its domain's.
    `keep` marks the `hits` in the context; `terms` are the targets' query
    terms. Each hit is one occurrence and gathers its attributes by slot.
    Counts, similarity sums and discount sums are one `np.bincount` each,
    by (item, event); gain sums, slot counts and the shown discount go by
    item. `np.bincount` adds each bin in row order, as `context_features`
    does for these contexts (`np.sum` adds pairwise). Maxima and minima
    reduce each item's run of hits.
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
    inter, union = _overlaps(pairs, terms, rows.terms)
    sim = np.zeros(len(u))
    sim[judged] = np.divide(inter, union, out=np.zeros(len(pairs)),
                            where=union > 0)[np.searchsorted(pairs, wanted)]

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
    return _by_position(block, n_targets)


# The columns of a tally (see `_tally`), integer sums over occurrences:
# counts and discount numerators (see DISCOUNTS) by event, the clicked
# discount numerator, the gain sum and the slot count; then counts by
# clicked rank (0 when not clicked), by max gain and by min gain.
N_GAINS = int(CODE_GAINS.max()) + 1
DISCOUNT = N_EVENTS
CLICKED_DISCOUNT = 2 * N_EVENTS
GAIN_SUM = CLICKED_DISCOUNT + 1
SLOT_COUNT = GAIN_SUM + 1
BY_CLICKED_RANK = SLOT_COUNT + 1
BY_GAIN_MAX = BY_CLICKED_RANK + SERP_SIZE + 1
BY_GAIN_MIN = BY_GAIN_MAX + N_GAINS
TALLY = BY_GAIN_MIN + N_GAINS
RANKS = np.arange(1, SERP_SIZE + 1)
# A rank r's discount 1/r is DISCOUNTS[r - 1] / RANK_LCM, so discount sums add integers.
RANK_LCM = int(np.lcm.reduce(RANKS))
DISCOUNTS = RANK_LCM // RANKS
# The integers a float64 holds exactly: numerators and denominators of exact means stay below.
EXACT = 2**53


def _tally(group: np.ndarray, occ: np.ndarray, column: np.ndarray, n: int,
           weights: np.ndarray | None = None) -> np.ndarray:
    """(n, TALLY) int64 sums over the occurrences `occ`, by `group`.

    `column` is each occurrence's topmost column, and `weights` how many
    times it counts (once if None). Weighted sums add integers in float64,
    which is exact below 2**53.
    """
    once = 1 if weights is None else weights
    by_event = group * N_EVENTS + occ["event"]
    table = np.empty((n, TALLY), dtype=np.int64)
    table[:, :DISCOUNT] = np.bincount(by_event, weights, n * N_EVENTS).reshape(n, N_EVENTS)
    table[:, DISCOUNT:CLICKED_DISCOUNT] = np.bincount(
        by_event, DISCOUNTS[column] * once, n * N_EVENTS).reshape(n, N_EVENTS)
    for at, values in ((CLICKED_DISCOUNT, np.append(0, DISCOUNTS)[occ["r_clicked"]]),
                       (GAIN_SUM, occ["gain_sum"]), (SLOT_COUNT, occ["n_slots"])):
        table[:, at] = np.bincount(group, values * once, n)
    for first, width, bins in ((BY_CLICKED_RANK, SERP_SIZE + 1, occ["r_clicked"]),
                               (BY_GAIN_MAX, N_GAINS, occ["gain_max"]),
                               (BY_GAIN_MIN, N_GAINS, occ["gain_min"])):
        table[:, first:first + width] = np.bincount(
            group * width + bins, weights, n * width).reshape(n, width)
    return table


# The attributes of an occurrence that a tally reads, each with the bits
# that hold its largest value. Packed below ATTRIBUTE_BITS, they follow the
# occurrence's item and segment in one sort key.
PACKED = tuple((name, int(largest).bit_length()) for name, largest in (
    ("event", N_EVENTS - 1), ("column", SERP_SIZE - 1), ("r_clicked", SERP_SIZE),
    ("gain_max", N_GAINS - 1), ("gain_min", N_GAINS - 1),
    ("gain_sum", SERP_SIZE * (N_GAINS - 1)), ("n_slots", SERP_SIZE)))
ATTRIBUTE_BITS = sum(bits for _, bits in PACKED)


class _Crowd(NamedTuple):
    """The evidence of contexts 5-6: tallies of every item's topmost slots by segment.

    A segment is the rows of one query with one term variant, and an entry
    is one item's topmost slots in one segment.
    """

    queries: np.ndarray       # sorted distinct query ids of the rows
    first: np.ndarray         # (queries + 1,) each query code's first segment, then the count
    variants: np.ndarray      # term variant of each segment
    row_segments: np.ndarray  # (N,) segment of each row
    keys: np.ndarray          # sorted item code * len(variants) + segment of each entry
    tallies: np.ndarray       # (entries, TALLY) int64, see `_tally`

    @classmethod
    def of(cls, rows: IndexRows, occurrences: np.ndarray) -> "_Crowd":
        """One sort of every topmost slot by (item, segment, attributes) key.

        Equal keys are one occurrence repeated, so the tallies add each
        distinct key once, weighted by its count.
        """
        queries, query = np.unique(rows.queries, return_inverse=True)
        n_terms = len(rows.terms)
        segments, segment = np.unique(query.ravel() * n_terms + rows.variants,
                                      return_inverse=True)
        n_items = len(rows.documents) + len(rows.domains)
        if (n_items * len(segments)) << ATTRIBUTE_BITS >= 2**63:
            raise OverflowError("the (item, segment, attributes) keys of contexts 5-6 exceed int64")
        attributes = np.zeros(rows.items.shape, np.int32)
        for name, bits in PACKED:
            attributes <<= bits
            attributes |= (np.tile(np.arange(SERP_SIZE, dtype=np.int32), 2) if name == "column"
                           else occurrences[name])
        key = rows.items * len(segments) + segment.reshape(-1, 1)
        key <<= ATTRIBUTE_BITS
        key |= attributes
        key[occurrences["top"] == 0] = -1
        key = key.ravel()
        key.sort()
        key = key[np.searchsorted(key, 0):]
        new = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        counts = np.diff(starts, append=len(key)).astype(np.float64)
        key = key[starts]
        attributes, occ = key & ((1 << ATTRIBUTE_BITS) - 1), {}
        for name, bits in PACKED[::-1]:
            occ[name] = (attributes & ((1 << bits) - 1)).astype(np.int8)
            attributes >>= bits
        key >>= ATTRIBUTE_BITS
        new = np.diff(key, prepend=-1) != 0
        return cls(queries, np.searchsorted(segments, np.arange(len(queries) + 1) * n_terms),
                   segments % n_terms, segment.ravel(), key[new],
                   _tally(np.cumsum(new) - 1, occ, occ["column"], int(new.sum()), counts))


def _largest(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The largest of ascending `values` with a nonzero count in each row of counts, 0 if none."""
    nonzero = counts > 0
    return np.where(nonzero.any(axis=1), values[::-1][nonzero[:, ::-1].argmax(axis=1)], 0)


def _smallest(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The smallest of ascending `values` with a nonzero count in each row of counts, 0 if none."""
    nonzero = counts > 0
    return np.where(nonzero.any(axis=1), values[nonzero.argmax(axis=1)], 0)


def _crowd_blocks(crowd: _Crowd, rows: IndexRows, occurrences: np.ndarray, items: np.ndarray,
                  queries: np.ndarray, own, terms: list[frozenset[int]]) -> np.ndarray:
    """Blocks of contexts 5-6 for a chunk of targets, (T, 10, 40).

    Each of the targets' (T, 20) `items` adds the tallies of its entries in
    the target's query, less those of `own`, the (item, slot) hits of the
    user's own rows of the query. That is integer arithmetic, and each
    float is formed once from exact integers, so every value is the
    correctly rounded exact one. A discount sum is sum(count *
    DISCOUNTS[r - 1]) / RANK_LCM. A mean similarity is sum(count * inter *
    (L / union)) / (L * count) over the entries, where L is the lcm of the
    union sizes of the target's terms with the entries' variants.
    """
    n_targets, width = len(terms), 2 * SERP_SIZE
    n_u, n_segments = n_targets * width, len(crowd.variants)
    query = _codes(crowd.queries, queries)[:, None]
    first, last = (np.where(query >= 0, crowd.first[query + k], 0) for k in (0, 1))
    lo, hi = (np.searchsorted(crowd.keys, (items * n_segments + bound).ravel())
              for bound in (first, last))
    n = np.where(items.ravel() >= 0, hi - lo, 0)  # a query or item of no row has no entries
    offset = np.cumsum(n) - n
    at = np.arange(n.sum()) + np.repeat(lo - offset, n)
    entry_u = np.repeat(np.arange(n_u), n)
    u, slot = own
    own_at = np.searchsorted(crowd.keys, items.ravel()[u] * n_segments
                             + crowd.row_segments[slot // width])
    entries = crowd.tallies[at] - _tally(own_at - lo[u] + offset[u], occurrences.ravel()[slot],
                                         slot % SERP_SIZE, len(at))
    some = n > 0  # each item's entries are one run of `entries`

    def per_item(ufunc, values):
        out = np.zeros((n_u,) + values.shape[1:], values.dtype)
        out[some] = ufunc.reduceat(values, offset[some])
        return out

    tally = per_item(np.add, entries)
    counts, discounts = tally[:, :DISCOUNT], tally[:, DISCOUNT:CLICKED_DISCOUNT]

    # Intersection and union sizes once per distinct (target, variant).
    n_terms = len(rows.terms)
    wanted = entry_u // width * n_terms + crowd.variants[crowd.keys[at] % n_segments]
    pairs = _distinct(wanted)
    inter, union = _overlaps(pairs, terms, rows.terms)
    lcm = [1] * n_targets
    for t, size in zip((pairs // n_terms).tolist(), union.tolist()):
        lcm[t] = math.lcm(lcm[t], size or 1)
    # An lcm of EXACT or more leaves no room for any count.
    lcm = np.array([min(m, EXACT) for m in lcm], dtype=np.int64).repeat(width)[:, None]
    if (counts > (EXACT - 1) // lcm).any():
        raise OverflowError("exact similarity sums of contexts 5-6 exceed 2**53")
    pair = np.searchsorted(pairs, wanted)
    inter, union = inter[pair], np.maximum(union[pair], 1)  # union 0 has inter 0
    events = entries[:, :DISCOUNT]
    sums = per_item(np.add, events * (inter * (lcm[entry_u, 0] // union))[:, None])
    means = np.divide(sums, lcm * counts, out=np.zeros(sums.shape), where=counts > 0)
    maxima = per_item(np.maximum, np.where(events > 0, (inter / union)[:, None], 0.0))

    gain_sum, slot_count = tally[:, GAIN_SUM], tally[:, SLOT_COUNT]
    gains = np.arange(N_GAINS)
    clicked = tally[:, BY_CLICKED_RANK + 1:BY_GAIN_MAX]
    block = np.stack([
        # g1-g4: total, mean, max and min gain over the item's slots
        gain_sum, np.divide(gain_sum, slot_count, out=np.zeros(n_u), where=slot_count > 0),
        _largest(tally[:, BY_GAIN_MAX:BY_GAIN_MIN], gains),
        _smallest(tally[:, BY_GAIN_MIN:], gains),
        # g5-g10: mean and max similarity when clicked, skipped, missed
        means[:, CLICKED], maxima[:, CLICKED], means[:, SKIPPED], maxima[:, SKIPPED],
        means[:, MISSED], maxima[:, MISSED],
        # g11-g16: shown, clicked, skipped, missed counts; shown, clicked discounts
        counts.sum(axis=1), counts[:, CLICKED], counts[:, SKIPPED], counts[:, MISSED],
        discounts.sum(axis=1) / RANK_LCM, tally[:, CLICKED_DISCOUNT] / RANK_LCM,
        # g17-g20: max and min clicked rank; skipped, missed discounts
        _largest(clicked, RANKS), _smallest(clicked, RANKS),
        discounts[:, SKIPPED] / RANK_LCM, discounts[:, MISSED] / RANK_LCM,
    ], axis=1, dtype=np.float64)
    return _by_position(block, n_targets)


def _target_blocks(rows: IndexRows, occurrences: np.ndarray, slots: _Slots, crowd: _Crowd,
                   columns: SessionColumns, at: np.ndarray, terms: list[frozenset[int]],
                   users, ranks):
    """(T, 10, 121) feature values of the target impressions at rows `at`.

    `terms` are their query terms, `users` and `ranks` their users and
    session ranks. Contexts 1-4 come from the user's earlier rows: of the
    query for 1-2, of other queries for 3-4. Contexts 5-6 come from the
    tallies of the query's rows less those of the user's own rows of it.
    """
    queries, times = columns.query_id[at], columns.time_passed[at]
    domains = _codes(rows.domains, columns.domains[at])
    items = np.hstack([_codes(rows.documents, columns.documents[at]),
                       np.where(domains >= 0, domains + len(rows.documents), -1)])
    hits = slots.hits(users, items)
    t, row = hits[0] // (2 * SERP_SIZE), hits[1] // (2 * SERP_SIZE)
    rank = rows.ranks[row]
    earlier = (rank < ranks[t]) | ((rank == ranks[t]) & (rows.times[row] < times[t]))
    same_query = rows.queries[row] == queries[t]
    return np.concatenate([
        _pair_blocks(rows, occurrences, hits, same_query & earlier, terms),
        _pair_blocks(rows, occurrences, hits, ~same_query & earlier, terms),
        _crowd_blocks(crowd, rows, occurrences, items, queries,
                      (hits[0][same_query], hits[1][same_query]), terms),
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
    over `assemble_contexts` bit for bit: contexts 1-4 add in row order,
    and contexts 5-6 are exact and rounded once. The attributes of every
    (index row, item) occurrence are computed once (`_occurrences`). Their
    topmost slots are indexed by (item, user) for contexts 1-4 (`_Slots`),
    and tallied by (query, item) for contexts 5-6 (`_Crowd`), so the cost
    of a target depends on its user's rows, not on how many users logged
    its query. Targets go through the kernel in chunks of `CHUNK_TARGETS`.
    A role with any unlabeled target gets gains=None.
    """
    ranks = rank_sessions(columns, seed)
    rows = index_rows(columns, ranks, train_days)
    occurrences = _occurrences(rows)
    slots = _Slots.of(rows, occurrences["top"], rows.users)
    crowd = _Crowd.of(rows, occurrences)
    session = columns.impression_sessions()
    by_role = [targets.by_role(role) for role in ROLES]
    by_role = [ids[np.lexsort(ids.T[::-1])] for ids in by_role]  # by user, session, serp
    found = columns.rows_of(np.concatenate(by_role))  # one key sort for every role
    out: dict[str, FeatureTable] = {}
    ends = np.cumsum([len(ids) for ids in by_role])[:-1]
    for role, ids, at in zip(ROLES, by_role, np.split(found, ends)):
        users, target_ranks = columns.user_id[session[at]], ranks[session[at]]
        terms = [frozenset(t) for t in columns.term_tuples(at)]
        x = np.empty((len(ids), SERP_SIZE, N_FEATURES))
        for start in range(0, len(ids), CHUNK_TARGETS):
            chunk = slice(start, start + CHUNK_TARGETS)
            x[chunk] = _target_blocks(rows, occurrences, slots, crowd, columns, at[chunk],
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
