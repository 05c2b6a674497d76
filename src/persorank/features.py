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
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .cache import atomic_write
from .contexts import Context, IndexRows, ItemKind, Occurrence, index_rows
from .contexts import assemble_contexts, build  # noqa: F401  (perfbench/spans.py wraps them here)
from .logs import CODE_GAINS, SERP_SIZE, DataError, Impression, SessionColumns, decoding
from .logs import distinct, firsts
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

    Similarity and discount sums add as fractions, so each value is exact
    and rounded once.
    """

    def sim_of(terms: Sequence[int]) -> Fraction:
        inter, union = overlap(query_terms, terms)
        return Fraction(inter, union or 1)  # 0 when both sets are empty

    gain_sum = 0.0
    slot_count = 0
    gain_max: float | None = None
    gain_min: float | None = None

    shown_n = clicked_n = skipped_n = missed_n = 0
    sim_clicked_sum = sim_skipped_sum = sim_missed_sum = Fraction(0)
    sim_clicked_max = sim_skipped_max = sim_missed_max = Fraction(0)
    shown_disc = clicked_disc = skipped_disc = missed_disc = Fraction(0)
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
        shown_disc += Fraction(1, flags.r_shown)
        if flags.clicked:
            sim = sim_of(occ.terms)
            clicked_n += 1
            clicked_disc += Fraction(1, flags.r_clicked)
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
            skipped_disc += Fraction(1, flags.r_skipped)
            sim_skipped_sum += sim
            if sim > sim_skipped_max:
                sim_skipped_max = sim
        elif flags.missed:
            sim = sim_of(occ.terms)
            missed_n += 1
            missed_disc += Fraction(1, flags.r_missed)
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

    ids: np.ndarray          # (T, 4) int64 user, query, session and serp ids
    doc_ids: np.ndarray      # (T, 10)
    x: np.ndarray            # (T, 10, 121) float64 features, or (T, 10, 1) scores
    base_ranks: np.ndarray   # (T, 10) float64
    gains: np.ndarray | None  # (T, 10) float64, None when unlabeled

    @property
    def n_targets(self) -> int:
        return len(self.ids)

    def flat_x(self) -> np.ndarray:
        return self.x.reshape(-1, self.x.shape[2])


def extract_impression(
    user_id: int,
    imp: Impression,
    session_id: int,
    six_contexts: Sequence[Context],
) -> FeatureTable:
    """The one-target table of the impression's documents.

    Document contexts (1, 3, 5) are probed with the document id; domain
    contexts (2, 4, 6) with the document's domain id. Ids, base ranks and
    gains are read from `imp` itself, not through the kernel's table builder.
    """
    if len(six_contexts) != N_CONTEXTS:
        raise ValueError(f"expected {N_CONTEXTS} contexts, got {len(six_contexts)}")
    blocks = []
    for context in six_contexts:
        items = imp.documents if context.kind is ItemKind.DOCUMENT else imp.domains
        blocks.append([context_features(item, imp.terms, context) for item in items])
    x = np.array([[[v for block in blocks for v in block[pos]] + [float(pos + 1)]  # engine rank
                   for pos in range(len(imp.documents))]])
    ids = np.array([[user_id, imp.query_id, session_id, imp.serp_id]], dtype=np.int64)
    gains = (None if imp.labels is None
             else np.array([[grade.gain for grade in imp.labels]], dtype=np.float64))
    return FeatureTable(ids, np.array([imp.documents], dtype=np.int64), x, x[..., -1].copy(),
                        gains)


class _Targets(NamedTuple):
    """One role's targets with the fields of their impressions that extraction reads.

    Every field is its own array, so that it holds no reference to the
    session columns it was read from.
    """

    ids: np.ndarray        # (T, 4) user, query, session and serp ids, as in a table
    times: np.ndarray      # (T,) time_passed
    documents: np.ndarray  # (T, 10)
    domains: np.ndarray    # (T, 10)
    grades: np.ndarray     # (T, 10) grade codes, -1 across an unlabeled impression
    terms: list[frozenset[int]]  # query terms
    ranks: np.ndarray      # (T,) session rank
    labeled: bool          # whether every target is labeled, so that its tables carry gains

    @classmethod
    def of(cls, columns: SessionColumns, ids: np.ndarray, at: np.ndarray,
           ranks: np.ndarray) -> "_Targets":
        """Targets `ids` (user, session, serp) at rows `at`, whose sessions have ranks `ranks`."""
        grades = columns.grades[at]
        return cls(np.insert(ids, 1, columns.query_id[at], axis=1), columns.time_passed[at],
                   columns.documents[at], columns.domains[at], grades,
                   [frozenset(t) for t in columns.term_tuples(at)], ranks,
                   bool((grades >= 0).all()))


def _table(targets: _Targets, chunk: slice, x: np.ndarray) -> FeatureTable:
    """The table of the `chunk` of `targets` with values `x`."""
    return FeatureTable(
        targets.ids[chunk], targets.documents[chunk], x, x[..., -1].copy(),
        CODE_GAINS[targets.grades[chunk]].astype(np.float64) if targets.labeled else None,
    )


# Targets per kernel call, and per table that `extract_chunks` makes. It
# bounds the hit arrays of one call and the table, and with them peak
# memory, while sharing numpy's fixed cost per call among many. At 160, a
# 600-user log's roles peak below its index build; at 256, 2.6 MB higher.
CHUNK_TARGETS = 160


def _codes(vocabulary: np.ndarray, ids) -> np.ndarray:
    """Index of each id in the sorted `vocabulary`, -1 where it is absent."""
    at = np.searchsorted(vocabulary, ids)
    found = np.append(vocabulary, 0)[at] == ids  # `at` past the end reads the padding 0
    return np.where(found & (at < len(vocabulary)), at, -1)


# How an item fared in a row, as `event_flags` judges it at its topmost slot,
# as int8 codes, so that arrays of them stay int8.
SHOWN, CLICKED, SKIPPED, MISSED = np.arange(4, dtype=np.int8)
N_EVENTS = 4
N_GAINS = int(CODE_GAINS.max()) + 1
# The attributes of an (index row, item) occurrence, each with the bits that
# hold its largest value, packed in this order, the first highest, into one
# int32 word below ATTRIBUTE_BITS. In a crowd key (see `_Crowd.of`) the word
# follows the occurrence's item and segment.
PACKED = tuple((name, int(largest).bit_length()) for name, largest in (
    ("event", N_EVENTS - 1), ("column", SERP_SIZE - 1), ("r_clicked", SERP_SIZE),
    ("gain_max", N_GAINS - 1), ("gain_min", N_GAINS - 1),
    ("gain_sum", SERP_SIZE * (N_GAINS - 1)), ("n_slots", SERP_SIZE)))
ATTRIBUTE_BITS = sum(bits for _, bits in PACKED)


def _pack(out: np.ndarray, **fields) -> None:
    """Pack the attributes `fields`, by name, into the int32 words `out` (see `PACKED`)."""
    out[...] = 0
    for name, bits in PACKED:
        out <<= bits
        out |= fields[name]


def _decode(words: np.ndarray) -> dict[str, np.ndarray]:
    """The int8 attributes of packed occurrence words (see `PACKED`), by name."""
    fields, shift = {}, 0
    for name, bits in PACKED[::-1]:
        fields[name] = np.bitwise_and(words >> shift, (1 << bits) - 1,
                                      out=np.empty(len(words), np.int8))
        shift += bits
    return fields


def _occurrences(rows: IndexRows) -> np.ndarray:
    """The attributes of each row's item occurrences, (N, 20) int32 words in the layout of `items`.

    The topmost slot of an item in its row holds the item's attributes,
    packed as `PACKED` lays them out: its event, judged at that slot, the
    slot's column, the item's topmost clicked rank (0 if none), and the max,
    min and sum of the gains of the slots it fills and how many it fills.
    Every other slot holds -1. A document fills one slot, so only rows where
    a domain fills several need an aggregation pass. No temporary is wider
    than int8 but those of that pass.
    """
    rank = np.arange(1, SERP_SIZE + 1, dtype=np.int8)
    r_clicked = np.where(rows.clicked, rank, np.int8(0))
    last_click = rows.last_click[:, None]
    event = np.where(last_click > rank, SKIPPED, np.where(last_click > 0, MISSED, SHOWN))
    event[r_clicked > 0] = CLICKED
    words = np.empty(rows.items.shape, np.int32)
    halves = words.reshape(-1, 2, SERP_SIZE)  # document slots, then domain slots
    _pack(halves[:, 0], event=event, column=rank - 1, r_clicked=r_clicked,
          gain_max=rows.gains, gain_min=rows.gains, gain_sum=rows.gains, n_slots=1)
    halves[:, 1] = halves[:, 0]
    domains = rows.items[:, SERP_SIZE:]
    ordered = np.sort(domains, axis=1)
    multi = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    same = domains[multi, :, None] == domains[multi, None, :]  # slot i's domain fills slot j
    gains = np.broadcast_to(rows.gains[multi, None, :], same.shape)
    clicked = np.broadcast_to(np.where(rows.clicked[multi, None, :], rank, 127), same.shape)
    top_click = clicked.min(axis=2, where=same, initial=127)
    top_click[top_click == 127] = 0
    block = np.empty((len(multi), SERP_SIZE), np.int32)
    _pack(block, event=np.where(top_click > 0, CLICKED, event[multi]), column=rank - 1,
          r_clicked=top_click, gain_max=gains.max(axis=2, where=same, initial=-128),
          gain_min=gains.min(axis=2, where=same, initial=127),
          gain_sum=gains.sum(axis=2, where=same), n_slots=same.sum(axis=2))
    block[(same & np.tri(SERP_SIZE, k=-1, dtype=bool)).any(axis=2)] = -1
    halves[multi, 1] = block
    words[rows.items < 0] = -1
    return words


class _Slots(NamedTuple):
    """The topmost slot of every occurrence, by item, then segment, then row.

    A slot's place is its row's place in (segment, row) order, times 20,
    plus its column. Each slot is one sorted int64 key, item code * (N * 20)
    + place, so that one segment's slots of an item are one run of keys.
    With no more item codes than slots, the keys stay in int64 below 150 M
    rows.
    """

    keys: np.ndarray      # sorted item code * N * 20 + place
    rows: np.ndarray      # (N,) the row at each row place
    first: np.ndarray     # (segments + 1,) each segment's first row place, then N
    segments: np.ndarray  # sorted distinct segment ids of the rows

    @classmethod
    def of(cls, rows: IndexRows, occurrences: np.ndarray,
           segment_of_row: np.ndarray) -> "_Slots":
        segments, seg = np.unique(segment_of_row, return_inverse=True)
        width, n = 2 * SERP_SIZE, occurrences.size
        by_segment = np.argsort(seg, kind="stable")
        place = np.empty_like(by_segment)
        place[by_segment] = np.arange(len(by_segment)) * width
        key = rows.items.astype(np.int64)  # built, sorted and kept in place
        key *= n
        key += place[:, None]
        key += np.arange(width)
        key[occurrences < 0] = -1
        key = key.ravel()
        key.sort()
        first = np.searchsorted(seg[by_segment], np.arange(len(segments) + 1))
        return cls(key[np.searchsorted(key, 0):], by_segment, first, segments)

    def hits(self, segment_of_target: np.ndarray, items: np.ndarray):
        """(item, slot) of each occurrence of a target's item in its segment.

        Item t * 20 + j is `items[t, j]`, one of the targets' (T, 20) item
        codes. Hits come by item, then in row order.
        """
        width = 2 * SERP_SIZE
        n = len(self.rows) * width
        seg = _codes(self.segments, segment_of_target)[:, None]
        key = items.astype(np.int64) * n
        lo, hi = (np.searchsorted(self.keys, (key + self.first[seg + k] * width).ravel())
                  for k in (0, 1))
        # A user or an item of no row has no hits.
        count = np.where(((seg >= 0) & (items >= 0)).ravel(), hi - lo, 0)
        place = self.keys[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)]
        place %= n
        return (np.repeat(np.arange(len(count)), count),
                self.rows[place // width] * width + place % width)


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


# The columns of a tally (see `_tally`), integer sums over occurrences:
# counts and discount numerators (see DISCOUNTS) by event, the clicked
# discount numerator, the gain sum and the slot count; then counts by
# clicked rank (0 when not clicked), by max gain and by min gain.
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


def _tally(group: np.ndarray, occ: dict[str, np.ndarray], n: int,
           weights: np.ndarray | None = None) -> np.ndarray:
    """(n, TALLY) int64 sums over the occurrences `occ`, decoded (see `_decode`), by `group`.

    `weights` is how many times each occurrence counts (once if None).
    Weighted sums add integers in float64, which is exact below 2**53.
    """
    once = 1 if weights is None else weights
    by_event = group * N_EVENTS + occ["event"]
    table = np.empty((n, TALLY), dtype=np.int64)
    table[:, :DISCOUNT] = np.bincount(by_event, weights, n * N_EVENTS).reshape(n, N_EVENTS)
    table[:, DISCOUNT:CLICKED_DISCOUNT] = np.bincount(
        by_event, DISCOUNTS[occ["column"]] * once, n * N_EVENTS).reshape(n, N_EVENTS)
    for at, values in ((CLICKED_DISCOUNT, np.append(0, DISCOUNTS)[occ["r_clicked"]]),
                       (GAIN_SUM, occ["gain_sum"]), (SLOT_COUNT, occ["n_slots"])):
        table[:, at] = np.bincount(group, values * once, n)
    for first, width, bins in ((BY_CLICKED_RANK, SERP_SIZE + 1, occ["r_clicked"]),
                               (BY_GAIN_MAX, N_GAINS, occ["gain_max"]),
                               (BY_GAIN_MIN, N_GAINS, occ["gain_min"])):
        table[:, first:first + width] = np.bincount(
            group * width + bins, weights, n * width).reshape(n, width)
    return table


# Sorted slot keys per decoding and tally pass of `_Crowd.of`. It bounds the
# pass's temporaries, about 60 bytes per key.
CROWD_SLOTS = 1 << 14


def tally_dtype(n_rows: int) -> np.dtype:
    """The dtype of the crowd's tallies over `n_rows` index rows: int32 when it holds them.

    An entry counts at most one topmost slot per row, and each slot adds at
    most RANK_LCM to a discount numerator.
    """
    return np.dtype(np.int32 if n_rows * RANK_LCM < 2**31 else np.int64)


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
    tallies: np.ndarray       # (entries, TALLY) in `tally_dtype` of the rows, see `_tally`

    @classmethod
    def of(cls, rows: IndexRows, occurrences: np.ndarray) -> "_Crowd":
        """One sort of every topmost slot by (item, segment, attributes) key.

        The keys are packed and sorted in one int64 array, the only
        slot-sized temporary. It is tallied a block of `CROWD_SLOTS` keys at
        a time, so that no other temporary grows with the slots. Equal keys
        are one occurrence repeated, so a block's tallies add each distinct
        key once, weighted by its count. An entry that spans two blocks adds
        the later block's tally to the earlier one's.
        """
        queries, query = np.unique(rows.queries, return_inverse=True)
        n_terms = len(rows.terms)
        segments, segment = np.unique(query.ravel() * n_terms + rows.variants,
                                      return_inverse=True)
        n_items = len(rows.documents) + len(rows.domains)
        if (n_items * len(segments)) << ATTRIBUTE_BITS >= 2**63:
            raise OverflowError("the (item, segment, attributes) keys of contexts 5-6 exceed int64")
        key = rows.items.astype(np.int64)
        key *= len(segments)
        key += segment.reshape(-1, 1)
        key <<= ATTRIBUTE_BITS
        key |= occurrences  # a slot that is no item's topmost holds -1, and so its key
        key = key.ravel()
        key.sort()
        key = key[np.searchsorted(key, 0):]
        dtype = tally_dtype(len(rows.items))
        keys, tallies, last = [np.empty(0, np.int64)], [np.empty((0, TALLY), dtype)], -1
        for start in range(0, len(key), CROWD_SLOTS):
            block = key[start:start + CROWD_SLOTS]
            starts = np.flatnonzero(firsts(block))
            counts = np.diff(starts, append=len(block))
            block = block[starts]
            occ = _decode(block)
            block >>= ATTRIBUTE_BITS
            first = firsts(block)
            tally = _tally(np.cumsum(first) - 1, occ, np.count_nonzero(first), counts)
            if block[0] == last:  # the entry that ends the previous block goes on
                tallies[-1][-1] += tally[0]
                first[0], tally = False, tally[1:]
            if len(tally):
                keys.append(block[first])
                tallies.append(tally.astype(dtype))
            last = block[-1]
        del key  # before the entries are joined
        return cls(queries, np.searchsorted(segments, np.arange(len(queries) + 1) * n_terms),
                   segments % n_terms, segment.ravel(), np.concatenate(keys),
                   np.concatenate(tallies))


def _largest(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per column of (k, m) counts, the largest of values >= 0 with a nonzero count, 0 if none."""
    return ((counts > 0) * values[:, None]).max(axis=0)


def _smallest(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per column of (k, m) counts, the smallest of values >= 0 with a nonzero count, 0 if none."""
    absent = values.max() + 1
    least = np.where(counts > 0, values[:, None], absent).min(axis=0)
    return np.where(least < absent, least, 0)


def _pair_evidence(rows: IndexRows, occurrences: np.ndarray, hits, keep: np.ndarray):
    """The evidence of one of contexts 1-4's pairs (see `_blocks`): the kept `hits`.

    Each hit is one occurrence, so it counts once.
    """
    u, slot = (a[keep] for a in hits)
    occ = _decode(occurrences.ravel()[slot])
    first = firsts(u)
    present, row = u[first], np.cumsum(first) - 1
    judged = occ["event"] != SHOWN
    return present, _tally(row, occ, len(present)).T.copy(), (
        row[judged], rows.variants[slot[judged] // (2 * SERP_SIZE)], occ["event"][judged], 1)


def _crowd_evidence(crowd: _Crowd, occurrences: np.ndarray, items: np.ndarray,
                    queries: np.ndarray, own):
    """The evidence of contexts 5-6 (see `_blocks`) for the targets' (T, 20) `items`.

    Each item adds the tallies of its entries in the target's query, less
    those of `own`, the (item, slot) hits of the user's own rows of the
    query. An entry's occurrences share one term variant.
    """
    width, n_segments = 2 * SERP_SIZE, len(crowd.variants)
    query = _codes(crowd.queries, queries)[:, None]
    first, last = (np.where(query >= 0, crowd.first[query + k], 0) for k in (0, 1))
    lo, hi = (np.searchsorted(crowd.keys, (items * n_segments + bound).ravel())
              for bound in (first, last))
    n = np.where(items.ravel() >= 0, hi - lo, 0)  # a query or item of no row has no entries
    offset = np.cumsum(n) - n
    at = np.arange(n.sum()) + np.repeat(lo - offset, n)
    u, slot = own
    own_at = np.searchsorted(crowd.keys, items.ravel()[u] * n_segments
                             + crowd.row_segments[slot // width])
    entries = crowd.tallies[at]
    entries -= _tally(own_at - lo[u] + offset[u], _decode(occurrences.ravel()[slot]), len(at))
    present = np.flatnonzero(n)  # each such item's entries are one run of `entries`
    entry, event = np.nonzero(entries[:, CLICKED:DISCOUNT])
    event += CLICKED
    judged = (np.repeat(np.arange(len(present)), n[present])[entry],
              crowd.variants[crowd.keys[at[entry]] % n_segments], event, entries[entry, event])
    tally = np.add.reduceat(entries, offset[present])
    del entries  # before the transposed copy, so that the two are never held together
    return present, tally.T.copy(), judged


def _blocks(out: np.ndarray, present: np.ndarray, tally: np.ndarray, judged,
            terms: list[frozenset[int]], variants: list[frozenset[int]], ids: np.ndarray) -> None:
    """Write the blocks of one context pair for a chunk of targets to `out`, (T, 10, 40).

    The blocks come from integer evidence. Each document position holds its
    document's block, then its domain's.
    Target item t * 20 + j is the targets' j-th document (j < 10) or
    domain. `present` are the items with evidence, ascending, and `tally`
    their tallies (see `_tally`), transposed to (TALLY, len(present)) so
    that bins reduce element-wise; every other item's block is 0. `judged`
    = (row, variant, event, count), in ascending row: `count` clicked,
    skipped or missed occurrences of item `present[row]` under the term
    variant `variant` (an index into `variants`). `terms` are the targets'
    query terms. Every sum is of integers, and each float is formed once
    from exact integers, so every value is the correctly rounded exact one.
    A discount sum is sum(count * DISCOUNTS[r - 1]) / RANK_LCM. A mean
    similarity is sum(count * inter * (L / union)) / (L * count), where L
    is the lcm of the union sizes of the target's terms with the judged
    variants. A target for which such a sum would reach 2**53 raises
    DataError naming it by its row of `ids`, the targets' (user, query,
    session, serp) ids.
    """
    row, variant, event, count = judged
    n_targets, width, m = len(terms), 2 * SERP_SIZE, len(present)
    counts, discounts = tally[:DISCOUNT], tally[DISCOUNT:CLICKED_DISCOUNT]

    # Intersection and union sizes once per distinct (target, variant).
    n_terms = len(variants)
    wanted = present[row] // width * n_terms + variant
    pairs = distinct(wanted)
    inter, union = _overlaps(pairs, terms, variants)
    lcm = [1] * n_targets
    for t, size in zip((pairs // n_terms).tolist(), union.tolist()):
        lcm[t] = math.lcm(lcm[t], size or 1)
    # An lcm of EXACT or more leaves no room for any count.
    lcm = np.array([min(value, EXACT) for value in lcm], dtype=np.int64)[present // width]
    inexact = (counts[CLICKED:] > (EXACT - 1) // lcm).any(axis=0)
    if inexact.any():
        user, _, session, serp = ids[present[np.argmax(inexact)] // width].tolist()
        raise DataError(f"target (user {user}, session {session}, serp {serp}): "
                        "exact similarity sums exceed 2**53")
    pair = np.searchsorted(pairs, wanted)
    inter, union = inter[pair], np.maximum(union[pair], 1)  # union 0 has inter 0
    sums = np.bincount(row * N_EVENTS + event, count * inter * (lcm[row] // union),
                       m * N_EVENTS).reshape(m, N_EVENTS).T
    means = np.divide(sums, lcm * counts, out=np.zeros(counts.shape), where=counts > 0)
    sim, starts = inter / union, np.flatnonzero(firsts(row))
    maxima = np.zeros((N_EVENTS, m))
    for e in CLICKED, SKIPPED, MISSED:
        maxima[e, row[starts]] = np.maximum.reduceat(np.where(event == e, sim, 0.0), starts)

    gain_sum, slot_count = tally[GAIN_SUM], tally[SLOT_COUNT]
    gains = np.arange(N_GAINS)
    clicked = tally[BY_CLICKED_RANK + 1:BY_GAIN_MAX]
    # Item t * 20 + j is at target t's document position j % 10, in its first
    # block for a document (j < 10), in its second for a domain. Splitting the
    # last axis, which is contiguous, makes `blocks` a view of `out`.
    target, item = np.divmod(present, width)
    half, position = np.divmod(item, SERP_SIZE)
    out[...] = 0
    blocks = out.reshape(n_targets, SERP_SIZE, 2, N_CONTEXT_FEATURES)
    blocks[target, position, half] = np.stack([
        # g1-g4: total, mean, max and min gain over the item's slots
        gain_sum, np.divide(gain_sum, slot_count, out=np.zeros(m), where=slot_count > 0),
        _largest(tally[BY_GAIN_MAX:BY_GAIN_MIN], gains), _smallest(tally[BY_GAIN_MIN:], gains),
        # g5-g10: mean and max similarity when clicked, skipped, missed
        means[CLICKED], maxima[CLICKED], means[SKIPPED], maxima[SKIPPED],
        means[MISSED], maxima[MISSED],
        # g11-g16: shown, clicked, skipped, missed counts; shown, clicked discounts
        counts.sum(axis=0), counts[CLICKED], counts[SKIPPED], counts[MISSED],
        discounts.sum(axis=0) / RANK_LCM, tally[CLICKED_DISCOUNT] / RANK_LCM,
        # g17-g20: max and min clicked rank; skipped, missed discounts
        _largest(clicked, RANKS), _smallest(clicked, RANKS),
        discounts[SKIPPED] / RANK_LCM, discounts[MISSED] / RANK_LCM,
    ], axis=1, dtype=np.float64)


def _target_blocks(e: "Extraction", targets: _Targets, chunk: slice, out: np.ndarray) -> None:
    """Write the (T, 10, 121) feature values of the `chunk` of `targets` to `out`.

    Contexts 1-4 come from the user's earlier rows: of the query for 1-2,
    of other queries for 3-4. Contexts 5-6 come from the tallies of the
    query's rows less those of the user's own rows of it. One pair's
    evidence is held at a time.
    """
    rows, terms, ids = e.rows, targets.terms[chunk], targets.ids[chunk]
    queries, times, ranks = ids[:, 1], targets.times[chunk], targets.ranks[chunk]
    domains = _codes(rows.domains, targets.domains[chunk])
    items = np.hstack([_codes(rows.documents, targets.documents[chunk]),
                       np.where(domains >= 0, domains + len(rows.documents), -1)])
    hits = e.slots.hits(ids[:, 0], items)
    t, row = hits[0] // (2 * SERP_SIZE), hits[1] // (2 * SERP_SIZE)
    rank = rows.ranks[row]
    earlier = (rank < ranks[t]) | ((rank == ranks[t]) & (rows.times[row] < times[t]))
    same_query = rows.queries[row] == queries[t]
    for k, keep in enumerate((same_query & earlier, ~same_query & earlier)):
        _blocks(out[..., 40 * k:40 * (k + 1)],
                *_pair_evidence(rows, e.occurrences, hits, keep), terms, rows.terms, ids)
    _blocks(out[..., 80:120],
            *_crowd_evidence(e.crowd, e.occurrences, items, queries,
                             (hits[0][same_query], hits[1][same_query])), terms, rows.terms, ids)
    out[..., 120] = np.arange(1.0, SERP_SIZE + 1)  # base rank


@dataclass(eq=False)
class Extraction:
    """What extraction reads: the index rows, each role's targets, and the index on the rows.

    `read` fills `rows` and `targets` from the session columns and keeps no
    reference to them, so that a caller can drop the columns before `index`
    builds the rest. The attributes of every (index row, item) occurrence
    are computed once (`_occurrences`). Their topmost slots are tallied by
    (query, item) for contexts 5-6 (`_Crowd`) and indexed by (item, user)
    for contexts 1-4 (`_Slots`). The rows' slot-sized columns then go:
    `extract_targets` reads only the rest.
    """

    rows: IndexRows
    targets: dict[str, _Targets]  # by role, in (user, session, serp) order
    occurrences: np.ndarray | None = None
    crowd: _Crowd | None = None
    slots: _Slots | None = None

    @classmethod
    def read(cls, columns: SessionColumns, targets: TargetSet, train_days: int = 27,
             seed: int = 0) -> "Extraction":
        """The index rows and each role's targets, in the session order of `seed`.

        The seed must match the one used for partitioning. A target that
        names no impression raises DataError.
        """
        ranks = rank_sessions(columns, seed)
        session = columns.impression_sessions()
        by_role = [targets.by_role(role) for role in ROLES]
        by_role = [ids[np.lexsort(ids.T[::-1])] for ids in by_role]  # by user, session, serp
        # One key sort for every role, before the rows are built, so that the two never meet.
        found = columns.rows_of(np.concatenate(by_role))
        ends = np.cumsum([len(ids) for ids in by_role])[:-1]
        roles = {role: _Targets.of(columns, ids, at, ranks[session[at]])
                 for role, ids, at in zip(ROLES, by_role, np.split(found, ends))}
        del session, found
        return cls(index_rows(columns, ranks, train_days), roles)

    def index(self) -> None:
        """Build the occurrence table, the crowd tally and the slot index from the rows."""
        self.occurrences = _occurrences(self.rows)
        # The occurrences hold what the rows' gains and clicks told: those go now.
        rows = self.rows = replace(self.rows, gains=None, clicked=None, last_click=None)
        self.crowd = _Crowd.of(rows, self.occurrences)  # before `slots`: its sort never meets theirs
        self.slots = _Slots.of(rows, self.occurrences, rows.users)
        # The targets read only the rows' per-row columns: their items go too.
        self.rows = replace(rows, items=None)


def extract_targets(extraction: Extraction, role: str, chunk: slice = slice(None)) -> FeatureTable:
    """The feature table of the `chunk` of one role's targets (all of them by default).

    `extraction` must be indexed. The targets are in (user_id, session_id,
    serp_id) order, so output is deterministic. The values equal
    `extract_impression` over `assemble_contexts` bit for bit: every value
    is exact and rounded once. Each context pair's occurrences of a target
    item become one integer tally, and one function (`_blocks`) turns
    tallies into values, so the cost of a target depends on its user's rows,
    not on how many users logged its query. Targets go through the kernel in
    chunks of `CHUNK_TARGETS`. A role with any unlabeled target gets
    gains=None in every chunk.
    """
    targets = extraction.targets[role]
    start, stop, _ = chunk.indices(len(targets.ids))
    x = np.empty((max(stop - start, 0), SERP_SIZE, N_FEATURES))
    for first in range(start, stop, CHUNK_TARGETS):
        part = slice(first, min(first + CHUNK_TARGETS, stop))
        _target_blocks(extraction, targets, part, x[first - start:part.stop - start])
    return _table(targets, slice(start, stop), x)


def extract_chunks(extraction: Extraction, role: str) -> Iterator[FeatureTable]:
    """One role's feature tables, `CHUNK_TARGETS` targets at a time, in order.

    Each is made when it is asked for, so a writer that takes them in turn
    (see `write_features`) holds one chunk's table, never the role's.
    """
    for start in range(0, len(extraction.targets[role].ids), CHUNK_TARGETS):
        yield extract_targets(extraction, role, slice(start, start + CHUNK_TARGETS))


# Targets per join when writing a grouped CSV. Their row strings are made
# block by block, and small blocks keep the heap from growing on every file.
WRITE_TARGETS = 32


def write_features(tables: FeatureTable | Iterable[FeatureTable], path: str | Path) -> None:
    """Write a feature file: ten rows per target, values in `repr` digits, gains as integers.

    `tables` is one table, or one role's tables chunk by chunk, in order,
    each written as it comes (see `extract_chunks`). An unlabeled table
    leaves every gain empty. See `write_table`.
    """
    def ends(table: FeatureTable) -> Iterable[str]:
        gains = (table.gains.astype(np.int64).ravel().tolist() if table.gains is not None
                 else repeat(""))
        return (f"{gain}\r\n" for gain in gains)

    write_table([tables] if isinstance(tables, FeatureTable) else tables, path, HEADER,
                lambda table: table.x, ends)


def write_table(tables: Iterable[FeatureTable], path: str | Path, header: list[str],
                values: Callable[[FeatureTable], np.ndarray],
                ends: Callable[[FeatureTable], Iterable[str]]) -> None:
    """Write the grouped-CSV layout of feature and score files, which `read_table` reads.

    `tables` hold consecutive targets, and each is written, and let go, as
    it comes. Each row is its target's four id columns and its doc id, then
    its table's (T, 10, k) `values` in `repr` digits, each with its trailing
    comma, then the row's string from the table's `ends`: the rest of the
    row and its line end. Lines end in CRLF, as `csv.writer` ends them. Each
    distinct value is formatted once per file (see `_write_rows`).
    """
    formatted = np.empty(0, np.int64), np.empty(0, dtype=object)
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for table in tables:
            formatted = _write_rows(fh, table, values(table), ends(table), formatted)
            del table  # before the next table is made


def _write_rows(fh, table: FeatureTable, values: np.ndarray, ends: Iterable[str],
                formatted: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Write the rows of `table` (see `write_table`); return the values formatted so far.

    `formatted` holds the sorted bit patterns of the values formatted
    before, and their strings. The distinct values of the table are found
    by their bits, which keeps -0.0 apart from 0.0: those of each block of
    `WRITE_TARGETS` targets, then those of the blocks' union, so no sorted
    copy of every value is made. Only those not formatted before are
    formatted. Each block is one join over a (rows, k + 2) array of
    strings: each row's id prefix, its values, its end.
    """
    k = values.shape[-1]
    bits = values.view(np.int64)
    starts = range(0, table.n_targets, WRITE_TARGETS)
    seen = distinct(np.concatenate([np.empty(0, np.int64)] + [
        distinct(bits[start:start + WRITE_TARGETS]) for start in starts]))
    patterns, digits = formatted
    new = seen[_codes(patterns, seen) < 0]
    at = np.searchsorted(patterns, new)
    patterns = np.insert(patterns, at, new)
    digits = np.insert(digits, at, np.array(
        [f"{value!r}," for value in new.view(np.float64).tolist()], dtype=object))
    heads = ["{},{},{},{},".format(*ids) for ids in table.ids.tolist()]
    ends = iter(ends)
    for start in starts:
        block = slice(start, start + WRITE_TARGETS)
        prefixes = [f"{head}{doc}," for head, docs in zip(heads[block],
                                                          table.doc_ids[block].tolist())
                    for doc in docs]
        fields = np.empty((len(prefixes), k + 2), dtype=object)
        fields[:, 0] = np.array(prefixes, dtype=object)
        fields[:, 1:-1] = digits[np.searchsorted(patterns, bits[block].reshape(-1, k))]
        fields[:, -1] = np.array(list(islice(ends, len(prefixes))), dtype=object)
        fh.write("".join(fields.ravel().tolist()))
    return patterns, digits


def read_features(path: str | Path) -> FeatureTable:
    """Load a feature CSV; malformed content raises DataError (see `read_table`)."""
    return read_table(path, HEADER, slice(0, N_FEATURES))


def _gain(field: str) -> float:
    """An empty gain (unlabeled) reads as NaN; a written gain must be finite."""
    gain = float(field) if field else math.nan
    if field and not math.isfinite(gain):
        raise ValueError(field)  # numpy reports the field and its column
    return gain


def _unblank(lines: Iterable[str]) -> Iterator[str]:
    """`lines`, stopped by a ValueError at a blank one, which loadtxt would skip."""
    for line in lines:
        if not line.strip():
            raise ValueError("blank line")
        yield line


def read_table(path: str | Path, header: list[str], x: slice) -> FeatureTable:
    """Parse the grouped-CSV layout that feature and score files share.

    Each target is 10 consecutive rows: four target id columns and a doc
    id, then number columns, one of them `base_rank` and one `gain`, which
    is empty for unlabeled documents. The table's x holds the `x` slice of
    the number columns. A file with any empty gain loads with gains=None.

    The body is parsed once, into int64 ids and float64 numbers, as its
    lines are read. Malformed content raises DataError naming the first bad
    line: an unexpected header, a row count that is not a multiple of 10, a
    blank line, a row with the wrong number of fields, an id that is not an
    int64, a value that is not a number, target ids that change within a
    group, non-finite values, a written gain that is not one `parse` assigns
    (0, 1 or 2), and base ranks of a target that are not 1..10 in some
    order (the line named is the first whose rank is not 1..10 or repeats
    an earlier row's). The row count, a blank line and a row that does not
    parse are named by reading the file again, once the parse has failed or
    counted rows that are not whole groups.
    """
    n_ids, gain = len(ID_COLUMNS), header.index("gain")
    row = np.dtype([("ids", np.int64, n_ids), ("numbers", np.float64, len(header) - n_ids)])

    def parse(lines: Iterable[str]) -> np.ndarray:
        lines = iter(lines)
        first = next(lines, None)
        if first is None:
            return np.empty(0, row)  # loadtxt would warn that the input holds no data
        with warnings.catch_warnings():
            # Older numpy reads an int field that fails to parse through float, only
            # warning; as an error, loadtxt reports it as the field's ValueError.
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(chain([first], lines), dtype=row, delimiter=",",
                              comments=None, ndmin=1, converters={gain: _gain})

    with decoding(path), open(path, encoding="utf-8") as fh:
        if next(csv.reader([fh.readline()]), None) != header:
            raise DataError(f"unexpected header in {path}")
        try:
            rows = parse(_unblank(fh))
        except ValueError:
            rows = None
    if rows is None or len(rows) % 10 != 0:
        with decoding(path), open(path, encoding="utf-8") as fh:
            lines = list(fh)[1:]
        if len(lines) % 10 != 0:
            raise DataError(f"{path}: row count {len(lines)} is not a multiple of 10")
        for n, line in enumerate(lines, start=2):  # numpy's row numbers are not file lines
            if not line.strip():
                raise DataError(f"{path}: line {n} is blank")
            try:
                parse([line])
            except ValueError as exc:
                reason = re.sub(r" at row \d+", "", str(exc)).split(";")[0]
                raise DataError(f"{path}: line {n}: {reason}") from None
        raise DataError(f"{path}: changed while it was read")
    ids = rows["ids"].reshape(-1, 10, n_ids)
    numbers = rows["numbers"].reshape(-1, 10, len(header) - n_ids)
    gains = numbers[..., gain - n_ids]
    base_ranks = numbers[..., header.index("base_rank") - n_ids]
    finite = np.isfinite(numbers)
    finite[..., gain - n_ids] = True  # an empty gain reads as NaN; `_gain` checked the others
    earlier = np.tri(SERP_SIZE, k=-1, dtype=bool)  # [j, k]: row k comes before row j
    repeats = ((base_ranks[:, :, None] == base_ranks[:, None, :]) & earlier).any(axis=2)
    for bad, what in (((ids[:, :, :4] != ids[:, :1, :4]).any(axis=2),
                       "changes target within a group of 10"),
                      (~finite.all(axis=2), "holds a non-finite value"),
                      (~(np.isin(gains, CODE_GAINS) | np.isnan(gains)),
                       f"holds a gain not in {sorted(set(CODE_GAINS.tolist()))}"),
                      (~np.isin(base_ranks, RANKS) | repeats,
                       f"holds a base_rank that is not 1..{SERP_SIZE} once per target")):
        if bad.any():
            raise DataError(f"{path}: line {np.argmax(bad) + 2} {what}")
    return FeatureTable(
        ids=ids[:, 0, :4].copy(),
        doc_ids=ids[:, :, 4].copy(),
        x=numbers[:, :, x],
        base_ranks=base_ranks.copy(),
        gains=None if np.isnan(gains).any() else gains.copy(),
    )
