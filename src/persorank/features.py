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


def _per_run(ufunc: np.ufunc, groups: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """`ufunc` reduced over each run of equal sorted `groups` (>= 0); 0 for absent groups."""
    out = np.zeros(n, dtype=values.dtype)
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    out[groups[starts]] = ufunc.reduceat(values, starts)
    return out


class _Slots(NamedTuple):
    """Every item slot of the index rows, by (segment, item) key, then row and rank."""

    segments: np.ndarray  # sorted distinct segment ids: users, or queries
    keys: np.ndarray      # sorted segment code * n_items + item code
    slots: np.ndarray     # row * 20 + column in `IndexRows.items` of each key
    n_items: int          # item codes of the rows

    @classmethod
    def of(cls, rows: IndexRows, segment_of_row: np.ndarray) -> "_Slots":
        segments, seg = np.unique(segment_of_row, return_inverse=True)
        n_items = len(rows.documents) + len(rows.domains)
        slots = np.flatnonzero(rows.items >= 0)  # row-major: row, then slot order
        keys = seg[slots // (2 * SERP_SIZE)] * n_items + rows.items.ravel()[slots]
        order = np.argsort(keys, kind="stable")
        return cls(segments, keys[order], slots[order], n_items)

    def hits(self, segment_of_target: np.ndarray, items: np.ndarray):
        """(item, row, rank) of each slot holding a target's item in its segment.

        Item t * 20 + j is `items[t, j]`, one of the targets' (T, 20) item
        codes. Hits come by item, then in row order and rank order.
        """
        seg = _codes(self.segments, segment_of_target)[:, None]
        wanted = np.where((seg >= 0) & (items >= 0), seg * self.n_items + items, -1).ravel()
        lo = np.searchsorted(self.keys, wanted, "left")
        n = np.searchsorted(self.keys, wanted, "right") - lo
        slots = self.slots[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)]
        return np.repeat(np.arange(len(wanted)), n), slots // (2 * SERP_SIZE), slots % SERP_SIZE


def _pair_blocks(rows: IndexRows, hits, keep: np.ndarray, terms) -> np.ndarray:
    """Blocks of one context pair for a chunk of targets, (T, 10, 40).

    Each document position holds its document's block, then its domain's.
    `keep` marks the `hits` in the context; `terms` are the targets' query
    terms. As hits come by item, then row, the first hit of a (row, item)
    is its topmost slot, and `np.bincount` adds each float sum in row
    order, as `context_features` does (`np.sum` adds pairwise).
    """
    u, row, rank = (a[keep] for a in hits)
    n_targets, width = len(terms), 2 * SERP_SIZE
    n_u = n_targets * width
    gain = rows.gains[row, rank]
    # One occurrence per (item, row): its topmost slot and topmost clicked slot.
    first = np.diff(u * len(rows.users) + row, prepend=-1) != 0
    occurrence = np.cumsum(first) - 1
    o_u, o_row, top = u[first], row[first], rank[first] + 1
    hit = rows.clicked[row, rank]
    r_clicked = _per_run(np.minimum, occurrence[hit], rank[hit] + 1, len(o_u))
    clicked = r_clicked > 0
    last_click = rows.last_click[o_row]
    skipped = ~clicked & (last_click > top)
    missed = ~clicked & ~skipped & (last_click > 0)
    # Similarity once per distinct (target terms, row terms).
    n_terms = len(rows.terms)
    pairs, pair_of = np.unique(o_u // width * n_terms + rows.variants[o_row], return_inverse=True)
    sim = np.array([similarity(terms[p // n_terms], rows.terms[p % n_terms])
                    for p in pairs.tolist()])[pair_of]

    def total(mask, values=None):
        return np.bincount(o_u[mask], None if values is None else values[mask], n_u)

    def mean(sums, counts):
        return np.divide(sums, counts, out=np.zeros(n_u), where=counts > 0)

    def top_of(ufunc, mask, values):
        return _per_run(ufunc, o_u[mask], values[mask], n_u)

    slot_count = np.bincount(u, minlength=n_u)
    gain_sum = np.bincount(u, gain, n_u)  # exact integers
    inv_top, every = 1.0 / top, slice(None)
    block = np.stack([
        # g1-g4: total, mean, max and min gain over the item's slots
        gain_sum, mean(gain_sum, slot_count),
        _per_run(np.maximum, u, gain, n_u), _per_run(np.minimum, u, gain, n_u),
        # g5-g10: mean and max similarity when clicked, skipped, missed
        mean(total(clicked, sim), total(clicked)), top_of(np.maximum, clicked, sim),
        mean(total(skipped, sim), total(skipped)), top_of(np.maximum, skipped, sim),
        mean(total(missed, sim), total(missed)), top_of(np.maximum, missed, sim),
        # g11-g16: shown, clicked, skipped, missed counts; shown, clicked discounts
        total(every), total(clicked), total(skipped), total(missed),
        total(every, inv_top), total(clicked, 1.0 / np.where(clicked, r_clicked, 1)),
        # g17-g20: max and min clicked rank; skipped, missed discounts
        top_of(np.maximum, clicked, r_clicked), top_of(np.minimum, clicked, r_clicked),
        total(skipped, inv_top), total(missed, inv_top),
    ], axis=1, dtype=np.float64)
    return (block.reshape(n_targets, 2, SERP_SIZE, -1).swapaxes(1, 2)
            .reshape(n_targets, SERP_SIZE, -1))


def _target_blocks(rows: IndexRows, slots: tuple[_Slots, _Slots], columns: SessionColumns,
                   at: np.ndarray, terms: list[tuple[int, ...]], users, ranks):
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
        """Each hit's target, and whether the hit's row precedes it."""
        t, rank = hits[0] // (2 * SERP_SIZE), rows.ranks[hits[1]]
        return t, (rank < ranks[t]) | ((rank == ranks[t]) & (rows.times[hits[1]] < times[t]))

    q_hits, u_hits = slots[0].hits(queries, items), slots[1].hits(users, items)
    (tq, q_earlier), (tu, u_earlier) = earlier(q_hits), earlier(u_hits)
    own = rows.users[q_hits[1]] == users[tq]
    other_query = rows.queries[u_hits[1]] != queries[tu]
    return np.concatenate([
        _pair_blocks(rows, q_hits, own & q_earlier, terms),
        _pair_blocks(rows, u_hits, other_query & u_earlier, terms),
        _pair_blocks(rows, q_hits, ~own, terms),
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
    over `assemble_contexts` bit for bit; they come from one kernel call per
    context pair and chunk of `CHUNK_TARGETS`. A role with any unlabeled
    target gets gains=None.
    """
    ranks = rank_sessions(columns, seed)
    rows = index_rows(columns, ranks, train_days)
    slots = (_Slots.of(rows, rows.queries), _Slots.of(rows, rows.users))
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
            x[chunk] = _target_blocks(rows, slots, columns, at[chunk], terms[chunk],
                                      users[chunk], target_ranks[chunk])
        out[role] = _table(ids, columns, at, x)
    return out


def write_features(table: FeatureTable, path: str | Path) -> None:
    """Write a feature file: ten rows per target, values in `repr` digits, gains as integers.

    Lines end in CRLF, as `csv.writer` ends them; an unlabeled table leaves every gain empty.
    Each distinct value is formatted once; values are told apart by their bits, which keeps
    -0.0 apart from 0.0.
    """
    gains = (table.gains.astype(np.int64).tolist() if table.gains is not None
             else [[""] * table.doc_ids.shape[1]] * table.n_targets)
    bits, codes = np.unique(table.x.view(np.int64), return_inverse=True)
    digits = list(map(repr, bits.view(np.float64).tolist()))
    codes = codes.reshape(table.x.shape)  # the inverse's shape differs across numpy versions
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(HEADER) + "\r\n")
        for ids, docs, target_codes, target_gains in zip(_id_columns(table), table.doc_ids.tolist(),
                                                         codes, gains):
            fh.write("".join(f"{ids}{doc},{','.join(map(digits.__getitem__, row))},{gain}\r\n"
                             for doc, row, gain in zip(docs, target_codes.tolist(), target_gains)))


def _id_columns(table: FeatureTable) -> list[str]:
    """Each target's four id columns as they start its rows in a file."""
    return ["{},{},{},{},".format(*ids) for ids in zip(
        table.user_ids.tolist(), table.query_ids.tolist(),
        table.session_ids.tolist(), table.serp_ids.tolist())]


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
    width = len(header)
    g = header.index("gain")
    numbers = [c for c in range(len(ID_COLUMNS), width) if c != g]
    with decoding(path), open(path, newline="") as fh:
        if next(csv.reader([fh.readline()]), None) != header:
            raise DataError(f"unexpected header in {path}")
        n_rows = sum(1 for _ in fh)
        if n_rows % 10 != 0:
            raise DataError(f"{path}: row count {n_rows} is not a multiple of 10")
        n_targets = n_rows // 10
        ids = np.empty((n_targets, 4), dtype=np.int64)
        doc_ids = np.empty((n_targets, 10), dtype=np.int64)
        gains = np.empty((n_targets, 10), dtype=np.float64)
        labeled = True
        # One line at a time for the ids and the gain; the values come after.
        fh.seek(0)
        fh.readline()
        for i, line in enumerate(fh):
            t, j = divmod(i, 10)
            line = line.rstrip("\r\n")
            fields = line.split(",") if line else []
            if len(fields) != width:
                raise DataError(f"{path}: line {i + 2} has {len(fields)} fields, expected {width}")
            if j == 0:
                target = fields[:4]
            elif fields[:4] != target:
                raise DataError(f"{path}: line {i + 2} changes target within a group of 10")
            try:
                if j == 0:
                    ids[t] = [int(v) for v in target]
                doc_ids[t, j] = int(fields[4])
                if fields[g]:
                    gains[t, j] = float(fields[g])
                else:
                    labeled = False
            except ValueError as exc:
                raise DataError(f"{path}: line {i + 2}: {exc}") from None
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numbers, ndmin=2,
                            comments=None) if n_rows else np.empty((0, len(numbers)))
    except ValueError as error:
        with open(path, newline="") as fh:  # name the line, in float()'s words
            rows = csv.reader(fh)
            next(rows)
            for i, row in enumerate(rows):
                try:
                    for c in numbers:
                        float(row[c])
                except ValueError as exc:
                    raise DataError(f"{path}: line {i + 2}: {exc}") from None
        raise DataError(f"{path}: {error}") from None
    values = values.reshape(n_targets, 10, len(numbers))

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
        base_ranks=values[:, :, numbers.index(header.index("base_rank"))].copy(),
        gains=gains if labeled else None,
    )
    return table, values
