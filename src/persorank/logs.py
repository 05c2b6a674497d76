"""Click-log records: parsing, session assembly, and relevance labeling.

The on-disk format is the tab-separated challenge layout with four record
types: session metadata ("M"), query actions ("Q", or "T" for queries in
the test period), and click actions ("C"). Every query carries exactly ten
(url, domain) result pairs. Relevance grades are derived from click dwell
time: the time between a click and the next logged action in the same
session. Dwell below 50 units is an unsatisfied click, 50 to 399 is a
partially satisfied one, 400 or more is satisfied, and the final click of
a session is always treated as satisfied.
"""

from __future__ import annotations

import bisect
import gzip
import re
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from itertools import chain, islice, repeat
from typing import Iterable

import numpy as np

SERP_SIZE = 10

DWELL_SHORT = 50
DWELL_LONG = 400


class LogParseError(ValueError):
    """A log line that cannot be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StructuralError(LogParseError):
    """A parseable line violating a structural invariant (e.g. result count)."""


class DataError(ValueError):
    """Well-formed records that break referential integrity."""


@contextmanager
def decoding(path):
    """Content of input `path` that is not UTF-8, or not intact gzip, raises DataError naming it."""
    try:
        yield
    except (UnicodeDecodeError, gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise DataError(f"{path}: cannot decode: {exc}") from None


class Grade(Enum):
    """Per-document relevance grade.

    NO_CLICK and R0 both carry gain 0; they stay distinct so click-count
    statistics can be reported separately from unsatisfied clicks.
    """

    NO_CLICK = "no_click"
    R0 = "r0"
    R1 = "r1"
    R2 = "r2"

    @property
    def gain(self) -> int:
        return _GAIN[self]

    @property
    def clicked(self) -> bool:
        return self is not Grade.NO_CLICK


_GAIN = {Grade.NO_CLICK: 0, Grade.R0: 0, Grade.R1: 1, Grade.R2: 2}

# A grade's code in the session columns is its position in Grade; -1 marks an
# unlabeled impression. Indexed by code, these read gain 0 and not clicked at -1.
GRADES = tuple(Grade)
CODE_GAINS = np.array([g.gain for g in GRADES] + [0], dtype=np.int8)
CODE_CLICKED = np.array([g.clicked for g in GRADES] + [False])


def count_grades(codes: np.ndarray) -> dict[str, int]:
    """How often each grade occurs among grade codes `codes`, by grade name; -1 counts as none."""
    counts = np.bincount(codes[codes >= 0], minlength=len(GRADES))
    return {g.value: n for g, n in zip(GRADES, counts.tolist())}


@dataclass(frozen=True)
class SessionMeta:
    session_id: int
    day: int
    user_id: int


@dataclass(frozen=True)
class QueryAction:
    session_id: int
    time_passed: int
    serp_id: int
    is_test: bool
    query_id: int
    terms: tuple[int, ...]
    results: tuple[tuple[int, int], ...]  # (url_id, domain_id) pairs


@dataclass(frozen=True)
class ClickAction:
    session_id: int
    time_passed: int
    serp_id: int
    url_id: int


LogRecord = SessionMeta | QueryAction | ClickAction


@dataclass
class Impression:
    """One SERP: a query with its ten results and any clicks on them."""

    serp_id: int
    query_id: int
    terms: tuple[int, ...]
    documents: tuple[int, ...]
    domains: tuple[int, ...]
    time_passed: int
    is_test: bool = False
    clicks: list[tuple[int, int]] = field(default_factory=list)  # (url_id, time)
    labels: list[Grade] | None = None


@dataclass
class Session:
    session_id: int
    user_id: int
    day: int
    impressions: list[Impression] = field(default_factory=list)


def _split(values: list, counts: np.ndarray) -> list[list]:
    """`values` cut into consecutive runs of `counts` items."""
    ends = np.cumsum(counts).tolist()
    return [values[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions `start, start + 1, ...` of runs of `counts` items at `starts`, run after run."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


# A (user, session, serp) id row viewed as one value that sorts row by row.
_KEY = np.dtype([("user", np.int64), ("session", np.int64), ("serp", np.int64)])


@dataclass(eq=False)
class SessionColumns:
    """A session list as integer arrays, the body of the session cache.

    Sessions keep their list order and impressions follow session by
    session in list order. A count column gives each row's share of the
    flat arrays: `n_impressions` of the impression rows, `n_terms` of
    `terms`, `n_clicks` of the clicks. `grades` holds grade codes (see
    `GRADES`), -1 across an unlabeled impression.
    """

    session_id: np.ndarray     # (S,)
    user_id: np.ndarray        # (S,)
    day: np.ndarray            # (S,)
    n_impressions: np.ndarray  # (S,)
    serp_id: np.ndarray        # (I,)
    query_id: np.ndarray       # (I,)
    time_passed: np.ndarray    # (I,)
    is_test: np.ndarray        # (I,) bool
    n_terms: np.ndarray        # (I,)
    n_clicks: np.ndarray       # (I,)
    documents: np.ndarray      # (I, 10)
    domains: np.ndarray        # (I, 10)
    grades: np.ndarray         # (I, 10) int8
    terms: np.ndarray          # (sum of n_terms,)
    click_url: np.ndarray      # (sum of n_clicks,)
    click_time: np.ndarray     # (sum of n_clicks,)

    @classmethod
    def of(cls, sessions: list[Session]) -> "SessionColumns":
        imps = [imp for s in sessions for imp in s.impressions]
        if any(len(imp.documents) != SERP_SIZE or len(imp.domains) != SERP_SIZE
               or (imp.labels is not None and len(imp.labels) != SERP_SIZE) for imp in imps):
            raise ValueError(f"an impression lists other than {SERP_SIZE} results or labels")

        def ints(values, count=-1):
            return np.fromiter(values, np.int64, count)

        def flat(per_imp, count):
            return ints(chain.from_iterable(map(per_imp, imps)), count)

        n_terms = ints((len(imp.terms) for imp in imps), len(imps))
        n_clicks = ints((len(imp.clicks) for imp in imps), len(imps))
        n_slots, n_clicked = len(imps) * SERP_SIZE, int(n_clicks.sum())
        # Grades are singletons, so each is known by its id (hashing an Enum is slow).
        unlabeled = (None,) * SERP_SIZE
        label_ids = flat(lambda imp: map(id, imp.labels or unlabeled), n_slots)
        grades = np.full(n_slots, -1, dtype=np.int8)
        for code, grade in enumerate(GRADES):
            grades[label_ids == id(grade)] = code
        return cls(
            session_id=ints((s.session_id for s in sessions), len(sessions)),
            user_id=ints((s.user_id for s in sessions), len(sessions)),
            day=ints((s.day for s in sessions), len(sessions)),
            n_impressions=ints((len(s.impressions) for s in sessions), len(sessions)),
            serp_id=ints((imp.serp_id for imp in imps), len(imps)),
            query_id=ints((imp.query_id for imp in imps), len(imps)),
            time_passed=ints((imp.time_passed for imp in imps), len(imps)),
            is_test=np.fromiter((imp.is_test for imp in imps), bool, len(imps)),
            n_terms=n_terms,
            n_clicks=n_clicks,
            documents=flat(lambda imp: imp.documents, n_slots).reshape(-1, SERP_SIZE),
            domains=flat(lambda imp: imp.domains, n_slots).reshape(-1, SERP_SIZE),
            grades=grades.reshape(-1, SERP_SIZE),
            terms=flat(lambda imp: imp.terms, int(n_terms.sum())),
            click_url=flat(lambda imp: (url for url, _ in imp.clicks), n_clicked),
            click_time=flat(lambda imp: (t for _, t in imp.clicks), n_clicked),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def sessions(self) -> list[Session]:
        clicks = _split(list(zip(self.click_url.tolist(), self.click_time.tolist())),
                        self.n_clicks)
        imps = [
            Impression(serp, query, tuple(terms), tuple(docs), tuple(doms), time, test,
                       imp_clicks, [GRADES[c] for c in codes] if codes[0] >= 0 else None)
            for serp, query, terms, docs, doms, time, test, imp_clicks, codes in zip(
                self.serp_id.tolist(), self.query_id.tolist(),
                _split(self.terms.tolist(), self.n_terms), self.documents.tolist(),
                self.domains.tolist(), self.time_passed.tolist(), self.is_test.tolist(),
                clicks, self.grades.tolist())
        ]
        return [Session(sid, user, day, session_imps) for sid, user, day, session_imps in zip(
            self.session_id.tolist(), self.user_id.tolist(), self.day.tolist(),
            _split(imps, self.n_impressions))]

    def impression_sessions(self) -> np.ndarray:
        """The session row of each impression row."""
        return np.repeat(np.arange(len(self.session_id)), self.n_impressions)

    def rows_of(self, targets: np.ndarray) -> np.ndarray:
        """The impression row of each (user_id, session_id, serp_id) row of (N, 3) `targets`.

        A row that names no impression raises DataError.
        """
        session = self.impression_sessions()
        keys = np.stack((self.user_id[session], self.session_id[session], self.serp_id), axis=1)
        by_key = np.lexsort(keys.T[::-1])
        keys = keys[by_key].view(_KEY)[:, 0]
        wanted = np.ascontiguousarray(targets, dtype=np.int64).view(_KEY)[:, 0]
        at = np.searchsorted(keys, wanted)
        found = at < len(keys)
        found[found] = keys[at[found]] == wanted[found]
        if not found.all():
            raise DataError("target user={} session={} serp={} not found in the "
                            "parsed sessions".format(*wanted[np.argmin(found)].item()))
        return by_key[at]

    def term_tuples(self, rows: np.ndarray) -> list[tuple[int, ...]]:
        """The query terms of impression rows `rows`."""
        n = self.n_terms[rows]
        at = _ranges(np.cumsum(self.n_terms)[rows] - n, n)
        return list(map(tuple, _split(self.terms[at].tolist(), n)))

    def term_variants(self, rows: np.ndarray) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """A code for the query terms of each impression row in `rows`, and the terms of each code.

        Rows with equal term lists share a code. The rows' padded term
        arrays are sorted once, and a tuple is built only per code.
        """
        n = self.n_terms[rows]
        padded = np.zeros((len(rows), int(n.max(initial=0))), dtype=np.int64)
        padded[np.arange(padded.shape[1]) < n[:, None]] = self.terms[
            _ranges(np.cumsum(self.n_terms)[rows] - n, n)]
        order = np.lexsort(np.vstack([padded.T[::-1], n]))
        padded, n = padded[order], n[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (n[1:] != n[:-1]) | (padded[1:] != padded[:-1]).any(axis=1)
        codes = np.empty(len(rows), dtype=np.int64)
        codes[order] = np.cumsum(first) - 1
        distinct = [tuple(terms[:k]) for terms, k in zip(padded[first].tolist(), n[first].tolist())]
        return codes, distinct


def _int_field(value: str, line_no: int, name: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise LogParseError(line_no, f"bad integer for {name}: {value!r}") from None
    if not -2**63 <= number < 2**63:  # the session columns hold int64
        raise LogParseError(line_no, f"{name} {value!r} does not fit in int64")
    return number


def _parse_terms(value: str, line_no: int) -> tuple[int, ...]:
    if not value:
        return ()
    return tuple(_int_field(t, line_no, "term") for t in value.split(","))


def parse_line(line: str, line_no: int = 1) -> LogRecord:
    """Parse one tab-separated log line into a record.

    Metadata lines come in two accepted layouts: the plain challenge form
    ``sid  M  day  user`` and a padded form with an extra column before the
    type marker, ``sid  t  M  day  user``. Output always uses the plain form.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) == 4 and fields[1] == "M":
        return SessionMeta(
            session_id=_int_field(fields[0], line_no, "session_id"),
            day=_int_field(fields[2], line_no, "day"),
            user_id=_int_field(fields[3], line_no, "user_id"),
        )
    if len(fields) == 5 and fields[2] == "M":
        return SessionMeta(
            session_id=_int_field(fields[0], line_no, "session_id"),
            day=_int_field(fields[3], line_no, "day"),
            user_id=_int_field(fields[4], line_no, "user_id"),
        )
    if len(fields) >= 3 and fields[2] in ("Q", "T"):
        if len(fields) < 6:
            raise LogParseError(line_no, "query record needs at least 6 fields")
        pairs = fields[6:]
        if len(pairs) != SERP_SIZE:
            raise StructuralError(
                line_no, f"expected {SERP_SIZE} results, got {len(pairs)}"
            )
        results = []
        for pair in pairs:
            url_s, sep, dom_s = pair.partition(",")
            if not sep:
                raise LogParseError(line_no, f"bad url,domain pair: {pair!r}")
            results.append(
                (
                    _int_field(url_s, line_no, "url_id"),
                    _int_field(dom_s, line_no, "domain_id"),
                )
            )
        return QueryAction(
            session_id=_int_field(fields[0], line_no, "session_id"),
            time_passed=_int_field(fields[1], line_no, "time_passed"),
            serp_id=_int_field(fields[3], line_no, "serp_id"),
            is_test=fields[2] == "T",
            query_id=_int_field(fields[4], line_no, "query_id"),
            terms=_parse_terms(fields[5], line_no),
            results=tuple(results),
        )
    if len(fields) == 5 and fields[2] == "C":
        return ClickAction(
            session_id=_int_field(fields[0], line_no, "session_id"),
            time_passed=_int_field(fields[1], line_no, "time_passed"),
            serp_id=_int_field(fields[3], line_no, "serp_id"),
            url_id=_int_field(fields[4], line_no, "url_id"),
        )
    raise LogParseError(line_no, f"unrecognized record: {line!r}")


def parse_log(lines: Iterable[str]) -> list[LogRecord]:
    """Parse a stream of log lines, in order. Blank lines are skipped."""
    records = []
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        records.append(parse_line(line, line_no))
    return records


def format_record(record: LogRecord) -> str:
    """Serialize a record to its canonical tab-separated line."""
    if isinstance(record, SessionMeta):
        return f"{record.session_id}\tM\t{record.day}\t{record.user_id}"
    if isinstance(record, QueryAction):
        kind = "T" if record.is_test else "Q"
        terms = ",".join(str(t) for t in record.terms)
        pairs = "\t".join(f"{u},{d}" for u, d in record.results)
        return (
            f"{record.session_id}\t{record.time_passed}\t{kind}\t"
            f"{record.serp_id}\t{record.query_id}\t{terms}\t{pairs}"
        )
    return (
        f"{record.session_id}\t{record.time_passed}\tC\t"
        f"{record.serp_id}\t{record.url_id}"
    )


def sessionize(records: Iterable[LogRecord]) -> list[Session]:
    """Group records into sessions, attaching clicks to their impressions.

    Raises DataError when an action references an unknown session or SERP,
    when a clicked url is not among the impression's documents, or when a
    serp_id repeats within a session.
    """
    sessions: dict[int, Session] = {}
    by_serp: dict[tuple[int, int], Impression] = {}
    for record in records:
        if isinstance(record, SessionMeta):
            if record.session_id in sessions:
                raise DataError(f"duplicate session metadata: {record.session_id}")
            sessions[record.session_id] = Session(
                session_id=record.session_id,
                user_id=record.user_id,
                day=record.day,
            )
        elif isinstance(record, QueryAction):
            session = sessions.get(record.session_id)
            if session is None:
                raise DataError(f"query for unknown session {record.session_id}")
            key = (record.session_id, record.serp_id)
            if key in by_serp:
                raise DataError(
                    f"duplicate serp {record.serp_id} in session {record.session_id}"
                )
            imp = Impression(
                serp_id=record.serp_id,
                query_id=record.query_id,
                terms=record.terms,
                documents=tuple(u for u, _ in record.results),
                domains=tuple(d for _, d in record.results),
                time_passed=record.time_passed,
                is_test=record.is_test,
            )
            session.impressions.append(imp)
            by_serp[key] = imp
        else:
            if record.session_id not in sessions:
                raise DataError(f"click for unknown session {record.session_id}")
            imp = by_serp.get((record.session_id, record.serp_id))
            if imp is None:
                raise DataError(
                    f"click references unknown serp {record.serp_id} "
                    f"in session {record.session_id}"
                )
            if record.url_id not in imp.documents:
                raise DataError(
                    f"click on url {record.url_id} not shown on serp "
                    f"{record.serp_id} of session {record.session_id}"
                )
            imp.clicks.append((record.url_id, record.time_passed))
    result = list(sessions.values())
    for session in result:
        session.impressions.sort(key=lambda imp: imp.time_passed)
        for imp in session.impressions:
            imp.clicks.sort(key=lambda c: c[1])
    return result


def _session_action_times(session: Session) -> list[int]:
    times = [imp.time_passed for imp in session.impressions]
    for imp in session.impressions:
        times.extend(t for _, t in imp.clicks)
    times.sort()
    return times


def _last_click(session: Session) -> tuple[int, int] | None:
    """(serp_id, url_id) of the chronologically last click, None if no clicks."""
    best: tuple[int, int, int] | None = None  # (time, serp_id, url_id)
    for imp in session.impressions:
        for url_id, t in imp.clicks:
            if best is None or t >= best[0]:
                best = (t, imp.serp_id, url_id)
    if best is None:
        return None
    return best[1], best[2]


def label_impression(imp: Impression, session: Session) -> list[Grade]:
    """Grade each of the impression's documents from its clicks.

    Dwell is measured to the next logged action of any kind in the session.
    A document clicked several times is graded by its longest dwell. The
    document that received the session's last click is graded R2 outright.
    """
    return _labels(imp, _session_action_times(session), _last_click(session))


def _labels(imp: Impression, times: list[int], last: tuple[int, int] | None) -> list[Grade]:
    """`label_impression` given its session's sorted action times and last click."""

    def dwell_of(t: int) -> int | None:
        idx = bisect.bisect_right(times, t)
        if idx == len(times):
            return None
        return times[idx] - t

    max_dwell: dict[int, int] = {}
    clicked: set[int] = set()
    for url_id, t in imp.clicks:
        clicked.add(url_id)
        d = dwell_of(t)
        if d is not None and d > max_dwell.get(url_id, -1):
            max_dwell[url_id] = d

    labels = []
    for doc in imp.documents:
        if doc not in clicked:
            labels.append(Grade.NO_CLICK)
        elif last == (imp.serp_id, doc):
            labels.append(Grade.R2)
        else:
            # Clicked, but every dwell unresolved (no later action): the
            # last-click rule did not apply, so fall back to grade R0.
            d = max_dwell.get(doc, 0)
            if d < DWELL_SHORT:
                labels.append(Grade.R0)
            elif d < DWELL_LONG:
                labels.append(Grade.R1)
            else:
                labels.append(Grade.R2)
    return labels


def label_sessions(sessions: Iterable[Session]) -> None:
    """Attach labels to every impression, in place."""
    for session in sessions:
        times, last = _session_action_times(session), _last_click(session)
        for imp in session.impressions:
            imp.labels = _labels(imp, times, last)


# A log line that `parse_line` reads, held strictly: every number plain ASCII
# digits, few enough to fit int64; a query's terms may be empty.
_ID = "[0-9]{1,18}"
_LINE = re.compile(
    rf"{_ID}\t(?:M\t{_ID}\t{_ID}|{_ID}\t(?:M\t{_ID}\t{_ID}|C\t{_ID}\t{_ID}"
    rf"|[QT]\t{_ID}\t{_ID}\t(?:{_ID}(?:,{_ID})*)?" + rf"\t{_ID},{_ID}" * SERP_SIZE + r"))\n")
# Token codes of the kind markers and of a line's end; numbers are never negative.
_META, _QUERY, _TEST, _CLICK, _END = -1, -2, -3, -4, -5
_CHUNK_LINES = 1 << 14


def _tokens(text: str) -> np.ndarray | None:
    """Whole log lines `text` as int64 tokens, each line's ending in `_END`.

    None unless every line matches `_LINE` and every token is read.
    """
    if _LINE.sub("", text):  # anything left over is part of a line that does not match
        return None
    data = text.encode()
    for mark, code in (b"M", _META), (b"Q", _QUERY), (b"T", _TEST), (b"C", _CLICK):
        data = data.replace(mark, b"%d" % code)
    data = data.replace(b",", b" ").replace(b"\n", b" %d\n" % _END)
    tokens = np.fromstring(data, dtype=np.int64, sep=" ")
    # numpy before 2.0 only warns where it stops reading, and returns the tokens
    # before: then the last lines' `_END` tokens are missing.
    return tokens if np.count_nonzero(tokens == _END) == text.count("\n") else None


def _find(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray | None:
    """The index in `keys` of each of `wanted`; None if a key repeats or one is missing."""
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any() or (wanted.size and not keys.size):
        return None
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return order[at] if (keys[at] == wanted).all() else None


def parse_columns(lines: Iterable[str]) -> SessionColumns | None:
    """The labeled sessions of log `lines` as `SessionColumns`, built by array passes.

    `lines` are read as a text file yields them, in chunks. None when the log
    is not canonical: a line that does not match `_LINE`, a blank line, a last
    line without its newline, a duplicate session or SERP, an action before
    its session's metadata, a click before its query or on a URL the query did
    not show, or times or SERP ids too large to pack two to an int64. The
    line-by-line path (`parse_log`, `sessionize`, `label_sessions`) then
    gives the result or the error.
    """
    lines, parts = iter(lines), []
    for chunk in iter(lambda: list(islice(lines, _CHUNK_LINES)), []):
        text = "".join(chunk)
        if text.count("\n") != len(chunk) or not all(map(str.endswith, chunk, repeat("\n"))):
            return None
        parts.append(_tokens(text))
        if parts[-1] is None:
            return None
    if not parts:
        return None
    tok = np.concatenate(parts)
    del parts

    end = np.flatnonzero(tok == _END)
    start = np.r_[0, end[:-1] + 1]
    plain = tok[start + 1] == _META
    kind = np.where(plain, _META, tok[start + 2])
    meta, click = kind == _META, kind == _CLICK
    query = ~(meta | click)
    sm, sq, sc = start[meta] + ~plain[meta], start[query], start[click]
    m_line, q_line, c_line = map(np.flatnonzero, (meta, query, click))

    # Sessions stay in metadata order; each action follows its session's metadata.
    session_id = tok[start[meta]]
    q_session, c_session = _find(session_id, tok[sq]), _find(session_id, tok[sc])
    if (q_session is None or c_session is None or (m_line[q_session] > q_line).any()
            or (m_line[c_session] > c_line).any()):
        return None
    # (session, time) and (session, serp) pairs sort as one int64: major * width + minor.
    t_width = int(tok[np.r_[sq, sc] + 1].max(initial=0)) + 1
    s_width = int(tok[np.r_[sq, sc] + 3].max(initial=0)) + 1
    if max(len(session_id), len(sq)) * max(t_width, s_width) >= 2**63:
        return None

    # Impressions by (session, time, line); clicks join them by (session, serp).
    imp = np.argsort(q_session * t_width + tok[sq + 1], kind="stable")
    sq, eq, q_session, q_line = sq[imp], end[query][imp], q_session[imp], q_line[imp]
    c_row = _find(q_session * s_width + tok[sq + 3], c_session * s_width + tok[sc + 3])
    if c_row is None or (q_line[c_row] > c_line).any():
        return None
    clk = np.argsort(c_row * t_width + tok[sc + 1], kind="stable")  # (row, time, line)
    sc, c_row, c_session = sc[clk], c_row[clk], c_session[clk]
    c_time, c_url = tok[sc + 1], tok[sc + 4]
    pairs = tok[(eq - 2 * SERP_SIZE)[:, None] + np.arange(2 * SERP_SIZE)]
    documents = pairs[:, 0::2]
    shown = documents[c_row] == c_url[:, None]
    if not shown.any(axis=1).all():
        return None

    # Dwell runs to the session's next action; the session's last click by
    # (time, position) grades R2; a document keeps its best click's grade.
    key = c_session * t_width + c_time
    action = np.sort(np.r_[q_session * t_width + tok[sq + 1], key])
    after = np.append(action, np.iinfo(np.int64).max)[np.searchsorted(action, key, side="right")]
    dwell = np.where(after < (c_session + 1) * t_width, after - key, -1)
    code = GRADES.index(Grade.R0) + (dwell >= DWELL_SHORT) + (dwell >= DWELL_LONG)
    by_time = np.argsort(key, kind="stable")
    code[by_time[np.diff(c_session[by_time], append=-1) != 0]] = GRADES.index(Grade.R2)
    hit, slot = np.nonzero(shown)
    slot += c_row[hit] * SERP_SIZE
    grades = np.zeros((len(sq), SERP_SIZE), np.int8)  # NO_CLICK
    for grade in range(1, len(GRADES)):  # ascending, so the best grade is written last
        grades.reshape(-1)[slot[code[hit] == grade]] = grade

    n_terms = eq - sq - 5 - 2 * SERP_SIZE
    return SessionColumns(
        session_id=session_id, user_id=tok[sm + 3], day=tok[sm + 2],
        n_impressions=np.bincount(q_session, minlength=len(session_id)),
        serp_id=tok[sq + 3], query_id=tok[sq + 4], time_passed=tok[sq + 1],
        is_test=tok[sq + 2] == _TEST, n_terms=n_terms,
        n_clicks=np.bincount(c_row, minlength=len(sq)),
        documents=documents, domains=pairs[:, 1::2], grades=grades,
        terms=tok[_ranges(sq + 5, n_terms)], click_url=c_url, click_time=c_time)


@dataclass
class CorpusStats:
    """Corpus and relevance-grade counts of the session columns."""

    unique_queries: int
    unique_documents: int
    unique_users: int
    training_sessions: int
    test_sessions: int
    training_clicks: int
    total_records: int
    grade_counts: dict  # period -> grade name -> count

    def as_dict(self) -> dict:
        return asdict(self)


def corpus_stats(columns: SessionColumns, train_days: int) -> CorpusStats:
    """Count users, queries, documents, sessions, clicks, records and grades.

    Sessions of days 1..train_days form the training period, later ones the
    test period. Records are the log lines the sessions serialize to: one
    per session, impression and click. Grades come from the impressions'
    grade codes; unlabeled impressions add none.
    """
    training = columns.day <= train_days
    imp_training = training[columns.impression_sessions()]
    n_training = int(training.sum())
    return CorpusStats(
        unique_queries=len(np.unique(columns.query_id)),
        unique_documents=len(np.unique(columns.documents)),
        unique_users=len(np.unique(columns.user_id)),
        training_sessions=n_training,
        test_sessions=len(training) - n_training,
        training_clicks=int(columns.n_clicks[imp_training].sum()),
        total_records=len(columns.session_id) + len(columns.serp_id) + len(columns.click_url),
        grade_counts={"training": count_grades(columns.grades[imp_training]),
                      "test": count_grades(columns.grades[~imp_training])},
    )
