import contextlib
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persorank.cache import load_columns, load_sessions, save_sessions
from persorank.cli import main
from persorank.logs import (
    ClickAction,
    DataError,
    Grade,
    Impression,
    LogParseError,
    QueryAction,
    Session,
    SessionColumns,
    SessionMeta,
    StructuralError,
    format_record,
    label_impression,
    label_sessions,
    parse_columns,
    parse_line,
    parse_log,
    sessionize,
)
from persorank.synth import GenConfig, generate_lines


def q_line(session=1, time=0, kind="Q", serp=0, query=7, terms="1,2", n_results=10):
    pairs = "\t".join(f"{100 + i},{200 + i}" for i in range(n_results))
    return f"{session}\t{time}\t{kind}\t{serp}\t{query}\t{terms}\t{pairs}"


class TestParse:
    def test_meta_padded_layout(self):
        rec = parse_line("1\t5\tM\t3\t100")
        assert rec == SessionMeta(session_id=1, day=3, user_id=100)

    def test_meta_plain_layout(self):
        rec = parse_line("1\tM\t3\t100")
        assert rec == SessionMeta(session_id=1, day=3, user_id=100)

    def test_query_with_ten_results(self):
        rec = parse_line(q_line())
        assert isinstance(rec, QueryAction)
        assert len(rec.results) == 10
        assert rec.results[0] == (100, 200)
        assert rec.terms == (1, 2)
        assert not rec.is_test

    def test_query_with_nine_results_is_structural_error(self):
        with pytest.raises(StructuralError) as err:
            parse_line(q_line(n_results=9), line_no=17)
        assert err.value.line_no == 17

    def test_test_query_flag(self):
        rec = parse_line(q_line(kind="T"))
        assert rec.is_test

    def test_click(self):
        rec = parse_line("4\t55\tC\t2\t101")
        assert rec == ClickAction(session_id=4, time_passed=55, serp_id=2, url_id=101)

    def test_malformed_line_carries_line_number(self):
        with pytest.raises(LogParseError) as err:
            parse_line("1\tx\tC\t2\t101", line_no=9)
        assert err.value.line_no == 9

    def test_unknown_type(self):
        with pytest.raises(LogParseError):
            parse_line("1\t2\tZ\t3")

    def test_bad_result_pair(self):
        line = q_line().replace("100,200", "100;200")
        with pytest.raises(LogParseError):
            parse_line(line)

    def test_parse_log_skips_blank_lines(self):
        records = parse_log(["1\tM\t3\t100\n", "\n", q_line() + "\n"])
        assert len(records) == 2

    def test_parse_log_reports_failing_line(self):
        with pytest.raises(LogParseError) as err:
            parse_log(["1\tM\t3\t100", "garbage"])
        assert err.value.line_no == 2

    def test_round_trip(self):
        lines = [
            "1\tM\t3\t100",
            q_line(),
            q_line(time=40, kind="T", serp=1, terms=""),
            "1\t55\tC\t0\t105",
        ]
        records = parse_log(lines)
        again = parse_log(format_record(r) for r in records)
        assert again == records
        # the padded metadata layout canonicalizes to the plain one
        assert format_record(parse_line("1\t5\tM\t3\t100")) == "1\tM\t3\t100"


ids = st.integers(min_value=0, max_value=10**12)
log_records = st.one_of(
    st.builds(SessionMeta, session_id=ids, day=ids, user_id=ids),
    st.builds(
        QueryAction,
        session_id=ids,
        time_passed=ids,
        serp_id=ids,
        is_test=st.booleans(),
        query_id=ids,
        terms=st.lists(ids, max_size=4).map(tuple),
        results=st.lists(st.tuples(ids, ids), min_size=10, max_size=10).map(tuple),
    ),
    st.builds(ClickAction, session_id=ids, time_passed=ids, serp_id=ids, url_id=ids),
)


@settings(max_examples=300)
@given(log_records)
def test_format_then_parse_gives_back_the_record(record):
    assert parse_line(format_record(record)) == record


class TestSessionize:
    def test_single_query_no_clicks(self):
        sessions = sessionize(parse_log(["1\tM\t2\t50", q_line()]))
        assert len(sessions) == 1
        session = sessions[0]
        assert session.user_id == 50 and session.day == 2
        assert len(session.impressions) == 1
        assert session.impressions[0].clicks == []

    def test_two_queries_ordered_by_time(self):
        lines = ["1\tM\t2\t50", q_line(time=90, serp=1), q_line(time=10, serp=0)]
        sessions = sessionize(parse_log(lines))
        assert [i.serp_id for i in sessions[0].impressions] == [0, 1]

    def test_click_attaches_to_matching_serp(self):
        lines = ["1\tM\t2\t50", q_line(serp=0), "1\t20\tC\t0\t103"]
        sessions = sessionize(parse_log(lines))
        assert sessions[0].impressions[0].clicks == [(103, 20)]

    def test_click_unknown_serp(self):
        lines = ["1\tM\t2\t50", q_line(serp=0), "1\t20\tC\t9\t103"]
        with pytest.raises(DataError):
            sessionize(parse_log(lines))

    def test_click_url_not_shown(self):
        lines = ["1\tM\t2\t50", q_line(serp=0), "1\t20\tC\t0\t999"]
        with pytest.raises(DataError):
            sessionize(parse_log(lines))

    def test_action_without_meta(self):
        with pytest.raises(DataError):
            sessionize(parse_log([q_line()]))

    def test_duplicate_serp(self):
        with pytest.raises(DataError):
            sessionize(parse_log(["1\tM\t2\t50", q_line(serp=0), q_line(serp=0)]))


def make_session(impressions):
    """impressions: list of (serp, time, clicks) with documents 0..9."""
    session = Session(session_id=1, user_id=9, day=1)
    for serp, time, clicks in impressions:
        session.impressions.append(
            Impression(
                serp_id=serp,
                query_id=5,
                terms=(1,),
                documents=tuple(range(10)),
                domains=tuple(range(10, 20)),
                time_passed=time,
                clicks=list(clicks),
            )
        )
    return session


# Gaps between consecutive actions, dense around the dwell boundaries.
ACTION_GAPS = st.one_of(
    st.sampled_from([1, 48, 49, 50, 51, 398, 399, 400, 401]), st.integers(1, 900)
)


@st.composite
def click_sessions(draw):
    """A session of up to three SERPs and clicks, every action at its own time."""
    session = make_session([(0, 0, [])])
    time = 0
    for _ in range(draw(st.integers(0, 12))):
        time += draw(ACTION_GAPS)
        if len(session.impressions) < 3 and draw(st.booleans()):
            session.impressions.append(make_session([(len(session.impressions), time, [])])
                                       .impressions[0])
        else:
            imp = draw(st.sampled_from(session.impressions))
            imp.clicks.append((draw(st.integers(0, 9)), time))
    return session


def readme_grades(session):
    """Grades by the README rule, written apart from `label_impression`.

    Dwell runs from a click to the next action of the session. Action times
    are distinct, so only the session's final click has no next action, and
    the final click grades R2 whatever its dwell.
    """
    times = sorted([imp.time_passed for imp in session.impressions]
                   + [t for imp in session.impressions for _, t in imp.clicks])
    final = max(((t, imp.serp_id, doc) for imp in session.impressions
                 for doc, t in imp.clicks), default=None)
    grades = []
    for imp in session.impressions:
        labels = []
        for doc in imp.documents:
            clicks = [t for d, t in imp.clicks if d == doc]
            if not clicks:
                labels.append(Grade.NO_CLICK)
            elif final[1:] == (imp.serp_id, doc):
                labels.append(Grade.R2)
            else:
                longest = max(min(a for a in times if a > t) - t for t in clicks)
                labels.append(Grade.R0 if longest < 50 else Grade.R1 if longest < 400
                              else Grade.R2)
        grades.append(labels)
    return grades


@given(click_sessions())
@settings(max_examples=300)
def test_labels_follow_the_readme_rule_across_dwell_boundaries(session):
    label_sessions([session])
    assert [imp.labels for imp in session.impressions] == readme_grades(session)
    assert [label_impression(imp, session) for imp in session.impressions] == readme_grades(session)


class TestLabeling:
    def test_dwell_49_is_r0(self):
        # a later click elsewhere keeps the last-click rule off this document
        session = make_session([(0, 0, [(3, 10)]), (1, 59, [(5, 70)])])
        labels = label_impression(session.impressions[0], session)
        assert labels[3] is Grade.R0

    def test_dwell_50_is_r1(self):
        session = make_session([(0, 0, [(3, 10)]), (1, 60, [(5, 70)])])
        labels = label_impression(session.impressions[0], session)
        assert labels[3] is Grade.R1

    def test_dwell_399_is_r1(self):
        session = make_session([(0, 0, [(3, 10)]), (1, 409, [(5, 500)])])
        labels = label_impression(session.impressions[0], session)
        assert labels[3] is Grade.R1

    def test_dwell_400_is_r2(self):
        session = make_session([(0, 0, [(3, 10)]), (1, 410, [(5, 500)])])
        labels = label_impression(session.impressions[0], session)
        assert labels[3] is Grade.R2

    def test_last_click_without_next_action_is_r2(self):
        session = make_session([(0, 0, [(3, 10)])])
        labels = label_impression(session.impressions[0], session)
        assert labels[3] is Grade.R2

    def test_last_click_overrides_short_dwell(self):
        # last click of the session has dwell 5 via a same-impression click? no:
        # the last click by time gets R2 even though an earlier click was longer
        session = make_session([(0, 0, [(2, 10), (4, 500)])])
        labels = label_impression(session.impressions[0], session)
        assert labels[2] is Grade.R2  # dwell 490
        assert labels[4] is Grade.R2  # session's last click

    def test_never_clicked_is_no_click(self):
        session = make_session([(0, 0, [(3, 10)]), (1, 100, [(5, 120)])])
        labels = label_impression(session.impressions[0], session)
        assert labels[0] is Grade.NO_CLICK
        assert labels[3] is Grade.R1  # dwell 90

    def test_multi_click_takes_max_dwell(self):
        # doc 3 clicked twice: dwell 20 (to second click) then 450 (to next query)
        session = make_session(
            [(0, 0, [(3, 10), (3, 30)]), (1, 480, [(5, 490)])]
        )
        labels = label_impression(session.impressions[0], session)
        assert labels[3] is Grade.R2

    def test_multi_click_max_dwell_short(self):
        session = make_session(
            [(0, 0, [(3, 10), (3, 30)]), (1, 75, [(5, 80)])]
        )
        # dwells 20 and 45: max 45 -> R0
        labels = label_impression(session.impressions[0], session)
        assert labels[3] is Grade.R0

    def test_zero_click_impression(self):
        session = make_session([(0, 0, [])])
        labels = label_impression(session.impressions[0], session)
        assert labels == [Grade.NO_CLICK] * 10

    def test_label_counts_sum_to_ten(self):
        session = make_session([(0, 0, [(1, 5), (7, 200)]), (1, 300, [])])
        for imp in session.impressions:
            labels = label_impression(imp, session)
            assert len(labels) == 10

    def test_last_click_override_held_by_one_document(self, small_corpus):
        from persorank.logs import _last_click

        for session in small_corpus.sessions[:300]:
            clicks = sum(len(i.clicks) for i in session.impressions)
            last = _last_click(session)
            if clicks == 0:
                assert last is None
            else:
                serp_id, url = last
                imp = next(i for i in session.impressions if i.serp_id == serp_id)
                assert imp.labels[imp.documents.index(url)] is Grade.R2

    def test_labeling_is_idempotent(self):
        session = make_session([(0, 0, [(3, 10)]), (1, 60, [(5, 70)])])
        first = label_impression(session.impressions[0], session)
        second = label_impression(session.impressions[0], session)
        assert first == second

    def test_labeling_ignores_other_sessions(self):
        session = make_session([(0, 0, [(3, 10)]), (1, 60, [(5, 70)])])
        other = make_session([(0, 0, [(2, 3)])])
        before = label_impression(session.impressions[0], session)
        label_sessions([other])
        after = label_impression(session.impressions[0], session)
        assert before == after

    def test_grade_gains(self):
        assert [g.gain for g in (Grade.NO_CLICK, Grade.R0, Grade.R1, Grade.R2)] == [
            0, 0, 1, 2,
        ]

    def test_round_trip_of_generated_corpus(self, small_corpus):
        lines, _ = generate_lines(small_corpus.cfg)
        records = parse_log(lines)
        assert [format_record(r) for r in records] == lines


# Ids span the int64 range the cache stores; small ones make repeats likely.
IDS = st.one_of(st.integers(0, 3), st.integers(-2**62, 2**62))


@st.composite
def cached_impressions(draw):
    documents = tuple(draw(st.lists(IDS, min_size=10, max_size=10)))
    clicks = draw(st.lists(st.tuples(st.sampled_from(documents), IDS), max_size=4))
    return Impression(
        serp_id=draw(IDS),
        query_id=draw(IDS),
        terms=tuple(draw(st.lists(IDS, max_size=4))),
        documents=documents,
        domains=tuple(draw(st.lists(IDS, min_size=10, max_size=10))),
        time_passed=draw(IDS),
        is_test=draw(st.booleans()),
        clicks=clicks,
        labels=draw(st.none() | st.lists(st.sampled_from(list(Grade)), min_size=10,
                                         max_size=10)),
    )


cached_sessions = st.lists(st.builds(Session, IDS, IDS, IDS,
                                     st.lists(cached_impressions(), max_size=4)), max_size=5)


def saved_and_loaded(sessions):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.cache"
        save_sessions(sessions, path)
        return load_sessions(path)


class TestSessionCache:
    @given(cached_sessions)
    @settings(max_examples=150)
    def test_round_trip(self, sessions):
        assert saved_and_loaded(sessions) == sessions

    def test_round_trip_of_each_edge_case(self):
        docs = (2**62, 7, 7, -(2**62), 0, 1, 2, 3, 4, 5)  # document 7 listed twice
        imp = Impression(serp_id=2**62, query_id=-1, terms=(), documents=docs,
                         domains=tuple(range(10)), time_passed=-(2**62), is_test=True,
                         clicks=[(7, 5), (7, 9), (2**62, 9)])  # url 7 clicked twice
        labeled = Impression(1, 2, (3, 3), tuple(range(10)), tuple(range(10)), 4,
                             labels=[Grade.R2] + [Grade.NO_CLICK] * 9)
        sessions = [Session(2**62, -(2**62), 30, [imp, labeled]), Session(1, 1, 1, []),
                    Session(3, 1, 2, [labeled] * 4)]
        assert imp.labels is None
        assert saved_and_loaded(sessions) == sessions
        assert saved_and_loaded([]) == []

    def test_columns_of_the_generated_corpus(self, small_corpus, tmp_path):
        path = tmp_path / "s.cache"
        save_sessions(small_corpus.sessions, path)
        with open(path, "rb") as fh:
            assert fh.read(16) == b"PRNK.SESSIONS.2\n"
        columns = load_columns(path)
        for name, array in small_corpus.columns.arrays().items():
            loaded = getattr(columns, name)
            assert (loaded.dtype, loaded.shape) == (array.dtype, array.shape), name
            assert np.array_equal(loaded, array), name
        assert columns.documents.shape == (columns.serp_id.size, 10)
        assert columns.sessions() == small_corpus.sessions

    def test_impressions_must_list_ten_results(self):
        imp = make_session([(0, 0, [])]).impressions[0]
        short = Session(1, 1, 1, [Impression(0, 0, (), imp.documents[:9], imp.domains[:9], 0)])
        with pytest.raises(ValueError):
            SessionColumns.of([short])


# -- the array parser against the line-by-line path --------------------------

TIMES = st.one_of(st.integers(0, 3), st.sampled_from([49, 50, 399, 400, 449, 450]),
                  st.integers(0, 900))


@st.composite
def canonical_logs(draw):
    """A canonical log's lines, each with its newline, sessions interleaved.

    `M` lines are plain or padded; a session's actions follow its `M` line
    and a click follows its query. Small ids make repeated documents, shared
    terms and tied times likely.
    """
    per_session = []
    for sid in draw(st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True)):
        day, user = draw(st.integers(1, 30)), draw(st.integers(0, 5))
        lines = [f"{sid}\t{draw(TIMES)}\tM\t{day}\t{user}" if draw(st.booleans())
                 else f"{sid}\tM\t{day}\t{user}"]
        for serp in draw(st.lists(st.integers(0, 5), max_size=3, unique=True)):
            docs = draw(st.lists(st.integers(0, 12), min_size=10, max_size=10))
            terms = ",".join(map(str, draw(st.lists(st.integers(0, 9), max_size=3))))
            lines.append(f"{sid}\t{draw(TIMES)}\t{draw(st.sampled_from('QT'))}\t{serp}\t"
                         f"{draw(st.integers(0, 9))}\t{terms}\t"
                         + "\t".join(f"{doc},{doc % 4}" for doc in docs))
            lines += [f"{sid}\t{draw(TIMES)}\tC\t{serp}\t{draw(st.sampled_from(docs))}"
                      for _ in range(draw(st.integers(0, 3)))]
        per_session.append(lines)
    slots = draw(st.permutations([k for k, lines in enumerate(per_session) for _ in lines]))
    queues = [iter(lines) for lines in per_session]
    return [next(queues[k]) + "\n" for k in slots]


ACTION = r"^\d+\t\d+\t[QTC]\t"
NUMBER_FORMS = ["+5", " 5", "5_000", "\u0665", "-5", str(2**63 + 5), "9" * 18, "007"]


def line_at(data, lines, pattern):
    found = [i for i, line in enumerate(lines) if re.search(pattern, line)]
    return data.draw(st.sampled_from(found)) if found else None


def set_field(data, lines, pattern, index, value):
    i = line_at(data, lines, pattern)
    if i is not None:
        body = lines[i].rstrip("\r\n")
        fields = body.split("\t")
        if index < len(fields):
            fields[index] = value
            lines[i] = "\t".join(fields) + lines[i][len(body):]


def swap_kind(data, lines):
    i = line_at(data, lines, r"\t[MQTC]\t")
    if i is not None:
        kind = data.draw(st.sampled_from("MQTC"))
        lines[i] = re.sub(r"\t[MQTC]\t", f"\t{kind}\t", lines[i], count=1)


def drop_meta(data, lines):
    i = line_at(data, lines, r"\tM\t")
    if i is not None:
        del lines[i]


def duplicate(pattern):
    def mutate(data, lines):
        i = line_at(data, lines, pattern)
        if i is not None:
            lines.insert(data.draw(st.integers(i + 1, len(lines))), lines[i])
    return mutate


def click_before_query(data, lines):
    i = line_at(data, lines, r"\tC\t")
    fields = lines[i].split("\t") if i is not None else []
    if len(fields) == 5:
        query = re.compile(rf"{re.escape(fields[0])}\t[^\t]*\t[QT]\t{re.escape(fields[3])}\t")
        j = next((j for j, line in enumerate(lines) if query.match(line)), None)
        if j is not None and j < i:
            lines.insert(j, lines.pop(i))


def tie_times(data, lines):
    i = line_at(data, lines, ACTION)
    if i is not None:
        set_field(data, lines, ACTION, 1, lines[i].split("\t")[1])


def number_form(data, lines):
    i = line_at(data, lines, r"[0-9]")
    run = data.draw(st.sampled_from(list(re.finditer("[0-9]+", lines[i]))))
    form = data.draw(st.sampled_from(NUMBER_FORMS))
    lines[i] = lines[i][:run.start()] + form + lines[i][run.end():]


def padded_meta_word(data, lines):
    i = line_at(data, lines, r"\tM\t[^\t]*\t[^\t]*$")
    if i is not None:
        fields = lines[i].split("\t")
        lines[i] = "\t".join([fields[0], "x", "M"] + fields[-2:])


def blank_line(data, lines):
    lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["\n", " \t\n"])))


def crlf(data, lines):
    lines[:] = [line[:-1] + "\r\n" if line.endswith("\n") else line for line in lines]


def no_final_newline(data, lines):
    if lines:
        lines[-1] = lines[-1].rstrip("\n")


MUTATIONS = {
    "swap_kind": swap_kind,
    "drop_meta": drop_meta,
    "duplicate_meta": duplicate(r"\tM\t"),
    "duplicate_serp": duplicate(r"\t[QT]\t"),
    "unshown_url": lambda data, lines: set_field(data, lines, r"\tC\t", 4, "999"),
    "click_before_query": click_before_query,
    "tie_times": tie_times,
    "empty_terms": lambda data, lines: set_field(data, lines, r"\t[QT]\t", 5, ""),
    "odd_terms": lambda data, lines: set_field(data, lines, r"\t[QT]\t", 5, "1,,2"),
    "number_form": number_form,
    "padded_meta_word": padded_meta_word,
    "blank_line": blank_line,
    "crlf": crlf,
    "no_final_newline": no_final_newline,
}


def reference_columns(lines):
    """`SessionColumns.of` over parse_log -> sessionize -> label_sessions, or what it raised."""
    try:
        sessions = sessionize(parse_log(lines))
        label_sessions(sessions)
        return SessionColumns.of(sessions)
    except Exception as exc:  # noqa: BLE001 - any error, to compare with the array parser's
        return exc


def assert_same_columns(got, want):
    assert isinstance(want, SessionColumns), want
    for name, array in want.arrays().items():
        mine = getattr(got, name)
        assert (mine.dtype, mine.shape) == (array.dtype, array.shape), name
        assert mine.tobytes() == array.tobytes(), name


def parse_run(log: Path, out: Path):
    """`persorank parse` of `log`: exit code, stdout, stderr and the cache's bytes, if any."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["parse", "--log", str(log), "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


def check_against_line_by_line(lines) -> bool:
    """The array parser gives None or the line-by-line path's columns, and `persorank
    parse` the same exit code, output and cache bytes either way; True if it gave columns."""
    columns = parse_columns(lines)
    if columns is not None:
        assert_same_columns(columns, reference_columns(lines))
    with tempfile.TemporaryDirectory() as tmp:
        log, out = Path(tmp) / "log.tsv", Path(tmp) / "s.cache"
        log.write_bytes("".join(lines).encode())
        fast = parse_run(log, out)
        with mock.patch("persorank.cli.parse_columns", return_value=None):
            assert parse_run(log, out) == fast
    return columns is not None


@settings(max_examples=200)
@given(canonical_logs())
def test_array_parser_takes_canonical_logs(lines):
    assert check_against_line_by_line(lines)


@settings(max_examples=300)
@given(canonical_logs(), st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=2),
       st.data())
def test_array_parser_agrees_on_mutated_logs(lines, mutations, data):
    for name in mutations:
        MUTATIONS[name](data, lines)
    check_against_line_by_line(lines)


@pytest.mark.parametrize("sessions,fast", [(9, True), (10, False)])
def test_array_parser_packs_keys_only_where_they_fit(sessions, fast):
    """Times up to 10**18 - 1 pack with up to 9 sessions into one int64, not with 10."""
    lines = [f"{sid}\tM\t1\t1\n" for sid in range(sessions)]
    lines += [q_line(session=sid, time=10**18 - 1 - sid) + "\n" for sid in range(sessions)]
    assert check_against_line_by_line(lines) is fast


def generated_lines(users, seed):
    return [line + "\n" for line in generate_lines(GenConfig(n_users=users, rng_seed=seed))[0]]


@pytest.mark.parametrize("users,seed", [(3, 1), (40, 7), (150, 11)])
def test_array_parser_takes_generated_logs(users, seed):
    lines = generated_lines(users, seed)
    columns = parse_columns(iter(lines))
    assert columns is not None
    assert_same_columns(columns, reference_columns(lines))


def test_short_token_read_falls_back(tmp_path, monkeypatch):
    """numpy before 2.0 only warns where `fromstring` stops early and returns what it read."""
    lines = generated_lines(3, 1)
    log = tmp_path / "log.tsv"
    log.write_text("".join(lines))
    read = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda text, **kwargs: read(text, **kwargs)[:-1])
    assert parse_columns(lines) is None
    short = parse_run(log, tmp_path / "s.cache")
    monkeypatch.undo()
    assert short == parse_run(log, tmp_path / "s.cache") and short[0] == 0
