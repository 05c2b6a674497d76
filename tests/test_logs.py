import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persorank.cache import load_columns, load_sessions, save_sessions
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
    parse_line,
    parse_log,
    sessionize,
)


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
        from persorank.synth import session_records

        lines = []
        for session in small_corpus.sessions[:50]:
            lines.extend(format_record(r) for r in session_records(session))
        records = parse_log(lines)
        again = parse_log(format_record(r) for r in records)
        assert again == records


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
