
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from persorank.logs import DataError, Grade, Impression, Session, SessionColumns
from persorank.partition import (
    ROLES,
    order_sessions,
    rank_sessions,
    read_targets,
    select_targets,
    session_ranks,
    write_targets,
)

from oracles import oracle_targets


def imp(serp, time, gains, is_test=False, query=5):
    grades = [
        {0: Grade.NO_CLICK, 1: Grade.R1, 2: Grade.R2}[g] for g in gains
    ]
    return Impression(
        serp_id=serp,
        query_id=query,
        terms=(1,),
        documents=tuple(range(10)),
        domains=tuple(range(10)),
        time_passed=time,
        is_test=is_test,
        labels=grades,
    )


def sess(sid, user, day, imps):
    return Session(session_id=sid, user_id=user, day=day, impressions=list(imps))


ZERO = [0] * 10
ONE_REL = [2] + [0] * 9


class TestSelection:
    def test_user_without_relevant_training_impression_absent_from_train(self):
        sessions = [
            sess(1, 7, day=5, imps=[imp(0, 0, ZERO), imp(1, 50, ZERO)]),
            sess(2, 7, day=29, imps=[imp(0, 0, ONE_REL, is_test=True)]),
        ]
        targets, report = select_targets(SessionColumns.of(sessions), train_days=27, seed=0)
        assert targets.train.tolist() == []
        assert report.users_without_train == 1
        assert targets.test.tolist() == [[7, 2, 0]]

    def test_test_session_with_only_the_test_query_has_no_validation(self):
        sessions = [
            sess(1, 7, day=3, imps=[imp(0, 0, ONE_REL)]),
            sess(2, 7, day=28, imps=[imp(0, 0, ONE_REL, is_test=True)]),
        ]
        targets, report = select_targets(SessionColumns.of(sessions), train_days=27, seed=0)
        assert targets.validation.tolist() == []
        assert report.users_without_validation == 1

    def test_training_target_is_last_qualifying_impression_of_latest_day(self):
        sessions = [
            sess(1, 7, day=5, imps=[imp(0, 0, ONE_REL)]),
            sess(2, 7, day=12, imps=[imp(0, 0, ONE_REL)]),
            sess(3, 7, day=27, imps=[imp(0, 0, ONE_REL), imp(1, 40, ZERO)]),
            sess(4, 7, day=29, imps=[imp(0, 0, ONE_REL, is_test=True)]),
        ]
        targets, _ = select_targets(SessionColumns.of(sessions), train_days=27, seed=0)
        # serp 1 on day 27 has no relevant document, so serp 0 qualifies last
        assert targets.train.tolist() == [[7, 3, 0]]

    def test_validation_is_last_qualifier_strictly_before_test(self):
        sessions = [
            sess(1, 7, day=1, imps=[imp(0, 0, ONE_REL)]),
            sess(
                2, 7, day=28,
                imps=[
                    imp(0, 0, ONE_REL),
                    imp(1, 50, ONE_REL),
                    imp(2, 90, ZERO),
                    imp(3, 130, ONE_REL, is_test=True),
                ],
            ),
        ]
        targets, _ = select_targets(SessionColumns.of(sessions), train_days=27, seed=0)
        assert targets.validation.tolist() == [[7, 2, 1]]
        assert targets.test.tolist() == [[7, 2, 3]]

    def test_synthetic_fallback_uses_last_test_period_session(self):
        sessions = [
            sess(1, 7, day=1, imps=[imp(0, 0, ONE_REL)]),
            sess(2, 7, day=30, imps=[imp(0, 0, ONE_REL), imp(1, 60, ZERO)]),
        ]
        targets, _ = select_targets(SessionColumns.of(sessions), train_days=27, seed=0)
        assert targets.test.tolist() == [[7, 2, 1]]

    def test_no_fallback_when_last_session_is_in_training_period(self):
        sessions = [sess(1, 7, day=10, imps=[imp(0, 0, ONE_REL)])]
        targets, report = select_targets(SessionColumns.of(sessions), train_days=27, seed=0)
        assert targets.test.tolist() == []
        assert report.users_without_test == 1

    def test_training_target_day_bound_respected(self):
        sessions = [
            sess(1, 7, day=28, imps=[imp(0, 0, ONE_REL)]),
            sess(2, 7, day=29, imps=[imp(0, 0, ONE_REL, is_test=True)]),
        ]
        targets, _ = select_targets(SessionColumns.of(sessions), train_days=27, seed=0)
        assert targets.train.tolist() == []

    def test_unlabeled_sessions_rejected(self):
        bad = sess(1, 7, day=1, imps=[imp(0, 0, ONE_REL)])
        bad.impressions[0].labels = None
        with pytest.raises(DataError):
            select_targets(SessionColumns.of([bad]), train_days=27, seed=0)


class TestOrdering:
    def test_sorted_by_day(self):
        sessions = [
            sess(3, 7, day=9, imps=[]),
            sess(1, 7, day=2, imps=[]),
            sess(2, 7, day=30, imps=[]),
        ]
        ordered = order_sessions(sessions, seed=0)
        assert [s.session_id for s in ordered[7]] == [1, 3, 2]

    def test_same_seed_same_tie_break(self):
        sessions = [sess(i, 7, day=4, imps=[]) for i in range(1, 8)]
        a = order_sessions(sessions, seed=3)
        b = order_sessions(list(reversed(sessions)), seed=3)
        assert [s.session_id for s in a[7]] == [s.session_id for s in b[7]]

    def test_tie_break_uses_seed(self):
        sessions = [sess(i, 7, day=4, imps=[]) for i in range(1, 30)]
        orders = {
            seed: tuple(s.session_id for s in order_sessions(sessions, seed)[7])
            for seed in range(5)
        }
        assert len(set(orders.values())) > 1

    def test_session_ranks_cover_all_sessions(self, small_corpus):
        ordered = order_sessions(small_corpus.sessions, seed=5)
        ranks = session_ranks(ordered)
        assert len(ranks) == len(small_corpus.sessions)


def order_positions(sessions, seed):
    """Each session's position in its user's `order_sessions` list, in input order."""
    ordered = order_sessions(sessions, seed)
    position = {(user_id, s.session_id): k for user_id, user_sessions in ordered.items()
                for k, s in enumerate(user_sessions)}
    return [position[(s.user_id, s.session_id)] for s in sessions]


# Few users and days, so sessions often share a day and need the tie-break.
@st.composite
def small_logs(draw):
    ids = draw(st.lists(st.integers(-2**62, 2**62), unique=True, max_size=30))
    sessions = []
    for sid in ids:
        imps = [imp(serp, draw(st.integers(0, 3)) * 40,
                    draw(st.sampled_from([ZERO, ONE_REL, [1] * 10])),
                    is_test=draw(st.integers(0, 5)) == 0)
                for serp in range(draw(st.integers(0, 3)))]
        sessions.append(sess(sid, draw(st.integers(0, 3)), draw(st.integers(25, 30)), imps))
    return sessions


class TestRanks:
    def test_array_ranks_equal_order_sessions_positions(self, small_corpus):
        for seed in range(5):
            ranks = rank_sessions(small_corpus.columns, seed)
            assert ranks.tolist() == order_positions(small_corpus.sessions, seed)

    @given(small_logs(), st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_array_ranks_equal_order_sessions_positions_on_ties(self, sessions, seed):
        ranks = rank_sessions(SessionColumns.of(sessions), seed)
        assert ranks.tolist() == order_positions(sessions, seed)

    @given(small_logs(), st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_targets_follow_the_partition_rules(self, sessions, seed):
        targets, report = select_targets(SessionColumns.of(sessions), train_days=27, seed=seed)
        want = oracle_targets(sessions, 27, seed)
        for k, role in enumerate(ROLES):
            assert targets.by_role(role).tolist() == [[user_id, *keys[k]]
                                                      for user_id, keys in want.items() if keys[k]]
        assert report.n_users == len(want)
        assert report.users_without_sessions == sum(
            not any(s.impressions for s in sessions if s.user_id == u) for u in want)


class TestCorpusInvariants:
    def test_all_train_and_validation_targets_have_relevant_docs(self, small_corpus):
        lookup = {
            (s.user_id, s.session_id, i.serp_id): i
            for s in small_corpus.sessions
            for i in s.impressions
        }
        for role in ("train", "validation"):
            refs = small_corpus.targets.by_role(role)
            assert len(refs), f"no {role} targets selected"
            for ref in refs.tolist():
                imp = lookup[tuple(ref)]
                assert any(g.gain > 0 for g in imp.labels)

    def test_validation_strictly_precedes_test_in_same_session(self, small_corpus):
        tests = {t[0]: tuple(t) for t in small_corpus.targets.test.tolist()}
        lookup = {
            (s.user_id, s.session_id, i.serp_id): i
            for s in small_corpus.sessions
            for i in s.impressions
        }
        for ref in map(tuple, small_corpus.targets.validation.tolist()):
            test_ref = tests[ref[0]]
            assert ref[1] == test_ref[1]
            v = lookup[ref]
            t = lookup[test_ref]
            assert v.time_passed < t.time_passed

    def test_training_targets_within_training_days(self, small_corpus):
        days = {s.session_id: s.day for s in small_corpus.sessions}
        for _, session_id, _ in small_corpus.targets.train.tolist():
            assert days[session_id] <= small_corpus.train_days

    def test_no_impression_in_two_roles(self, small_corpus):
        seen = set()
        for role in ("train", "validation", "test"):
            for key in map(tuple, small_corpus.targets.by_role(role).tolist()):
                assert key not in seen
                seen.add(key)

    def test_deterministic_target_set(self, small_corpus):
        again, _ = select_targets(
            small_corpus.columns,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        for role in ROLES:
            assert np.array_equal(again.by_role(role), small_corpus.targets.by_role(role))

    def test_targets_csv_round_trip_and_bytes(self, small_corpus, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_targets(small_corpus.targets, a)
        write_targets(small_corpus.targets, b)
        assert a.read_bytes() == b.read_bytes()
        loaded = read_targets(a)
        for role in ROLES:
            assert loaded.by_role(role).dtype == np.int64
            assert np.array_equal(loaded.by_role(role), small_corpus.targets.by_role(role))
