import random

import numpy as np
import pytest

from persorank.contexts import (
    ItemKind,
    assemble_contexts,
    build_from_sessions,
    training_rows,
)
from persorank.logs import DataError, Grade, Impression, Session, SessionColumns
from persorank.partition import order_sessions


def imp(serp, time, query=5, docs=None, clicked=()):
    documents = tuple(docs) if docs else tuple(range(10))
    labels = [
        Grade.R1 if d in clicked else Grade.NO_CLICK for d in documents
    ]
    return Impression(
        serp_id=serp,
        query_id=query,
        terms=(1, 2),
        documents=documents,
        domains=tuple(d % 3 for d in documents),
        time_passed=time,
        labels=labels,
    )


def sess(sid, user, day, imps):
    return Session(session_id=sid, user_id=user, day=day, impressions=list(imps))


class TestBuild:
    def test_lookup_returns_occurrences_of_both_users_chronologically(self):
        sessions = [
            sess(1, 10, day=2, imps=[imp(0, 0, query=42)]),
            sess(2, 11, day=1, imps=[imp(0, 0, query=42)]),
        ]
        qidx, _, _ = build_from_sessions(sessions, train_days=27, seed=0)
        occurrences = qidx.get(42, [])
        assert [(o.user_id, o.day) for o in occurrences] == [(11, 1), (10, 2)]

    def test_lookup_unseen_query_is_empty(self):
        qidx, _, _ = build_from_sessions(
            [sess(1, 10, day=2, imps=[imp(0, 0, query=42)])], train_days=27, seed=0
        )
        assert qidx.get(999, []) == []

    def test_test_period_impressions_are_not_indexed(self):
        sessions = [
            sess(1, 10, day=2, imps=[imp(0, 0, query=42)]),
            sess(2, 10, day=28, imps=[imp(0, 0, query=42)]),
        ]
        qidx, hist, _ = build_from_sessions(sessions, train_days=27, seed=0)
        assert len(qidx.get(42, [])) == 1
        assert len(hist[10]) == 1

    def test_occurrence_counts_match_full_scan(self, small_corpus):
        qidx, _, _ = build_from_sessions(
            small_corpus.sessions,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        scan_counts: dict[int, int] = {}
        for session in small_corpus.sessions:
            if session.day > small_corpus.train_days:
                continue
            for i in session.impressions:
                scan_counts[i.query_id] = scan_counts.get(i.query_id, 0) + 1
        assert {q: len(v) for q, v in qidx.items()} == scan_counts

    def test_occurrences_sorted_by_global_key(self, small_corpus):
        qidx, hist, _ = build_from_sessions(
            small_corpus.sessions,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        for occurrences in list(qidx.values()) + list(hist.values()):
            keys = [(o.day, o.session_id, o.time_passed) for o in occurrences]
            assert keys == sorted(keys)

    def test_training_rows_list_each_query_in_index_order(self, small_corpus):
        qidx, _, _ = build_from_sessions(
            small_corpus.sessions,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        columns = small_corpus.columns
        at, session = training_rows(columns, small_corpus.train_days)
        assert np.array_equal(session, columns.impression_sessions()[at])
        for query, occurrences in qidx.items():
            hit = columns.query_id[at] == query
            assert [(o.session_id, o.time_passed, o.documents) for o in occurrences] == list(zip(
                columns.session_id[session[hit]].tolist(), columns.time_passed[at[hit]].tolist(),
                map(tuple, columns.documents[at[hit]].tolist())))
        assert len(at) == sum(map(len, qidx.values()))

    def test_training_rows_refuse_an_unlabeled_impression(self):
        unlabeled = imp(3, 0)
        unlabeled.labels = None
        columns = SessionColumns.of([sess(1, 10, day=2, imps=[imp(0, 0), unlabeled])])
        with pytest.raises(DataError, match="serp=3 in session 1 is unlabeled"):
            training_rows(columns, train_days=27)
        assert len(training_rows(columns, train_days=1)[0]) == 0  # day 2 is past training

    def test_click_ranks_and_item_ranks(self):
        one = imp(0, 0, docs=[7, 8, 9, 3, 4, 5, 6, 0, 1, 2], clicked=(9, 3))
        sessions = [sess(1, 10, day=1, imps=[one])]
        qidx, _, _ = build_from_sessions(sessions, train_days=27, seed=0)
        occ = qidx.get(5, [])[0]
        assert occ.click_ranks == (3, 4)
        assert occ.item_ranks(ItemKind.DOCUMENT, 9) == (3,)
        assert occ.item_ranks(ItemKind.DOCUMENT, 99) == ()
        # domains repeat: docs 9, 3, 6, 0 share domain 0
        assert occ.item_ranks(ItemKind.DOMAIN, 0) == (3, 4, 7, 8)


class TestAssemble:
    def test_first_ever_query_has_empty_user_contexts(self):
        sessions = [
            sess(1, 10, day=1, imps=[imp(0, 0, query=42)]),
            sess(2, 11, day=1, imps=[imp(0, 0, query=42)]),
        ]
        qidx, hist, ranks = build_from_sessions(sessions, train_days=27, seed=0)
        six = assemble_contexts(10, 42, (ranks[(10, 1)], 0), qidx, hist)
        assert [len(c) for c in six[:4]] == [0, 0, 0, 0]
        assert len(six[4]) == 1 and six[4].occurrences[0].user_id == 11

    def test_query_unseen_by_others_has_empty_global_contexts(self):
        sessions = [
            sess(1, 10, day=1, imps=[imp(0, 0, query=42), imp(1, 60, query=42)]),
        ]
        qidx, hist, ranks = build_from_sessions(sessions, train_days=27, seed=0)
        six = assemble_contexts(10, 42, (ranks[(10, 1)], 60), qidx, hist)
        assert len(six[0]) == 1  # the user's own earlier repetition
        assert len(six[4]) == 0 and len(six[5]) == 0

    def test_item_kinds_alternate(self, small_corpus):
        qidx, hist, ranks = build_from_sessions(
            small_corpus.sessions, small_corpus.train_days, small_corpus.partition_seed
        )
        user_id, session_id, serp_id = small_corpus.targets.validation[0].tolist()
        lookup_imp = {
            (s.user_id, s.session_id, i.serp_id): i
            for s in small_corpus.sessions
            for i in s.impressions
        }
        target = lookup_imp[(user_id, session_id, serp_id)]
        six = assemble_contexts(
            user_id,
            target.query_id,
            (ranks[(user_id, session_id)], target.time_passed),
            qidx,
            hist,
        )
        kinds = [c.kind for c in six]
        assert kinds == [
            ItemKind.DOCUMENT, ItemKind.DOMAIN,
            ItemKind.DOCUMENT, ItemKind.DOMAIN,
            ItemKind.DOCUMENT, ItemKind.DOMAIN,
        ]

    def _random_targets(self, corpus, n, seed):
        rng = random.Random(seed)
        pool = [
            (s, i)
            for s in corpus.sessions
            for i in s.impressions
        ]
        return rng.sample(pool, n)

    def test_against_naive_scan_on_random_targets(self, small_corpus):
        corp = small_corpus
        qidx, hist, ranks = build_from_sessions(
            corp.sessions, corp.train_days, corp.partition_seed
        )
        ordered = order_sessions(corp.sessions, corp.partition_seed)
        for session, target in self._random_targets(corp, 40, seed=99):
            uid = session.user_id
            key = (ranks[(uid, session.session_id)], target.time_passed)
            six = assemble_contexts(uid, target.query_id, key, qidx, hist)

            naive_c1, naive_c3, naive_c5 = [], [], []
            for other_uid, user_sessions in ordered.items():
                for s in user_sessions:
                    if s.day > corp.train_days:
                        continue
                    for i in s.impressions:
                        occ_key = (ranks[(other_uid, s.session_id)], i.time_passed)
                        ident = (other_uid, s.session_id, i.serp_id)
                        if other_uid == uid:
                            if occ_key >= key:
                                continue
                            if i.query_id == target.query_id:
                                naive_c1.append(ident)
                            else:
                                naive_c3.append(ident)
                        elif i.query_id == target.query_id:
                            naive_c5.append(ident)

            def idents(context):
                return sorted(
                    (o.user_id, o.session_id, o.time_passed)
                    for o in context.occurrences
                )

            naive_c1 = sorted((u, s, t) for u, s, t in [
                (u, s, _time_of(corp.sessions, s, sp)) for u, s, sp in naive_c1
            ])
            naive_c3 = sorted((u, s, t) for u, s, t in [
                (u, s, _time_of(corp.sessions, s, sp)) for u, s, sp in naive_c3
            ])
            naive_c5 = sorted((u, s, t) for u, s, t in [
                (u, s, _time_of(corp.sessions, s, sp)) for u, s, sp in naive_c5
            ])
            assert idents(six[0]) == naive_c1
            assert idents(six[2]) == naive_c3
            assert idents(six[4]) == naive_c5
            # domain contexts carry the same entries
            assert idents(six[1]) == naive_c1
            assert idents(six[3]) == naive_c3
            assert idents(six[5]) == naive_c5

    def test_earlier_impression_count_identity(self, small_corpus):
        corp = small_corpus
        qidx, hist, ranks = build_from_sessions(
            corp.sessions, corp.train_days, corp.partition_seed
        )
        for session, target in self._random_targets(corp, 30, seed=7):
            uid = session.user_id
            key = (ranks[(uid, session.session_id)], target.time_passed)
            six = assemble_contexts(uid, target.query_id, key, qidx, hist)
            earlier = sum(
                1
                for s in corp.sessions
                if s.user_id == uid and s.day <= corp.train_days
                for i in s.impressions
                if (ranks[(uid, s.session_id)], i.time_passed) < key
            )
            assert len(six[0]) + len(six[2]) == earlier

    def test_temporal_safety_and_user_exclusion(self, small_corpus):
        corp = small_corpus
        qidx, hist, ranks = build_from_sessions(
            corp.sessions, corp.train_days, corp.partition_seed
        )
        for session, target in self._random_targets(corp, 30, seed=21):
            uid = session.user_id
            key = (ranks[(uid, session.session_id)], target.time_passed)
            six = assemble_contexts(uid, target.query_id, key, qidx, hist)
            for context in six[:4]:
                assert all(o.order_key < key for o in context.occurrences)
                assert all(o.user_id == uid for o in context.occurrences)
            for context in six[4:]:
                assert all(o.user_id != uid for o in context.occurrences)
            for context in six:
                assert all(
                    o.day <= corp.train_days for o in context.occurrences
                )


def _time_of(sessions, session_id, serp_id):
    for s in sessions:
        if s.session_id == session_id:
            for i in s.impressions:
                if i.serp_id == serp_id:
                    return i.time_passed
    raise AssertionError("impression not found")
