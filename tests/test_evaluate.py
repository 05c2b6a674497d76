import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from persorank.evaluate import (
    evaluate_run,
    histogram,
    kendall_tau,
    mean_ndcg,
    ndcg_at,
    ndcg_rows,
    rank_by_score,
    rank_rows,
    read_scores,
    write_report,
    write_scores,
    write_summary,
)
from persorank.features import FeatureTable
from persorank.logs import DataError

from conftest import extract_all
from oracles import oracle_ndcg


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        gains = [2, 2, 1, 1, 0, 0, 0, 0, 0, 0]
        assert ndcg_at(list(range(10)), gains) == 1.0

    def test_single_relevant_at_bottom(self):
        gains = [0] * 9 + [2]
        order = list(range(10))  # the gain-2 document sits at position 10
        value = ndcg_at(order, gains)
        # DCG = 3/log2(11) ~ 0.86719, ideal DCG = 3
        assert value == pytest.approx((3 / math.log2(11)) / 3, abs=1e-12)
        assert value == pytest.approx(0.28906, abs=1e-5)

    def test_all_zero_gains_score_one(self):
        assert ndcg_at(list(range(10)), [0] * 10) == 1.0

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at([0, 0, 1, 2, 3, 4, 5, 6, 7, 8], [0] * 10)
        with pytest.raises(ValueError):
            ndcg_at([0, 1], [0] * 10)

    def test_cutoff_truncates(self):
        gains = [0, 0, 0, 2, 0, 0, 0, 0, 0, 0]
        assert ndcg_at(list(range(10)), gains, cutoff=3) == 0.0

    def test_matches_term_by_term_oracle(self):
        rng = random.Random(11)
        for _ in range(2000)        :
            gains = [rng.randint(0, 2) for _ in range(10)]
            order = list(range(10))
            rng.shuffle(order)
            assert ndcg_at(order, gains) == pytest.approx(
                oracle_ndcg(order, gains), abs=1e-12
            )

    def test_upper_bound_and_equality_condition(self):
        rng = random.Random(12)
        for _ in range(500):
            gains = [rng.randint(0, 2) for _ in range(10)]
            order = list(range(10))
            rng.shuffle(order)
            value = ndcg_at(order, gains)
            assert value <= 1.0 + 1e-12
            ranked_gains = [gains[i] for i in order]
            is_sorted = all(
                ranked_gains[i] >= ranked_gains[i + 1] for i in range(9)
            )
            assert (abs(value - 1.0) < 1e-12) == is_sorted or sum(gains) == 0


class TestKendall:
    def test_identical(self):
        assert kendall_tau(list(range(10)), list(range(10))) == 1.0

    def test_reversed(self):
        assert kendall_tau(list(range(10)), list(reversed(range(10)))) == -1.0

    def test_adjacent_swap(self):
        a = list(range(10))
        b = a[:]
        b[3], b[4] = b[4], b[3]
        assert kendall_tau(a, b) == 43 / 45

    def test_antisymmetry(self):
        rng = random.Random(13)
        for _ in range(300):
            a = rng.sample(range(10), 10)
            b = rng.sample(range(10), 10)
            assert kendall_tau(a, b) == -kendall_tau(a, list(reversed(b)))

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2, 3], [1, 2, 4])
        with pytest.raises(ValueError):
            kendall_tau([1, 1, 2], [1, 2, 1])


class TestRanking:
    def test_rank_by_score_descending(self):
        assert rank_by_score([0.1, 0.9, 0.5], [1, 2, 3]) == [1, 2, 0]

    def test_ties_fall_back_to_base_rank(self):
        assert rank_by_score([1.0, 1.0, 1.0], [3, 1, 2]) == [1, 2, 0]

    def test_mean_ndcg(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        gains = np.array([[1.0, 0.0], [1.0, 0.0]])
        base = np.array([[1.0, 2.0], [1.0, 2.0]])
        first = ndcg_at([0, 1], [1.0, 0.0], cutoff=2)
        second = ndcg_at([1, 0], [1.0, 0.0], cutoff=2)
        assert mean_ndcg(scores, gains, base, cutoff=2) == pytest.approx(
            (first + second) / 2
        )


def _table(user_ids, gains, base_ranks, scores):
    """A score-file table: ten documents per target, each with its score."""
    users = np.asarray(user_ids, dtype=np.int64)
    n = len(users)
    return FeatureTable(
        ids=np.stack([users, users + 100, users + 1000, np.zeros(n, dtype=np.int64)], axis=1),
        doc_ids=np.tile(np.arange(50, 60), (n, 1)),
        x=np.asarray(scores, dtype=np.float64).reshape(n, 10, 1),
        base_ranks=np.asarray(base_ranks, dtype=np.float64),
        gains=None if gains is None else np.asarray(gains, dtype=np.float64),
    )


def _targets(n, rng, score_fn):
    gains, base, scores = [], [], []
    for _ in range(n):
        gains.append([rng.randint(0, 2) for _ in range(10)])
        base.append(list(range(1, 11)))
        scores.append(score_fn(gains[-1], base[-1]))
    return _table(list(range(n)), gains, base, scores)


class TestEvaluateRun:
    def test_negated_base_ranks_reproduce_base_ranking(self):
        rng = random.Random(3)
        targets = _targets(20, rng, lambda gains, base: [-b for b in base])
        report = evaluate_run(targets)
        assert all(tau == 1.0 for tau in report.tau.tolist())
        assert all(delta == 0.0 for delta in report.delta_ndcg.tolist())
        assert report.mean_ndcg == report.mean_base_ndcg

    def test_base_mean_matches_identity_ndcg(self):
        rng = random.Random(4)
        table = _targets(15, rng, lambda gains, base: [rng.random() for _ in base])
        report = evaluate_run(table)
        expected = sum(
            ndcg_at(list(range(10)), gains) for gains in table.gains.tolist()
        ) / table.n_targets
        assert report.mean_base_ndcg == pytest.approx(expected, abs=1e-12)

    def test_split_seed_reports_halves(self):
        rng = random.Random(5)
        targets = _targets(21, rng, lambda gains, base: [rng.random() for _ in base])
        report = evaluate_run(targets, split_seed=9)
        assert report.split_a_mean_ndcg is not None
        assert report.split_b_mean_ndcg is not None
        total = report.split_a_mean_ndcg * 10 + report.split_b_mean_ndcg * 11
        assert total / 21 == pytest.approx(report.mean_ndcg, abs=1e-12)

    def test_unlabeled_targets_rejected(self):
        table = _table([1], None, [list(range(1, 11))], np.zeros((1, 10)))
        with pytest.raises(DataError):
            evaluate_run(table)


class TestReRankShape:
    def test_heuristic_tau_concentrates_near_one(self, small_corpus, tmp_path):
        # conservative re-ranker: most queries barely move, some re-rank hard
        from persorank import features
        from persorank.ranker import ModelKind, RankModel, score_table

        extracted = extract_all(
            small_corpus.columns,
            small_corpus.targets,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        fpath = tmp_path / "f.csv"
        features.write_features(extracted["validation"], fpath)
        table = features.read_features(fpath)
        scored = score_table(RankModel(kind=ModelKind.HEURISTIC), table)
        spath = tmp_path / "s.csv"
        write_scores(scored, spath)
        report = evaluate_run(read_scores(spath))
        taus = report.tau.tolist()
        assert sum(1 for t in taus if t >= 0.7) / len(taus) > 0.5
        assert min(taus) < 1.0


class TestScoreFiles:
    def test_round_trip(self, small_corpus, tmp_path):
        from persorank import features
        from persorank.ranker import ModelKind, RankModel, score_table

        extracted = extract_all(
            small_corpus.columns,
            small_corpus.targets,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        fpath = tmp_path / "f.csv"
        features.write_features(extracted["validation"], fpath)
        table = features.read_features(fpath)
        scored = score_table(RankModel(kind=ModelKind.HEURISTIC), table)
        spath = tmp_path / "s.csv"
        write_scores(scored, spath)
        loaded = read_scores(spath)
        assert loaded.n_targets == table.n_targets
        for t in range(loaded.n_targets):
            assert loaded.ids[t].tolist() == table.ids[t].tolist()
            assert loaded.doc_ids[t].tolist() == table.doc_ids[t].tolist()
            assert loaded.x[t].tolist() == scored.x[t].tolist()
            assert loaded.gains[t].tolist() == table.gains[t].tolist()

    def test_report_and_summary_written(self, tmp_path):
        rng = random.Random(6)
        targets = _targets(5, rng, lambda gains, base: [rng.random() for _ in base])
        report = evaluate_run(targets)
        rpath, spath = tmp_path / "report.csv", tmp_path / "summary.csv"
        write_report(report, rpath)
        write_summary(report, spath)
        lines = rpath.read_text().splitlines()
        assert lines[0].startswith("user_id,")
        assert len(lines) == 6
        summary = dict(
            line.split(",", 1) for line in spath.read_text().splitlines()[1:]
        )
        assert float(summary["mean_ndcg"]) == pytest.approx(report.mean_ndcg)
        assert int(summary["n_queries"]) == 5


class TestHistogram:
    def test_bins_and_edges(self):
        rows = histogram([-1.0, -0.95, 0.0, 0.99, 1.0], -1.0, 1.0, 20)
        assert len(rows) == 20
        assert sum(count for _, _, count in rows) == 5
        assert rows[0][2] == 2   # -1.0 and -0.95
        assert rows[-1][2] == 2  # 0.99 and the right-closed 1.0

    def test_out_of_range_ignored(self):
        rows = histogram([5.0, -5.0, -0.05, 0.1], 0.0, 1.0, 10)
        assert sum(count for _, _, count in rows) == 1


@st.composite
def score_tables(draw):
    """A score-file table with any ids, base ranks 1..10 in any order, finite scores, and
    gains 0-2 or none."""
    n = draw(st.integers(min_value=1, max_value=4))
    scores = arrays(np.float64, (n, 10, 1),
                    elements=st.floats(allow_nan=False, allow_infinity=False))
    gains = arrays(np.float64, (n, 10), elements=st.sampled_from([0.0, 1.0, 2.0]))
    return FeatureTable(
        ids=draw(arrays(np.int64, (n, 4))),
        doc_ids=draw(arrays(np.int64, (n, 10))),
        x=draw(scores),
        base_ranks=np.array(draw(st.lists(st.permutations(range(1, 11)), min_size=n,
                                          max_size=n)), dtype=np.float64),
        gains=draw(st.none() | gains),
    )


class TestScoreFileRoundTrip:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(score_tables())
    def test_write_then_read_is_bit_exact(self, tmp_path, table):
        path = tmp_path / "scores.csv"
        write_scores(table, path)
        loaded = read_scores(path)

        def bits(a):
            return np.asarray(a).view(np.int64).tolist()

        for name in ("ids", "doc_ids"):
            assert getattr(loaded, name).tolist() == getattr(table, name).tolist(), name
        assert bits(loaded.base_ranks) == bits(table.base_ranks)
        assert bits(loaded.x) == bits(table.x)
        if table.gains is None:
            assert loaded.gains is None
        else:
            assert bits(loaded.gains) == bits(table.gains)


@st.composite
def ranked_pools(draw):
    """(targets, 10) scores, gains and base ranks with score ties and all-zero rows.

    Scores and base ranks come from small value sets, so ties are common.
    Gains include non-integer grades for which numpy's vector pow and
    Python's pow can differ in the last bit. Up to 20 targets, so that a
    pairwise (not left-to-right) mean would show.
    """
    n = draw(st.integers(min_value=1, max_value=20))
    gains = draw(arrays(np.float64, (n, 10),
                        elements=st.sampled_from([0.0, 0.214, 0.46, 1.0, 1.646, 2.0])))
    gains[draw(arrays(np.bool_, n))] = 0.0
    scores = draw(arrays(np.float64, (n, 10), elements=st.sampled_from([-1.0, -0.0, 0.0, 0.25])
                         | st.floats(-1e6, 1e6, allow_nan=False)))
    base = draw(arrays(np.float64, (n, 10), elements=st.integers(1, 10).map(float)))
    return scores, gains, base, draw(st.integers(min_value=1, max_value=10))


class TestArrayNdcg:
    @settings(max_examples=200)
    @given(ranked_pools())
    def test_rows_and_mean_equal_the_scalar_definition(self, pool):
        scores, gains, base, cutoff = pool
        expected = [
            ndcg_at(rank_by_score(row, row_base), row_gains, cutoff)
            for row, row_gains, row_base in zip(scores.tolist(), gains.tolist(), base.tolist())
        ]
        assert rank_rows(scores, base).tolist() == [
            rank_by_score(row, row_base) for row, row_base in zip(scores.tolist(), base.tolist())
        ]
        assert ndcg_rows(rank_rows(scores, base), gains, cutoff).tolist() == expected
        assert all(0.0 <= value <= 1.0 for value in expected)
        total = 0.0
        for value in expected:
            total += value
        assert mean_ndcg(scores, gains, base, cutoff) == total / len(expected)

    @settings(max_examples=50)
    @given(ranked_pools())
    def test_evaluate_run_rows_equal_the_scalar_definition(self, pool):
        scores, gains, base, cutoff = pool
        table = _table(list(range(len(scores))), gains, base, scores)
        report = evaluate_run(table, cutoff)
        assert report.ndcg.dtype == report.base_ndcg.dtype == np.float64
        for ndcg, base_ndcg, row_scores, row_gains, row_base in zip(
            report.ndcg.tolist(), report.base_ndcg.tolist(),
            scores.tolist(), gains.tolist(), base.tolist()
        ):
            assert ndcg == ndcg_at(rank_by_score(row_scores, row_base), row_gains, cutoff)
            base_order = sorted(range(10), key=lambda i: row_base[i])
            assert base_ndcg == ndcg_at(base_order, row_gains, cutoff)
            assert type(ndcg) is float and type(base_ndcg) is float

    def test_one_target_without_gains_scores_one(self):
        scores = np.zeros((1, 10))
        base = np.arange(1.0, 11.0)[None, :]
        assert ndcg_rows(rank_rows(scores, base), np.zeros((1, 10))).tolist() == [1.0]
        assert mean_ndcg(scores, np.zeros((1, 10)), base) == 1.0
