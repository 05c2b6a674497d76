import json
import math

import numpy as np
import pytest

from persorank import features, ranker
from persorank.evaluate import ndcg_at, rank_by_score
from persorank.features import N_FEATURES
from persorank.logs import DataError
from persorank.ranker import (
    ModelKind,
    NetParams,
    RankModel,
    Standardizer,
    TrainSettings,
    backward,
    forward,
    heuristic_rerank,
    init_params,
    loss_and_score_grad,
    query_pairs,
    score_table,
    train,
    training_loss,
)

from oracles import finite_difference_grads


def reference_query_pairs(gains):
    """The per-query triple loop that query_pairs replaced, kept as its reference."""
    i_idx, j_idx = [], []
    n_docs = gains.shape[1]
    for t in range(gains.shape[0]):
        row = gains[t]
        base = t * n_docs
        for i in range(n_docs):
            for j in range(n_docs):
                if row[i] > row[j]:
                    i_idx.append(base + i)
                    j_idx.append(base + j)
    return np.asarray(i_idx, dtype=np.int64), np.asarray(j_idx, dtype=np.int64)


def reference_mean_ndcg(scores, gains, base_ranks, cutoff=10):
    """The per-query validation NDCG loop that the array version replaced."""
    total = 0.0
    for t in range(scores.shape[0]):
        total += ndcg_at(rank_by_score(scores[t], base_ranks[t]), gains[t], cutoff)
    return total / scores.shape[0]


class TestHeuristic:
    def test_all_zero_history_keeps_base_order(self):
        assert heuristic_rerank([0.0] * 10, list(range(1, 11))) == list(range(10))

    def test_single_positive_moves_first(self):
        g1 = [0, 0, 3, 0, 0, 0, 0, 0, 0, 0]
        order = heuristic_rerank(g1, list(range(1, 11)))
        assert order[0] == 2
        assert order[1:] == [0, 1, 3, 4, 5, 6, 7, 8, 9]

    def test_equal_positive_ties_resolved_by_base_rank(self):
        g1 = [0, 2, 0, 2, 0, 0, 0, 0, 0, 0]
        order = heuristic_rerank(g1, list(range(1, 11)))
        assert order[:2] == [1, 3]

    def test_is_a_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g1 = rng.integers(0, 4, size=10).astype(float)
            order = heuristic_rerank(g1.tolist(), list(range(1, 11)))
            assert sorted(order) == list(range(10))


class TestStandardizer:
    def test_training_set_becomes_zero_mean_unit_sd(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.5, size=(200, 7))
        std = Standardizer.fit(x)
        z = std.apply(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_passes_through(self):
        x = np.ones((50, 3))
        x[:, 1] = np.arange(50)
        std = Standardizer.fit(x)
        z = std.apply(x)
        assert np.allclose(z[:, 0], 0.0)
        assert np.allclose(z[:, 2], 0.0)
        assert std.scale[0] == 1.0

    def test_dimension_mismatch(self):
        std = Standardizer.fit(np.ones((10, 3)))
        with pytest.raises(ValueError):
            std.apply(np.ones((5, 4)))


class TestLosses:
    def test_ranknet_equal_scores_is_log_two(self):
        gains = np.array([[1.0] + [0.0] * 9])
        scores = np.zeros(10)
        loss, _ = loss_and_score_grad(ModelKind.RANKNET, scores, gains)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_listnet_uniform_is_log_ten(self):
        gains = np.array([[1.0] * 10])
        scores = np.full(10, 3.3)
        loss, _ = loss_and_score_grad(ModelKind.LISTNET, scores, gains)
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_regression_exact_scores_zero_loss(self):
        gains = np.array([[2.0, 1.0] + [0.0] * 8])
        loss, grad = loss_and_score_grad(
            ModelKind.REGRESSION, gains.reshape(-1).copy(), gains
        )
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_query_pairs_only_across_differing_gains(self):
        gains = np.array([[2.0, 1.0, 1.0, 0.0] + [0.0] * 6])
        i_idx, j_idx = query_pairs(gains)
        assert len(i_idx) == len(j_idx)
        # doc0 beats 9 others; docs 1 and 2 beat the 7 zero-gain docs each
        assert len(i_idx) == 9 + 7 + 7
        assert all(gains[0, i % 10] > gains[0, j % 10] for i, j in zip(i_idx, j_idx))

    def test_pairs_do_not_cross_queries(self):
        gains = np.array([[1.0] + [0.0] * 9, [0.0] * 9 + [1.0]])
        i_idx, j_idx = query_pairs(gains)
        assert all((i // 10) == (j // 10) for i, j in zip(i_idx, j_idx))

    def test_query_pairs_equal_the_reference_loop_in_order(self):
        rng = np.random.default_rng(8)
        blocks = [
            rng.integers(0, 3, size=(40, 10)).astype(float),
            rng.integers(0, 2, size=(1, 10)).astype(float),
            np.zeros((3, 10)),
            np.zeros((0, 10)),
            np.array([[2.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]]),
        ]
        for gains in blocks:
            for got, want in zip(query_pairs(gains), reference_query_pairs(gains)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", [ModelKind.RANKNET, ModelKind.LISTNET])
    def test_score_shift_invariance(self, kind):
        rng = np.random.default_rng(2)
        gains = rng.integers(0, 3, size=(6, 10)).astype(float)
        gains[:, 0] = 2.0
        scores = rng.normal(size=60)
        loss, _ = loss_and_score_grad(kind, scores, gains)
        shifted = scores.reshape(6, 10) + rng.normal(size=(6, 1)) * 50
        loss_shifted, _ = loss_and_score_grad(kind, shifted.reshape(-1), gains)
        assert loss_shifted == pytest.approx(loss, abs=1e-9)

    def test_regression_is_not_shift_invariant(self):
        gains = np.array([[1.0] + [0.0] * 9])
        scores = np.zeros(10)
        base, _ = loss_and_score_grad(ModelKind.REGRESSION, scores, gains)
        moved, _ = loss_and_score_grad(ModelKind.REGRESSION, scores + 1.0, gains)
        assert moved != base


def relative_error(a, b):
    scale = max(1e-8, abs(a) + abs(b))
    return abs(a - b) / scale


@pytest.mark.parametrize(
    "kind", [ModelKind.REGRESSION, ModelKind.RANKNET, ModelKind.LISTNET]
)
def test_gradient_check(kind):
    rng = np.random.default_rng(42)
    n_queries, hidden = 3, 10
    x = rng.normal(size=(n_queries * 10, N_FEATURES))
    gains = rng.integers(0, 3, size=(n_queries, 10)).astype(float)
    gains[:, 0] = 2.0  # ensure pairs exist
    params = init_params(N_FEATURES, hidden, rng)

    scores, hidden_act = forward(params, x)
    _, dscores = loss_and_score_grad(kind, scores, gains)
    analytic = backward(params, x, hidden_act, dscores)

    numeric = finite_difference_grads(
        lambda p: training_loss(kind, p, x, gains), params, step=1e-5
    )

    worst = 0.0
    for name in ("w1", "b1", "w2"):
        a = getattr(analytic, name).reshape(-1)
        n = numeric[name].reshape(-1)
        for ai, ni in zip(a, n):
            worst = max(worst, relative_error(ai, ni))
    worst = max(worst, relative_error(analytic.b2, numeric["b2"]))
    assert worst < 1e-4, f"max relative gradient error {worst}"


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    import conftest

    from persorank.synth import GenConfig

    corpus = conftest.make_corpus(
        GenConfig(
            n_users=60,
            queries_per_user_per_day=2,
            n_queries=200,
            n_terms=150,
            n_documents=1200,
            n_domains=100,
            rng_seed=23,
        )
    )
    extracted = features.extract_targets(
        corpus.columns, corpus.targets,
        train_days=corpus.train_days, seed=corpus.partition_seed,
    )
    tmp = tmp_path_factory.mktemp("tables")
    out = {}
    for role in ("train", "validation"):
        path = tmp / f"{role}.csv"
        features.write_features(extracted[role], path)
        out[role] = features.read_features(path)
    return out


class TestTraining:
    def test_deterministic_given_seed(self, tables):
        settings = TrainSettings(hidden=16, learning_rate=0.05, epochs=8, patience=8)
        a = train(ModelKind.RANKNET, tables["train"], tables["validation"],
                  settings, seed=5)
        b = train(ModelKind.RANKNET, tables["train"], tables["validation"],
                  settings, seed=5)
        assert np.array_equal(a.params.w1, b.params.w1)
        assert np.array_equal(a.params.b1, b.params.b1)
        assert np.array_equal(a.params.w2, b.params.w2)
        assert a.params.b2 == b.params.b2
        assert a.metadata == b.metadata

    @pytest.mark.parametrize("kind", [ModelKind.RANKNET, ModelKind.LISTNET])
    def test_array_loops_train_the_same_model_as_the_reference_loops(
        self, tables, monkeypatch, kind
    ):
        settings = TrainSettings(hidden=16, learning_rate=0.05, epochs=5, patience=5)
        fast = train(kind, tables["train"], tables["validation"], settings, seed=7)
        monkeypatch.setattr(ranker, "query_pairs", reference_query_pairs)
        monkeypatch.setattr(ranker, "mean_ndcg", reference_mean_ndcg)
        slow = train(kind, tables["train"], tables["validation"], settings, seed=7)
        for name in ("w1", "b1", "w2"):
            assert getattr(fast.params, name).tobytes() == getattr(slow.params, name).tobytes()
        assert fast.params.b2 == slow.params.b2
        assert fast.metadata["validation_history"] == slow.metadata["validation_history"]
        assert fast.metadata == slow.metadata

    def test_metadata_records_run(self, tables):
        settings = TrainSettings(hidden=12, learning_rate=0.05, epochs=6, patience=6)
        model = train(ModelKind.REGRESSION, tables["train"], tables["validation"],
                      settings, seed=1)
        meta = model.metadata
        assert meta["seed"] == 1
        assert meta["best_epoch"] <= meta["epochs_run"] <= 6
        assert len(meta["validation_history"]) == meta["epochs_run"]
        assert meta["best_validation_ndcg"] == pytest.approx(
            max(meta["validation_history"]), abs=1e-8
        )

    def test_training_improves_on_validation(self, tables):
        settings = TrainSettings(hidden=32, learning_rate=0.1, epochs=40, patience=10)
        model = train(ModelKind.RANKNET, tables["train"], tables["validation"],
                      settings, seed=2)
        history = model.metadata["validation_history"]
        assert model.metadata["best_validation_ndcg"] > history[0]

    def test_empty_training_set_rejected(self, tables):
        empty = features.FeatureTable(
            user_ids=np.empty(0, dtype=np.int64),
            query_ids=np.empty(0, dtype=np.int64),
            session_ids=np.empty(0, dtype=np.int64),
            serp_ids=np.empty(0, dtype=np.int64),
            doc_ids=np.empty((0, 10), dtype=np.int64),
            x=np.empty((0, 10, N_FEATURES)),
            base_ranks=np.empty((0, 10)),
            gains=np.empty((0, 10)),
        )
        with pytest.raises(ValueError):
            train(ModelKind.RANKNET, empty, tables["validation"])

    def test_unlabeled_training_rejected(self, tables):
        table = tables["train"]
        unlabeled = features.FeatureTable(
            user_ids=table.user_ids, query_ids=table.query_ids,
            session_ids=table.session_ids, serp_ids=table.serp_ids,
            doc_ids=table.doc_ids, x=table.x, base_ranks=table.base_ranks,
            gains=None,
        )
        with pytest.raises(ValueError):
            train(ModelKind.RANKNET, unlabeled, tables["validation"])

    def test_divergence_aborts_with_diagnostics(self, tables):
        settings = TrainSettings(hidden=16, learning_rate=1e9, epochs=30, patience=30)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="non-finite"):
            train(ModelKind.REGRESSION, tables["train"], tables["validation"],
                  settings, seed=0)

    def test_hidden_range_enforced(self):
        with pytest.raises(ValueError):
            TrainSettings(hidden=5).validate()
        with pytest.raises(ValueError):
            TrainSettings(hidden=500).validate()


class TestScoring:
    def test_zero_weight_network_falls_back_to_base_order(self, tables):
        table = tables["validation"]
        std = Standardizer.fit(table.flat_x())
        model = RankModel(
            kind=ModelKind.RANKNET,
            standardizer=std,
            params=NetParams(
                w1=np.zeros((N_FEATURES, 16)), b1=np.zeros(16),
                w2=np.zeros(16), b2=0.0,
            ),
        )
        scores = score_table(model, table)
        assert np.all(scores == scores[0, 0])
        order = rank_by_score(scores[0], table.base_ranks[0])
        assert order == list(range(10))

    def test_permutation_equivariance(self, tables):
        table = tables["train"]
        settings = TrainSettings(hidden=16, learning_rate=0.05, epochs=3, patience=3)
        model = train(ModelKind.LISTNET, table, tables["validation"], settings, seed=3)
        x = table.flat_x()
        rng = np.random.default_rng(4)
        perm = rng.permutation(x.shape[0])
        assert np.allclose(model.scores(x)[perm], model.scores(x[perm]), atol=0)

    def test_scoring_twice_is_identical(self, tables):
        model = RankModel(kind=ModelKind.HEURISTIC)
        a = score_table(model, tables["validation"])
        b = score_table(model, tables["validation"])
        assert np.array_equal(a, b)

    def test_heuristic_scores_are_hist_relevance(self, tables):
        table = tables["validation"]
        scores = score_table(RankModel(kind=ModelKind.HEURISTIC), table)
        assert np.array_equal(scores, table.x[:, :, 0])

    def test_dimension_mismatch_rejected(self):
        model = RankModel(kind=ModelKind.HEURISTIC)
        with pytest.raises(ValueError):
            model.scores(np.zeros((5, 7)))

    def test_save_load_round_trip(self, tables, tmp_path):
        settings = TrainSettings(hidden=16, learning_rate=0.05, epochs=3, patience=3)
        model = train(ModelKind.REGRESSION, tables["train"], tables["validation"],
                      settings, seed=6)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = RankModel.load(path)
        assert loaded.kind is ModelKind.REGRESSION
        x = tables["validation"].flat_x()
        assert np.array_equal(model.scores(x), loaded.scores(x))
        assert loaded.metadata["seed"] == 6

    def test_load_of_model_without_weights_is_data_error(self, tables, tmp_path):
        settings = TrainSettings(hidden=16, learning_rate=0.05, epochs=1, patience=1)
        model = train(ModelKind.REGRESSION, tables["train"], tables["validation"], settings)
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        del payload["weights"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            RankModel.load(path)

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            RankModel.load(path)


def _network_model(hidden=12):
    rng = np.random.default_rng(3)
    return RankModel(
        kind=ModelKind.RANKNET,
        standardizer=Standardizer(mean=rng.normal(size=N_FEATURES),
                                  scale=rng.uniform(0.5, 2.0, size=N_FEATURES)),
        params=init_params(N_FEATURES, hidden, rng),
    )


def _cut_w1(payload):
    payload["weights"]["w1"] = payload["weights"]["w1"][:5]


def _short_b1(payload):
    payload["weights"]["b1"] = payload["weights"]["b1"][:-1]


def _long_w2(payload):
    payload["weights"]["w2"].append(0.0)


def _short_mean(payload):
    payload["standardizer"]["mean"] = payload["standardizer"]["mean"][:-1]


def _scale_matrix(payload):
    payload["standardizer"]["scale"] = [payload["standardizer"]["scale"]]


def _nan_weight(payload):
    payload["weights"]["w1"][2][3] = float("nan")


def _infinite_b2(payload):
    payload["weights"]["b2"] = float("inf")


class TestModelFileShapes:
    def test_valid_network_loads(self, tmp_path):
        model = _network_model()
        model.save(tmp_path / "m.json")
        loaded = RankModel.load(tmp_path / "m.json")
        x = np.random.default_rng(1).normal(size=(20, N_FEATURES))
        assert np.array_equal(loaded.scores(x), model.scores(x))

    @pytest.mark.parametrize("edit", [_cut_w1, _short_b1, _long_w2, _short_mean,
                                      _scale_matrix, _nan_weight, _infinite_b2])
    def test_wrong_shape_or_non_finite_weight_is_data_error(self, tmp_path, edit):
        path = tmp_path / "m.json"
        _network_model().save(path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            RankModel.load(path)
