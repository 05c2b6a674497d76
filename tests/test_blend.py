import dataclasses
import json

import numpy as np
import pytest

from persorank.blend import BlendModel, blend_average, blend_learned
from persorank.evaluate import mean_ndcg, rank_by_score
from persorank.features import FeatureTable
from persorank.logs import DataError


def scored(scores, gains=None) -> FeatureTable:
    """A score table of `scores`, 10 documents per target, in base rank order 1..10."""
    x = np.asarray(scores, dtype=np.float64).reshape(-1, 10, 1)
    n = len(x)
    return FeatureTable(ids=np.arange(4 * n, dtype=np.int64).reshape(n, 4),
                        doc_ids=np.arange(10 * n, dtype=np.int64).reshape(n, 10), x=x,
                        base_ranks=np.tile(np.arange(1.0, 11.0), (n, 1)), gains=gains)


def affine(table, scale, shift):
    return dataclasses.replace(table, x=table.x * scale + shift)


def rankings(table):
    return [rank_by_score(s, b) for s, b in zip(table.x[..., 0], table.base_ranks)]


def ndcg(table, rows=slice(None)):
    return mean_ndcg(table.x[rows, :, 0], table.gains[rows], table.base_ranks[rows])


@pytest.fixture()
def labeled_pool():
    rng = np.random.default_rng(8)
    n = 80
    gains = rng.integers(0, 3, size=(n, 10)).astype(float)
    gains[:, rng.integers(0, 10)] = 2.0
    perfect = scored(gains + rng.normal(0, 1e-6, (n, 10)), gains)
    noise = scored(rng.normal(size=(n, 10)), gains)
    return perfect, noise


class TestAverage:
    def test_single_member_keeps_ranking(self, labeled_pool):
        perfect, _ = labeled_pool
        blended, model = blend_average([perfect])
        assert rankings(blended) == rankings(perfect)
        assert model.weights.tolist() == [1.0]

    def test_blend_is_the_first_members_table_with_blended_scores(self, labeled_pool):
        perfect, noise = labeled_pool
        blended, model = blend_average([perfect, noise])
        for name in ("ids", "doc_ids", "base_ranks", "gains"):
            assert getattr(blended, name) is getattr(perfect, name), name
        stacked = np.stack([perfect.x.reshape(-1), noise.x.reshape(-1)], axis=1)
        assert blended.x.shape == perfect.x.shape
        expected = model.standardizer.apply(stacked) @ model.weights + model.bias
        assert blended.x.tobytes() == expected.tobytes()

    def test_identical_members_keep_ranking(self, labeled_pool):
        perfect, _ = labeled_pool
        blended, _ = blend_average([perfect, affine(perfect, 1.0, 0.0)])
        assert rankings(blended) == rankings(perfect)

    def test_perfect_plus_noise_lands_between(self, labeled_pool):
        perfect, noise = labeled_pool
        blended, _ = blend_average([perfect, noise])
        assert ndcg(noise) < ndcg(blended) < ndcg(perfect)

    def test_affine_rescaling_of_a_member_is_absorbed(self, labeled_pool):
        perfect, noise = labeled_pool
        blended, _ = blend_average([perfect, noise])
        rescaled, _ = blend_average([affine(perfect, 37.5, 11.0), noise])
        assert rankings(blended) == rankings(rescaled)

    def test_ragged_members_rejected(self):
        with pytest.raises(ValueError):
            blend_average([scored(np.zeros(10)), scored(np.zeros(20))])

    def test_no_members_rejected(self):
        with pytest.raises(ValueError):
            blend_average([])


class TestLearned:
    def test_weight_signs_for_perfect_and_anticorrelated(self, labeled_pool):
        perfect, _ = labeled_pool
        _, model = blend_learned([perfect, affine(perfect, -1.0, 0.0)], split_seed=0)
        assert model.weights[0] > 0
        assert model.weights[1] <= 0

    def test_duplicated_member_keeps_single_member_ranking(self, labeled_pool):
        perfect, _ = labeled_pool
        blended, model = blend_learned([perfect, affine(perfect, 1.0, 0.0)], split_seed=1)
        assert rankings(blended) == rankings(perfect)
        assert model.weights[0] == pytest.approx(model.weights[1])

    def test_learned_beats_average_with_weak_members(self, labeled_pool):
        perfect, _ = labeled_pool
        rng = np.random.default_rng(9)
        weak1 = scored(rng.normal(size=perfect.x.size), perfect.gains)
        weak2 = scored(rng.normal(size=perfect.x.size), perfect.gains)
        members = [perfect, weak1, weak2]
        n = perfect.n_targets
        split_seed = 4
        _, learned = blend_learned(members, split_seed=split_seed)
        blended_avg, _ = blend_average(members)
        holdout = np.random.default_rng(split_seed).permutation(n)[n // 2:]
        assert learned.metadata["holdout_mean_ndcg"] >= ndcg(blended_avg, holdout)

    def test_affine_rescaling_is_absorbed(self, labeled_pool):
        perfect, noise = labeled_pool
        a, model_a = blend_learned([perfect, noise], split_seed=2)
        b, model_b = blend_learned([affine(perfect, 0.001, 5.0), noise], split_seed=2)
        assert rankings(a) == rankings(b)
        assert np.allclose(model_a.weights, model_b.weights, atol=1e-9)

    def test_needs_two_members(self, labeled_pool):
        perfect, _ = labeled_pool
        with pytest.raises(ValueError):
            blend_learned([perfect])

    def test_needs_labels(self, labeled_pool):
        perfect, noise = labeled_pool
        with pytest.raises(DataError, match="needs labeled queries"):
            blend_learned([dataclasses.replace(perfect, gains=None), noise])

    def test_tiny_pool_rejected(self):
        gains = np.array([[1.0] + [0.0] * 9])
        with pytest.raises(DataError, match="too small to split"):
            blend_learned([scored(np.zeros(10), gains), scored(np.ones(10), gains)],
                          split_seed=0)

    def test_save_load_round_trip(self, labeled_pool, tmp_path):
        perfect, noise = labeled_pool
        blended, model = blend_learned([perfect, noise], split_seed=3)
        path = tmp_path / "blend.json"
        model.save(path)
        loaded = BlendModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.apply([perfect, noise]).x.tobytes() == blended.x.tobytes()
        assert loaded.metadata["split_seed"] == 3

    @pytest.mark.parametrize("damage", [
        lambda text: text[:30],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "weights"}),
    ], ids=["truncated", "missing_key"])
    def test_damaged_file_is_data_error(self, labeled_pool, tmp_path, damage):
        _, model = blend_average(labeled_pool)
        path = tmp_path / "blend.json"
        model.save(path)
        path.write_text(damage(path.read_text()))
        with pytest.raises(DataError):
            BlendModel.load(path)

    def test_apply_rejects_wrong_member_count(self, labeled_pool):
        perfect, noise = labeled_pool
        _, model = blend_average([perfect, noise])
        with pytest.raises(DataError, match="^expected 2 members, got 1$"):
            model.apply([perfect])
