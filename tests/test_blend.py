import json

import numpy as np
import pytest

from persorank.blend import BlendModel, blend_average, blend_learned
from persorank.evaluate import mean_ndcg, rank_by_score
from persorank.logs import DataError


def rankings(scores_flat, n_targets):
    grouped = np.asarray(scores_flat).reshape(n_targets, 10)
    base = np.tile(np.arange(1.0, 11.0), (n_targets, 1))
    return [rank_by_score(grouped[t], base[t]) for t in range(n_targets)]


@pytest.fixture()
def labeled_pool():
    rng = np.random.default_rng(8)
    n = 80
    gains = rng.integers(0, 3, size=(n, 10)).astype(float)
    gains[:, rng.integers(0, 10)] = 2.0
    base = np.tile(np.arange(1.0, 11.0), (n, 1))
    perfect = gains.reshape(-1) + rng.normal(0, 1e-6, n * 10)
    noise = rng.normal(size=n * 10)
    return gains, base, perfect, noise


class TestAverage:
    def test_single_member_keeps_ranking(self, labeled_pool):
        gains, base, perfect, _ = labeled_pool
        blended, model = blend_average([perfect])
        assert rankings(blended, gains.shape[0]) == rankings(perfect, gains.shape[0])
        assert model.weights.tolist() == [1.0]

    def test_identical_members_keep_ranking(self, labeled_pool):
        gains, base, perfect, _ = labeled_pool
        blended, _ = blend_average([perfect, perfect.copy()])
        assert rankings(blended, gains.shape[0]) == rankings(perfect, gains.shape[0])

    def test_perfect_plus_noise_lands_between(self, labeled_pool):
        gains, base, perfect, noise = labeled_pool
        n = gains.shape[0]
        blended, _ = blend_average([perfect, noise])
        ndcg_a = mean_ndcg(perfect.reshape(n, 10), gains, base)
        ndcg_b = mean_ndcg(noise.reshape(n, 10), gains, base)
        ndcg_blend = mean_ndcg(blended.reshape(n, 10), gains, base)
        assert ndcg_b < ndcg_blend < ndcg_a

    def test_affine_rescaling_of_a_member_is_absorbed(self, labeled_pool):
        gains, _, perfect, noise = labeled_pool
        n = gains.shape[0]
        blended, _ = blend_average([perfect, noise])
        rescaled, _ = blend_average([perfect * 37.5 + 11.0, noise])
        assert rankings(blended, n) == rankings(rescaled, n)

    def test_ragged_members_rejected(self):
        with pytest.raises(ValueError):
            blend_average([np.zeros(10), np.zeros(20)])

    def test_no_members_rejected(self):
        with pytest.raises(ValueError):
            blend_average([])


class TestLearned:
    def test_weight_signs_for_perfect_and_anticorrelated(self, labeled_pool):
        gains, base, perfect, _ = labeled_pool
        blended, model = blend_learned(
            [perfect, -perfect], gains, base, split_seed=0
        )
        assert model.weights[0] > 0
        assert model.weights[1] <= 0

    def test_duplicated_member_keeps_single_member_ranking(self, labeled_pool):
        gains, base, perfect, _ = labeled_pool
        n = gains.shape[0]
        blended, model = blend_learned(
            [perfect, perfect.copy()], gains, base, split_seed=1
        )
        assert rankings(blended, n) == rankings(perfect, n)
        assert model.weights[0] == pytest.approx(model.weights[1])

    def test_learned_beats_average_with_weak_members(self, labeled_pool):
        gains, base, perfect, noise = labeled_pool
        rng = np.random.default_rng(9)
        weak1 = rng.normal(size=perfect.size)
        weak2 = rng.normal(size=perfect.size)
        members = [perfect, weak1, weak2]
        n = gains.shape[0]
        split_seed = 4
        _, learned = blend_learned(members, gains, base, split_seed=split_seed)
        blended_avg, _ = blend_average(members)
        holdout = np.random.default_rng(split_seed).permutation(n)[n // 2:]
        avg_ndcg = mean_ndcg(
            blended_avg.reshape(n, 10)[holdout], gains[holdout], base[holdout]
        )
        assert learned.metadata["holdout_mean_ndcg"] >= avg_ndcg

    def test_affine_rescaling_is_absorbed(self, labeled_pool):
        gains, base, perfect, noise = labeled_pool
        n = gains.shape[0]
        a, model_a = blend_learned([perfect, noise], gains, base, split_seed=2)
        b, model_b = blend_learned(
            [perfect * 0.001 + 5.0, noise], gains, base, split_seed=2
        )
        assert rankings(a, n) == rankings(b, n)
        assert np.allclose(model_a.weights, model_b.weights, atol=1e-9)

    def test_needs_two_members(self, labeled_pool):
        gains, base, perfect, _ = labeled_pool
        with pytest.raises(ValueError):
            blend_learned([perfect], gains, base)

    def test_needs_labels(self, labeled_pool):
        gains, base, perfect, noise = labeled_pool
        nan_gains = np.full_like(gains, np.nan)
        with pytest.raises(DataError):
            blend_learned([perfect, noise], nan_gains, base)

    def test_tiny_pool_rejected(self):
        gains = np.array([[1.0] + [0.0] * 9])
        base = np.arange(1.0, 11.0).reshape(1, 10)
        with pytest.raises(ValueError):
            blend_learned([np.zeros(10), np.ones(10)], gains, base, split_seed=0)

    def test_save_load_round_trip(self, labeled_pool, tmp_path):
        gains, base, perfect, noise = labeled_pool
        blended, model = blend_learned([perfect, noise], gains, base, split_seed=3)
        path = tmp_path / "blend.json"
        model.save(path)
        loaded = BlendModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.allclose(loaded.apply([perfect, noise]), blended)
        assert loaded.metadata["split_seed"] == 3

    @pytest.mark.parametrize("damage", [
        lambda text: text[:30],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "weights"}),
    ], ids=["truncated", "missing_key"])
    def test_damaged_file_is_data_error(self, labeled_pool, tmp_path, damage):
        gains, base, perfect, noise = labeled_pool
        _, model = blend_average([perfect, noise])
        path = tmp_path / "blend.json"
        model.save(path)
        path.write_text(damage(path.read_text()))
        with pytest.raises(DataError):
            BlendModel.load(path)

    def test_apply_rejects_wrong_member_count(self, labeled_pool, tmp_path):
        gains, base, perfect, noise = labeled_pool
        _, model = blend_average([perfect, noise])
        with pytest.raises(ValueError):
            model.apply([perfect])
