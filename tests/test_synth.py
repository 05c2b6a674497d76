import pytest

from persorank.cli import main
from persorank.config import ConfigError
from persorank.evaluate import mean_ndcg
from persorank.logs import (
    SERP_SIZE,
    SessionColumns,
    corpus_stats,
    label_sessions,
    parse_log,
    sessionize,
)
from persorank.partition import select_targets
from persorank.ranker import ModelKind, RankModel, score_table
from persorank.synth import GenConfig, generate_lines
from persorank import features

from conftest import generated_sessions


class TestDeterminism:
    def test_same_seed_identical_bytes(self):
        cfg = GenConfig(n_users=8, rng_seed=7)
        first, _ = generate_lines(cfg)
        second, _ = generate_lines(cfg)
        assert "\n".join(first) == "\n".join(second)

    def test_different_seed_differs(self):
        first, _ = generate_lines(GenConfig(n_users=8, rng_seed=7))
        second, _ = generate_lines(GenConfig(n_users=8, rng_seed=8))
        assert "\n".join(first) != "\n".join(second)


class TestValidity:
    def test_output_parses_and_sessionizes(self, small_corpus):
        lines, _ = generate_lines(small_corpus.cfg)
        sessions = sessionize(parse_log(lines))
        assert len(sessions) == len(small_corpus.sessions)
        for session in sessions:
            assert 1 <= session.day <= small_corpus.cfg.n_days
            for imp in session.impressions:
                assert len(imp.documents) == SERP_SIZE
                for url, _t in imp.clicks:
                    assert url in imp.documents

    def test_one_test_session_per_user(self, small_corpus):
        cfg = small_corpus.cfg
        per_user = {}
        for session in small_corpus.sessions:
            if session.day > cfg.train_days:
                per_user[session.user_id] = per_user.get(session.user_id, 0) + 1
                assert session.impressions[-1].is_test
        assert per_user == {u: 1 for u in range(1, cfg.n_users + 1)}

    def test_bookkeeping_matches_parsed_counts(self, small_corpus):
        stats = small_corpus.stats
        sessions = small_corpus.sessions
        cfg = small_corpus.cfg
        assert stats.unique_users == cfg.n_users
        assert stats.training_sessions + stats.test_sessions == len(sessions)
        n_records = sum(
            1 + sum(1 + len(i.clicks) for i in s.impressions) for s in sessions
        )
        assert stats.total_records == n_records
        train_clicks = sum(
            len(i.clicks)
            for s in sessions
            if s.day <= cfg.train_days
            for i in s.impressions
        )
        assert stats.training_clicks == train_clicks
        labeled = sum(
            stats.grade_counts[period][g] for period in ("training", "test")
            for g in stats.grade_counts[period]
        )
        assert labeled == 10 * sum(len(s.impressions) for s in sessions)


# Settings at their edges, each at two seeds.
EDGE_SETTINGS = {
    "one_user": {"n_users": 1},
    "one_query_a_day": {"n_users": 12, "queries_per_user_per_day": 1},
    "no_preference": {"n_users": 12, "preference_strength": 0.0},
    "always_repeat": {"n_users": 12, "repeat_query_prob": 1.0},
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("settings", EDGE_SETTINGS.values(), ids=EDGE_SETTINGS.keys())
class TestCounts:
    def test_counts_are_those_of_the_log_read_line_by_line(self, settings, seed):
        cfg = GenConfig(**settings, rng_seed=seed)
        lines, stats = generate_lines(cfg)
        sessions = sessionize(parse_log(lines))
        label_sessions(sessions)
        assert stats == corpus_stats(SessionColumns.of(sessions), cfg.train_days)
        assert len(lines) == stats.total_records

    def test_log_the_array_parser_declines_is_internal_error(self, settings, seed, tmp_path,
                                                              monkeypatch, capsys):
        argv = ["gen", "--out", str(tmp_path / "log.tsv"), "-O", f"synth_seed={seed}"]
        for key, value in settings.items():
            argv += ["-O", f"{key}={value}"]
        monkeypatch.setattr("persorank.synth.parse_columns", lambda lines: None)
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("internal error: RuntimeError: ")
        assert list(tmp_path.iterdir()) == []


class TestConfigValidation:
    def test_preference_strength_out_of_range(self):
        with pytest.raises(ConfigError):
            GenConfig(preference_strength=1.5).validate()

    def test_too_few_days(self):
        with pytest.raises(ConfigError):
            GenConfig(n_days=3).validate()

    def test_zero_users(self):
        with pytest.raises(ConfigError):
            GenConfig(n_users=0).validate()

    def test_repeat_prob_out_of_range(self):
        with pytest.raises(ConfigError):
            GenConfig(repeat_query_prob=-0.1).validate()

    def test_generate_rejects_invalid_config(self):
        with pytest.raises(ConfigError):
            generate_lines(GenConfig(n_days=2))


def _heuristic_gain(p: float, tmp_path):
    cfg = GenConfig(
        n_users=150,
        queries_per_user_per_day=3,
        n_queries=400,
        n_terms=250,
        n_documents=2500,
        n_domains=200,
        preference_strength=p,
        repeat_query_prob=0.5,
        rng_seed=13,
    )
    sessions, _ = generated_sessions(cfg)
    columns = SessionColumns.of(sessions)
    targets, _ = select_targets(columns, train_days=cfg.train_days, seed=5)
    extracted = features.extract_targets(
        columns, targets, train_days=cfg.train_days, seed=5
    )
    path = tmp_path / "val.csv"
    features.write_features(extracted["validation"], path)
    table = features.read_features(path)
    heuristic = mean_ndcg(
        score_table(RankModel(kind=ModelKind.HEURISTIC), table),
        table.gains,
        table.base_ranks,
    )
    base = mean_ndcg(-table.base_ranks, table.gains, table.base_ranks)
    return base, heuristic


class TestPlantedSignal:
    def test_no_preference_means_no_heuristic_gain(self, tmp_path):
        base, heuristic = _heuristic_gain(0.0, tmp_path)
        assert abs(heuristic - base) < 0.01

    def test_planted_preference_yields_heuristic_gain(self, tmp_path):
        base, heuristic = _heuristic_gain(0.9, tmp_path)
        gain = heuristic - base
        assert gain > 0.02
        # regression pin from the first verified run of this exact setup
        assert gain == pytest.approx(0.06384910778824615, abs=1e-9)
