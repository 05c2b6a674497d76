import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persorank.cli import main
from persorank.config import Config, ConfigError
from persorank.evaluate import mean_ndcg
from persorank.logs import (
    SERP_SIZE,
    SessionColumns,
    corpus_stats,
    label_sessions,
    parse_columns,
    parse_log,
    sessionize,
)
from persorank.partition import select_targets
from persorank.ranker import ModelKind, RankModel, score_table
from persorank.synth import _sample, generate_lines
from persorank import features

from conftest import extract_all, generated_sessions, traced_peak


class TestDeterminism:
    def test_same_seed_identical_bytes(self):
        cfg = Config(n_users=8, synth_seed=7)
        first, _ = generate_lines(cfg)
        second, _ = generate_lines(cfg)
        assert "\n".join(first) == "\n".join(second)

    def test_different_seed_differs(self):
        first, _ = generate_lines(Config(n_users=8, synth_seed=7))
        second, _ = generate_lines(Config(n_users=8, synth_seed=8))
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
        cfg = Config(**settings, synth_seed=seed)
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


@pytest.mark.parametrize("settings", [
    {"n_users": 1, "synth_seed": 3},
    {"n_users": 30, "synth_seed": 4, "n_days": 4, "train_days": 1},
    {"n_users": 30, "synth_seed": 5, "queries_per_user_per_day": 1, "n_documents": 10},
    {"n_users": 150, "synth_seed": 6},
    {"n_users": 150, "synth_seed": 7, "n_days": 60, "train_days": 57, "repeat_query_prob": 1.0},
], ids=["1_user", "4_days", "10_documents", "150_users", "60_days"])
def test_counts_by_day_are_those_of_the_whole_log(settings):
    cfg = Config(**settings)
    lines, stats = generate_lines(cfg)
    assert stats == corpus_stats(parse_columns(line + "\n" for line in lines), cfg.train_days)


def test_one_declined_day_is_internal_error(tmp_path, monkeypatch, capsys):
    calls = []

    def decline_third_day(lines):
        calls.append(None)
        return None if len(calls) == 3 else parse_columns(lines)

    monkeypatch.setattr("persorank.synth.parse_columns", decline_third_day)
    assert main(["gen", "--out", str(tmp_path / "log.tsv"), "-O", "n_users=5"]) == 3
    assert capsys.readouterr().err == (
        "internal error: RuntimeError: the array parser declined day 3 of a generated log\n")
    assert list(tmp_path.iterdir()) == []


# The traced peak of `generate_lines` above its start, per log record, on
# the 100-user log below. The returned lines hold about 115 bytes per
# record; with the session texts and one day's parse it was 184 bytes per
# record with Python 3.11. Holding every session's plan and parsing the
# whole log at once took 740.
PEAK_BYTES_PER_RECORD = 250


def test_traced_peak_per_record():
    cfg = Config(n_users=100, synth_seed=5)
    generate_lines(Config(n_users=1))  # one-time allocations, such as the regex cache
    made = []
    peak = traced_peak(lambda: made.append(generate_lines(cfg)[0]))
    n_records = len(made[0])
    assert peak / n_records < PEAK_BYTES_PER_RECORD, f"{peak / n_records:.1f} bytes per record"


class TestDirectDraws:
    """gen's draws below `random`'s wrappers equal the wrappers' on a twin stream."""

    @given(seed=st.integers(0, 2**64), population=st.integers(9, 21), first=st.booleans(),
           low=st.integers(-10**18, 10**18), width=st.integers(1, 10**18),
           items=st.lists(st.integers(), min_size=1, max_size=30))
    def test_each_draw_is_the_wrappers(self, seed, population, first, low, width, items):
        rng, twin = random.Random(seed), random.Random(seed)
        pool = list(range(1000, 1000 + population))
        if first:  # gen's streams draw a float before or between their integers
            assert rng.random() == twin.random()
        assert _sample(rng.getrandbits, pool[:], 9) == twin.sample(pool, 9)
        assert low + rng._randbelow(width) == twin.randint(low, low + width - 1)
        assert rng._randbelow(width) == twin.randrange(width)
        assert items[rng._randbelow(len(items))] == twin.choice(items)
        assert _sample(rng.getrandbits, pool[:], population) == twin.sample(pool, population)
        assert rng.getstate() == twin.getstate()

    @given(seed=st.integers(0, 2**32), population=st.integers(0, 21), data=st.data())
    def test_sample_of_any_size_in_the_pool_loop(self, seed, population, data):
        k = data.draw(st.integers(0, population))
        rng, twin = random.Random(seed), random.Random(seed)
        pool = [f"doc{i}" for i in range(population)]
        assert _sample(rng.getrandbits, pool[:], k) == twin.sample(pool, k)
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("population,k", [(8, 9), (22, 9), (5, -1)])
    def test_sample_outside_the_pool_loop_raises(self, population, k):
        with pytest.raises(ValueError):
            _sample(random.Random(0).getrandbits, list(range(population)), k)


class TestConfigValidation:
    def test_preference_strength_out_of_range(self):
        with pytest.raises(ConfigError, match="preference_strength"):
            Config(preference_strength=1.5)

    def test_too_few_days(self):
        with pytest.raises(ConfigError, match="train_days must be below n_days"):
            Config(n_days=3)

    def test_zero_users(self):
        with pytest.raises(ConfigError, match="n_users"):
            Config(n_users=0)

    def test_repeat_prob_out_of_range(self):
        with pytest.raises(ConfigError, match="repeat_query_prob"):
            Config(repeat_query_prob=-0.1)

    def test_test_day_follows_the_training_period(self):
        cfg = Config(n_users=12, n_days=12, train_days=9, synth_seed=3)
        sessions = sessionize(parse_log(generate_lines(cfg)[0]))
        test_days = [s.day for s in sessions if s.impressions[-1].is_test]
        assert len(test_days) == cfg.n_users
        assert all(cfg.train_days < day <= cfg.n_days for day in test_days)
        assert all(s.day <= cfg.train_days for s in sessions if not s.impressions[-1].is_test)


def _heuristic_gain(p: float, tmp_path):
    cfg = Config(
        n_users=150,
        queries_per_user_per_day=3,
        n_queries=400,
        n_terms=250,
        n_documents=2500,
        n_domains=200,
        preference_strength=p,
        repeat_query_prob=0.5,
        synth_seed=13,
    )
    sessions, _ = generated_sessions(cfg)
    columns = SessionColumns.of(sessions)
    targets, _ = select_targets(columns, train_days=cfg.train_days, seed=5)
    extracted = extract_all(
        columns, targets, train_days=cfg.train_days, seed=5
    )
    path = tmp_path / "val.csv"
    features.write_features(extracted["validation"], path)
    table = features.read_features(path)
    heuristic = mean_ndcg(
        score_table(RankModel(kind=ModelKind.HEURISTIC), table).x[..., 0],
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
