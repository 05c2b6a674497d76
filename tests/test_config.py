import dataclasses

import pytest

from persorank.config import KEY_TYPES, MAX_COUNT, QUERY_SPAN, Config, ConfigError, load_config

# Values at the edges of what a setting can hold, as the malformed-input probes use them.
BOUNDARY_VALUES = ["", "-1", "100000000000000000000", "1e308", "nan", "0", "-0.0", "3.5"]


def test_every_field_is_a_key():
    assert set(KEY_TYPES) == {f.name for f in dataclasses.fields(Config)}


def test_defaults_are_valid_and_frozen():
    cfg = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_users = 5


@pytest.mark.parametrize("value", BOUNDARY_VALUES)
@pytest.mark.parametrize("key", sorted(KEY_TYPES))
def test_boundary_value_gives_a_config_or_a_config_error(key, value):
    try:
        cfg = load_config(None, [f"{key}={value}"])
    except ConfigError as exc:
        assert key in str(exc)
    else:
        assert isinstance(cfg, Config)


@pytest.mark.parametrize("settings,message", [
    ({"train_days": 30}, "train_days must be below n_days (30), got 30"),
    ({"n_days": 20}, "train_days must be below n_days (20), got 27"),
    ({"learning_rate": float("inf")}, "learning_rate must be finite and above 0"),
    ({"learning_rate": float("nan")}, "learning_rate must be finite and above 0"),
    ({"preference_strength": float("nan")}, "preference_strength must be within [0.0, 1.0]"),
    ({"partition_seed": -1}, "partition_seed must be >= 0, got -1"),
    ({"n_documents": 9}, "n_documents must be >= 10, got 9"),
    ({"ndcg_cutoff": 0}, "ndcg_cutoff must be >= 1, got 0"),
], ids=["train_days", "n_days", "lr_inf", "lr_nan", "preference_nan", "seed",
        "n_documents", "ndcg_cutoff"])
def test_out_of_range_field_names_its_key(settings, message):
    with pytest.raises(ConfigError) as raised:
        Config(**settings)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize("key", ["n_users", "n_days", "n_queries", "n_terms", "n_documents",
                                 "n_domains"])
def test_count_beyond_what_parse_reads_names_its_key(key):
    """gen writes every count as ids or days, which a log line holds in at most 18 digits."""
    if key != "n_users":  # each user has several sessions: see the next test
        assert Config(**{key: 10**18 - 1, "n_days": 10**18 - 1})
    with pytest.raises(ConfigError, match=rf"^{key} must be <= 999999999999999999, got "):
        load_config(None, [f"{key}={10**18}"])


@pytest.mark.parametrize("train_days", [1, 27, 10**17])
def test_sessions_beyond_what_parse_reads_name_their_keys(train_days):
    """gen numbers up to 2 * train_days + 1 sessions per user, each id at most 18 digits."""
    most = MAX_COUNT // (2 * train_days + 1)
    assert Config(n_users=most, train_days=train_days, n_days=train_days + 1)
    with pytest.raises(ConfigError, match=r"^n_users \* \(2 \* train_days \+ 1\) must be "
                       rf"<= {MAX_COUNT}, .* got n_users={most + 1} and train_days={train_days}$"):
        Config(n_users=most + 1, train_days=train_days, n_days=train_days + 1)


def test_queries_per_day_beyond_what_parse_reads_names_its_key():
    """A session's action times run below its queries times QUERY_SPAN, in at most 18 digits."""
    most = MAX_COUNT // QUERY_SPAN
    assert Config(queries_per_user_per_day=most)
    with pytest.raises(ConfigError, match=rf"^queries_per_user_per_day must be <= {most}, got "):
        load_config(None, [f"queries_per_user_per_day={most + 1}"])
