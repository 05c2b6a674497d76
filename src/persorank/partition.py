"""Per-user selection of training, validation, and test target queries.

Sessions are ordered by day with seeded random tie-breaking among sessions
that share a day (the logs carry no cross-session timestamps). The training
target is the chronologically last training-period impression with at least
one positive-gain document; the test target is the impression flagged as a
test query; the validation target is the last qualifying impression that
strictly precedes the test target within the test session. The same
tie-broken order is reused downstream so context membership stays
consistent with target selection.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .cache import atomic_write
from .logs import CODE_GAINS, DataError, Session, SessionColumns, decoding

ROLES = ("train", "validation", "test")
_INT64 = np.iinfo(np.int64)


def _no_targets() -> np.ndarray:
    return np.empty((0, 3), dtype=np.int64)


@dataclass(eq=False)
class TargetSet:
    """Each role's targets: an (N, 3) int64 array of (user_id, session_id, serp_id) rows."""

    train: np.ndarray = field(default_factory=_no_targets)
    validation: np.ndarray = field(default_factory=_no_targets)
    test: np.ndarray = field(default_factory=_no_targets)

    def by_role(self, role: str) -> np.ndarray:
        if role not in ROLES:
            raise ValueError(f"unknown role: {role}")
        return getattr(self, role)


@dataclass
class PartitionReport:
    n_users: int = 0
    users_without_sessions: int = 0
    users_without_train: int = 0
    users_without_validation: int = 0
    users_without_test: int = 0


def _jitter(seed: int, user_id: int, n: int) -> list[float]:
    """Tie-break draws for a user's n sessions, one each in ascending session_id order."""
    rng = random.Random(f"{seed}:order:{user_id}")
    return [rng.random() for _ in range(n)]


def order_sessions(sessions: Iterable[Session], seed: int) -> dict[int, list[Session]]:
    """Group sessions by user, sorted by day with seeded tie-breaking.

    Tie-break jitter is drawn per user in ascending session_id order, so the
    result depends only on the seed and the session set, never on input
    order or on processing parallelism.
    """
    by_user: dict[int, list[Session]] = {}
    for session in sessions:
        by_user.setdefault(session.user_id, []).append(session)
    ordered = {}
    for user_id in sorted(by_user):
        user_sessions = sorted(by_user[user_id], key=lambda s: s.session_id)
        jitter = dict(zip([s.session_id for s in user_sessions],
                          _jitter(seed, user_id, len(user_sessions))))
        user_sessions.sort(key=lambda s: (s.day, jitter[s.session_id], s.session_id))
        ordered[user_id] = user_sessions
    return ordered


def session_ranks(ordered: dict[int, list[Session]]) -> dict[tuple[int, int], int]:
    """(user_id, session_id) -> position in the user's tie-broken order."""
    ranks = {}
    for user_id, user_sessions in ordered.items():
        for rank, session in enumerate(user_sessions):
            ranks[(user_id, session.session_id)] = rank
    return ranks


def rank_sessions(columns: SessionColumns, seed: int) -> np.ndarray:
    """Each session's position in its user's `order_sessions` order.

    The same draws as `order_sessions`; session ids are unique, as
    `sessionize` makes them.
    """
    users = columns.user_id
    by_id = np.lexsort((columns.session_id, users))
    user_ids, counts = np.unique(users, return_counts=True)
    jitter = np.empty(len(users))
    jitter[by_id] = [draw for user_id, n in zip(user_ids.tolist(), counts.tolist())
                     for draw in _jitter(seed, user_id, n)]
    order = np.lexsort((columns.session_id, jitter, columns.day, users))
    ranks = np.empty(len(users), dtype=np.int64)
    ranks[order] = np.arange(len(users)) - np.repeat(np.cumsum(counts) - counts, counts)
    return ranks


def _first_last(user: np.ndarray, mask: np.ndarray, n_users: int):
    """Per user code, the first and the last position where `mask` holds, -1 if none.

    `user` holds each position's user code, in ascending order.
    """
    at = np.flatnonzero(mask)
    codes = np.arange(n_users)
    lo, hi = np.searchsorted(user[at], codes, "left"), np.searchsorted(user[at], codes, "right")
    at = np.append(at, -1)
    return np.where(hi > lo, at[lo], -1), np.where(hi > lo, at[hi - 1], -1)


def select_targets(
    columns: SessionColumns,
    train_days: int = 27,
    seed: int = 0,
) -> tuple[TargetSet, PartitionReport]:
    """Pick per-user train/validation/test target impressions.

    Users lacking a qualifying impression for a role are simply absent from
    that role's list; the report counts them. An unlabeled impression that
    the training or validation search has to judge raises DataError.
    """
    ranks = rank_sessions(columns, seed)
    user_ids, user_of, n_sessions = np.unique(columns.user_id, return_inverse=True,
                                              return_counts=True)
    n_users = len(user_ids)
    # Every impression on its user's timeline: by user, session rank, list order.
    session = columns.impression_sessions()
    timeline = np.lexsort((ranks[session], columns.user_id[session]))
    s, position = session[timeline], np.arange(len(timeline))
    u, day, time = user_of[s], columns.day[s], columns.time_passed[timeline]
    grades = columns.grades[timeline]
    relevant = (CODE_GAINS[grades] > 0).any(axis=1)

    # Training: the last relevant training-period impression, judged from the end.
    training = day <= train_days
    _, train = _first_last(u, training & relevant, n_users)
    judged = training & (position > train[u])

    # Test: the last flagged impression, or else the last impression of the
    # user's last session when that session falls in the test period.
    _, test = _first_last(u, columns.is_test[timeline], n_users)
    last_session = np.lexsort((ranks, columns.user_id))[np.cumsum(n_sessions) - 1]
    first, last = _first_last(u, np.ones(len(u), dtype=bool), n_users)
    s_at = np.append(s, -1)  # position -1 reads session -1
    fallback = (s_at[last] == last_session) & (columns.day[last_session] > train_days)
    test = np.where(test >= 0, test, np.where(fallback, last, -1))

    # Validation: the last relevant impression of the test session logged
    # before the first one at or after the test target's time.
    in_session = s == s_at[test][u]
    late = in_session & (time >= np.append(time, 0)[test][u])
    earlier = in_session & (position < _first_last(u, late, n_users)[0][u])
    _, validation = _first_last(u, earlier & relevant, n_users)
    judged |= earlier

    unlabeled = judged & (grades[:, 0] < 0)
    if unlabeled.any():
        serp = columns.serp_id[timeline[np.argmax(unlabeled)]]
        raise DataError(f"impression serp={serp} is unlabeled; label sessions first")

    def rows(found: np.ndarray) -> np.ndarray:
        at = timeline[found[found >= 0]]
        return np.stack((user_ids[found >= 0], columns.session_id[session[at]],
                         columns.serp_id[at]), axis=1)

    targets = TargetSet(rows(train), rows(validation), rows(test))
    report = PartitionReport(n_users, *(int((found < 0).sum()) for found in (
        first, train, validation, test)))
    return targets, report


def write_targets(targets: TargetSet, path: str | Path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["role", "user_id", "session_id", "serp_id"])
        for role in ROLES:
            writer.writerows([role, *ids] for ids in targets.by_role(role).tolist())


def read_targets(path: str | Path) -> TargetSet:
    """Load a targets CSV.

    A row that does not parse, names an unknown role, holds an id outside
    int64, or lists a (user, session, serp) target that an earlier row
    lists, in any role, raises DataError naming its line.
    """
    rows: dict[str, list[list[int]]] = {role: [] for role in ROLES}
    lines: dict[tuple[int, ...], int] = {}  # the line of each target
    with decoding(path), open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                ids = [int(row[name]) for name in ("user_id", "session_id", "serp_id")]
                if not all(_INT64.min <= i <= _INT64.max for i in ids):
                    raise ValueError(f"ids {ids} do not all fit in int64")
                if row["role"] not in rows:
                    raise ValueError(f"unknown role: {row['role']}")
                first = lines.setdefault(tuple(ids), reader.line_num)
                if first != reader.line_num:
                    raise ValueError("target (user {}, session {}, serp {}) is listed twice, "
                                     "first at line {}".format(*ids, first))
                rows[row["role"]].append(ids)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return TargetSet(**{role: np.array(ids, dtype=np.int64).reshape(-1, 3)
                        for role, ids in rows.items()})
