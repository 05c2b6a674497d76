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

from .logs import DataError, Impression, Session

ROLES = ("train", "validation", "test")


@dataclass(frozen=True, order=True)
class TargetRef:
    user_id: int
    session_id: int
    serp_id: int


@dataclass
class TargetSet:
    train: list[TargetRef] = field(default_factory=list)
    validation: list[TargetRef] = field(default_factory=list)
    test: list[TargetRef] = field(default_factory=list)

    def by_role(self, role: str) -> list[TargetRef]:
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
        rng = random.Random(f"{seed}:order:{user_id}")
        user_sessions = sorted(by_user[user_id], key=lambda s: s.session_id)
        jitter = {s.session_id: rng.random() for s in user_sessions}
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


def _has_relevant(imp: Impression) -> bool:
    if imp.labels is None:
        raise DataError(
            f"impression serp={imp.serp_id} is unlabeled; label sessions first"
        )
    return any(g.gain > 0 for g in imp.labels)


def _find_test_impression(
    user_sessions: list[Session], train_days: int
) -> tuple[Session, Impression] | None:
    flagged = [
        (s, imp)
        for s in user_sessions
        for imp in s.impressions
        if imp.is_test
    ]
    if flagged:
        return flagged[-1]
    # Synthetic fallback: the last impression of the last session, provided
    # that session falls in the test period.
    if user_sessions:
        last = user_sessions[-1]
        if last.day > train_days and last.impressions:
            return last, last.impressions[-1]
    return None


def select_targets(
    sessions: Iterable[Session],
    train_days: int = 27,
    seed: int = 0,
) -> tuple[TargetSet, PartitionReport]:
    """Pick per-user train/validation/test target impressions.

    Users lacking a qualifying impression for a role are simply absent from
    that role's list; the report counts them.
    """
    ordered = order_sessions(sessions, seed)
    targets = TargetSet()
    report = PartitionReport(n_users=len(ordered))

    for user_id, user_sessions in ordered.items():
        if not any(s.impressions for s in user_sessions):
            report.users_without_sessions += 1
            report.users_without_train += 1
            report.users_without_validation += 1
            report.users_without_test += 1
            continue

        train_target = None
        for session in reversed(user_sessions):
            if session.day > train_days:
                continue
            for imp in reversed(session.impressions):
                if _has_relevant(imp):
                    train_target = TargetRef(user_id, session.session_id, imp.serp_id)
                    break
            if train_target is not None:
                break
        if train_target is not None:
            targets.train.append(train_target)
        else:
            report.users_without_train += 1

        found = _find_test_impression(user_sessions, train_days)
        if found is None:
            report.users_without_test += 1
            report.users_without_validation += 1
            continue
        test_session, test_imp = found
        targets.test.append(TargetRef(user_id, test_session.session_id, test_imp.serp_id))

        validation_target = None
        for imp in test_session.impressions:
            if imp.time_passed >= test_imp.time_passed:
                break
            if _has_relevant(imp):
                validation_target = TargetRef(
                    user_id, test_session.session_id, imp.serp_id
                )
        if validation_target is not None:
            targets.validation.append(validation_target)
        else:
            report.users_without_validation += 1

    return targets, report


def write_targets(targets: TargetSet, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["role", "user_id", "session_id", "serp_id"])
        for role in ROLES:
            for ref in targets.by_role(role):
                writer.writerow([role, ref.user_id, ref.session_id, ref.serp_id])


def read_targets(path: str | Path) -> TargetSet:
    """Load a targets CSV; a row that does not parse raises DataError naming its line."""
    targets = TargetSet()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                ref = TargetRef(
                    int(row["user_id"]), int(row["session_id"]), int(row["serp_id"])
                )
                targets.by_role(row["role"]).append(ref)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return targets
