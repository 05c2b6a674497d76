"""Correctness checks on a run's artifacts, each counted as one operation.

The checks read the CSV files with the standard library, never through the
persorank readers they would be checking, and compare against the independent
oracles of ``tests/oracles.py``: the index-free feature extraction and the
term-by-term NDCG. The parsed sessions are counted against the ground truth
that ``persorank gen`` writes next to the log (``log.tsv.counts.json``). They
run outside the timed section.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

from workloads import PARTITION_SEED, TRAIN_DAYS

N_FEATURES = 121  # six 20-value context blocks plus the base rank
N_DOCS = 10
N_IDS = 5
# Features of a 20-value block that are integers: exact match required.
INTEGER_FEATURES = {0, 2, 3, 10, 11, 12, 13, 16, 17}
TOLERANCE = 1e-12


class CheckFailed(Exception):
    pass


class Checks:
    """Counts operations attempted and keeps a message for each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def run(self, name: str, fn, *args):
        """Run one check and return its result, or None if it failed.

        A CheckFailed or any other error raised inside the check is one failure.
        """
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - every error is a failed check
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, True)
        return result

    @property
    def failed(self) -> int:
        return len(self.failures)


def read_targets(path: Path) -> dict[str, list[tuple[int, int, int]]]:
    """Targets CSV as sorted (user, session, serp) keys per role."""
    roles: dict[str, list[tuple[int, int, int]]] = {"train": [], "validation": [], "test": []}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            roles[row["role"]].append(
                (int(row["user_id"]), int(row["session_id"]), int(row["serp_id"]))
            )
    return {role: sorted(keys) for role, keys in roles.items()}


def read_feature_rows(path: Path, keys: list[tuple[int, int, int]]) -> dict:
    """Validate a feature CSV against its role's targets; key -> 10 value rows.

    Each target must own 10 consecutive rows, in sorted target order, each with
    the id columns, 121 finite values and a gain column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    width = N_IDS + N_FEATURES + 1
    if len(header) != width:
        raise CheckFailed(f"{path.name}: header has {len(header)} columns, want {width}")
    if len(rows) != N_DOCS * len(keys):
        raise CheckFailed(f"{path.name}: {len(rows)} rows for {len(keys)} targets")
    table = {}
    for t, key in enumerate(keys):
        group = rows[t * N_DOCS:(t + 1) * N_DOCS]
        values = []
        for j, row in enumerate(group):
            line = t * N_DOCS + j + 2
            if len(row) != width:
                raise CheckFailed(f"{path.name}:{line}: {len(row)} columns, want {width}")
            if (int(row[0]), int(row[2]), int(row[3])) != key:
                raise CheckFailed(f"{path.name}:{line}: row belongs to another target")
            vector = [float(v) for v in row[N_IDS:N_IDS + N_FEATURES]]
            if not all(math.isfinite(v) for v in vector):
                raise CheckFailed(f"{path.name}:{line}: non-finite feature value")
            values.append(vector)
        table[key] = values
    return table


def compare_with_oracle(got: list[list[float]], want: list[list[float]]) -> None:
    """Integers exact, the rest within 1e-12, as acceptance criterion 2 demands."""
    if len(got) != len(want):
        raise CheckFailed(f"{len(got)} documents, oracle has {len(want)}")
    for doc, (a_row, b_row) in enumerate(zip(got, want)):
        if a_row[-1] != b_row[-1]:
            raise CheckFailed(f"document {doc}: base rank {a_row[-1]} != {b_row[-1]}")
        for i in range(N_FEATURES - 1):
            a, b = a_row[i], b_row[i]
            exact = i % 20 in INTEGER_FEATURES
            if (a != b) if exact else not abs(a - b) <= TOLERANCE:
                raise CheckFailed(f"document {doc}: c{i // 20 + 1}_g{i % 20 + 1} {a!r} != {b!r}")


def match_oracle(got: list[list[float]], oracle_extract, scan, key) -> None:
    """The oracle's features for the target key match got; an oracle error fails too."""
    compare_with_oracle(got, oracle_extract(scan, TRAIN_DAYS, *key))


def check_report(checks: Checks, report_path: Path, scores_path: Path, oracle_ndcg) -> None:
    """Recompute every report row from the score file; one operation per row."""
    with open(scores_path, newline="") as fh:
        score_rows = list(csv.DictReader(fh))
    with open(report_path, newline="") as fh:
        report_rows = list(csv.DictReader(fh))
    if not checks.record("report rows match score targets",
                         bool(report_rows) and len(score_rows) == N_DOCS * len(report_rows),
                         f"{len(report_rows)} report rows, {len(score_rows)} score rows"):
        return
    for t, row in enumerate(report_rows):
        group = score_rows[t * N_DOCS:(t + 1) * N_DOCS]
        gains = [float(r["gain"]) for r in group]
        scores = [float(r["score"]) for r in group]
        base = [float(r["base_rank"]) for r in group]
        order = sorted(range(N_DOCS), key=lambda i: (-scores[i], base[i]))
        base_order = sorted(range(N_DOCS), key=lambda i: base[i])
        ndcg = oracle_ndcg(order, gains)
        base_ndcg = oracle_ndcg(base_order, gains)
        same_target = all(row[k] == group[0][k] for k in ("user_id", "session_id", "serp_id"))
        close = all(
            abs(float(row[k]) - v) <= TOLERANCE
            for k, v in (("ndcg", ndcg), ("base_ndcg", base_ndcg),
                         ("delta_ndcg", ndcg - base_ndcg))
        )
        checks.record(f"report.csv row {t + 2} matches oracle_ndcg", same_target and close)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same_bytes(a: Path, b: Path) -> None:
    if digest(a) != digest(b):
        raise CheckFailed(f"{b} differs from {a}")


def oracle_sample(
    checks: Checks, sessions, targets, tables, seed: int, per_role: int, oracles
) -> None:
    """Compare a seeded sample of targets per role with oracle_extract."""
    scan = oracles.OracleScan(sessions, seed=PARTITION_SEED)
    rng = random.Random(seed)
    for role, keys in targets.items():
        if role not in tables:
            continue  # the feature file itself already failed its check
        for key in rng.sample(keys, min(per_role, len(keys))):
            checks.run(f"oracle_extract {role} {key}", match_oracle,
                       tables[role][key], oracles.oracle_extract, scan, key)


def corpus_counts(sessions, train_days: int) -> dict:
    """The generator's bookkeeping fields, counted from parsed sessions."""
    counts = {"unique_queries": set(), "unique_documents": set(), "unique_users": set(),
              "training_sessions": 0, "test_sessions": 0, "training_clicks": 0,
              "total_records": 0}
    grades = {"training": {}, "test": {}}
    for session in sessions:
        period = "training" if session.day <= train_days else "test"
        counts["unique_users"].add(session.user_id)
        counts[f"{period}_sessions"] += 1
        counts["total_records"] += 1
        for imp in session.impressions:
            counts["unique_queries"].add(imp.query_id)
            counts["unique_documents"].update(imp.documents)
            counts["total_records"] += 1 + len(imp.clicks)
            if period == "training":
                counts["training_clicks"] += len(imp.clicks)
            for grade in imp.labels or ():
                grades[period][grade.value] = grades[period].get(grade.value, 0) + 1
    counts = {k: len(v) if isinstance(v, set) else v for k, v in counts.items()}
    for period, by_grade in grades.items():
        counts[f"grade_counts.{period}"] = by_grade
    return counts


def check_corpus_counts(checks: Checks, sessions, counts_path: Path, train_days: int) -> None:
    """Compare parsed sessions with the generator's counts; one operation per field."""
    truth = json.loads(counts_path.read_text())
    for period, by_grade in truth.pop("grade_counts").items():
        truth[f"grade_counts.{period}"] = {g: n for g, n in by_grade.items() if n}
    got = corpus_counts(sessions, train_days)
    for field, want in truth.items():
        checks.record(f"{counts_path.name} {field} matches parsed sessions",
                      got.get(field) == want, f"parsed {got.get(field)!r}, generated {want!r}")
