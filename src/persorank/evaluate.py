"""Ranking metrics and run evaluation.

NDCG@T uses exponential gain (2^g - 1) with a log2(i + 1) position
discount, normalized by the ideal ordering's value; queries whose ideal
value is 0 score 1.0 by convention (nothing can be ranked wrong). Kendall
tau compares a model ranking against the engine's base ranking pair by
pair. Score ties are always broken by base rank, keeping every ranking
deterministic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .logs import DataError

NDCG_CUTOFF = 10


def rank_by_score(scores: Sequence[float], base_ranks: Sequence[float]) -> list[int]:
    """Document indices ordered by descending score, base rank breaking ties."""
    if len(scores) != len(base_ranks):
        raise ValueError("scores and base_ranks must be aligned")
    return sorted(range(len(scores)), key=lambda i: (-scores[i], base_ranks[i]))


def ndcg_at(order: Sequence[int], gains: Sequence[float], cutoff: int = NDCG_CUTOFF) -> float:
    """NDCG of a ranking given per-document gains.

    `order` lists document indices from best to worst rank and must be a
    permutation of range(len(gains)).
    """
    n = len(gains)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the document indices")
    top = min(cutoff, n)
    dcg = 0.0
    for i in range(top):
        dcg += (2.0 ** gains[order[i]] - 1.0) / math.log2(i + 2)
    ideal = sorted(gains, reverse=True)
    ideal_dcg = 0.0
    for i in range(top):
        ideal_dcg += (2.0 ** ideal[i] - 1.0) / math.log2(i + 2)
    if ideal_dcg == 0.0:
        return 1.0
    return dcg / ideal_dcg


def mean_ndcg(
    scores: np.ndarray,
    gains: np.ndarray,
    base_ranks: np.ndarray,
    cutoff: int = NDCG_CUTOFF,
) -> float:
    """Mean NDCG over (targets, docs) arrays, ranking by score with tie-break."""
    total = 0.0
    n = scores.shape[0]
    if n == 0:
        raise ValueError("no targets to evaluate")
    for t in range(n):
        order = rank_by_score(scores[t], base_ranks[t])
        total += ndcg_at(order, gains[t], cutoff)
    return total / n


def kendall_tau(ranking_a: Sequence[int], ranking_b: Sequence[int]) -> float:
    """Kendall tau between two tie-free rankings of the same documents."""
    n = len(ranking_a)
    if n != len(ranking_b) or set(ranking_a) != set(ranking_b) or len(set(ranking_a)) != n:
        raise ValueError("rankings must order the same documents without ties")
    if n < 2:
        return 1.0
    pos_b = {doc: i for i, doc in enumerate(ranking_b)}
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if pos_b[ranking_a[i]] < pos_b[ranking_a[j]]:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


@dataclass
class QueryEval:
    user_id: int
    query_id: int
    session_id: int
    serp_id: int
    ndcg: float
    base_ndcg: float
    delta_ndcg: float
    tau: float


@dataclass
class EvalReport:
    rows: list[QueryEval] = field(default_factory=list)
    mean_ndcg: float = 0.0
    mean_base_ndcg: float = 0.0
    mean_delta_ndcg: float = 0.0
    mean_tau: float = 0.0
    split_a_mean_ndcg: float | None = None
    split_b_mean_ndcg: float | None = None


@dataclass
class ScoredTarget:
    """All evaluation inputs for one query: ids, docs, gains, base ranks, scores."""

    user_id: int
    query_id: int
    session_id: int
    serp_id: int
    doc_ids: Sequence[int]
    gains: Sequence[float]
    base_ranks: Sequence[float]
    scores: Sequence[float]


SCORE_HEADER = [
    "user_id", "query_id", "session_id", "serp_id", "doc_id",
    "base_rank", "gain", "score",
]


def write_scores(table, scores: np.ndarray, path: str | Path) -> None:
    """Write a score file: feature-table ids plus one score per document.

    `table` is a features.FeatureTable; `scores` is (targets, 10). The gain
    column is left empty for unlabeled tables.
    """
    if scores.shape != table.x.shape[:2]:
        raise ValueError(f"scores shape {scores.shape} does not match the table")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_HEADER)
        for t in range(table.n_targets):
            for j in range(table.x.shape[1]):
                if table.gains is None or math.isnan(table.gains[t, j]):
                    gain = ""
                else:
                    gain = repr(float(table.gains[t, j]))
                writer.writerow(
                    [
                        int(table.user_ids[t]),
                        int(table.query_ids[t]),
                        int(table.session_ids[t]),
                        int(table.serp_ids[t]),
                        int(table.doc_ids[t, j]),
                        repr(float(table.base_ranks[t, j])),
                        gain,
                        repr(float(scores[t, j])),
                    ]
                )


def read_scores(path: str | Path) -> list[ScoredTarget]:
    """Load a score file into per-query evaluation inputs.

    Malformed content raises DataError: rows with the wrong number of
    fields, ids or numbers that do not parse, and scores or base ranks that
    are not finite. An empty gain marks an unlabeled document.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SCORE_HEADER:
            raise DataError(f"unexpected score header in {path}")
        raw = list(reader)
    if len(raw) % 10 != 0:
        raise DataError(f"{path}: row count {len(raw)} is not a multiple of 10")
    targets = []
    for t in range(len(raw) // 10):
        group = raw[t * 10 : (t + 1) * 10]
        first = group[0]
        line = t * 10 + 2
        if any(len(r) != len(SCORE_HEADER) for r in group):
            raise DataError(f"{path}: target at line {line} has rows of the wrong length")
        if any((r[0], r[2], r[3]) != (first[0], first[2], first[3]) for r in group):
            raise DataError(f"{path}: rows of target {t} are mixed")
        try:
            target = ScoredTarget(
                user_id=int(first[0]),
                query_id=int(first[1]),
                session_id=int(first[2]),
                serp_id=int(first[3]),
                doc_ids=[int(r[4]) for r in group],
                gains=[float(r[6]) if r[6] else math.nan for r in group],
                base_ranks=[float(r[5]) for r in group],
                scores=[float(r[7]) for r in group],
            )
        except ValueError as exc:
            raise DataError(f"{path}: target at line {line}: {exc}") from None
        if not all(map(math.isfinite, target.scores + target.base_ranks)):
            raise DataError(
                f"{path}: target at line {line} has a non-finite score or base rank"
            )
        targets.append(target)
    return targets


def scored_targets_arrays(
    targets: Sequence[ScoredTarget],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat scores, gains (T,10), base ranks (T,10)) from score-file rows."""
    scores = np.asarray([t.scores for t in targets], dtype=np.float64)
    gains = np.asarray([t.gains for t in targets], dtype=np.float64)
    base = np.asarray([t.base_ranks for t in targets], dtype=np.float64)
    return scores.reshape(-1), gains, base


def evaluate_run(
    targets: Sequence[ScoredTarget],
    cutoff: int = NDCG_CUTOFF,
    split_seed: int | None = None,
) -> EvalReport:
    """Per-query NDCG, base-ranking comparison, and aggregate means.

    With a split seed the queries are shuffled and halved, emulating a
    hidden public/private leaderboard split, and each half's mean NDCG is
    reported alongside the aggregates.
    """
    report = EvalReport()
    ndcgs = []
    for target in targets:
        n = len(target.doc_ids)
        if n == 0 or len(target.gains) != n or len(target.scores) != n:
            raise ValueError(
                f"target user={target.user_id} serp={target.serp_id}: "
                "documents, gains, and scores must align"
            )
        if any(math.isnan(g) for g in target.gains):
            raise DataError(
                f"target user={target.user_id} serp={target.serp_id} "
                "has no relevance labels; cannot evaluate"
            )
        order = rank_by_score(target.scores, target.base_ranks)
        base_order = sorted(range(n), key=lambda i: target.base_ranks[i])
        value = ndcg_at(order, target.gains, cutoff)
        base_value = ndcg_at(base_order, target.gains, cutoff)
        tau = kendall_tau(
            [target.doc_ids[i] for i in order],
            [target.doc_ids[i] for i in base_order],
        )
        report.rows.append(
            QueryEval(
                user_id=target.user_id,
                query_id=target.query_id,
                session_id=target.session_id,
                serp_id=target.serp_id,
                ndcg=value,
                base_ndcg=base_value,
                delta_ndcg=value - base_value,
                tau=tau,
            )
        )
        ndcgs.append(value)
    if report.rows:
        report.mean_ndcg = float(np.mean([r.ndcg for r in report.rows]))
        report.mean_base_ndcg = float(np.mean([r.base_ndcg for r in report.rows]))
        report.mean_delta_ndcg = float(np.mean([r.delta_ndcg for r in report.rows]))
        report.mean_tau = float(np.mean([r.tau for r in report.rows]))
    if split_seed is not None and len(ndcgs) >= 2:
        rng = np.random.default_rng(split_seed)
        perm = rng.permutation(len(ndcgs))
        half = len(ndcgs) // 2
        values = np.asarray(ndcgs)
        report.split_a_mean_ndcg = float(values[perm[:half]].mean())
        report.split_b_mean_ndcg = float(values[perm[half:]].mean())
    return report


def write_report(report: EvalReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["user_id", "query_id", "session_id", "serp_id",
             "ndcg", "base_ndcg", "delta_ndcg", "tau"]
        )
        for row in report.rows:
            writer.writerow(
                [row.user_id, row.query_id, row.session_id, row.serp_id,
                 repr(row.ndcg), repr(row.base_ndcg),
                 repr(row.delta_ndcg), repr(row.tau)]
            )


def write_summary(report: EvalReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["n_queries", len(report.rows)])
        writer.writerow(["mean_ndcg", repr(report.mean_ndcg)])
        writer.writerow(["mean_base_ndcg", repr(report.mean_base_ndcg)])
        writer.writerow(["mean_delta_ndcg", repr(report.mean_delta_ndcg)])
        writer.writerow(["mean_tau", repr(report.mean_tau)])
        if report.split_a_mean_ndcg is not None:
            writer.writerow(["split_a_mean_ndcg", repr(report.split_a_mean_ndcg)])
            writer.writerow(["split_b_mean_ndcg", repr(report.split_b_mean_ndcg)])


def histogram(values: Sequence[float], lo: float, hi: float, bins: int) -> list[tuple[float, float, int]]:
    """Fixed-width binning with the final bin closed on the right."""
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        idx = math.floor((v - lo) / width)
        if idx == bins and v <= hi:
            idx -= 1
        if 0 <= idx < bins:
            counts[idx] += 1
    return [(lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)]


def write_histogram(rows: list[tuple[float, float, int]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in rows:
            writer.writerow([repr(lo), repr(hi), count])
