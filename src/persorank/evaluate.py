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
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .cache import atomic_write
from .features import FeatureTable, read_table, write_table
from .logs import DataError, distinct

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


def rank_rows(scores: np.ndarray, base_ranks: np.ndarray) -> np.ndarray:
    """`rank_by_score` of every row of (targets, docs) arrays, as (targets, docs) indices."""
    return np.lexsort((base_ranks, -scores), axis=-1)


def ndcg_rows(order: np.ndarray, gains: np.ndarray, cutoff: int = NDCG_CUTOFF) -> np.ndarray:
    """`ndcg_at` of every row of (targets, docs) orders and gains, bit for bit.

    The gain values 2^g - 1 come from Python's pow, one per distinct grade
    (numpy's vector pow may differ in the last bit), and DCG adds one rank
    position at a time, in the scalar order.
    """
    gains = np.asarray(gains, dtype=np.float64)
    grades = distinct(gains)
    inverse = np.searchsorted(grades, gains)  # codes of the grades, in grade order
    values = np.array([2.0 ** g - 1.0 for g in grades.tolist()])
    ranked = values[np.take_along_axis(inverse, order, axis=-1)]
    ideal = values[np.sort(inverse, axis=-1)[:, ::-1]]
    dcg = np.zeros(gains.shape[0])
    ideal_dcg = np.zeros(gains.shape[0])
    for i in range(min(cutoff, gains.shape[-1])):
        discount = math.log2(i + 2)
        dcg = dcg + ranked[:, i] / discount
        ideal_dcg = ideal_dcg + ideal[:, i] / discount
    unranked = ideal_dcg == 0.0
    return np.where(unranked, 1.0, dcg / np.where(unranked, 1.0, ideal_dcg))


def mean_ndcg(
    scores: np.ndarray,
    gains: np.ndarray,
    base_ranks: np.ndarray,
    cutoff: int = NDCG_CUTOFF,
) -> float:
    """Mean NDCG over (targets, docs) arrays, ranking by score with tie-break."""
    n = scores.shape[0]
    if n == 0:
        raise ValueError("no targets to evaluate")
    values = ndcg_rows(rank_rows(scores, base_ranks), gains, cutoff)
    # accumulate adds left to right, as a loop would; np.sum's pairwise order may not
    return np.add.accumulate(values)[-1] / n


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
class EvalReport:
    """Per-target results, (T,) arrays in score-table order, and their means."""

    ids: np.ndarray  # (T, 4) the score table's ids
    ndcg: np.ndarray
    base_ndcg: np.ndarray
    tau: np.ndarray
    split_a_mean_ndcg: float | None = None
    split_b_mean_ndcg: float | None = None

    @property
    def delta_ndcg(self) -> np.ndarray:
        return self.ndcg - self.base_ndcg

    @property
    def mean_ndcg(self) -> float:
        return float(np.mean(self.ndcg))

    @property
    def mean_base_ndcg(self) -> float:
        return float(np.mean(self.base_ndcg))

    @property
    def mean_delta_ndcg(self) -> float:
        return float(np.mean(self.delta_ndcg))

    @property
    def mean_tau(self) -> float:
        return float(np.mean(self.tau))


SCORE_HEADER = [
    "user_id", "query_id", "session_id", "serp_id", "doc_id",
    "base_rank", "gain", "score",
]


def write_scores(table: FeatureTable, path: str | Path) -> None:
    """Write a score file: the table's ids plus its one score per document, `table.x`.

    Base ranks, gains and scores are written in `repr` digits; the gain
    column is left empty for unlabeled tables. A score that is not finite
    raises DataError naming its target, before the file is opened.
    """
    finite = np.isfinite(table.x).all(axis=(1, 2))
    if not finite.all():
        raise DataError("target user={} query={} session={} serp={} has a score that is not "
                        "finite".format(*table.ids[np.argmin(finite)].tolist()))
    gains = map(repr, table.gains.ravel().tolist()) if table.gains is not None else repeat("")
    ends = (f"{gain},{score!r}\r\n" for gain, score in zip(gains, table.x.ravel().tolist()))
    write_table([table], path, SCORE_HEADER, lambda table: table.base_ranks[..., None],
                lambda table: ends)


def read_scores(path: str | Path) -> FeatureTable:
    """Load a score file as a table whose x holds its (targets, 10, 1) scores.

    Malformed content raises DataError, as for feature files.
    """
    return read_table(path, SCORE_HEADER, slice(-1, None))  # the last number column


def evaluate_run(
    table: FeatureTable,
    cutoff: int = NDCG_CUTOFF,
    split_seed: int | None = None,
) -> EvalReport:
    """Per-query NDCG of a score table's ranking, base-ranking comparison, and means.

    With a split seed the queries are shuffled and halved, emulating a
    hidden public/private leaderboard split, and each half's mean NDCG is
    reported alongside the aggregates. A table without targets or without
    relevance labels raises DataError.
    """
    if table.n_targets == 0:
        raise DataError("no targets to evaluate")
    if table.gains is None:
        raise DataError("targets without relevance labels; cannot evaluate")
    order = rank_rows(table.x[..., 0], table.base_ranks)
    base_order = np.argsort(table.base_ranks, axis=-1, kind="stable")
    ndcg = ndcg_rows(order, table.gains, cutoff)
    # Both orders permute the same ten slots, so tau compares slots, not
    # doc ids: a target that lists one document twice still has a tau.
    tau = np.array([kendall_tau(ranked, base_ranked)
                    for ranked, base_ranked in zip(order.tolist(), base_order.tolist())])
    report = EvalReport(table.ids, ndcg, ndcg_rows(base_order, table.gains, cutoff), tau)
    if split_seed is not None and len(ndcg) >= 2:
        perm = np.random.default_rng(split_seed).permutation(len(ndcg))
        half = len(ndcg) // 2
        report.split_a_mean_ndcg = float(ndcg[perm[:half]].mean())
        report.split_b_mean_ndcg = float(ndcg[perm[half:]].mean())
    return report


def write_report(report: EvalReport, path: str | Path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["user_id", "query_id", "session_id", "serp_id",
             "ndcg", "base_ndcg", "delta_ndcg", "tau"]
        )
        writer.writerows([*ids, *map(repr, values)] for ids, *values in zip(
            report.ids.tolist(),
            *(values.tolist() for values in (
                report.ndcg, report.base_ndcg, report.delta_ndcg, report.tau)),
        ))


def write_summary(report: EvalReport, path: str | Path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["n_queries", len(report.ndcg)])
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
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in rows:
            writer.writerow([repr(lo), repr(hi), count])
