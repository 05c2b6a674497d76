"""Score aggregation across trained models.

Every member's scores are first standardized to zero mean and unit
deviation over the pool being blended, which makes the blend indifferent
to each member's scale. Aggregation is either a plain average or a linear
pairwise-loss model fitted on half of the validation queries and measured
on the other half; the training set is never used for fitting blend
weights because the members may have overfitted it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cache import load_json, save_json
from .evaluate import mean_ndcg
from .logs import DataError
from .ranker import loss_and_score_grad, ModelKind

LEARNED_BLEND_LR = 0.5
LEARNED_BLEND_EPOCHS = 200


@dataclass
class BlendModel:
    method: str  # "average" or "learned"
    member_names: list[str]
    member_means: np.ndarray
    member_scales: np.ndarray
    weights: np.ndarray
    bias: float = 0.0
    metadata: dict = field(default_factory=dict)

    def apply(self, member_scores: Sequence[np.ndarray]) -> np.ndarray:
        """Blend raw member score vectors using the stored statistics.

        A member count other than the fitted one raises DataError.
        """
        stacked = _stack(member_scores)
        if stacked.shape[1] != len(self.member_names):
            raise DataError(
                f"expected {len(self.member_names)} members, got {stacked.shape[1]}"
            )
        z = (stacked - self.member_means) / self.member_scales
        return z @ self.weights + self.bias

    def save(self, path: str | Path) -> None:
        payload = {
            "format": "persorank-blend",
            "version": 1,
            "method": self.method,
            "members": self.member_names,
            "member_means": self.member_means.tolist(),
            "member_scales": self.member_scales.tolist(),
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "metadata": self.metadata,
        }
        save_json(payload, path)

    @classmethod
    def load(cls, path: str | Path) -> "BlendModel":
        payload = load_json(path, "persorank-blend")
        try:
            return cls(
                method=payload["method"],
                member_names=list(payload["members"]),
                member_means=np.asarray(payload["member_means"], dtype=np.float64),
                member_scales=np.asarray(payload["member_scales"], dtype=np.float64),
                weights=np.asarray(payload["weights"], dtype=np.float64),
                bias=float(payload["bias"]),
                metadata=payload.get("metadata", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed blend file: {exc!r}") from None


def _stack(member_scores: Sequence[np.ndarray]) -> np.ndarray:
    if len(member_scores) == 0:
        raise ValueError("no member scores given")
    arrays = [np.asarray(s, dtype=np.float64).reshape(-1) for s in member_scores]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("member score vectors have mismatched lengths")
    return np.stack(arrays, axis=1)


def _pool_stats(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    means = stacked.mean(axis=0)
    scales = stacked.std(axis=0)
    scales = np.where(scales > 0.0, scales, 1.0)
    return means, scales


def blend_average(
    member_scores: Sequence[np.ndarray], names: Sequence[str] | None = None
) -> tuple[np.ndarray, BlendModel]:
    """Standardize each member over the pool, then average per document."""
    stacked = _stack(member_scores)
    means, scales = _pool_stats(stacked)
    n_members = stacked.shape[1]
    weights = np.full(n_members, 1.0 / n_members)
    model = BlendModel(
        method="average",
        member_names=list(names) if names else [f"m{i}" for i in range(n_members)],
        member_means=means,
        member_scales=scales,
        weights=weights,
    )
    return model.apply(member_scores), model


def blend_learned(
    member_scores: Sequence[np.ndarray],
    gains: np.ndarray,
    base_ranks: np.ndarray,
    split_seed: int = 0,
    names: Sequence[str] | None = None,
    learning_rate: float = LEARNED_BLEND_LR,
    epochs: int = LEARNED_BLEND_EPOCHS,
    cutoff: int = 10,
) -> tuple[np.ndarray, BlendModel]:
    """Fit linear pairwise-loss weights on half the queries, report the rest.

    `member_scores` are flat per-document vectors over labeled queries of
    10 documents each; `gains` and `base_ranks` are (queries, 10). Returns
    blended scores for the full pool plus the fitted model, whose metadata
    carries the holdout mean NDCG.
    """
    stacked = _stack(member_scores)
    n_members = stacked.shape[1]
    if n_members < 2:
        raise ValueError("learned blending needs at least 2 members")
    if gains is None or np.isnan(gains).any():
        raise DataError("learned blending needs labeled queries")
    n_queries = gains.shape[0]
    if stacked.shape[0] != n_queries * gains.shape[1]:
        raise ValueError("member scores do not align with the labeled queries")

    rng = np.random.default_rng(split_seed)
    perm = rng.permutation(n_queries)
    half = n_queries // 2
    fit_idx, holdout_idx = perm[:half], perm[half:]
    if fit_idx.size == 0 or holdout_idx.size == 0:
        raise DataError("validation pool too small to split")

    means, scales = _pool_stats(stacked)
    z = ((stacked - means) / scales).reshape(n_queries, gains.shape[1], n_members)

    z_fit = z[fit_idx].reshape(-1, n_members)
    gains_fit = gains[fit_idx]
    weights = np.zeros(n_members)
    for _ in range(epochs):
        scores = z_fit @ weights
        _, dscores = loss_and_score_grad(ModelKind.RANKNET, scores, gains_fit)
        weights -= learning_rate * (z_fit.T @ dscores)

    holdout_scores = (z[holdout_idx].reshape(-1, n_members) @ weights).reshape(
        holdout_idx.size, gains.shape[1]
    )
    holdout_ndcg = mean_ndcg(
        holdout_scores, gains[holdout_idx], base_ranks[holdout_idx], cutoff
    )

    model = BlendModel(
        method="learned",
        member_names=list(names) if names else [f"m{i}" for i in range(n_members)],
        member_means=means,
        member_scales=scales,
        weights=weights,
        metadata={
            "split_seed": split_seed,
            "fit_queries": int(fit_idx.size),
            "holdout_queries": int(holdout_idx.size),
            "holdout_mean_ndcg": holdout_ndcg,
            "learning_rate": learning_rate,
            "epochs": epochs,
        },
    )
    return model.apply(member_scores), model
