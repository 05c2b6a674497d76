"""Score aggregation across trained models.

Every member's scores are first standardized to zero mean and unit
deviation over the pool being blended, which makes the blend indifferent
to each member's scale. Aggregation is either a plain average or a linear
pairwise-loss model fitted on half of the validation queries and measured
on the other half; the training set is never used for fitting blend
weights because the members may have overfitted it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .cache import load_json, save_json
from .evaluate import mean_ndcg
from .features import FeatureTable
from .logs import DataError
from .ranker import ModelKind, Standardizer, load_array, loss_and_score_grad

LEARNED_BLEND_LR = 0.5
LEARNED_BLEND_EPOCHS = 200


@dataclass
class BlendModel:
    method: str  # "average" or "learned"
    member_names: list[str]
    standardizer: Standardizer  # of the member scores over the blended pool
    weights: np.ndarray
    bias: float = 0.0
    metadata: dict = field(default_factory=dict)

    def apply(self, members: Sequence[FeatureTable]) -> FeatureTable:
        """The first member's table, with the members' scores blended by the stored statistics.

        A member count other than the fitted one raises DataError.
        """
        if len(members) != len(self.member_names):
            raise DataError(f"expected {len(self.member_names)} members, got {len(members)}")
        return self._blend(members[0], self.standardizer.apply(_stack(members)))

    def _blend(self, first: FeatureTable, z: np.ndarray) -> FeatureTable:
        """`first` with the blend of the standardized member scores `z`, (..., members)."""
        with np.errstate(over="ignore", invalid="ignore"):  # `write_scores` refuses non-finite
            blended = z.reshape(-1, len(self.member_names)) @ self.weights + self.bias
        return replace(first, x=blended.reshape(first.x.shape))

    def save(self, path: str | Path) -> None:
        payload = {
            "format": "persorank-blend",
            "version": 1,
            "method": self.method,
            "members": self.member_names,
            "member_means": self.standardizer.mean.tolist(),
            "member_scales": self.standardizer.scale.tolist(),
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "metadata": self.metadata,
        }
        save_json(payload, path)

    @classmethod
    def load(cls, path: str | Path) -> "BlendModel":
        payload = load_json(path, "persorank-blend")
        try:
            names = list(payload["members"])
            per_member = (len(names),)
            return cls(
                method=payload["method"],
                member_names=names,
                standardizer=Standardizer(
                    load_array(path, "member_means", payload["member_means"], per_member),
                    load_array(path, "member_scales", payload["member_scales"],
                               per_member, positive=True)),
                weights=load_array(path, "weights", payload["weights"], per_member),
                bias=float(load_array(path, "bias", payload["bias"], ())),
                metadata=payload.get("metadata", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed blend file: {exc!r}") from None


def _stack(members: Sequence[FeatureTable]) -> np.ndarray:
    """The members' (T, 10, 1) scores as one (T·10, members) array."""
    return np.concatenate([m.x for m in members], axis=-1).reshape(-1, len(members))


def blend_average(
    members: Sequence[FeatureTable], names: Sequence[str] | None = None
) -> tuple[FeatureTable, BlendModel]:
    """Standardize each member over the pool, then average per document."""
    stacked = _stack(members)
    n_members = stacked.shape[1]
    weights = np.full(n_members, 1.0 / n_members)
    model = BlendModel(
        method="average",
        member_names=list(names) if names else [f"m{i}" for i in range(n_members)],
        standardizer=Standardizer.fit(stacked),
        weights=weights,
    )
    return model._blend(members[0], model.standardizer.apply(stacked)), model


def blend_learned(
    members: Sequence[FeatureTable],
    split_seed: int = 0,
    names: Sequence[str] | None = None,
    cutoff: int = 10,
) -> tuple[FeatureTable, BlendModel]:
    """Fit linear pairwise-loss weights on half the queries, report the rest.

    The members are labeled score tables of the same targets; the gains and
    base ranks are the first member's. Returns the blend of the full pool
    plus the fitted model, whose metadata carries the holdout mean NDCG.
    """
    stacked = _stack(members)
    n_members = stacked.shape[1]
    if n_members < 2:
        raise ValueError("learned blending needs at least 2 members")
    gains, base_ranks = members[0].gains, members[0].base_ranks
    if gains is None:
        raise DataError("learned blending needs labeled queries")
    n_queries = gains.shape[0]

    rng = np.random.default_rng(split_seed)
    perm = rng.permutation(n_queries)
    half = n_queries // 2
    fit_idx, holdout_idx = perm[:half], perm[half:]
    if fit_idx.size == 0 or holdout_idx.size == 0:
        raise DataError("validation pool too small to split")

    standardizer = Standardizer.fit(stacked)
    z = standardizer.apply(stacked).reshape(n_queries, gains.shape[1], n_members)

    z_fit = z[fit_idx].reshape(-1, n_members)
    gains_fit = gains[fit_idx]
    weights = np.zeros(n_members)
    for _ in range(LEARNED_BLEND_EPOCHS):
        scores = z_fit @ weights
        _, dscores = loss_and_score_grad(ModelKind.RANKNET, scores, gains_fit)
        weights -= LEARNED_BLEND_LR * (z_fit.T @ dscores)

    holdout_scores = (z[holdout_idx].reshape(-1, n_members) @ weights).reshape(
        holdout_idx.size, gains.shape[1]
    )
    holdout_ndcg = mean_ndcg(
        holdout_scores, gains[holdout_idx], base_ranks[holdout_idx], cutoff
    )

    model = BlendModel(
        method="learned",
        member_names=list(names) if names else [f"m{i}" for i in range(n_members)],
        standardizer=standardizer,
        weights=weights,
        metadata={
            "split_seed": split_seed,
            "fit_queries": int(fit_idx.size),
            "holdout_queries": int(holdout_idx.size),
            "holdout_mean_ndcg": holdout_ndcg,
            "learning_rate": LEARNED_BLEND_LR,
            "epochs": LEARNED_BLEND_EPOCHS,
        },
    )
    return model._blend(members[0], z), model
