"""Scoring models: heuristic re-ranker and one-hidden-layer networks.

The heuristic re-ranks documents by their total historical relevance over
the user's earlier repetitions of the query, keeping the engine order for
ties. The trained models share one architecture (inputs -> tanh hidden
layer -> linear score) and differ only in objective: squared error against
the gains, pairwise logistic loss over within-query document pairs with
differing gains, or listwise cross-entropy between the top-one softmax
distributions of gains and scores. Inputs are standardized to zero mean
and unit deviation using training-set statistics. Training runs plain
mini-batch gradient descent over batches of whole queries with early
stopping on validation NDCG@10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .cache import load_json, save_json
from .config import TrainSettings
from .evaluate import mean_ndcg
from .features import HIST_RELEVANCE_INDEX, N_FEATURES, FeatureTable
from .logs import DataError


class ModelKind(str, Enum):
    HEURISTIC = "heuristic"
    REGRESSION = "regression"
    RANKNET = "ranknet"
    LISTNET = "listnet"


def heuristic_rerank(
    hist_relevance: Sequence[float], base_ranks: Sequence[float]
) -> list[int]:
    """Order documents by descending historical relevance, engine order on ties."""
    if len(hist_relevance) != len(base_ranks):
        raise ValueError("hist_relevance and base_ranks must be aligned")
    idx = range(len(hist_relevance))
    return sorted(idx, key=lambda i: (-hist_relevance[i], base_ranks[i]))


@dataclass
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray  # per-feature deviation; constant features keep scale 1

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"feature dimension {x.shape[-1]} != standardizer "
                f"dimension {self.mean.shape[0]}"
            )
        return (x - self.mean) / self.scale

    def as_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Standardizer":
        return cls(
            mean=np.asarray(data["mean"], dtype=np.float64),
            scale=np.asarray(data["scale"], dtype=np.float64),
        )


@dataclass
class NetParams:
    w1: np.ndarray  # (n_features, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    def copy(self) -> "NetParams":
        return NetParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2)


def init_params(n_features: int, hidden: int, rng: np.random.Generator) -> NetParams:
    # uniform in [-a, a] with a = sqrt(6 / (fan_in + fan_out))
    a1 = np.sqrt(6.0 / (n_features + hidden))
    a2 = np.sqrt(6.0 / (hidden + 1))
    return NetParams(
        w1=rng.uniform(-a1, a1, size=(n_features, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-a2, a2, size=hidden),
        b2=0.0,
    )


def forward(params: NetParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and hidden activations for standardized inputs (n, features)."""
    hidden = np.tanh(x @ params.w1 + params.b1)
    scores = hidden @ params.w2 + params.b2
    return scores, hidden


def backward(
    params: NetParams, x: np.ndarray, hidden: np.ndarray, dscores: np.ndarray
) -> NetParams:
    """Gradients of the loss w.r.t. every parameter, given d(loss)/d(scores)."""
    dw2 = hidden.T @ dscores
    db2 = float(dscores.sum())
    dhidden = dscores[:, None] * params.w2[None, :]
    dz = dhidden * (1.0 - hidden * hidden)
    dw1 = x.T @ dz
    db1 = dz.sum(axis=0)
    return NetParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


def _softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def query_pairs(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (preferred, other) index pairs within each query of a (B, 10) block.

    Pairs come in row-major (query, preferred, other) order.
    """
    t, i, j = np.nonzero(gains[:, :, None] > gains[:, None, :])
    n_docs = gains.shape[1]
    return t * n_docs + i, t * n_docs + j


def loss_and_score_grad(
    kind: ModelKind, scores: np.ndarray, gains: np.ndarray
) -> tuple[float, np.ndarray]:
    """Batch loss and its gradient w.r.t. the flat score vector.

    `scores` is flat over a (B, 10) block of whole queries; `gains` is the
    matching (B, 10) array.
    """
    n_queries, n_docs = gains.shape
    flat_gains = gains.reshape(-1)
    if kind is ModelKind.REGRESSION:
        diff = scores - flat_gains
        loss = float(diff @ diff) / diff.size
        return loss, 2.0 * diff / diff.size
    if kind is ModelKind.RANKNET:
        i_idx, j_idx = query_pairs(gains)
        dscores = np.zeros_like(scores)
        if i_idx.size == 0:
            return 0.0, dscores
        margin = scores[i_idx] - scores[j_idx]
        loss = float(np.logaddexp(0.0, -margin).mean())
        # d/d(margin) of softplus(-margin) is -sigmoid(-margin)
        coeff = -_sigmoid(-margin) / i_idx.size
        np.add.at(dscores, i_idx, coeff)
        np.add.at(dscores, j_idx, -coeff)
        return loss, dscores
    if kind is ModelKind.LISTNET:
        score_rows = scores.reshape(n_queries, n_docs)
        target = _softmax(gains.astype(np.float64))
        log_pred = _log_softmax(score_rows)
        loss = float(-(target * log_pred).sum(axis=1).mean())
        dscores = (_softmax(score_rows) - target) / n_queries
        return loss, dscores.reshape(-1)
    raise ValueError(f"kind {kind} has no training objective")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def training_loss(
    kind: ModelKind, params: NetParams, x: np.ndarray, gains: np.ndarray
) -> float:
    """Loss of a parameter setting on one standardized batch (for checks)."""
    scores, _ = forward(params, x)
    loss, _ = loss_and_score_grad(kind, scores, gains)
    return loss


@dataclass
class RankModel:
    kind: ModelKind
    standardizer: Standardizer | None = None
    params: NetParams | None = None
    metadata: dict = field(default_factory=dict)

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Score rows of raw (unstandardized) feature vectors."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != N_FEATURES:
            raise ValueError(f"expected (n, {N_FEATURES}) features, got {x.shape}")
        if self.kind is ModelKind.HEURISTIC:
            return x[:, HIST_RELEVANCE_INDEX].copy()
        assert self.standardizer is not None and self.params is not None
        scores, _ = forward(self.params, self.standardizer.apply(x))
        return scores

    def save(self, path: str | Path) -> None:
        payload = {
            "format": "persorank-model",
            "version": 1,
            "kind": self.kind.value,
            "n_features": N_FEATURES,
            "metadata": self.metadata,
        }
        if self.kind is not ModelKind.HEURISTIC:
            payload["standardizer"] = self.standardizer.as_dict()
            payload["weights"] = {
                "w1": self.params.w1.tolist(),
                "b1": self.params.b1.tolist(),
                "w2": self.params.w2.tolist(),
                "b2": self.params.b2,
            }
        save_json(payload, path)

    @classmethod
    def load(cls, path: str | Path) -> "RankModel":
        payload = load_json(path, "persorank-model")
        try:
            kind = ModelKind(payload["kind"])
            model = cls(kind=kind, metadata=payload.get("metadata", {}))
            if kind is not ModelKind.HEURISTIC:
                model.standardizer = Standardizer.from_dict(payload["standardizer"])
                w = payload["weights"]
                model.params = NetParams(
                    w1=np.asarray(w["w1"], dtype=np.float64),
                    b1=np.asarray(w["b1"], dtype=np.float64),
                    w2=np.asarray(w["w2"], dtype=np.float64),
                    b2=float(w["b2"]),
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed model file: {exc!r}") from None
        if kind is not ModelKind.HEURISTIC:
            _check_network(path, model.standardizer, model.params)
        return model


def _check_network(path: str | Path, standardizer: Standardizer, params: NetParams) -> None:
    """Raise DataError unless loaded arrays have the network's shapes and finite values."""
    hidden = params.b1.size
    expected = {
        "w1": (params.w1, (N_FEATURES, hidden)),
        "b1": (params.b1, (hidden,)),
        "w2": (params.w2, (hidden,)),
        "standardizer mean": (standardizer.mean, (N_FEATURES,)),
        "standardizer scale": (standardizer.scale, (N_FEATURES,)),
    }
    for name, (array, shape) in expected.items():
        if array.shape != shape:
            raise DataError(f"{path}: {name} has shape {array.shape}, expected {shape}")
        if not np.isfinite(array).all():
            raise DataError(f"{path}: {name} holds non-finite values")
    if not np.isfinite(params.b2):
        raise DataError(f"{path}: b2 is not finite")


def _validation_ndcg(
    params: NetParams,
    x_std: np.ndarray,
    gains: np.ndarray,
    base_ranks: np.ndarray,
    cutoff: int,
) -> float:
    scores, _ = forward(params, x_std.reshape(-1, x_std.shape[-1]))
    return mean_ndcg(scores.reshape(gains.shape), gains, base_ranks, cutoff)


def train(
    kind: ModelKind,
    train_table: FeatureTable,
    val_table: FeatureTable,
    settings: TrainSettings | None = None,
    seed: int = 0,
) -> RankModel:
    """Fit a scoring network; keeps the weights of the best validation epoch."""
    if kind is ModelKind.HEURISTIC:
        return RankModel(kind=kind, metadata={"note": "no training required"})
    settings = settings or TrainSettings()
    settings.validate()
    if train_table.n_targets == 0:
        raise DataError("empty training set")
    if val_table.n_targets == 0:
        raise DataError("empty validation set")
    if train_table.gains is None or val_table.gains is None:
        raise DataError("training and validation features must carry gains")
    if not (train_table.gains > 0).any(axis=1).all():
        raise DataError("every training query needs at least one gain > 0 document")

    standardizer = Standardizer.fit(train_table.flat_x())
    x_train = standardizer.apply(train_table.x)
    x_val = standardizer.apply(val_table.x)
    gains = train_table.gains.astype(np.float64)

    rng = np.random.default_rng(seed)
    params = init_params(train_table.x.shape[-1], settings.hidden, rng)

    best = params.copy()
    best_ndcg = -1.0
    best_epoch = 0
    epochs_run = 0
    stall = 0
    history = []

    n_targets = train_table.n_targets
    for epoch in range(1, settings.epochs + 1):
        epochs_run = epoch
        order = rng.permutation(n_targets)
        for start in range(0, n_targets, settings.batch_queries):
            batch = order[start : start + settings.batch_queries]
            xb = x_train[batch].reshape(-1, x_train.shape[-1])
            gb = gains[batch]
            scores, hidden = forward(params, xb)
            loss, dscores = loss_and_score_grad(kind, scores, gb)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} (kind={kind.value}, "
                    f"lr={settings.learning_rate}): {loss}"
                )
            grads = backward(params, xb, hidden, dscores)
            lr = settings.learning_rate
            params.w1 -= lr * grads.w1
            params.b1 -= lr * grads.b1
            params.w2 -= lr * grads.w2
            params.b2 -= lr * grads.b2
        val_ndcg = _validation_ndcg(
            params, x_val, val_table.gains, val_table.base_ranks, settings.cutoff
        )
        history.append(val_ndcg)
        if val_ndcg > best_ndcg:
            best_ndcg = val_ndcg
            best = params.copy()
            best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= settings.patience:
                break

    return RankModel(
        kind=kind,
        standardizer=standardizer,
        params=best,
        metadata={
            "seed": seed,
            "hidden": settings.hidden,
            "learning_rate": settings.learning_rate,
            "epochs_limit": settings.epochs,
            "epochs_run": epochs_run,
            "batch_queries": settings.batch_queries,
            "patience": settings.patience,
            "best_epoch": best_epoch,
            "best_validation_ndcg": best_ndcg,
            "validation_history": [round(v, 8) for v in history],
        },
    )


def score_table(model: RankModel, table: FeatureTable) -> np.ndarray:
    """Scores shaped (targets, 10), matching the table layout."""
    flat = model.scores(table.flat_x())
    return flat.reshape(table.x.shape[0], table.x.shape[1])
