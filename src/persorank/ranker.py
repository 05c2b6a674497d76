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

from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .cache import load_json, malloc_trim, save_json
from .config import Config, ConfigError
from .evaluate import mean_ndcg
from .features import HIST_RELEVANCE_INDEX, N_FEATURES, FeatureTable
from .logs import DataError


class ModelKind(str, Enum):
    HEURISTIC = "heuristic"
    REGRESSION = "regression"
    RANKNET = "ranknet"
    LISTNET = "listnet"


@dataclass
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray  # per-feature deviation; constant features keep scale 1

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        """Column statistics of `x`; a column whose spread overflows raises DataError."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
            mean = x.mean(axis=0)
            scale = x.std(axis=0)
        finite = np.isfinite(mean) & np.isfinite(scale)
        if not finite.all():
            raise DataError(f"the spread of column {np.argmin(finite) + 1} overflows float64, "
                            "so it cannot be standardized")
        scale = np.where(scale > 0.0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Standardized `x`; a column with a value that overflows raises DataError."""
        if x.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"feature dimension {x.shape[-1]} != standardizer "
                f"dimension {self.mean.shape[0]}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
            z = x - self.mean
            z /= self.scale
        finite = np.isfinite(z).reshape(-1, z.shape[-1]).all(axis=0)
        if not finite.all():
            raise DataError(f"a value of column {np.argmin(finite) + 1} overflows float64 "
                            "when standardized")
        return z

    def as_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}


def load_array(path: str | Path, name: str, value, shape: tuple[int, ...],
               positive: bool = False) -> np.ndarray:
    """A saved array as float64 of `shape`, finite, and > 0 if `positive`.

    Another shape or value raises DataError naming `path` and the array;
    a value that is not numbers raises numpy's TypeError or ValueError.
    """
    array = np.asarray(value, dtype=np.float64)
    if array.shape != shape:
        raise DataError(f"{path}: {name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise DataError(f"{path}: {name} holds non-finite values")
    if positive and not (array > 0).all():
        raise DataError(f"{path}: {name} holds a value <= 0")
    return array


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
    hidden = x @ params.w1
    hidden += params.b1
    np.tanh(hidden, out=hidden)
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
        with np.errstate(over="ignore", invalid="ignore"):  # `write_scores` refuses non-finite
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
                std, w = payload["standardizer"], payload["weights"]
                per_feature, hidden = (N_FEATURES,), len(w["b1"])
                model.standardizer = Standardizer(
                    load_array(path, "standardizer mean", std["mean"], per_feature),
                    load_array(path, "standardizer scale", std["scale"], per_feature,
                               positive=True))
                model.params = NetParams(
                    w1=load_array(path, "w1", w["w1"], (N_FEATURES, hidden)),
                    b1=load_array(path, "b1", w["b1"], (hidden,)),
                    w2=load_array(path, "w2", w["w2"], (hidden,)),
                    b2=float(load_array(path, "b2", w["b2"], ())),
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed model file: {exc!r}") from None
        return model


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
    val_table: FeatureTable | Callable[[], FeatureTable],
    cfg: Config | None = None,
) -> RankModel:
    """Fit a scoring network; keeps the weights of the best validation epoch.

    A learning rate under which the loss stops being finite raises
    ConfigError naming the epoch. The tables are left unchanged; each is
    let go once its standardized copy is made, so a caller that keeps no
    reference to it has its memory back before training starts. `val_table`
    may be a function that returns the validation table: it is called once
    the training table is standardized, so that a caller that reads both
    from files never holds the two parsed tables together.
    """
    if kind is ModelKind.HEURISTIC:
        if callable(val_table):
            val_table()  # nothing is trained, but a validation file must still read
        return RankModel(kind=kind, metadata={"note": "no training required"})
    cfg = cfg or Config()
    unlabeled = "training and validation features must carry gains"
    if train_table.n_targets == 0:
        raise DataError("empty training set")
    if train_table.gains is None:
        raise DataError(unlabeled)
    if not (train_table.gains > 0).any(axis=1).all():
        raise DataError("every training query needs at least one gain > 0 document")

    standardizer = Standardizer.fit(train_table.flat_x())
    gains = train_table.gains.astype(np.float64)
    x_train = standardizer.apply(train_table.x)
    del train_table
    if callable(val_table):
        val_table = val_table()
    if val_table.n_targets == 0:
        raise DataError("empty validation set")
    if val_table.gains is None:
        raise DataError(unlabeled)
    val_gains, val_ranks = val_table.gains, val_table.base_ranks
    x_val = standardizer.apply(val_table.x)
    del val_table
    # A table parsed after the train table was freed lies in the heap, whose
    # pages stay resident unless handed back before training's temporaries.
    if malloc_trim is not None:
        malloc_trim(0)

    rng = np.random.default_rng(cfg.train_seed)
    params = init_params(x_train.shape[-1], cfg.hidden_units, rng)

    best = params.copy()
    best_ndcg = -1.0
    best_epoch = 0
    epochs_run = 0
    stall = 0
    history = []

    n_targets = len(x_train)
    for epoch in range(1, cfg.epochs + 1):
        epochs_run = epoch
        order = rng.permutation(n_targets)
        for start in range(0, n_targets, cfg.batch_queries):
            batch = order[start : start + cfg.batch_queries]
            xb = x_train[batch].reshape(-1, x_train.shape[-1])
            gb = gains[batch]
            scores, hidden = forward(params, xb)
            loss, dscores = loss_and_score_grad(kind, scores, gb)
            if not np.isfinite(loss):
                raise ConfigError(
                    f"learning_rate {cfg.learning_rate} diverges: non-finite loss "
                    f"at epoch {epoch} (kind={kind.value}): {loss}"
                )
            grads = backward(params, xb, hidden, dscores)
            lr = cfg.learning_rate
            params.w1 -= lr * grads.w1
            params.b1 -= lr * grads.b1
            params.w2 -= lr * grads.w2
            params.b2 -= lr * grads.b2
        val_ndcg = _validation_ndcg(params, x_val, val_gains, val_ranks, cfg.ndcg_cutoff)
        history.append(val_ndcg)
        if val_ndcg > best_ndcg:
            best_ndcg = val_ndcg
            best = params.copy()
            best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break

    return RankModel(
        kind=kind,
        standardizer=standardizer,
        params=best,
        metadata={
            "seed": cfg.train_seed,
            "hidden": cfg.hidden_units,
            "learning_rate": cfg.learning_rate,
            "epochs_limit": cfg.epochs,
            "epochs_run": epochs_run,
            "batch_queries": cfg.batch_queries,
            "patience": cfg.patience,
            "best_epoch": best_epoch,
            "best_validation_ndcg": best_ndcg,
            "validation_history": [round(v, 8) for v in history],
        },
    )


def score_table(model: RankModel, table: FeatureTable) -> FeatureTable:
    """The score table of `table`: its ids, with x the model's (targets, 10, 1) scores."""
    return replace(table, x=model.scores(table.flat_x()).reshape(*table.doc_ids.shape, 1))
