"""Measurement apparatus: center estimation, residuals, collapse verdicts, kNN.

All functions are read-only over plain numpy embeddings; nothing here joins
the autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterError

__all__ = [
    "CenterEstimate",
    "CollapseReport",
    "KnnResult",
    "estimate_center",
    "residual_stats",
    "second_moment_gap",
    "delta_dist",
    "angle_to_direction",
    "knn_eval",
    "collapse_verdict",
]


@dataclass
class CenterEstimate:
    """The center s_hat of a set of embeddings."""
    s_hat: np.ndarray
    norm: float


def estimate_center(embeddings: np.ndarray) -> CenterEstimate:
    """Mean of embedding rows."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if embeddings.shape[0] < 1:
        raise ParameterError("estimate_center needs at least one embedding")
    s_hat = embeddings.mean(axis=0)
    return CenterEstimate(s_hat, float(np.linalg.norm(s_hat)))


def residual_stats(embeddings: np.ndarray,
                   center: CenterEstimate) -> tuple[float, np.ndarray]:
    """(mean residual norm, per-dimension std) of r = z - s_hat."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if embeddings.shape[1] != center.s_hat.shape[0]:
        raise ParameterError("embedding and center dimensions disagree")
    residuals = embeddings - center.s_hat
    mean_norm = float(np.sqrt((residuals ** 2).sum(axis=1)).mean())
    per_dim_std = residuals.std(axis=0)
    return mean_norm, per_dim_std


def second_moment_gap(embeddings: np.ndarray, center: CenterEstimate) -> float:
    """|mean||z||^2 - ||s_hat||^2 - mean||r||^2|; zero when s_hat is the batch mean."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    mean_sq = float((embeddings ** 2).sum(axis=1).mean())
    residuals = embeddings - center.s_hat
    mean_res_sq = float((residuals ** 2).sum(axis=1).mean())
    return abs(mean_sq - center.norm ** 2 - mean_res_sq)


def delta_dist(mean_t: np.ndarray, mean_prev: np.ndarray) -> float:
    """Squared Euclidean shift of the embedding mean between consecutive steps."""
    mean_t = np.asarray(mean_t, dtype=np.float64).ravel()
    mean_prev = np.asarray(mean_prev, dtype=np.float64).ravel()
    if mean_t.shape != mean_prev.shape:
        raise ParameterError("means must share a dimension")
    diff = mean_t - mean_prev
    return float(diff @ diff)


def angle_to_direction(center: CenterEstimate, direction: np.ndarray) -> float:
    """Cosine similarity between s_hat and a reference direction."""
    direction = np.asarray(direction, dtype=np.float64).ravel()
    dnorm = np.linalg.norm(direction)
    if center.norm == 0.0 or dnorm == 0.0:
        raise ParameterError("angle_to_direction needs nonzero vectors")
    return float(center.s_hat @ direction / (center.norm * dnorm))


@dataclass
class KnnResult:
    k: int
    accuracy: float


def knn_eval(train_emb: np.ndarray, train_labels: np.ndarray,
             eval_emb: np.ndarray, eval_labels: np.ndarray,
             k: int = 5, leave_one_out: bool | None = None) -> KnnResult:
    """Cosine-distance majority vote over the k nearest training embeddings.

    Ties break by smallest summed distance, then lowest label id. With
    ``leave_one_out=None``, leave-one-out kicks in automatically when the
    eval set is the training set.
    """
    train_emb = np.atleast_2d(np.asarray(train_emb, dtype=np.float64))
    eval_emb = np.atleast_2d(np.asarray(eval_emb, dtype=np.float64))
    train_labels = np.asarray(train_labels)
    eval_labels = np.asarray(eval_labels)
    if train_emb.shape[0] == 0 or eval_emb.shape[0] == 0:
        raise ParameterError("knn_eval needs non-empty train and eval sets")
    if leave_one_out is None:
        leave_one_out = (train_emb.shape == eval_emb.shape
                         and np.array_equal(train_emb, eval_emb))
    max_k = train_emb.shape[0] - (1 if leave_one_out else 0)
    if not (1 <= k <= max_k):
        raise ParameterError(f"k={k} out of range (max {max_k})")

    def unit(x):
        return x / np.sqrt((x * x).sum(axis=1, keepdims=True) + 1e-24)

    dists = 1.0 - unit(eval_emb) @ unit(train_emb).T
    if leave_one_out:
        np.fill_diagonal(dists, np.inf)
    nearest = _nearest(dists, k)
    label_values, label_ids = np.unique(train_labels.astype(np.int64),
                                        return_inverse=True)
    winner = label_values[_vote(label_ids[nearest],
                                np.take_along_axis(dists, nearest, axis=1),
                                label_values.shape[0])]
    correct = int(np.count_nonzero(winner == eval_labels.astype(np.int64)))
    return KnnResult(k=k, accuracy=correct / eval_emb.shape[0])


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Row-wise ``np.argsort(dists, kind="stable")[:, :k]``, sorting only k columns.

    A row whose k-th smallest distance is tied with a column beyond the k, or
    is NaN (which compares false), is sorted whole instead.
    """
    part = np.argpartition(dists, k - 1, axis=1)
    kth = np.take_along_axis(dists, part[:, k - 1:k], axis=1)
    cols = np.sort(part[:, :k], axis=1)
    order = np.argsort(np.take_along_axis(dists, cols, axis=1), axis=1, kind="stable")
    nearest = np.take_along_axis(cols, order, axis=1)
    redo = np.flatnonzero(np.count_nonzero(dists <= kth, axis=1) != k)
    if redo.size:
        nearest[redo] = np.argsort(dists[redo], axis=1, kind="stable")[:, :k]
    return nearest


def _vote(labels: np.ndarray, dists: np.ndarray, num_labels: int) -> np.ndarray:
    """Per-row winning label id among k neighbours given in distance order.

    The winner has the most votes, then the smallest summed distance, then
    the lowest label id. Sums are accumulated in neighbour order, and labels
    are compared in first-seen order, keeping the current best unless the
    next one is strictly better; so a NaN sum keeps the earlier label, as
    ``min`` over a first-seen vote dict does.
    """
    m, k = labels.shape
    rows = np.arange(m)
    counts = np.zeros((m, num_labels), dtype=np.int64)
    totals = np.zeros((m, num_labels))
    first_seen = np.empty((m, k), dtype=bool)
    for j in range(k):
        lab = labels[:, j]
        first_seen[:, j] = counts[rows, lab] == 0
        counts[rows, lab] += 1
        totals[rows, lab] += dists[:, j]
    best = labels[:, 0].copy()
    for j in range(1, k):
        lab = labels[:, j]
        c, c_best = counts[rows, lab], counts[rows, best]
        t, t_best = totals[rows, lab], totals[rows, best]
        better = (c > c_best) | ((c == c_best) & (
            (t < t_best) | ((t == t_best) & (lab < best))))
        np.copyto(best, lab, where=first_seen[:, j] & better)
    return best


@dataclass
class CollapseReport:
    center_norm: float
    mean_residual_norm: float
    std_mean: float
    delta_dist: float
    collapsed: bool


def collapse_verdict(embeddings: np.ndarray, prev_mean: np.ndarray | None = None,
                     thresholds: tuple[float, float] = (0.8, 0.05)) -> CollapseReport:
    """Binarized collapse reading: high center AND low spread.

    ``collapsed = center_norm > thresholds[0] and std_mean < thresholds[1]``.
    """
    center_hi, std_lo = thresholds
    if not (0.0 < center_hi < 1.0 and 0.0 < std_lo < 1.0):
        raise ParameterError("thresholds must lie in (0, 1)")
    center = estimate_center(embeddings)
    mean_res, per_dim_std = residual_stats(embeddings, center)
    std_mean = float(per_dim_std.mean())
    dd = delta_dist(center.s_hat, prev_mean) if prev_mean is not None else 0.0
    return CollapseReport(
        center_norm=center.norm,
        mean_residual_norm=mean_res,
        std_mean=std_mean,
        delta_dist=dd,
        collapsed=(center.norm > center_hi and std_mean < std_lo),
    )
