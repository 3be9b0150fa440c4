"""Measurement apparatus: center estimation, residuals, collapse verdicts, and
leave-one-out kNN over one embedding set.

All functions are read-only over plain numpy embeddings; nothing here joins
the autodiff graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterError, _by_row, _col_sum, _row_sum, _thin

__all__ = [
    "CenterEstimate",
    "CollapseReport",
    "estimate_center",
    "residual_stats",
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
    """Mean of embedding rows, as ``embeddings.mean(axis=0)`` bit for bit, and
    its norm, as ``np.linalg.norm``'s ``sqrt(x.dot(x))`` for a 1-D vector."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if embeddings.shape[0] < 1:
        raise ParameterError("estimate_center needs at least one embedding")
    s_hat = _col_sum(embeddings, _thin(embeddings))[0] / embeddings.shape[0]
    return CenterEstimate(s_hat, math.sqrt(s_hat.dot(s_hat)))


def residual_stats(embeddings: np.ndarray,
                   center: CenterEstimate) -> tuple[float, np.ndarray]:
    """(mean residual norm, per-dimension std) of r = z - s_hat.

    The std is ``r.std(axis=0)`` bit for bit, in numpy's own order: sum,
    divide by m, subtract, square in place, sum, divide, root."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if embeddings.shape[1] != center.s_hat.shape[0]:
        raise ParameterError("embedding and center dimensions disagree")
    thin = _thin(embeddings)
    residuals = _by_row(np.subtract, embeddings, center.s_hat, thin)
    mean_norm = float(np.sqrt(_row_sum(residuals ** 2, thin)[:, 0]).mean())
    m = residuals.shape[0]
    dev = _by_row(np.subtract, residuals, _col_sum(residuals, thin) / m, thin)
    dev *= dev
    return mean_norm, np.sqrt(_col_sum(dev, thin)[0] / m)


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


def knn_eval(emb: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Leave-one-out accuracy of a cosine-distance majority vote: each
    embedding is classified by its k nearest others in the same set.

    Ties break by smallest summed distance, then lowest label id. The inputs
    are left as they are; the call allocates one (n, n) distance matrix and
    works in it: the cosine product turns into distances in place, each
    point's distance to itself becomes inf, and k ``argmin`` passes pick the
    neighbours (see ``_nearest``). The product reads two buffers, as two
    separately normalised copies would: ``unit @ unit.T`` takes BLAS's
    symmetric path, whose last bits differ. A row with a non-finite entry
    counts as a miss: its own inf distance would sort before its NaNs.
    """
    emb = np.atleast_2d(np.asarray(emb, dtype=np.float64))
    labels = np.asarray(labels).astype(np.int64)
    n = emb.shape[0]
    if labels.shape != (n,):
        raise ParameterError(f"labels of shape {labels.shape} for {n} embeddings")
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k={k} out of range (max {n - 1})")
    unit = emb / np.sqrt(_row_sum(emb * emb, _thin(emb)) + 1e-24)
    dists = unit @ unit.copy().T
    np.subtract(1.0, dists, out=dists)
    np.fill_diagonal(dists, np.inf)
    nearest, near_dists = _nearest(dists, k)
    label_values, label_ids = np.unique(labels, return_inverse=True)
    winner = label_values[_vote(label_ids[nearest], near_dists,
                                label_values.shape[0])]
    # a row that is not finite is a miss, whatever its neighbours vote
    hits = (winner == labels) & np.isfinite(emb).all(axis=1)
    return int(np.count_nonzero(hits)) / n


def _nearest(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(columns, distances) of row-wise ``np.argsort(dists, kind="stable")[:, :k]``.

    Works in ``dists``, which it overwrites: each of k ``argmin`` passes
    records the picked column and its distance, then sets that entry to inf.
    ``argmin`` returns the first of tied minima, so the picks come in stable
    order. A row holding a NaN (``argmin``'s first pick) or fewer than k
    finite distances (an inf k-th pick, which may repeat a column) gets its
    picked entries back and is sorted whole instead.
    """
    m = dists.shape[0]
    rows = np.arange(m)
    nearest = np.empty((m, k), dtype=np.intp)
    near = np.empty((m, k))
    for j in range(k):
        col = dists.argmin(axis=1)
        nearest[:, j] = col
        near[:, j] = dists[rows, col]
        dists[rows, col] = np.inf
    redo = np.flatnonzero(np.isnan(near[:, 0]) | np.isposinf(near[:, k - 1]))
    if redo.size:
        for j in reversed(range(k)):  # a repeated column's first pick holds its value
            dists[redo, nearest[redo, j]] = near[redo, j]
        sub = dists[redo]
        nearest[redo] = np.argsort(sub, axis=1, kind="stable")[:, :k]
        near[redo] = np.take_along_axis(sub, nearest[redo], axis=1)
    return nearest, near


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


def collapse_verdict(embeddings: np.ndarray, prev_mean: np.ndarray | None,
                     thresholds: tuple[float, float],
                     center: CenterEstimate) -> CollapseReport:
    """Binarized collapse reading: high center AND low spread.

    ``collapsed = center_norm > thresholds[0] and std_mean < thresholds[1]``,
    where ``center`` is ``estimate_center(embeddings)``. The config's
    ``validate`` keeps both thresholds in (0, 1).
    """
    center_hi, std_lo = thresholds
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
