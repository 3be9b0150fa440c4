"""The nine objectives, each a differentiable function of embeddings.

Contrastive: invariance, triplet, InfoNCE. Non-contrastive: SimSiam, BYOL,
DINO, SwAV, Barlow Twins. Plus the simplified objective that pairs the
invariance loss with a direct penalty on the batch center magnitude.

Teacher streams (EMA twins, Sinkhorn targets, stop-gradient branches) never
join the computation graph; only the student branch carries gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterError, ShapeError, Tensor
from .layers import PredictorHead

__all__ = [
    "LossConfig",
    "DinoCenterState",
    "NumericError",
    "invariance_loss",
    "triplet_loss",
    "infonce_loss",
    "simsiam_loss",
    "byol_loss",
    "dino_loss",
    "sinkhorn_knopp",
    "swav_loss",
    "barlow_twins_loss",
    "simple_objective",
]


class NumericError(ArithmeticError):
    """Raised on non-finite values where finiteness is a contract."""


@dataclass
class LossConfig:
    """Discriminated selection of one objective with its hyperparameters."""
    kind: str = "simsiam"               # a key of harness._OBJECTIVES
    temperature: float = 0.1            # InfoNCE / SwAV softmax temperature
    student_temperature: float = 0.1    # DINO student
    teacher_temperature: float = 0.04   # DINO teacher (sharper)
    margin: float | None = None         # triplet; None = infinite-margin mode
    bt_lambda: float = 5e-3             # Barlow Twins off-diagonal weight
    center_penalty_weight: float = -1.0    # lagrange multiplier of the simple objective
    center_penalty_squared: bool = True    # squared center norm (raw norm if False)
    ema_momentum: float = 0.99          # BYOL / DINO teacher momentum
    dino_center_momentum: float = 0.9
    sinkhorn_iters: int = 3
    sinkhorn_eps: float = 0.05
    num_prototypes: int = 16
    prototypes_trainable: bool = True
    use_stop_gradient: bool = True
    use_predictor: bool = True
    use_centering: bool = True
    use_decorrelation: bool = True

    def validate(self) -> None:
        for name in ("temperature", "student_temperature", "teacher_temperature"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.margin is not None and np.isfinite(self.margin) and self.margin < 0:
            raise ParameterError("margin must be >= 0")
        if self.sinkhorn_iters < 1:
            raise ParameterError("sinkhorn_iters must be >= 1")
        if self.sinkhorn_eps <= 0:
            raise ParameterError("sinkhorn_eps must be positive")
        if not (0.0 <= self.ema_momentum < 1.0):
            raise ParameterError("ema_momentum must be in [0, 1)")
        if not (0.0 <= self.dino_center_momentum < 1.0):
            raise ParameterError("dino_center_momentum must be in [0, 1)")


@dataclass
class DinoCenterState:
    """EMA of teacher batch means, subtracted from teacher logits."""
    center: np.ndarray
    momentum: float = 0.9

    def update(self, batch_mean: np.ndarray) -> None:
        self.center = self.momentum * self.center + (1.0 - self.momentum) * batch_mean


def _check_paired(a: Tensor, b: Tensor) -> int:
    if a.shape != b.shape:
        raise ShapeError(f"paired embeddings differ in shape: {a.shape} vs {b.shape}")
    return a.shape[0]


def _mean_neg_cosine(a: Tensor, b: Tensor) -> Tensor:
    m = _check_paired(a, b)
    return ad.tensor_sum(a * b) * (-1.0 / m)


# ---------------------------------------------------------------------------
# contrastive objectives
# ---------------------------------------------------------------------------

def invariance_loss(z: Tensor, z_w: Tensor) -> Tensor:
    """Mean over rows of -<z_i, z_w_i>; the bare two-view distance objective."""
    return _mean_neg_cosine(z, z_w)


def triplet_loss(z_a: Tensor, z_p: Tensor, z_n: Tensor,
                 margin: float | None = None) -> Tensor:
    """Anchor/positive/negative triplet loss.

    With a finite margin: mean of max(||a-p||^2 - ||a-n||^2 + margin, 0) / 2.
    With ``margin=None`` (or inf), the infinite-margin limit
    mean(-<a,p> + <a,n>).
    """
    m = _check_paired(z_a, z_p)
    _check_paired(z_a, z_n)
    if margin is None or not np.isfinite(margin):
        return (ad.tensor_sum(z_a * z_n) - ad.tensor_sum(z_a * z_p)) * (1.0 / m)
    if margin < 0:
        raise ParameterError(f"margin must be >= 0, got {margin}")
    d_ap = ad.tensor_sum((z_a - z_p) * (z_a - z_p), axis=1)
    d_an = ad.tensor_sum((z_a - z_n) * (z_a - z_n), axis=1)
    hinge = ad.relu(d_ap - d_an + margin)
    return ad.tensor_sum(hinge) * (0.5 / m)


def infonce_loss(z_a: Tensor, z_p: Tensor, negatives: Tensor | None = None,
                 temperature: float = 0.1) -> Tensor:
    """InfoNCE with the positive in the denominator.

    ``negatives=None`` uses within-batch negatives (every other anchor's
    positive); otherwise ``negatives`` is a shared (n_neg x D) bank.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    m = _check_paired(z_a, z_p)
    if negatives is None:
        if m < 2:
            raise ShapeError("within-batch negatives need a batch of >= 2")
        sims = ad.matmul(z_a, z_p.T)                       # (m, m), diag = positives
        eye = np.eye(m)
        sim_p = ad.tensor_sum(sims * eye, axis=1)          # (m, 1)
        all_sims = sims
    else:
        sim_p = ad.tensor_sum(z_a * z_p, axis=1)
        sims_n = ad.matmul(z_a, negatives.T)
        all_sims = ad.concat_cols(sim_p, sims_n)
    lse = ad.logsumexp_rows(all_sims, temperature)
    per_row = (lse - sim_p) * (1.0 / temperature)
    return ad.tensor_sum(per_row) * (1.0 / m)


# ---------------------------------------------------------------------------
# predictor / EMA objectives
# ---------------------------------------------------------------------------

def simsiam_loss(z_a: Tensor, z_b: Tensor, pred: PredictorHead | None = None,
                 use_stop_gradient: bool = True) -> Tensor:
    """Symmetric negative cosine between predictor outputs and the twin view.

    Both ablations of the collapse study are reachable: with ``pred=None``
    the prediction is the embedding itself, and without stop-gradient the
    target branch stays on the graph.
    """
    p_a, p_b = (z_a, z_b) if pred is None else (pred.forward(z_a), pred.forward(z_b))
    t_a = ad.stop_gradient(z_a) if use_stop_gradient else z_a
    t_b = ad.stop_gradient(z_b) if use_stop_gradient else z_b
    return (_mean_neg_cosine(p_a, t_b) + _mean_neg_cosine(p_b, t_a)) * 0.5


def byol_loss(z_a: Tensor, z_b: Tensor, pred: PredictorHead,
              t_a: np.ndarray, t_b: np.ndarray) -> Tensor:
    """Negative cosine between predicted online embeddings and EMA-teacher targets.

    ``t_a``, ``t_b`` are the teacher's off-graph embeddings of the same two
    views; the caller performs ``twin.update`` after the optimizer step.
    """
    p_a, p_b = pred.forward(z_a), pred.forward(z_b)
    return (_mean_neg_cosine(p_a, Tensor(t_b))
            + _mean_neg_cosine(p_b, Tensor(t_a))) * 0.5


def dino_loss(z_a: Tensor, z_b: Tensor, t_a: np.ndarray, t_b: np.ndarray,
              center: DinoCenterState, student_temperature: float = 0.1,
              teacher_temperature: float = 0.04,
              use_centering: bool = True) -> tuple[Tensor, np.ndarray]:
    """Cross-entropy from centered, sharpened teacher distributions.

    ``z_a``, ``z_b`` are the student's embeddings of two views and ``t_a``,
    ``t_b`` the teacher's off-graph embeddings of the same views. Returns
    (loss, teacher batch mean). The caller folds the mean into ``center``
    after the optimizer step (EMA ordering is pinned by the harness);
    ``use_centering=False`` skips the center subtraction but the mean is
    still returned.
    """
    if student_temperature <= 0 or teacher_temperature <= 0:
        raise ParameterError("temperatures must be positive")
    teacher_mean = np.concatenate([t_a, t_b]).mean(axis=0)

    def direction(s, teacher_z):
        logits = teacher_z - center.center if use_centering else teacher_z
        shifted = (logits - logits.max(axis=1, keepdims=True)) / teacher_temperature
        q = np.exp(shifted)
        q /= q.sum(axis=1, keepdims=True)
        log_p = ad.log(ad.softmax_rows(s, student_temperature))
        weighted = Tensor(teacher_temperature * q) * (log_p * student_temperature)
        return ad.tensor_sum(weighted) * (-1.0 / q.shape[0])

    loss = (direction(z_a, t_b) + direction(z_b, t_a)) * 0.5
    return loss, teacher_mean


# ---------------------------------------------------------------------------
# clustering / redundancy objectives
# ---------------------------------------------------------------------------

def sinkhorn_knopp(scores, eps: float = 0.05, iters: int = 3) -> Tensor:
    """Equipartitioned soft assignments from a score matrix.

    Starting from exp(scores/eps), alternate column renormalization (to m/K
    per column) and row renormalization (to 1 per row). Rows sum to exactly 1;
    column sums approach m/K. Runs off-graph and returns a constant tensor.
    """
    if iters < 1:
        raise ParameterError("iters must be >= 1")
    if eps <= 0:
        raise ParameterError("eps must be positive")
    vals = scores.values if isinstance(scores, Tensor) else np.atleast_2d(
        np.asarray(scores, dtype=np.float64))
    if not np.all(np.isfinite(vals)):
        raise NumericError("sinkhorn_knopp received non-finite scores")
    m, k = vals.shape
    p = np.exp((vals - vals.max()) / eps)
    for _ in range(iters):
        p *= (m / k) / p.sum(axis=0, keepdims=True)
        p /= p.sum(axis=1, keepdims=True)
    return Tensor(p)


def swav_loss(z_a: Tensor, z_b: Tensor, prototypes: Tensor, temperature: float = 0.1,
              sinkhorn_eps: float = 0.05, sinkhorn_iters: int = 3) -> Tensor:
    """Swapped prediction: each view predicts the other's Sinkhorn assignment.

    ``prototypes`` is the (K x D) bank matrix; it receives gradients only
    when it requires them (a trainable bank). Assignment targets are always
    detached.
    """
    scores_a = ad.matmul(z_a, prototypes.T)
    scores_b = ad.matmul(z_b, prototypes.T)
    q_a = sinkhorn_knopp(scores_a.values, sinkhorn_eps, sinkhorn_iters)
    q_b = sinkhorn_knopp(scores_b.values, sinkhorn_eps, sinkhorn_iters)

    def direction(scores, q):
        log_p = ad.log(ad.softmax_rows(scores, temperature))
        return ad.tensor_sum(q * log_p) * (-1.0 / scores.shape[0])

    return (direction(scores_a, q_b) + direction(scores_b, q_a)) * 0.5


def barlow_twins_loss(z_a: Tensor, z_b: Tensor, bt_lambda: float = 5e-3,
                      use_decorrelation: bool = True) -> Tensor:
    """Cross-correlation identity loss over column-standardized embeddings.

    Inputs are expected post batch-norm (compose with ``batch_norm_cols``).
    The diagonal term pulls per-dimension correlations to 1; the off-diagonal
    term (weighted by ``bt_lambda``, dropped entirely when
    ``use_decorrelation=False``) decorrelates dimensions.
    """
    m = _check_paired(z_a, z_b)
    if m < 2:
        raise ShapeError("barlow_twins_loss needs a batch of >= 2")
    d = z_a.shape[1]
    corr = ad.matmul(z_a.T, z_b) * (1.0 / m)
    eye = np.eye(d)
    diag_term = ad.tensor_sum(((1.0 - corr) * eye) ** 2)
    if not use_decorrelation:
        return diag_term
    off_term = ad.tensor_sum((corr * (1.0 - eye)) ** 2)
    return diag_term + off_term * bt_lambda


# ---------------------------------------------------------------------------
# simplified center-penalized objective
# ---------------------------------------------------------------------------

def simple_objective(z: Tensor, z_w: Tensor, center_penalty_weight: float = -1.0,
                     squared: bool = True) -> Tensor:
    """Invariance loss plus a differentiable penalty on the batch center.

    0.5 * (invariance(z, z_w) - weight * ||s_batch||^2) where s_batch is the
    mean of all 2m embedding rows. The default weight -1 turns the term into
    an additive squared-center penalty. ``squared=False`` penalizes the raw
    norm instead.
    """
    _check_paired(z, z_w)
    s_hat = (ad.tensor_mean(z, axis=0) + ad.tensor_mean(z_w, axis=0)) * 0.5
    sq_norm = ad.tensor_sum(s_hat * s_hat)
    penalty = sq_norm if squared else (sq_norm + 1e-24) ** 0.5
    return (invariance_loss(z, z_w) - penalty * center_penalty_weight) * 0.5
