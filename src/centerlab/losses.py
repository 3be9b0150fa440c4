"""The nine objectives, each a differentiable function of embeddings.

Contrastive: invariance, triplet, InfoNCE. Non-contrastive: SimSiam, BYOL,
DINO, SwAV, Barlow Twins. Plus the simplified objective that pairs the
invariance loss with a direct penalty on the batch center magnitude.

Teacher streams (EMA twins, Sinkhorn targets, stop-gradient branches) never
join the computation graph; only the student branch carries gradients.

Every loss is one autodiff node over the student's (V, m, n) view stack (the
predictor's for SimSiam and BYOL, plus the prototype matrix for SwAV), whose
views it reads as ``z.values[v]``. Its forward evaluates the numpy
expressions of the composed primitive graph it replaces, one graph per view;
its backward replays that graph's rules in the order ``autodiff.backward``
runs them, in which an intermediate with two consumers sums their terms, and
hands the stack one (V, m, n) gradient whose view v holds view v's terms,
added in that order. So values and gradients are bit-identical to the
composed graphs, the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ParameterError, ShapeError, Tensor, _accum, _make,
                       _unbroadcast)
from .layers import EncoderStack

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
    margin: float | None = None         # triplet; None: the infinite margin
    bt_lambda: float = 5e-3             # Barlow Twins off-diagonal weight
    center_penalty_weight: float = -1.0    # lagrange multiplier of the simple objective
    ema_momentum: float = 0.99          # BYOL / DINO teacher momentum
    dino_center_momentum: float = 0.9
    sinkhorn_iters: int = 3
    sinkhorn_eps: float = 0.05
    num_prototypes: int = 16
    prototypes_trainable: bool = True
    use_stop_gradient: bool = True
    use_predictor: bool = True          # SimSiam / BYOL build a predictor head
    use_centering: bool = True
    use_decorrelation: bool = True

    def validate(self) -> None:
        for name in ("temperature", "student_temperature", "teacher_temperature"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.margin is not None and self.margin < 0:
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


def _views(z: Tensor, views: int) -> int:
    """The rows per view of z, which must stack `views` views."""
    shape = z.values.shape
    if len(shape) != 3 or shape[0] != views:
        raise ShapeError(f"expected a stack of {views} views, got shape {shape}")
    return shape[1]


def _hand_out(*terms: tuple[Tensor, np.ndarray]) -> None:
    """Accumulate (parent, gradient) terms in the order given, into the parents
    that require a gradient; a one-node loss lists its terms in the order the
    composed graph's nodes handed them out, each built for it alone (or a view)."""
    for parent, g in terms:
        if parent.requires_grad:
            _accum(parent, g, fresh=g.base is None and g.flags.c_contiguous)


def _mean_neg_cosine(p: Tensor, t: Tensor) -> Tensor:
    """The two views' mean of ``-sum(p_v * t_w) / m``, each view's prediction
    against the other view's target, as one node: ``(v_a + v_b) * 0.5``. The
    backward replays the composed ``tensor_sum(p * t) * (-1 / m)`` rules after
    the mean's ``g * 0.5``, with the scalar broadcast in place of a filled
    (m, d) gradient; a target that requires no gradient gets none, and one
    stack passed as both gets the prediction's terms, then the target's. Each
    view gets at most two terms, so gradients are bit-identical to the
    composed graph's."""
    scale = -1.0 / _views(p, 2)
    if t.shape != p.shape:
        raise ShapeError(f"predictions {p.shape} and targets {t.shape} differ in shape")
    terms = (p.values * t.values[::-1]).sum(axis=(1, 2)) * scale

    def bwd(g):
        g = g * 0.5 * scale
        _hand_out((p, g * t.values[::-1]), (t, g * p.values[::-1]))

    return _make(((terms[0] + terms[1]) * 0.5).reshape(1, 1), (p, t), bwd)


# ---------------------------------------------------------------------------
# contrastive objectives
# ---------------------------------------------------------------------------

def invariance_loss(z: Tensor) -> Tensor:
    """Mean over rows of -<a_i, b_i> over z's views (a, b); the bare
    two-view distance objective."""
    scale = -1.0 / _views(z, 2)
    a, b = z.values[0], z.values[1]

    def bwd(g):
        _hand_out((z, g * scale * z.values[::-1]))

    return _make((a * b).sum().reshape(1, 1) * scale, (z,), bwd)


def triplet_loss(z: Tensor, margin: float | None = None) -> Tensor:
    """Anchor/positive/negative triplet loss over z's views (a, p, n), as one
    node.

    With a finite margin: mean of max(||a-p||^2 - ||a-n||^2 + margin, 0) / 2,
    composed as ``tensor_sum(relu(d_ap - d_an + margin)) * (0.5 / m)`` with
    ``d_ap = tensor_sum((z_a - z_p) * (z_a - z_p), 1)``. With ``margin=None``,
    the infinite-margin limit mean(-<a,p> + <a,n>), composed as
    ``(tensor_sum(z_a * z_n) - tensor_sum(z_a * z_p)) * (1 / m)``. The
    backward hands each view the composed rules' terms in the order
    ``backward`` runs them (a gets four in the finite form, one per
    difference node), and the node names to z's ``view_order`` the order in
    which the composed graph reaches the views: (n, a, p) in the infinite
    form, (p, a, n) in the finite one.
    """
    m = _views(z, 3)
    a, p, n = z.values[0], z.values[1], z.values[2]
    if margin is None:
        value = ((a * n).sum().reshape(1, 1) - (a * p).sum().reshape(1, 1)) * (1.0 / m)

        def bwd(g):
            g_n = g * (1.0 / m)
            g_p = -g_n
            g_z = np.stack((g_n * n, g_p * a, g_n * a))
            g_z[0] += g_p * p
            _hand_out((z, g_z))

        z.view_order = (2, 0, 1)
        return _make(value, (z,), bwd)
    d_p, d_n = a - p, a - n
    hinge = ((d_p * d_p).sum(axis=1, keepdims=True)
             - (d_n * d_n).sum(axis=1, keepdims=True) + margin)
    value = np.maximum(hinge, 0.0).sum().reshape(1, 1) * (0.5 / m)

    def bwd(g):
        g_h = g * (0.5 / m) * (hinge > 0.0)
        g_p, g_n = g_h * d_p, -g_h * d_n
        # each difference is two nodes, and each hands out its own terms:
        # a gets g_p twice, then g_n twice
        g_z = np.stack((g_p + g_p, -g_p + -g_p, -g_n + -g_n))
        g_z[0] += g_n
        g_z[0] += g_n
        _hand_out((z, g_z))

    z.view_order = (1, 0, 2)
    return _make(value, (z,), bwd)


def infonce_loss(z: Tensor, temperature: float = 0.1) -> Tensor:
    """InfoNCE over z's views (a, p) with within-batch negatives (every other
    anchor's positive) and the positive in the denominator, as one node.

    The values are those of the composed graph ``tensor_sum((lse - sim_p) *
    (1 / tau)) * (1 / m)`` over ``sims = matmul(z_a, z_p.T)``, with ``lse =
    logsumexp_rows(sims, tau)`` and ``sim_p = tensor_sum(sims * eye, 1)``.
    sims receives the logsumexp term, then the diagonal's, and the views
    receive the matmul and transpose rules' terms.
    """
    m = _views(z, 2)
    a, p = z.values[0], z.values[1]
    p_t = p.T.copy()
    sims = a @ p_t                                     # (m, m), diag = positives
    eye = np.eye(m)
    sim_p = (sims * eye).sum(axis=1, keepdims=True)
    row_max = sims.max(axis=1, keepdims=True)
    e = np.exp((sims - row_max) * (1.0 / temperature))
    e_sum = e.sum(axis=1, keepdims=True)
    lse = np.log(e_sum) * temperature + row_max
    value = ((lse - sim_p) * (1.0 / temperature)).sum().reshape(1, 1) * (1.0 / m)

    def bwd(g):
        g_row = g * (1.0 / m) * (1.0 / temperature)
        g_sims = g_row * temperature / e_sum * e * (1.0 / temperature)
        g_sims += -g_row * eye
        _hand_out((z, np.stack((g_sims @ p_t.T, (a.T @ g_sims).T))))

    return _make(value, (z,), bwd)


# ---------------------------------------------------------------------------
# predictor / EMA objectives
# ---------------------------------------------------------------------------

def simsiam_loss(z: Tensor, pred: EncoderStack | None = None,
                 use_stop_gradient: bool = True) -> Tensor:
    """Symmetric negative cosine between the predictor's outputs of z's two
    views and the twin view.

    Both ablations of the collapse study are reachable: with ``pred=None``
    the prediction is the embedding itself, and without stop-gradient the
    target branch stays on the graph.
    """
    p = z if pred is None else pred.forward(z)
    return _mean_neg_cosine(p, Tensor(z.values) if use_stop_gradient else z)


def byol_loss(z: Tensor, pred: EncoderStack | None, t: np.ndarray) -> Tensor:
    """Negative cosine between predicted online embeddings and EMA-teacher targets.

    ``t`` is the teacher's off-graph (2, m, n) embedding of z's two views; the
    caller performs ``twin.update`` after the optimizer step. With
    ``pred=None`` the prediction is the embedding itself, as in SimSiam.
    """
    return _mean_neg_cosine(z if pred is None else pred.forward(z), Tensor(t))


def _log_softmax_grad(s: np.ndarray, temperature: float):
    """``log(softmax_rows(s, temperature))``'s values along the last axis of
    rows (m, n) or of a view stack (V, m, n), and a function from their
    gradient to s's that replays the composed log, div, sum, exp, mul and sub
    rules: e receives the div's term, then the row sum's."""
    e = np.exp((s - s.max(axis=-1, keepdims=True)) * (1.0 / temperature))
    e_sum = e.sum(axis=-1, keepdims=True)
    p = e / e_sum

    def grad(g_log_p):
        g_p = g_log_p / p
        g_e = g_p / e_sum
        g_e += _unbroadcast(-g_p * e / (e_sum ** 2), e_sum.shape)
        return g_e * e * (1.0 / temperature)

    return np.log(p), grad


def dino_loss(z: Tensor, t: np.ndarray, center: DinoCenterState,
              student_temperature: float = 0.1, teacher_temperature: float = 0.04,
              use_centering: bool = True) -> tuple[Tensor, np.ndarray]:
    """Cross-entropy from centered, sharpened teacher distributions.

    ``z`` is the student's (2, m, n) embedding of two views and ``t`` the
    teacher's off-graph one. Returns (loss, teacher batch mean). The caller
    folds the mean into ``center`` after the optimizer step (EMA ordering is
    pinned by the harness); ``use_centering=False`` skips the center
    subtraction but the mean is still returned.

    The loss is one node. Per view, its values are those of the composed
    ``tensor_sum(Tensor(tau_t * q) * (log(softmax_rows(s, tau_s)) * tau_s))
    * (-1 / m)``, and the two views' terms are averaged; the backward
    replays the composed rules. Both views run as one stack of students
    against the swapped stack of teachers, with row reductions along the
    last axis and each view's sum over axes 1 and 2.
    """
    _views(z, 2)
    teacher_mean = t.reshape(-1, t.shape[-1]).mean(axis=0)
    # view a's student is scored against view b's teacher, and b's against a's
    logits = t[::-1] - center.center if use_centering else t[::-1]
    shifted = (logits - logits.max(axis=-1, keepdims=True)) / teacher_temperature
    q = np.exp(shifted)
    q /= q.sum(axis=-1, keepdims=True)
    q *= teacher_temperature
    log_p, grad = _log_softmax_grad(z.values, student_temperature)
    scale = -1.0 / q.shape[1]
    terms = (q * (log_p * student_temperature)).sum(axis=(1, 2)) * scale

    def bwd(g):
        _hand_out((z, grad(g * 0.5 * scale * q * student_temperature)))

    return _make(((terms[0] + terms[1]) * 0.5).reshape(1, 1), (z,), bwd), teacher_mean


# ---------------------------------------------------------------------------
# clustering / redundancy objectives
# ---------------------------------------------------------------------------

def sinkhorn_knopp(scores: np.ndarray, eps: float = 0.05, iters: int = 3) -> np.ndarray:
    """Equipartitioned soft assignments from an (m, K) score matrix.

    Starting from exp(scores/eps), alternate column renormalization (to m/K
    per column) and row renormalization (to 1 per row). Rows sum to exactly 1;
    column sums approach m/K. Runs off-graph and returns a new array.
    """
    if not np.all(np.isfinite(scores)):
        raise NumericError("sinkhorn_knopp received non-finite scores")
    m, k = scores.shape
    p = np.exp((scores - scores.max()) / eps)
    for _ in range(iters):
        p *= (m / k) / p.sum(axis=0, keepdims=True)
        p /= p.sum(axis=1, keepdims=True)
    return p


def swav_loss(z: Tensor, prototypes: Tensor, temperature: float = 0.1,
              sinkhorn_eps: float = 0.05, sinkhorn_iters: int = 3) -> Tensor:
    """Swapped prediction: each of z's two views predicts the other's
    Sinkhorn assignment.

    ``prototypes`` is the (K x D) bank matrix; it receives gradients only
    when it requires them (a trainable bank). Assignment targets are always
    detached; ``sinkhorn_knopp``, looked up on this module at call time, runs
    on view a's scores, then on view b's.

    The loss is one node. Per view, its values are those of the composed
    ``tensor_sum(q * log(softmax_rows(matmul(z, prototypes.T), tau))) *
    (-1 / m)``, and the two views' terms are averaged; the backward replays
    the composed rules and hands the bank view a's term, then view b's. Both
    views run as one (2, m, K) stack of scores: its products are
    ``np.matmul`` over the view axis, bit-equal to each view's own, with row
    reductions along the last axis and each view's sum over axes 1 and 2.
    """
    _views(z, 2)
    protos_t = prototypes.values.T.copy()
    scores = np.matmul(z.values, protos_t)
    q_a = sinkhorn_knopp(scores[0], sinkhorn_eps, sinkhorn_iters)
    q_b = sinkhorn_knopp(scores[1], sinkhorn_eps, sinkhorn_iters)
    q = np.stack((q_b, q_a))  # each view's target is the other's assignment
    log_p, grad = _log_softmax_grad(scores, temperature)
    scale = -1.0 / scores.shape[1]
    terms = (q * log_p).sum(axis=(1, 2)) * scale

    def bwd(g):
        g_scores = grad(g * 0.5 * scale * q)
        g_bank = np.matmul(z.values.transpose(0, 2, 1), g_scores)
        _hand_out((z, np.matmul(g_scores, protos_t.T)),
                  (prototypes, g_bank[0].T), (prototypes, g_bank[1].T))

    return _make(((terms[0] + terms[1]) * 0.5).reshape(1, 1), (z, prototypes), bwd)


def barlow_twins_loss(z: Tensor, bt_lambda: float = 5e-3,
                      use_decorrelation: bool = True) -> Tensor:
    """Cross-correlation identity loss over column-standardized embeddings
    of two views.

    The views are expected post batch-norm (compose with ``batch_norm_cols``).
    The diagonal term pulls per-dimension correlations to 1; the off-diagonal
    term (weighted by ``bt_lambda``, dropped entirely when
    ``use_decorrelation=False``) decorrelates dimensions.

    The loss is one node with the values of the composed ``tensor_sum(((1 -
    corr) * eye) ** 2) + tensor_sum((corr * (1 - eye)) ** 2) * bt_lambda``
    over ``corr = matmul(z_a.T, z_b) * (1 / m)``. corr receives the diagonal
    term's gradient, then the off-diagonal one's, and the views receive the
    matmul and transpose rules' terms.
    """
    m = _views(z, 2)
    a, b = z.values[0], z.values[1]
    d = z.shape[2]
    a_t = a.T.copy()
    corr = (a_t @ b) * (1.0 / m)
    eye = np.eye(d)
    diag = (1.0 - corr) * eye
    value = (diag ** 2.0).sum().reshape(1, 1)
    if use_decorrelation:
        off_mask = 1.0 - eye
        off = corr * off_mask
        value = value + (off ** 2.0).sum().reshape(1, 1) * bt_lambda

    def bwd(g):
        g_corr = -(g * 2.0 * diag ** 1.0 * eye)
        if use_decorrelation:
            g_corr += g * bt_lambda * 2.0 * off ** 1.0 * off_mask
        g_corr = g_corr * (1.0 / m)
        _hand_out((z, np.stack(((g_corr @ b.T).T, a_t.T @ g_corr))))

    return _make(value, (z,), bwd)


# ---------------------------------------------------------------------------
# simplified center-penalized objective
# ---------------------------------------------------------------------------

def simple_objective(z: Tensor, center_penalty_weight: float = -1.0) -> Tensor:
    """Invariance loss plus a differentiable penalty on the batch center.

    0.5 * (invariance(z) - weight * ||s_batch||^2) where s_batch is the
    mean of all 2m embedding rows of z's two views. The default weight -1
    turns the term into an additive squared-center penalty.

    The loss is one node with the values of the composed graph, in which
    ``s_batch = (tensor_mean(z_a, 0) + tensor_mean(z_b, 0)) * 0.5``. Each view
    receives the invariance term, then the center term.
    """
    m = _views(z, 2)
    inv_m = 1.0 / m
    a, b = z.values[0], z.values[1]
    s_hat = (a.sum(axis=0, keepdims=True) * inv_m
             + b.sum(axis=0, keepdims=True) * inv_m) * 0.5
    sq_norm = (s_hat * s_hat).sum().reshape(1, 1)
    invariance = (a * b).sum().reshape(1, 1) * (-1.0 / m)

    def bwd(g):
        g = g * 0.5
        # s_hat * s_hat hands each operand the same term
        t = -g * center_penalty_weight * s_hat
        g_mean = np.broadcast_to((t + t) * 0.5 * inv_m, z.shape)
        g = g * (-1.0 / m)
        _hand_out((z, g * z.values[::-1]), (z, g_mean))

    return _make((invariance - sq_norm * center_penalty_weight) * 0.5, (z,), bwd)
