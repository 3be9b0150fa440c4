"""Reference implementations the tests compare ``centerlab`` against, and the
helpers several test modules share.

The composed op library builds a graph one primitive node at a time (add,
mul, matmul, sums, relu, exp, log, ...), spelled with operators on ``Var``.
``centerlab`` ships only fused nodes: ``autodiff.mlp``,
``autodiff.batch_norm_cols`` and the loss nodes, each over one (V, m, n) view
stack. Each must match, bit for bit, the composed graph it replaces
(``composed_*`` below, one 2-D graph per view): values, gradients and the
signs of zeros. ``stack_views`` and ``first_view`` join the two forms.
"""

import numpy as np

from centerlab import autodiff as ad
from centerlab.autodiff import ParameterError, ShapeError, Tensor
from centerlab.losses import sinkhorn_knopp


def leaf(values):
    return Var(values, requires_grad=True)


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def knn_unit(x):
    """Rows scaled to unit length, as kNN normalises them."""
    return x / np.sqrt((x * x).sum(axis=1, keepdims=True) + 1e-24)


def loop_knn_winners(train_emb, train_labels, eval_emb, k, leave_one_out):
    """Each eval row's winning label from the per-row vote loop that
    `diagnostics.knn_eval` ran before it was vectorised (the oracle). With
    ``leave_one_out`` the eval set is the training set, and no row votes
    for itself."""
    dists = 1.0 - knn_unit(eval_emb) @ knn_unit(train_emb).T
    if leave_one_out:
        np.fill_diagonal(dists, np.inf)
    winners = []
    for i in range(eval_emb.shape[0]):
        nearest = np.argsort(dists[i], kind="stable")[:k]
        votes: dict[int, tuple[int, float]] = {}
        for j in nearest:
            label = int(train_labels[j])
            count, total = votes.get(label, (0, 0.0))
            votes[label] = (count + 1, total + dists[i][j])
        winners.append(min(votes.items(),
                           key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[0])
    return np.array(winners)


def assert_bits_equal(got, want):
    """Equal values and equal signs of zeros; None only matches None."""
    if want is None:
        assert got is None
        return
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def fold_case(shape, seed=0):
    """Entries spanning 20 decades, so sums cancel, with +-0.0 mixed in."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 17, size=shape)
    pick = rng.random(shape)
    a[pick < 0.15] = 0.0
    a[(pick >= 0.15) & (pick < 0.3)] = -0.0
    return a


# ---------------------------------------------------------------------------
# the composed op library
# ---------------------------------------------------------------------------

def _wrap(x) -> "Var":
    """x as a Var. A Tensor is re-classed in place, so it stays the same
    graph node (an ``mlp`` node, say); anything else is a constant."""
    if not isinstance(x, Tensor):
        return Var(x)
    x.__class__ = Var
    return x


def _make(values, parents, backward_fn) -> "Var":
    t = ad._make(values, parents, backward_fn)
    t.__class__ = Var
    return t


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_vals = a.values + b.values

    def bwd(g):
        if a.requires_grad:
            ad._accum(a, ad._unbroadcast(g, a.shape))
        if b.requires_grad:
            ad._accum(b, ad._unbroadcast(g, b.shape))

    return _make(out_vals, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_vals = a.values - b.values

    def bwd(g):
        if a.requires_grad:
            ad._accum(a, ad._unbroadcast(g, a.shape))
        if b.requires_grad:
            ad._accum(b, ad._unbroadcast(-g, b.shape))

    return _make(out_vals, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_vals = a.values * b.values

    def bwd(g):
        if a.requires_grad:
            ad._accum(a, ad._unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            ad._accum(b, ad._unbroadcast(g * a.values, b.shape))

    return _make(out_vals, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_vals = a.values / b.values

    def bwd(g):
        if a.requires_grad:
            ad._accum(a, ad._unbroadcast(g / b.values, a.shape))
        if b.requires_grad:
            ad._accum(b, ad._unbroadcast(-g * a.values / (b.values ** 2), b.shape))

    return _make(out_vals, (a, b), bwd)


def neg(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        ad._accum(a, -g)

    return _make(-a.values, (a,), bwd)


def power(a, p: float) -> Tensor:
    a = _wrap(a)
    p = float(p)
    out_vals = a.values ** p

    def bwd(g):
        ad._accum(a, g * p * a.values ** (p - 1.0))

    return _make(out_vals, (a,), bwd)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out_vals = a.values @ b.values

    def bwd(g):
        if a.requires_grad:
            ad._accum(a, g @ b.values.T)
        if b.requires_grad:
            ad._accum(b, a.values.T @ g)

    return _make(out_vals, (a, b), bwd)


def transpose(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        ad._accum(a, g.T)

    return _make(a.values.T.copy(), (a,), bwd)


def tensor_sum(a, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    if axis is None:
        out_vals = a.values.sum().reshape(1, 1)
    else:
        out_vals = a.values.sum(axis=axis, keepdims=True)

    def bwd(g):
        ad._accum(a, np.broadcast_to(g, a.shape))

    return _make(out_vals, (a,), bwd)


def tensor_mean(a, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    count = a.values.size if axis is None else a.shape[axis]
    return tensor_sum(a, axis) * (1.0 / count)


def relu(a) -> Tensor:
    a = _wrap(a)
    out_vals = np.maximum(a.values, 0.0)

    def bwd(g):
        ad._accum(a, g * (a.values > 0.0))

    return _make(out_vals, (a,), bwd)


def exp(a) -> Tensor:
    a = _wrap(a)
    out_vals = np.exp(a.values)

    def bwd(g):
        ad._accum(a, g * out_vals)

    return _make(out_vals, (a,), bwd)


def log(a) -> Tensor:
    a = _wrap(a)
    out_vals = np.log(a.values)

    def bwd(g):
        ad._accum(a, g / a.values)

    return _make(out_vals, (a,), bwd)


def softmax_rows(x, temperature: float = 1.0) -> Tensor:
    """Row-wise softmax of x / temperature, stabilized by row-max subtraction."""
    x = _wrap(x)
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    # row max is a constant shift; softmax is invariant to it, so detaching is exact
    row_max = x.values.max(axis=1, keepdims=True)
    e = exp((x - row_max) * (1.0 / temperature))
    return e / tensor_sum(e, axis=1)


def logsumexp_rows(x, temperature: float = 1.0) -> Tensor:
    """tau * log(sum_j exp(x_ij / tau)) per row, max-stabilized; shape (m, 1)."""
    x = _wrap(x)
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    row_max = x.values.max(axis=1, keepdims=True)
    shifted = (x - row_max) * (1.0 / temperature)
    return log(tensor_sum(exp(shifted), axis=1)) * temperature + row_max


def stop_gradient(x) -> Tensor:
    """Forward identity that contributes exactly zero to upstream gradients."""
    x = _wrap(x)
    return Var(x.values.copy(), requires_grad=False)


class Var(Tensor):
    """A Tensor with the operators the composed graphs are written in. No
    slots of its own, so any Tensor can be re-classed to it."""

    __slots__ = ()
    T = property(transpose)
    __add__, __sub__, __mul__, __truediv__ = add, sub, mul, div
    __neg__, __pow__, __matmul__ = neg, power, matmul

    def __radd__(self, other):
        return add(other, self)

    def __rsub__(self, other):
        return sub(other, self)

    def __rmul__(self, other):
        return mul(other, self)

    def __rtruediv__(self, other):
        return div(other, self)


# ---------------------------------------------------------------------------
# the composed graphs that the fused nodes replace
# ---------------------------------------------------------------------------

class _InOrder:
    """A stack's views, iterated in the order its consumer names (see
    ``autodiff.mlp``), so that ``backward`` reaches them, and the graphs
    behind them, in the order a composed consumer reaches its own views."""

    def __init__(self, views):
        self.views, self.stack = views, None

    def __iter__(self):
        return iter([self.views[v] for v in self.stack.view_order or range(len(self.views))])


def stack_views(views) -> "Var":
    """V 2-D Tensors as one (V, m, n) node. Each view that requires a
    gradient gets its slice of the stack's, in the order the stack's
    consumer names (one Tensor in two slots gets both slices' terms)."""
    views = [_wrap(v) for v in views]

    def bwd(g):
        for v in stack.view_order or range(len(views)):
            if views[v].requires_grad:
                ad._accum(views[v], g[v])

    stack = _make(np.stack([v.values for v in views]), views, bwd)
    if stack._parents:
        stack._parents = _InOrder(views)
        stack._parents.stack = stack
    return stack


def first_view(stack) -> "Var":
    """View 0 of a one-view (1, m, n) stack, as a 2-D node."""
    stack = _wrap(stack)
    if stack.shape[0] != 1:
        raise ShapeError(f"first_view takes a one-view stack, got {stack.shape}")

    def bwd(g):
        ad._accum(stack, g[None])

    return _make(stack.values[0], (stack,), bwd)


def composed_tanh(a):
    a = _wrap(a)
    out_vals = np.tanh(a.values)

    def bwd(g):
        ad._accum(a, g * (1.0 - out_vals ** 2))

    return _make(out_vals, (a,), bwd)


def composed_linear(h, w, b, act):
    out = matmul(h, w) + b
    return {"tanh": composed_tanh, "relu": relu, "identity": lambda t: t}[act](out)


def composed_l2_normalize_rows(x, eps=1e-12):
    x = _wrap(x)
    sumsq = tensor_sum(x * x, axis=1)
    denom = power(sumsq + eps * eps, 0.5)
    return x / denom


def composed_views(xs, weights, biases, acts, normalize):
    """One composed graph per view Tensor in `xs`."""
    outs = []
    for h in xs:
        for w, b, act in zip(weights, biases, acts):
            h = composed_linear(h, w, b, act)
        outs.append(composed_l2_normalize_rows(h) if normalize else h)
    return outs


def accum_views(x, weights, biases, acts, normalize, grads, order, held=None):
    """Each parameter's gradient, as V one-view ``mlp`` nodes would hand it
    out: view v's gradient, from a node over ``x[v:v + 1]`` that receives
    ``grads[v]``, reaches a parameter through ``_accum`` one view at a time in
    ``order``, onto a copy of ``held`` (its gradients before) or onto none."""
    params = (*weights, *biases)
    per_view = []
    for v in range(len(x)):
        own = [Tensor(p.values.copy(), requires_grad=True) for p in params]
        node = ad.mlp(x[v:v + 1], own[:len(weights)], own[len(weights):], acts,
                      normalize)
        ad.backward(ad._make(np.zeros((1, 1)), (node,),
                             lambda g, node=node, gv=grads[v]: ad._accum(node, gv[None])))
        per_view.append([p.grad for p in own])
    sums = []
    for i, p in enumerate(params):
        t = Tensor(p.values)
        t.grad = None if held is None else held[i].copy()
        for v in order:
            ad._accum(t, per_view[v][i])
        sums.append(t.grad)
    return sums


def composed_batch_norm_cols(x, eps=1e-12):
    """The composed graph that the one ``batch_norm_cols`` node replaces."""
    x = _wrap(x)
    mu = tensor_mean(x, axis=0)
    centered = x - mu
    var = tensor_mean(centered * centered, axis=0)
    return centered / power(var + eps, 0.5)


def composed_triplet(z_a, z_p, z_n, margin=None):
    z_a, z_p, z_n = map(_wrap, (z_a, z_p, z_n))
    m = z_a.shape[0]
    if margin is None or not np.isfinite(margin):
        return (tensor_sum(z_a * z_n) - tensor_sum(z_a * z_p)) * (1.0 / m)
    d_ap = tensor_sum((z_a - z_p) * (z_a - z_p), axis=1)
    d_an = tensor_sum((z_a - z_n) * (z_a - z_n), axis=1)
    return tensor_sum(relu(d_ap - d_an + margin)) * (0.5 / m)


def composed_infonce(z_a, z_p, temperature=0.1):
    m = z_a.shape[0]
    sims = matmul(z_a, _wrap(z_p).T)
    sim_p = tensor_sum(sims * np.eye(m), axis=1)
    lse = logsumexp_rows(sims, temperature)
    return tensor_sum((lse - sim_p) * (1.0 / temperature)) * (1.0 / m)


def composed_dino(z_a, z_b, t_a, t_b, center, student_temperature=0.1,
                  teacher_temperature=0.04, use_centering=True):
    def direction(s, teacher_z):
        logits = teacher_z - center.center if use_centering else teacher_z
        shifted = (logits - logits.max(axis=1, keepdims=True)) / teacher_temperature
        q = np.exp(shifted)
        q /= q.sum(axis=1, keepdims=True)
        log_p = log(softmax_rows(s, student_temperature))
        weighted = Var(teacher_temperature * q) * (log_p * student_temperature)
        return tensor_sum(weighted) * (-1.0 / q.shape[0])

    return (direction(z_a, t_b) + direction(z_b, t_a)) * 0.5


def composed_swav(z_a, z_b, prototypes, temperature=0.1, sinkhorn_eps=0.05,
                  sinkhorn_iters=3):
    prototypes = _wrap(prototypes)
    scores_a = matmul(z_a, prototypes.T)
    scores_b = matmul(z_b, prototypes.T)
    q_a = sinkhorn_knopp(scores_a.values, sinkhorn_eps, sinkhorn_iters)
    q_b = sinkhorn_knopp(scores_b.values, sinkhorn_eps, sinkhorn_iters)

    def direction(scores, q):
        log_p = log(softmax_rows(scores, temperature))
        return tensor_sum(q * log_p) * (-1.0 / scores.shape[0])

    return (direction(scores_a, q_b) + direction(scores_b, q_a)) * 0.5


def composed_barlow_twins(z_a, z_b, bt_lambda=5e-3, use_decorrelation=True):
    m, d = z_a.shape
    corr = matmul(_wrap(z_a).T, z_b) * (1.0 / m)
    eye = np.eye(d)
    diag_term = tensor_sum(((1.0 - corr) * eye) ** 2)
    if not use_decorrelation:
        return diag_term
    off_term = tensor_sum((corr * (1.0 - eye)) ** 2)
    return diag_term + off_term * bt_lambda


def composed_simple(z, z_w, center_penalty_weight=-1.0, squared=True):
    s_hat = (tensor_mean(z, axis=0) + tensor_mean(z_w, axis=0)) * 0.5
    sq_norm = tensor_sum(s_hat * s_hat)
    penalty = sq_norm if squared else (sq_norm + 1e-24) ** 0.5
    return (composed_neg_cosine(z, z_w) - penalty * center_penalty_weight) * 0.5


def composed_neg_cosine(p, t):
    return tensor_sum(_wrap(p) * t) * (-1.0 / p.shape[0])


def composed_predictions(z_a, z_b, pred):
    """The embeddings themselves, or one composed predictor graph per view."""
    if pred is None:
        return z_a, z_b
    return composed_views([z_a, z_b], pred.weights, pred.biases, pred.activations,
                          pred.output_normalize)


def composed_simsiam(z_a, z_b, pred=None, use_stop_gradient=True):
    p_a, p_b = composed_predictions(z_a, z_b, pred)
    if use_stop_gradient:
        z_a, z_b = stop_gradient(z_a), stop_gradient(z_b)
    return (composed_neg_cosine(p_a, z_b) + composed_neg_cosine(p_b, z_a)) * 0.5


def composed_byol(z_a, z_b, pred, t_a, t_b):
    p_a, p_b = composed_predictions(z_a, z_b, pred)
    return (composed_neg_cosine(p_a, Tensor(t_b))
            + composed_neg_cosine(p_b, Tensor(t_a))) * 0.5
