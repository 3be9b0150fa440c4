"""Minimal reverse-mode automatic differentiation over dense float64 arrays:
2-D parameters and losses, and (V, m, n) view stacks.

The engine is a ``Tensor``, a node constructor (``_make``) and one
``backward``. A graph is built of fused nodes only: ``mlp`` (a whole encoder
over its views), ``batch_norm_cols`` (over its views) and the loss nodes in
``losses``, each holding a closure that pushes gradients to its parents. A
node over V views holds them as one (V, m, n) array and takes back one
(V, m, n) gradient. A fresh graph is built on every training step;
``backward`` runs a topological sweep from a scalar loss. Gradients
accumulate on leaves until reset to None (``layers.sgd_step`` does so after
each update). The composed primitive graphs that the fused nodes replace bit
for bit live in the tests, as their oracles.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "ParameterError",
    "mlp",
    "batch_norm_cols",
    "backward",
    "grad_check",
    "GradCheckReport",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class ParameterError(ValueError):
    """Raised for out-of-range hyperparameters (e.g. temperature <= 0)."""


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim > 3:
        raise ShapeError(f"only 2-D tensors and 3-D view stacks supported, "
                         f"got ndim={arr.ndim}")
    return arr


class Tensor:
    """Dense array participating in the computation graph: 2-D, or a
    (V, m, n) stack of V views.

    ``grad`` has the same shape as ``values`` once populated. Leaves are
    tensors with no parents; parameter leaves carry ``requires_grad=True``.
    ``view_order`` is set on a view stack by a consumer whose composed graph
    reaches the views in another order than view order (see ``mlp``).
    """

    __slots__ = ("values", "grad", "requires_grad", "view_order", "_parents",
                 "_backward_fn", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_array(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.view_order: tuple[int, ...] | None = None
        self._parents: tuple = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape, one
    kept axis at a time (one axis for a row or column of a 2-D operand)."""
    if grad.shape == shape:
        return grad
    for axis in range(len(shape)):
        if shape[axis] == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot reduce gradient {grad.shape} to {shape}")
    return grad


def _make(values: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    """A node over `values` as numpy returned them (float64, 2-D or a view
    stack), without ``_as_array``'s conversion."""
    needs = any(p.requires_grad for p in parents)
    t = Tensor.__new__(Tensor)
    t.values, t.grad, t.requires_grad, t.view_order = values, None, needs, None
    t._parents = tuple(parents) if needs else ()
    t._backward_fn = backward_fn if needs else None
    return t


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # an owned copy, since g may be another node's grad or a view of one;
        # C order, since later sums over an F-ordered g.T (from transpose)
        # would run in another order and round differently. Unlike zeros + g,
        # a copy keeps a -0.0 entry as -0.0; downstream that can flip the
        # sign of an exact zero, never a value.
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


# numpy reduces across the short axis of a long, thin array with one inner
# loop call per row; from about 256 rows on (crossover 128-384 rows for 2-4
# columns), whole-column adds in numpy's own order are faster
def _thin(a: np.ndarray) -> bool:
    return 2 <= a.shape[-1] <= 4 and a.size >= 256 * a.shape[-1]


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)`` bit for bit: below 8 elements numpy's
    sum is a left fold from +0.0, so a thin array folds its columns."""
    if not _thin(a):
        return a.sum(axis=-1, keepdims=True)
    out = 0.0 + a[..., 0:1]
    for j in range(1, a.shape[-1]):
        out += a[..., j:j + 1]
    return out


def _col_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-2, keepdims=True)`` of rows (m, k) or views (V, m, k) bit
    for bit: down the rows of a C-contiguous array with 2+ columns numpy folds
    from +0.0, and ``0.0 +`` turns accumulate's -0.0 start into that."""
    if not (_thin(a) and a.flags.c_contiguous):
        return a.sum(axis=-2, keepdims=True)
    return 0.0 + np.add.accumulate(a, axis=-2)[..., -1:, :]


# activation name -> (forward, backward rule), or None for the identity,
# which costs no call; the rule maps the output's gradient g, the
# pre-activation and the output to the pre-activation's gradient with the
# expressions of the composed relu and tanh nodes that the tests keep as oracles
_ACTIVATIONS: dict[str, tuple[Callable, Callable] | None] = {
    "tanh": (np.tanh, lambda g, pre, out: g * (1.0 - out ** 2)),
    "relu": (lambda v: np.maximum(v, 0.0), lambda g, pre, out: g * (pre > 0.0)),
    "identity": None,
}


def _mlp_forward(h: np.ndarray, weights: Sequence[Tensor], biases: Sequence[Tensor],
                 activations: Sequence[str], normalize: bool, eps: float = 1e-12):
    """``mlp``'s values, off the graph, for rows (m, k) or views (V, m, k): the
    layer inputs (the last layer's output last), the pre-activations, the row
    norms squared plus eps^2 and their roots (None unnormalised), the output."""
    hs, pres = [h], []
    for w, b, act in zip(weights, biases, activations):
        if hs[-1].shape[-1] != w.shape[0]:
            raise ShapeError(f"mlp inner dims disagree: {hs[-1].shape} @ {w.shape}")
        pres.append(np.matmul(hs[-1], w.values))
        pres[-1] += b.values  # in place on the product's fresh array
        rule = _ACTIVATIONS[act]
        hs.append(pres[-1] if rule is None else rule[0](pres[-1]))
    h = hs[-1]
    if not normalize:
        return hs, pres, None, None, h
    s = _row_sum(h * h) + eps * eps
    d = s ** 0.5
    return hs, pres, s, d, h / d


def mlp(x, weights: Sequence[Tensor], biases: Sequence[Tensor],
        activations: Sequence[str], normalize: bool, eps: float = 1e-12) -> Tensor:
    """Layers ``act(h @ w + b)``, then optionally unit-norm rows, as one node.

    ``x`` is V views, a (V, m, k) array or a (V, m, k) Tensor (another node,
    say) that may carry a gradient; the node's values are the views' (V, m, n)
    outputs, and its gradient is one (V, m, n) array. Rows are normalised as
    ``h / (sum(h * h, 1) + eps^2) ** 0.5``, so zero rows map to zero rows.

    The products run as ``np.matmul`` over the view axis, bit-equal to each
    view's own product; stacking the views as rows of one product is not.
    The backward replays, batched over the view axis, the rules of the
    composed matmul, add, activation, div, power, sum and mul nodes, not the
    analytic normalisation Jacobian. A parameter without a gradient gets its
    views' gradients as one left fold, one holding a gradient gets them one at
    a time; either way in the order the node's ``view_order`` names (the order
    in which the composed graph of its consumer reaches the views; view order
    when None), since with three views that order sets the rounding of the
    sums. So values and gradients are bit-identical to V composed graphs.
    """
    x_grad = isinstance(x, Tensor) and x.requires_grad
    h = x.values if isinstance(x, Tensor) else x
    if h.ndim != 3:
        raise ShapeError(f"mlp takes a (V, m, k) view stack, got shape {h.shape}")
    hs, pres, s, d, out = _mlp_forward(h, weights, biases, activations, normalize, eps)
    h = hs[-1]
    views, m, n = h.shape

    def bwd(g: np.ndarray):
        if normalize:
            gd = -g * h / (d ** 2)
            if n != 1:  # as _unbroadcast to d's shape
                gd = _row_sum(gd)
            # h * h hands each operand the same term
            t = gd * 0.5 * s ** -0.5 * h
            g = g / d + t + t
        per_param = []
        for i in reversed(range(len(weights))):
            w, b = weights[i], biases[i]
            rule = _ACTIVATIONS[activations[i]]
            if rule is not None:
                g = rule[1](g, pres[i], hs[i + 1])
            if b.requires_grad:  # as _unbroadcast: one row is handed on unsummed
                per_param.append((b, g if m == 1 else _col_sum(g)))
            if w.requires_grad:
                per_param.append((w, np.matmul(hs[i].transpose(0, 2, 1), g)))
            if i or x_grad:
                g = np.matmul(g, w.values.T)
        order = ref().view_order or range(views)
        for p, per_view in per_param:
            if p.grad is None and views > 1:
                # _accum's copy-then-adds as one left fold
                fold = iter(order)
                p.grad = per_view[next(fold)] + per_view[next(fold)]
                for v in fold:
                    p.grad += per_view[v]
            else:
                for v in order:
                    _accum(p, per_view[v])
        if x_grad:
            _accum(x, g)

    node = _make(out, (x, *weights, *biases) if x_grad else (*weights, *biases), bwd)
    # the backward reads its node's order through a weak reference: a strong
    # one would make every step's graph a reference cycle, which only the
    # garbage collector frees
    ref = weakref.ref(node)
    return node


def batch_norm_cols(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Standardize each column to mean 0, variance 1 (biased), as one node.

    ``x`` is rows (m, n) or a view stack (V, m, n), each view standardized
    over its own rows. The values are those of the composed graph
    ``c / power(var + eps, 0.5)`` with ``c = x - tensor_mean(x, 0)`` and
    ``var = tensor_mean(c * c, 0)``. The backward replays its div, power, add,
    mul, sum and sub rules in the order ``backward`` runs them, per view: c
    receives the div's term, then the same term from each operand of
    ``c * c``; x receives c's gradient and then the mean's, as two
    accumulations. So values and gradients are bit-identical to one composed
    graph per view.
    """
    xs = x.values
    m = xs.shape[-2]
    if m < 2:
        raise ShapeError(f"batch_norm_cols needs at least 2 rows, got {m}")
    inv_m = 1.0 / m
    c = xs - xs.sum(axis=-2, keepdims=True) * inv_m
    ve = (c * c).sum(axis=-2, keepdims=True) * inv_m + eps
    sd = ve ** 0.5

    def bwd(g: np.ndarray):
        t = _unbroadcast(-g * c / (sd ** 2), sd.shape) * 0.5 * ve ** -0.5 * inv_m * c
        g_c = g / sd
        g_c += t
        g_c += t
        g_mean = _unbroadcast(-g_c, sd.shape) * inv_m
        _accum(x, g_c)
        _accum(x, np.broadcast_to(g_mean, g_c.shape))

    return _make(c / sd, (x,), bwd)


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:  # a leaf expands nothing and has no backward
            if p._parents and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad leaf reachable from a scalar loss.

    Leaf gradients accumulate across calls; intermediate gradients are reset
    on every sweep.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward expects a 1x1 scalar loss, got {loss.shape}")
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    # reset intermediates so repeated backward calls only accumulate on leaves
    for node in order:
        if node._parents:
            node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    max_abs_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor,
               step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of scalar f(x) to central finite differences.

    Relative error is |a - n| / max(1, |a|, |n|) per entry; the report carries
    the worst entry.
    """
    if not (1e-7 <= step <= 1e-3):
        raise ParameterError(f"step must lie in [1e-7, 1e-3], got {step}")
    probe = Tensor(x.values.copy(), requires_grad=True)
    out = f(probe)
    if out.shape != (1, 1):
        raise ShapeError(f"grad_check target must return a scalar, got {out.shape}")
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.values)

    numeric = np.zeros_like(probe.values)
    base = probe.values.copy()
    for i in np.ndindex(base.shape):
        bumped = base.copy()
        bumped[i] = base[i] + step
        hi = f(Tensor(bumped)).item()
        bumped[i] = base[i] - step
        lo = f(Tensor(bumped)).item()
        numeric[i] = (hi - lo) / (2.0 * step)

    abs_err = np.abs(analytic - numeric)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel_err = abs_err / scale
    return GradCheckReport(max_rel_err=float(rel_err.max()),
                           max_abs_err=float(abs_err.max()), tol=tol)
