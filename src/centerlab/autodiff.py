"""Minimal reverse-mode automatic differentiation over dense float64 arrays:
2-D parameters and losses, and (V, m, n) view stacks.

The engine is a ``Tensor``, a node constructor (``_make``) and one
``backward``. A graph is built of fused nodes only: ``mlp`` (a whole encoder
over its views), ``batch_norm_cols`` (over its views) and the loss nodes in
``losses``, each holding a closure that pushes gradients to its parents. A
node over V views holds them as one (V, m, n) array and takes back one
(V, m, n) gradient. A fresh graph is built on every training step;
``backward`` runs a topological sweep from a scalar loss. Gradients
accumulate on leaves (a built stack's ``View``s share one flat leaf) until
reset to None, as ``layers.sgd_step`` does after each update. The composed
graphs that the fused nodes replace bit for bit live in the tests, as oracles.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "View",
    "pack",
    "ShapeError",
    "ParameterError",
    "mlp",
    "batch_norm_cols",
    "backward",
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
        return float(self.values.item())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class View(Tensor):
    """A parameter stored in a group, a flat leaf holding a stack's parameters
    end to end: its values and gradient are the group's at ``block``. ``mlp``
    takes all of a group's Views and keeps its arrays in their ``scratch``."""
    __slots__ = ("group", "block", "scratch")

    def __init__(self, group: Tensor, block: slice, shape: tuple[int, ...], scratch: dict):
        self.group, self.block, self.scratch = group, block, scratch
        super().__init__(group.values[block].reshape(shape), group.requires_grad)

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.group.grad is None else self.group.grad[self.block].reshape(self.shape)

    @grad.setter
    def grad(self, value: None) -> None:
        assert value is None, "a View's gradient is its group's; only None clears it"
        self.group.grad = None


def pack(arrays: Sequence[np.ndarray], requires_grad: bool = True) -> list[View]:
    """Views of one new group that holds copies of `arrays` end to end."""
    group = _make(np.concatenate([np.ravel(a) for a in arrays]), (), None)
    group.requires_grad, scratch = requires_grad, {}
    ends = np.cumsum([a.size for a in arrays]).tolist()
    return [View(group, slice(e - a.size, e), a.shape, scratch) for a, e in zip(arrays, ends)]


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


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    if t.grad is None:
        # a fresh g (its giver's own, C-ordered) is handed over; any other may
        # be another node's grad or a view of one, so it is copied, in C order,
        # since later sums over an F-ordered g.T would run in another order
        # and round differently. Unlike zeros + g, either keeps a -0.0 entry
        # as -0.0; downstream that can flip the sign of an exact zero, never a value.
        t.grad = g if fresh else np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


# numpy runs an op across the short axis of a long, thin array with one inner
# loop call per row; from about 256 rows on (crossover 128-384 rows for 2-4
# columns), whole-column calls in numpy's own order are faster. A caller
# decides thinness once per array and hands the answer to each helper below
def _thin(a: np.ndarray) -> bool:
    return 2 <= a.shape[-1] <= 4 and a.size >= 256 * a.shape[-1]


def _row_sum(a: np.ndarray, thin: bool) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)`` bit for bit: below 8 elements numpy's
    sum is a left fold from +0.0, so a thin array folds its columns."""
    if not thin:
        return a.sum(axis=-1, keepdims=True)
    out = 0.0 + a[..., 0:1]
    for j in range(1, a.shape[-1]):
        out += a[..., j:j + 1]
    return out


def _col_sum(a: np.ndarray, thin: bool, out: np.ndarray | None = None) -> np.ndarray:
    """``a.sum(axis=-2, keepdims=True, out=out)`` of rows (m, k) or views (V, m, k)
    bit for bit: down the rows of a C-contiguous array with 2+ columns numpy
    folds from +0.0, and ``0.0 +`` turns accumulate's -0.0 start into that."""
    if not (thin and a.flags.c_contiguous):
        return a.sum(axis=-2, keepdims=True, out=out)
    return np.add(0.0, np.add.accumulate(a, axis=-2)[..., -1:, :], out=out)


# an elementwise op rounds each element alone, so running it one column at a
# time gives numpy's broadcast bit for bit (all but the sign of a NaN that
# meets a NaN, which numpy's inner loop picks and no output shows)
def _by_col(op: np.ufunc, a: np.ndarray, col: np.ndarray, thin: bool) -> np.ndarray:
    """``op(a, col)`` for a (..., 1) column `col` broadcast across each row of `a`."""
    if not thin:
        return op(a, col)
    out = np.empty_like(a)
    for j in range(a.shape[-1]):
        op(a[..., j:j + 1], col, out=out[..., j:j + 1])
    return out


def _by_row(op: np.ufunc, a: np.ndarray, row: np.ndarray, thin: bool,
            out: np.ndarray | None = None) -> np.ndarray:
    """``op(a, row, out=out)`` for an (n,) or (1, n) row `row` broadcast down
    the rows of `a`; ``out=a`` runs it in place."""
    if not thin:
        return op(a, row, out=out)
    if out is None:
        out = np.empty_like(a)
    for j in range(a.shape[-1]):
        op(a[..., j:j + 1], row[..., j:j + 1], out=out[..., j:j + 1])
    return out


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
    layer inputs (the last layer's output last), the pre-activations, whether
    each layer input is ``_thin`` (the output's answer last), the row norms
    squared plus eps^2 and their roots (None unnormalised), the output."""
    hs, pres, thin = [h], [], [_thin(h)]
    for w, b, act in zip(weights, biases, activations):
        pres.append(np.matmul(hs[-1], w.values))
        thin.append(_thin(pres[-1]))
        # in place on the product's fresh array
        _by_row(np.add, pres[-1], b.values, thin[-1], out=pres[-1])
        rule = _ACTIVATIONS[act]
        hs.append(pres[-1] if rule is None else rule[0](pres[-1]))
    h = hs[-1]
    if not normalize:
        return hs, pres, thin, None, None, h
    s = _row_sum(h * h, thin[-1]) + eps * eps
    d = s ** 0.5
    return hs, pres, thin, s, d, _by_col(np.divide, h, d, thin[-1])


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
    analytic normalisation Jacobian. Each view's parameter gradients fill one
    (V, P) array per group (a loose parameter is a group of its own); a group
    without a gradient gets its views' as one left fold, one holding a gradient
    one at a time, in the order the node's ``view_order`` names (the order in
    which the composed graph of its consumer reaches the views; view order when
    None), since with three views that order sets the rounding of the sums. So
    values and gradients are bit-identical to V composed graphs.
    """
    x_grad = isinstance(x, Tensor) and x.requires_grad
    h = x.values if isinstance(x, Tensor) else x
    if h.ndim != 3:
        raise ShapeError(f"mlp takes a (V, m, k) view stack, got shape {h.shape}")
    hs, pres, thin, s, d, out = _mlp_forward(h, weights, biases, activations, normalize, eps)
    h = hs[-1]
    views, m, n = h.shape
    if weights and isinstance(weights[0], View) and weights[0].requires_grad:
        # all of a group's Views: one (V, P) array, kept for the next step
        scratch, group = weights[0].scratch, weights[0].group
        if views not in scratch:
            grads = np.empty((views, group.values.size))
            scratch[views] = ((group, grads),), {
                id(p): grads[:, p.block].reshape(views, *p.shape) for p in (*weights, *biases)}
        targets, outs = scratch[views]
    else:  # loose parameters, each a group of its own
        outs = {id(p): np.empty((views, *p.shape)) for p in (*weights, *biases) if p.requires_grad}
        targets = [(p, outs[id(p)]) for p in (*weights, *biases) if p.requires_grad]

    def bwd(g: np.ndarray):
        if normalize:
            gd = _by_col(np.divide, -g * h, d ** 2, thin[-1])
            if n != 1:  # as _unbroadcast to d's shape
                gd = _row_sum(gd, thin[-1])
            # h * h hands each operand the same term; the composed graph's
            # column * h, commuted
            t = _by_col(np.multiply, h, gd * 0.5 * s ** -0.5, thin[-1])
            g = _by_col(np.divide, g, d, thin[-1])
            g += t
            g += t
        for i in reversed(range(len(weights))):
            w, b = weights[i], biases[i]
            rule = _ACTIVATIONS[activations[i]]
            if rule is not None:
                g = rule[1](g, pres[i], hs[i + 1])
            if b.requires_grad:  # as _unbroadcast: one row is handed on unsummed
                _col_sum(g, thin[i + 1], outs[id(b)]) if m > 1 else np.copyto(outs[id(b)], g)
            if w.requires_grad:
                np.matmul(hs[i].transpose(0, 2, 1), g, out=outs[id(w)])
            if i or x_grad:
                g = np.matmul(g, w.values.T)
        order = ref().view_order or range(views)
        for t, grads in targets:
            if t.grad is None and views > 1:
                # _accum's copy-then-adds as one left fold
                fold = iter(order)
                t.grad = grads[next(fold)] + grads[next(fold)]
                for v in fold:
                    t.grad += grads[v]
            else:
                for v in order:
                    _accum(t, grads[v])
        if x_grad:  # a layer or the normalisation made g anew
            _accum(x, g, fresh=bool(weights) or normalize)

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
    inv_m = 1.0 / xs.shape[-2]
    c = xs - xs.sum(axis=-2, keepdims=True) * inv_m
    ve = (c * c).sum(axis=-2, keepdims=True) * inv_m + eps
    sd = ve ** 0.5

    def bwd(g: np.ndarray):
        t = _unbroadcast(-g * c / (sd ** 2), sd.shape) * 0.5 * ve ** -0.5 * inv_m * c
        g_c = g / sd
        g_c += t
        g_c += t
        g_mean = _unbroadcast(-g_c, sd.shape) * inv_m
        _accum(x, g_c, fresh=True)
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

