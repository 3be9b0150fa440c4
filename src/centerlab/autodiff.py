"""Minimal reverse-mode automatic differentiation over dense 2-D float64 arrays.

The engine is tape-free in the micrograd style: every operation returns a new
``Tensor`` holding closures that push gradients to its parents. A fresh graph
is built on every training step; ``backward`` runs a topological sweep from a
scalar loss. Gradients accumulate on leaves until ``zero_grads`` is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "ParameterError",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "matmul",
    "linear",
    "transpose",
    "tensor_sum",
    "tensor_mean",
    "relu",
    "exp",
    "log",
    "concat_cols",
    "l2_normalize_rows",
    "softmax_rows",
    "logsumexp_rows",
    "batch_norm_cols",
    "stop_gradient",
    "backward",
    "zero_grads",
    "grad_check",
    "GradCheckReport",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class ParameterError(ValueError):
    """Raised for out-of-range hyperparameters (e.g. temperature <= 0)."""


def _as_2d(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"only 2-D tensors supported, got ndim={arr.ndim}")
    return arr


class Tensor:
    """Dense 2-D array participating in the computation graph.

    ``grad`` has the same shape as ``values`` once populated. Leaves are
    tensors with no parents; parameter leaves carry ``requires_grad=True``.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False,
                 _parents: tuple = (), _backward_fn=None):
        self.values = _as_2d(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values[0, 0])

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    for axis in (0, 1):
        if shape[axis] == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot reduce gradient {grad.shape} to {shape}")
    return grad


def _make(values: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    return Tensor(values, requires_grad=needs,
                  _parents=tuple(parents) if needs else (),
                  _backward_fn=backward_fn if needs else None)


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


# ---------------------------------------------------------------------------
# elementwise / broadcast primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_vals = a.values + b.values

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _make(out_vals, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_vals = a.values - b.values

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape))

    return _make(out_vals, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_vals = a.values * b.values

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.values, b.shape))

    return _make(out_vals, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_vals = a.values / b.values

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.values, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.values / (b.values ** 2), b.shape))

    return _make(out_vals, (a, b), bwd)


def neg(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accum(a, -g)

    return _make(-a.values, (a,), bwd)


def power(a, p: float) -> Tensor:
    a = _wrap(a)
    p = float(p)
    out_vals = a.values ** p

    def bwd(g):
        _accum(a, g * p * a.values ** (p - 1.0))

    return _make(out_vals, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and reductions
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out_vals = a.values @ b.values

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ b.values.T)
        if b.requires_grad:
            _accum(b, a.values.T @ g)

    return _make(out_vals, (a, b), bwd)


# activation name -> (forward, backward rule); the rule maps the output's
# gradient g, the pre-activation and the output to the pre-activation's
# gradient with the expressions of the ``relu`` node and of the composed tanh
# node that the tests keep as the oracle
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda g, pre, out: g * (1.0 - out ** 2)),
    "relu": (lambda v: np.maximum(v, 0.0), lambda g, pre, out: g * (pre > 0.0)),
    "identity": (lambda v: v, lambda g, pre, out: g),
}


def linear(h, w, b, act: str) -> Tensor:
    """``act(h @ w + b)`` as one node, for act in ``_ACTIVATIONS``.

    The backward replays the composed ``matmul``, ``add`` and activation
    nodes expression for expression, so values and gradients are
    bit-identical to that graph's.
    """
    h, w, b = _wrap(h), _wrap(w), _wrap(b)
    if h.shape[1] != w.shape[0]:
        raise ShapeError(f"linear inner dims disagree: {h.shape} @ {w.shape}")
    forward, rule = _ACTIVATIONS[act]
    pre = h.values @ w.values + b.values
    out_vals = forward(pre)

    def bwd(g):
        g = rule(g, pre, out_vals)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))
        if h.requires_grad:
            _accum(h, g @ w.values.T)
        if w.requires_grad:
            _accum(w, h.values.T @ g)

    return _make(out_vals, (h, w, b), bwd)


def transpose(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accum(a, g.T)

    return _make(a.values.T.copy(), (a,), bwd)


def tensor_sum(a, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    if axis is None:
        out_vals = a.values.sum().reshape(1, 1)
    else:
        out_vals = a.values.sum(axis=axis, keepdims=True)

    def bwd(g):
        _accum(a, np.broadcast_to(g, a.shape))

    return _make(out_vals, (a,), bwd)


def tensor_mean(a, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    count = a.values.size if axis is None else a.shape[axis]
    return tensor_sum(a, axis) * (1.0 / count)


def concat_cols(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols row counts differ: {a.shape} vs {b.shape}")
    ka = a.shape[1]
    out_vals = np.hstack([a.values, b.values])

    def bwd(g):
        if a.requires_grad:
            _accum(a, g[:, :ka])
        if b.requires_grad:
            _accum(b, g[:, ka:])

    return _make(out_vals, (a, b), bwd)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = _wrap(a)
    out_vals = np.maximum(a.values, 0.0)

    def bwd(g):
        _accum(a, g * (a.values > 0.0))

    return _make(out_vals, (a,), bwd)


def exp(a) -> Tensor:
    a = _wrap(a)
    out_vals = np.exp(a.values)

    def bwd(g):
        _accum(a, g * out_vals)

    return _make(out_vals, (a,), bwd)


def log(a) -> Tensor:
    a = _wrap(a)
    out_vals = np.log(a.values)

    def bwd(g):
        _accum(a, g / a.values)

    return _make(out_vals, (a,), bwd)


# ---------------------------------------------------------------------------
# composite primitives used by the loss catalog
# ---------------------------------------------------------------------------

def l2_normalize_rows(x, eps: float = 1e-12) -> Tensor:
    """Scale each row to unit L2 norm with an eps-regularized denominator.

    One node that replays the composed ``x / (sum(x * x, 1) + eps^2) ** 0.5``
    graph: the backward runs that graph's div, power, sum and mul rules in
    its order, not the analytic Jacobian (I - zz^T)/||x||, so gradients are
    bit-identical to it. Zero rows map to zero rows.
    """
    x = _wrap(x)
    s = (x.values * x.values).sum(axis=1, keepdims=True) + eps * eps
    d = s ** 0.5

    def bwd(g):
        gd = _unbroadcast(-g * x.values / (d ** 2), d.shape)
        # x * x hands each operand the same term
        t = gd * 0.5 * s ** -0.5 * x.values
        _accum(x, g / d)
        _accum(x, t)
        _accum(x, t)

    return _make(x.values / d, (x,), bwd)


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


def batch_norm_cols(x, eps: float = 1e-12) -> Tensor:
    """Standardize each column to mean 0, variance 1 (biased)."""
    x = _wrap(x)
    m = x.shape[0]
    if m < 2:
        raise ShapeError(f"batch_norm_cols needs at least 2 rows, got {m}")
    mu = tensor_mean(x, axis=0)
    centered = x - mu
    var = tensor_mean(centered * centered, axis=0)
    return centered / power(var + eps, 0.5)


def stop_gradient(x) -> Tensor:
    """Forward identity that contributes exactly zero to upstream gradients."""
    x = _wrap(x)
    return Tensor(x.values.copy(), requires_grad=False)


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
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
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


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


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
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            bumped = base.copy()
            bumped[i, j] = base[i, j] + step
            hi = f(Tensor(bumped)).item()
            bumped[i, j] = base[i, j] - step
            lo = f(Tensor(bumped)).item()
            numeric[i, j] = (hi - lo) / (2.0 * step)

    abs_err = np.abs(analytic - numeric)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel_err = abs_err / scale
    return GradCheckReport(max_rel_err=float(rel_err.max()),
                           max_abs_err=float(abs_err.max()), tol=tol)
