"""Encoders, predictor heads, EMA parameter twins and prototype banks.

An encoder is a list of (weight, bias, activation) triples with optional
unit-sphere output normalization, which joins the graph as one
``autodiff.mlp`` node over its (V, m, k) view stack, and a predictor head is
an encoder whose input and output dims match. Teacher-side forwards
(``forward_array``) compute the values of ``autodiff.mlp`` and never join the
computation graph. A built stack keeps its parameters in one group
(``autodiff.pack``), which ``sgd_step`` and ``EmaTwin`` update whole.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import _ACTIVATIONS, ParameterError, ShapeError, Tensor

__all__ = [
    "EncoderStack",
    "EmaTwin",
    "PrototypeBank",
    "init_encoder",
    "init_predictor",
    "init_prototypes",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
]


class EncoderStack:
    """MLP mapping inputs to (optionally unit-norm) embedding rows."""

    def __init__(self, weights: list[Tensor], biases: list[Tensor],
                 activations: list[str], output_normalize: bool = True):
        self.weights = weights
        self.biases = biases
        self.activations = activations
        self.output_normalize = output_normalize
        self.group = weights[0].group if weights and isinstance(weights[0], ad.View) else None

    def forward(self, x: np.ndarray | Tensor) -> Tensor:
        """One ``autodiff.mlp`` node over V views, a (V, m, k) array or a
        (V, m, k) Tensor that may carry a gradient; returns the node, whose
        (V, m, n) rows come out unit-norm when configured."""
        return ad.mlp(x, self.weights, self.biases, self.activations, self.output_normalize)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """The values of ``forward``, off the graph, for rows (m, k) or
        stacked views (V, m, k); used by EMA teachers and diagnostics."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return ad._mlp_forward(h, self.weights, self.biases, self.activations,
                               self.output_normalize)[-1]

    def copy(self) -> "EncoderStack":
        # the group's own order, w0, b0, w1, ...: EmaTwin averages flat groups
        params = ad.pack([t.values for layer in zip(self.weights, self.biases)
                          for t in layer], requires_grad=False)
        return EncoderStack(params[0::2], params[1::2], list(self.activations),
                            self.output_normalize)


def init_encoder(dims: list[int], seed: int, activation: str = "tanh",
                 output_normalize: bool = True) -> EncoderStack:
    """Build an MLP with fan-in-scaled uniform weights and zero biases."""
    if len(dims) < 2:
        raise ParameterError("dims: need at least input and output dims")
    if any(d < 1 or d * e * 8 > np.iinfo(np.intp).max for d, e in zip(dims, [*dims[1:], 1])):
        raise ParameterError(f"dims: need dims >= 1 whose layers numpy can hold, got {dims}")
    # the activation rule's one home: EncoderStack and autodiff.mlp trust their names
    if activation not in _ACTIVATIONS:
        raise ParameterError(f"activation: unknown activation {activation!r}")
    rng = np.random.default_rng(seed)
    arrays, acts = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]), 1):
        bound = 1.0 / np.sqrt(fan_in)
        arrays += [rng.uniform(-bound, bound, size=(fan_in, fan_out)), np.zeros((1, fan_out))]
        acts.append(activation if i < len(dims) - 1 else "identity")
    params = ad.pack(arrays)  # one group: w0, b0, w1, b1, ...
    return EncoderStack(params[0::2], params[1::2], acts, output_normalize=output_normalize)


def init_predictor(dim: int, seed: int, hidden_multiple: int = 4,
                   activation: str = "tanh") -> EncoderStack:
    """Predictor head D -> hidden_multiple*D -> D (linear map when 0), an
    encoder stack with equal input and output dims.

    The linear variant starts at identity plus a small random perturbation so
    an untrained (or frozen) head begins as a near-identity map.
    """
    if hidden_multiple == 0:
        head = init_encoder([dim, dim], seed, activation=activation)
        head.weights[0].values *= 0.1
        head.weights[0].values += np.eye(dim)
        return head
    return init_encoder([dim, hidden_multiple * dim, dim], seed, activation=activation)


class EmaTwin:
    """Shadow copy of an encoder updated as an exponential moving average."""

    def __init__(self, source: EncoderStack, momentum: float):
        self.momentum = float(momentum)
        self.shadow = source.copy()

    def update(self, source: EncoderStack) -> None:
        """shadow <- (1 - momentum) * source + momentum * shadow, in place."""
        sh = self.shadow.group.values
        sh *= self.momentum
        sh += (1.0 - self.momentum) * source.group.values

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return self.shadow.forward_array(x)


class PrototypeBank:
    """K x D bank of prototype vectors; a trainable bank's matrix is its
    group, and a frozen bank has none and stays bit-identical."""

    def __init__(self, matrix: Tensor):
        self.matrix = matrix
        self.group = matrix if matrix.requires_grad else None

    def renormalize(self) -> None:
        """Project a trainable bank's rows back onto the unit sphere, in place."""
        if self.group is not None:
            m = self.matrix.values
            m /= np.sqrt((m * m).sum(axis=1, keepdims=True))


def init_prototypes(num_prototypes: int, dim: int, seed: int,
                    trainable: bool = True) -> PrototypeBank:
    """Rows drawn as normalized standard Gaussians: uniform on the unit sphere."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((num_prototypes, dim))
    raw /= np.sqrt((raw * raw).sum(axis=1, keepdims=True))
    return PrototypeBank(Tensor(raw, requires_grad=trainable))


def sgd_step(groups: dict[str, Tensor], lr: float,
             per_group_multipliers: dict[str, float] | None = None) -> None:
    """p <- p - lr * multiplier(name) * grad(p) per group; clears grads afterwards."""
    multipliers = per_group_multipliers or {}
    for name, group in groups.items():
        # autodiff gives each group a gradient array of its own: scale it in place
        group.grad *= lr * multipliers.get(name, 1.0)
        group.values -= group.grad
        group.grad = None


def save_checkpoint(path, groups: dict[str, Tensor]) -> None:
    """Dump each group's float64 values under its name; the npz round-trip is
    bit-exact."""
    np.savez(path, **{name: group.values for name, group in groups.items()})


def load_checkpoint(path, groups: dict[str, Tensor]) -> None:
    """Copy each group's array into the group in place, so its Views keep
    sharing the group's memory."""
    with np.load(path) as data:
        for name, group in groups.items():
            if name not in data.files:
                raise ValueError(f"checkpoint lacks group {name}")
            arr = data[name]
            if arr.shape != group.values.shape:
                raise ShapeError(f"checkpoint group {name} has shape {arr.shape}, "
                                 f"not {group.values.shape}")
            group.values[...] = arr
