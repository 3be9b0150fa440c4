"""Encoders, predictor heads, EMA parameter twins and prototype banks.

An encoder is a list of (weight, bias, activation) triples with optional
unit-sphere output normalization, which joins the graph as one
``autodiff.mlp`` node over its (V, m, k) view stack, and a predictor head is
an encoder whose input and output dims match. Teacher-side forwards
(``forward_array``) compute the values of ``autodiff.mlp`` and never join the
computation graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import _ACTIVATIONS, ParameterError, ShapeError, Tensor

__all__ = [
    "Param",
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

_INIT_SCHEMES = ("uniform", "biased")


@dataclass(frozen=True)
class Param:
    """Named parameter with its learning-rate group (encoder/predictor/prototypes)."""
    name: str
    tensor: Tensor
    group: str


class EncoderStack:
    """MLP mapping inputs to (optionally unit-norm) embedding rows."""

    def __init__(self, weights: list[Tensor], biases: list[Tensor],
                 activations: list[str], output_normalize: bool = True):
        if len(weights) != len(biases) or len(weights) != len(activations):
            raise ParameterError("layer lists must have equal length")
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ParameterError(f"unknown activation {act!r}")
        self.weights = weights
        self.biases = biases
        self.activations = activations
        self.output_normalize = output_normalize

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

    def parameters(self, group: str = "encoder") -> list[Param]:
        params = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params.append(Param(f"{group}.w{i}", w, group))
            params.append(Param(f"{group}.b{i}", b, group))
        return params

    def copy(self) -> "EncoderStack":
        return EncoderStack(
            [Tensor(w.values.copy(), requires_grad=False) for w in self.weights],
            [Tensor(b.values.copy(), requires_grad=False) for b in self.biases],
            list(self.activations), self.output_normalize)


def init_encoder(dims: list[int], seed: int, scheme: str = "uniform",
                 activation: str = "tanh", output_normalize: bool = True) -> EncoderStack:
    """Build an MLP with fan-in-scaled uniform weights.

    ``scheme="biased"`` adds a constant positive offset to every weight so the
    initial embedding cloud sits off-center on the sphere (non-uniform
    initialization study); default is the symmetric scheme.
    """
    if len(dims) < 2:
        raise ParameterError("dims: need at least input and output dims")
    if any(d < 1 for d in dims):
        raise ParameterError(f"dims: every dim must be >= 1, got {dims}")
    if scheme not in _INIT_SCHEMES:
        raise ParameterError(f"scheme: unknown init scheme {scheme!r}")
    # checked here too, since a one-layer encoder never passes it to a layer
    if activation not in _ACTIVATIONS:
        raise ParameterError(f"activation: unknown activation {activation!r}")
    rng = np.random.default_rng(seed)
    weights, biases, acts = [], [], []
    n_layers = len(dims) - 1
    for i in range(n_layers):
        fan_in = dims[i]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
        b = np.zeros((1, dims[i + 1]))
        if scheme == "biased":
            w = w + 0.75 * bound
            b = b + 0.25
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(b, requires_grad=True))
        acts.append(activation if i < n_layers - 1 else "identity")
    return EncoderStack(weights, biases, acts, output_normalize=output_normalize)


def init_predictor(dim: int, seed: int, hidden_multiple: int = 4,
                   activation: str = "tanh") -> EncoderStack:
    """Predictor head D -> hidden_multiple*D -> D (linear map when 0), an
    encoder stack with equal input and output dims.

    The linear variant starts at identity plus a small random perturbation so
    an untrained (or frozen) head begins as a near-identity map.
    """
    if hidden_multiple < 0:
        raise ParameterError("hidden_multiple must be >= 0")
    if hidden_multiple == 0:
        head = init_encoder([dim, dim], seed, activation=activation)
        head.weights[0].values *= 0.1
        head.weights[0].values += np.eye(dim)
        return head
    return init_encoder([dim, hidden_multiple * dim, dim], seed, activation=activation)


class EmaTwin:
    """Shadow copy of an encoder updated as an exponential moving average."""

    def __init__(self, source: EncoderStack, momentum: float):
        if not (0.0 <= momentum < 1.0):
            raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.shadow = source.copy()

    def update(self, source: EncoderStack) -> None:
        """shadow <- (1 - momentum) * source + momentum * shadow, in place."""
        eps = self.momentum
        pairs = list(zip(self.shadow.weights + self.shadow.biases,
                         source.weights + source.biases))
        for sh, src in pairs:
            if sh.shape != src.shape:
                raise ShapeError("EMA twin shape drifted from source")
        for sh, src in pairs:
            sh.values *= eps
            sh.values += (1.0 - eps) * src.values

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return self.shadow.forward_array(x)


class PrototypeBank:
    """K x D bank of prototype vectors; frozen banks stay bit-identical."""

    def __init__(self, matrix: Tensor, trainable: bool):
        self.matrix = matrix
        self.trainable = bool(trainable)

    def parameters(self, group: str = "prototypes") -> list[Param]:
        if not self.trainable:
            return []
        return [Param(f"{group}.matrix", self.matrix, group)]

    def renormalize(self) -> None:
        """Project a trainable bank's rows back onto the unit sphere, in place."""
        if self.trainable:
            m = self.matrix.values
            m /= np.sqrt((m * m).sum(axis=1, keepdims=True))


def init_prototypes(num_prototypes: int, dim: int, seed: int,
                    trainable: bool = True) -> PrototypeBank:
    """Rows drawn as normalized standard Gaussians: uniform on the unit sphere."""
    if num_prototypes < 2 or dim < 2:
        raise ParameterError("need num_prototypes >= 2 and dim >= 2")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((num_prototypes, dim))
    raw /= np.sqrt((raw * raw).sum(axis=1, keepdims=True))
    return PrototypeBank(Tensor(raw, requires_grad=trainable), trainable)


def sgd_step(params: Iterable[Param], lr: float,
             per_group_multipliers: dict[str, float] | None = None) -> None:
    """p <- p - lr * multiplier(group) * grad(p); zeroes grads afterwards."""
    multipliers = per_group_multipliers or {}
    params = list(params)
    for p in params:
        if p.tensor.grad is None:
            raise ValueError(f"parameter {p.name} has no gradient; run backward first")
    for p in params:
        # autodiff gives each leaf a gradient array of its own: scale it in place
        p.tensor.grad *= lr * multipliers.get(p.group, 1.0)
        p.tensor.values -= p.tensor.grad
        p.tensor.grad = None


def save_checkpoint(path, params: Iterable[Param]) -> None:
    """Dump named parameter arrays; float64 round-trip is bit-exact (npz)."""
    arrays = {p.name: p.tensor.values for p in params}
    np.savez(path, **arrays)


def load_checkpoint(path, params: Iterable[Param]) -> None:
    with np.load(path) as data:
        for p in params:
            if p.name not in data.files:
                raise ValueError(f"checkpoint missing parameter {p.name}")
            arr = data[p.name]
            if arr.shape != p.tensor.shape:
                raise ShapeError(
                    f"checkpoint shape {arr.shape} != parameter shape {p.tensor.shape}")
            p.tensor.values[...] = arr
