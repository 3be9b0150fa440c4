"""Deterministic toy dataset generators, augmentation models and batch sampling.

All generation is a pure function of (params, seed): the same call always
returns a bit-identical dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterError

__all__ = [
    "ToyDataset",
    "AugmentationModel",
    "AugmentedSet",
    "BatchSampler",
    "gen_blobs",
    "gen_moons",
    "gen_gaussian_points",
    "augment",
    "default_blob_centers",
]


@dataclass
class ToyDataset:
    points: np.ndarray          # (N, d)
    labels: np.ndarray          # (N,), int class ids

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.n else 0


@dataclass
class AugmentationModel:
    """How positive views are produced from a dataset; also the
    ``augmentation`` section of an experiment config. ``augment`` checks it.

    kinds:
      class        -- samples of the same class are treated as views of one image
      centered     -- x + sigma * noise, mean-preserving jitter
      shifted      -- x + shift + sigma * noise, jitter biased in a fixed direction
    """
    kind: str = "class"
    sigma: float = 0.1
    shift: list[float] | None = None
    views: int = 1


@dataclass
class AugmentedSet:
    """Expanded dataset with a positive-pair grouping.

    ``group`` identifies which rows are views of the same underlying sample:
    the original point index for jitter augmentations, the class label for
    class-as-augmentation.
    """
    points: np.ndarray
    labels: np.ndarray
    group: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]


def default_blob_centers(num_classes: int = 3, radius: float = 3.0) -> np.ndarray:
    """Class centers evenly spaced on a circle (equilateral triangle for 3)."""
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes + np.pi / 2.0
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def gen_blobs(n_per_class: int, num_classes: int = 3, sigma: float = 0.5,
              seed: int = 0) -> ToyDataset:
    """Isotropic Gaussian clusters in 2-D around ``default_blob_centers``."""
    if n_per_class < 1 or n_per_class * num_classes * 2 * 8 > np.iinfo(np.intp).max:
        raise ParameterError(f"n_per_class must be >= 1 and fit numpy in {num_classes} classes")
    if num_classes < 2:
        raise ParameterError("num_classes must be >= 2")
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    centers = default_blob_centers(num_classes)
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for c in range(num_classes):
        points.append(centers[c] + sigma * rng.standard_normal((n_per_class, centers.shape[1])))
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return ToyDataset(np.concatenate(points), np.concatenate(labels))


def gen_moons(n_per_class: int, noise: float = 0.1, seed: int = 0,
              three_classes: bool = True) -> ToyDataset:
    """Two interleaving half-circles, plus a displaced arc as a third class.

    The third arc sits at (-2, -0.5) so all three classes occupy distinct
    angular sectors (they stay separable under cosine distance); set
    ``three_classes=False`` for the standard two-moon construction.
    """
    if n_per_class < 1 or n_per_class * 3 * 2 * 8 > np.iinfo(np.intp).max:
        raise ParameterError("n_per_class must be >= 1 and leave points numpy can hold")
    if noise < 0:
        raise ParameterError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, np.pi, n_per_class)
    arcs = [
        np.stack([np.cos(t), np.sin(t)], axis=1),
        np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1),
    ]
    if three_classes:
        arcs.append(np.stack([-2.0 + np.cos(t), -0.5 + np.sin(t)], axis=1))
    points = np.concatenate(arcs)
    labels = np.concatenate([np.full(n_per_class, c, dtype=np.int64)
                             for c in range(len(arcs))])
    points = points + noise * rng.standard_normal(points.shape)
    return ToyDataset(points, labels)


def gen_gaussian_points(n: int, dim: int, seed: int = 0) -> ToyDataset:
    """Standard-normal points centered at the origin, single dummy class."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, dim))
    return ToyDataset(points, np.zeros(n, dtype=np.int64))


def augment(ds: ToyDataset, model: AugmentationModel, seed: int = 0) -> AugmentedSet:
    """Expand a dataset into its augmented view pool.

    Jitter kinds emit ``views`` noisy copies per point (N * views rows) grouped
    by original index; class-as-augmentation keeps the points and groups them
    by label.
    """
    if model.kind not in ("class", "centered", "shifted"):
        raise ParameterError(f"kind: unknown augmentation kind {model.kind!r}")
    if model.sigma < 0:
        raise ParameterError("sigma must be >= 0")
    if model.views < 1 or ds.n * model.views * ds.dim * 8 > np.iinfo(np.intp).max:
        raise ParameterError("views must be >= 1 and leave a pool numpy can hold")
    if model.shift is not None and model.kind != "shifted":
        raise ParameterError("shift: only shifted views take a shift vector")
    if model.kind == "class":
        return AugmentedSet(ds.points.copy(), ds.labels.copy(),
                            ds.labels.astype(np.int64).copy())
    rng = np.random.default_rng(seed)
    shift = np.zeros(ds.dim)
    if model.kind == "shifted":
        if model.shift is None:
            raise ParameterError("shift: shifted views need a shift vector")
        shift = np.asarray(model.shift, dtype=np.float64).ravel()
        if shift.shape[0] != ds.dim:
            raise ParameterError(f"shift: dim {shift.shape[0]} does not match "
                                 f"the data dim {ds.dim}")
    reps = np.repeat(np.arange(ds.n), model.views)
    noise = model.sigma * rng.standard_normal((ds.n * model.views, ds.dim))
    points = ds.points[reps] + shift + noise
    return AugmentedSet(points, ds.labels[reps].copy(), reps.astype(np.int64))


@dataclass
class BatchSampler:
    """Epoch-wise index batches: shuffled partition (mini) or one full batch."""
    mode: str = "mini"
    batch_size: int = 50
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("mini", "full"):
            raise ParameterError(f"batch_mode: unknown batch mode {self.mode!r}")
        if self.mode == "mini" and self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")

    def epoch_batches(self, n_items: int, epoch: int) -> list[np.ndarray]:
        if self.mode == "full":
            return [np.arange(n_items)]
        rng = np.random.default_rng([self.shuffle_seed, epoch])
        perm = rng.permutation(n_items)
        return [perm[i:i + self.batch_size]
                for i in range(0, n_items, self.batch_size)]

