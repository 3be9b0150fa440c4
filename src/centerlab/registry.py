"""The registered experiments, one record each: its key, the question it
answers, its variants and the claims judged on their run directory. A new
experiment is one `_experiment` record, its claim functions in
`centerlab.claims` and its line in `scripts/registry_digest.expected`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import claims
from .data import AugmentationModel
from .harness import DatasetSpec, DiagnosticsSpec, EncoderSpec, ExperimentConfig, OptimizerSpec
from .losses import LossConfig


@dataclass(frozen=True)
class Experiment:
    question: str
    variants: Callable[[], list[tuple[str, ExperimentConfig]]]  # new (label, config) pairs
    claims: tuple[Callable, ...]  # each judges the run directory, <out-dir>/KEY


EXPERIMENTS: dict[str, Experiment] = {}  # key -> record


def _experiment(key: str, question: str, *judged_by: Callable):
    """Register the decorated variant builder as experiment `key`; its name holds the record."""
    return lambda build: EXPERIMENTS.setdefault(key, Experiment(question, build, judged_by))


def experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)


def named_experiment(name: str) -> list[tuple[str, ExperimentConfig]]:
    """Fresh configs for a registered experiment (variant name, config)."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {', '.join(experiment_names())}")
    return EXPERIMENTS[name].variants()


def _blobs(name: str, loss_kind: str, **loss_kw) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        dataset=DatasetSpec(kind="blobs", n_per_class=100, sigma=1.5),
        augmentation=AugmentationModel(kind="class"),
        encoder=EncoderSpec(dims=[2, 16, 2]),
        loss=LossConfig(kind=loss_kind, **loss_kw),
        optimizer=OptimizerSpec(lr=0.5, epochs=60, batch_mode="mini", batch_size=50),
        diagnostics=DiagnosticsSpec(knn_cadence=5),
        num_seeds=5,
    )


def _moons(name: str, loss_kind: str, **loss_kw) -> ExperimentConfig:
    cfg = _blobs(name, loss_kind, **loss_kw)
    cfg.dataset = DatasetSpec(kind="moons", n_per_class=100, noise=0.25)
    cfg.encoder = EncoderSpec(dims=[2, 32, 2])
    cfg.optimizer.lr = 0.2
    return cfg


@_experiment("fig3-simple-vs-simsiam", "a simple invariance-plus-center-penalty "
             "objective keeps up with SimSiam", claims.ac08)
def _fig3():
    return [(f"{kind}-{ds}", make(f"{kind}-{ds}", kind)) for ds, make in
            (("blobs", _blobs), ("moons", _moons)) for kind in ("simple", "simsiam")]


@_experiment("fig4-simsiam-ablations",
             "removing the predictor or the stop-gradient collapses SimSiam", claims.ac07)
def _fig4():
    out = []
    for ds, make in (("blobs", _blobs), ("moons", _moons)):
        for run, off in (("standard", {}), ("no-predictor", {"use_predictor": False}),
                         ("no-stopgrad", {"use_stop_gradient": False})):
            out.append((f"{run}-{ds}", make(f"{run}-{ds}", "simsiam", **off)))
    return out


@_experiment("fig7-byol-momentum",
             "lower EMA momentum leaves a larger center and worse kNN", claims.ac09)
def _fig7():
    out = []
    for eps in (0.5, 0.9, 0.99):
        cfg = _blobs(f"byol-momentum-{eps}", "byol", ema_momentum=eps)
        # heavier class overlap + a longer budget separate the momentum
        # settings: slow teachers keep the center down, fast ones drift up
        cfg.dataset.sigma = 2.0
        cfg.optimizer.epochs = 120
        out.append((f"momentum-{eps}", cfg))
    return out


@_experiment("s21-collapse-grid", "pure invariance on 3-D points: all configurations collapse; "
             "mini-batch SGD collapses faster than full-batch", claims.ac05, claims.ac06)
def _s21():
    out = []
    for mode in ("mini", "full"):
        for aug in ("centered", "shifted"):
            shift = (0.5 * np.ones(3) / np.sqrt(3)).tolist() if aug == "shifted" else None
            out.append((f"{mode}-{aug}", ExperimentConfig(
                name=f"collapse-{mode}-{aug}",
                dataset=DatasetSpec(kind="gaussian", n_per_class=100, dim=3),
                augmentation=AugmentationModel(kind=aug, sigma=0.3, shift=shift, views=10),
                encoder=EncoderSpec(dims=[3, 8, 2], activation="identity"),
                loss=LossConfig(kind="invariance"),
                optimizer=OptimizerSpec(lr=0.05, epochs=200 if mode == "mini" else 500,
                                        batch_mode=mode, batch_size=50),
                diagnostics=DiagnosticsSpec(knn_cadence=10),
                num_seeds=5)))
    return out


@_experiment("s22-dino-centering", "DINO without teacher centering collapses", claims.ac10)
def _s22():
    base = _blobs("dino-centering", "dino")
    no_center = _blobs("dino-no-centering", "dino", use_centering=False)
    for cfg in (base, no_center):
        cfg.encoder.dims = [2, 16, 8]
        cfg.optimizer.lr = 0.5
        cfg.optimizer.epochs = 150
    return [("centering", base), ("no-centering", no_center)]


@_experiment("s24-predictor-lr", "a predictor trained at 1% of the encoder rate can "
             "no longer protect against collapse", claims.ac13)
def _s24():
    out = []
    for mult in (0.01, 0.1, 1.0):
        cfg = _blobs(f"predictor-lr-{mult}", "simsiam")
        # a linear predictor isolates the tracking-speed mechanism: when
        # it cannot keep up it degenerates into a fixed linear target map
        cfg.encoder.predictor_hidden_multiple = 0
        cfg.optimizer.predictor_lr_multiplier = mult
        out.append((f"multiplier-{mult}", cfg))
    return out


@_experiment("bt-no-decor", "Barlow Twins without the decorrelation term still "
             "avoids collapse via batch norm", claims.ac11)
def _bt():
    full = _blobs("bt-full", "barlow_twins")
    no_decor = _blobs("bt-no-decor", "barlow_twins", use_decorrelation=False)
    for cfg in (full, no_decor):
        cfg.dataset.sigma = 1.4
        cfg.encoder.dims = [2, 16, 4]
        cfg.loss.bt_lambda = 5e-3
        cfg.optimizer.lr = 0.1
        cfg.optimizer.epochs = 150
    return [("full", full), ("no-decor", no_decor)]


@_experiment("swav-fixed-protos", "SwAV avoids collapse even with frozen prototypes; "
             "learnable prototypes classify better", claims.ac12)
def _swav():
    fixed = _blobs("swav-fixed", "swav", prototypes_trainable=False)
    learnable = _blobs("swav-learnable", "swav", prototypes_trainable=True)
    for cfg in (fixed, learnable):
        cfg.encoder.dims = [2, 16, 2]
        # one prototype per latent cluster: a learnable bank can settle
        # onto the class structure while a frozen random one cannot
        cfg.loss.num_prototypes = 3
        cfg.optimizer.lr = 0.2
        cfg.optimizer.epochs = 60
    return [("fixed", fixed), ("learnable", learnable)]
