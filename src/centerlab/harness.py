"""Declarative experiment runner: configs, training loop, metrics, registry.

A run is a pure function of its config (seeds included): generation,
initialization, batch order and pairing all derive from the run seed, so
repeated runs produce bit-identical metrics rows. What each loss kind needs
(its heads, negatives, class views, smallest batch and step) is one row of
``_OBJECTIVES``, and each head has one builder in ``_HEADS``. The per-step
ordering is pinned: one student forward of the step's drawn views -> loss ->
backward -> optimizer step -> EMA twin update -> the loss's post-step hook
(DINO's center update, SwAV's prototype renormalization) -> diagnostics.

Before an epoch's first step, ``Trainer.draw_epoch``, the pair generator's
only reader, draws every batch's views in batch order and gathers them with
one ``take``; a step trains on the slab it is handed. The draw reads the
stream draw for draw as per-item loops do, so the seed CSVs are byte-identical
to theirs: a partner is one ``integers(group size)`` per row, drawn again
while it picks the row itself; a negative is one draw for the other class,
then one for its member, after its batch's partners. Partner draws come in
chunks of at least the rows left in the batch. Without negatives a chunk reads
ahead (at least a quarter of the view pool) and the draws left unread carry to
the next batch of the same call, so only the generator's state between batches
runs ahead of the loops'; with negatives a chunk is exactly the rows left, so
the state after every batch is the loops' own. Negatives come only with class
views, whose groups are the classes, so they read the partners' index table.
A diagnostics tick scores kNN leave-one-out over the base points' embeddings.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data as toydata
from . import losses as L
from .autodiff import ParameterError, Tensor, backward, batch_norm_cols
from .data import (AugmentationModel, AugmentedSet, BatchSampler, ToyDataset,
                   augment)
from .diagnostics import (CollapseReport, collapse_verdict, estimate_center,
                          knn_eval)
from .layers import (EmaTwin, EncoderStack, PrototypeBank, init_encoder,
                     init_predictor, init_prototypes, save_checkpoint, sgd_step)
from .losses import DinoCenterState, LossConfig, NumericError

__all__ = [
    "DatasetSpec",
    "EncoderSpec",
    "OptimizerSpec",
    "DiagnosticsSpec",
    "ExperimentConfig",
    "ConfigError",
    "NumericAbort",
    "ComparisonError",
    "TrainState",
    "Trainer",
    "RunResult",
    "run_experiment",
    "named_experiment",
    "experiment_names",
    "METRICS_HEADER",
]

_COLUMNS = ("seed", "epoch", "step", "loss", "center_norm", "mean_residual_norm",
            "std_mean", "delta_dist", "knn_accuracy", "wall_time_ms")
METRICS_HEADER = ",".join(_COLUMNS)
# the columns aggregate.csv reports as a mean and std across seeds
_METRIC_COLS = tuple(c for c in _COLUMNS if c not in ("seed", "epoch", "step",
                                                      "wall_time_ms"))


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


class NumericAbort(ArithmeticError):
    """Training hit a non-finite loss; rows produced so far were flushed."""


class ComparisonError(ValueError):
    """Run outputs that cannot be compared: seeds that disagree in tick
    structure, or a malformed file in a run directory."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

@dataclass
class DatasetSpec:
    kind: str = "blobs"                # blobs | moons | gaussian
    n_per_class: int = 100
    n: int = 100                       # gaussian point count
    dim: int = 3                       # gaussian dimension
    num_classes: int = 3
    sigma: float = 0.5                 # blob spread
    noise: float = 0.1                 # moons jitter
    three_classes: bool = True


@dataclass
class EncoderSpec:
    dims: list[int] = field(default_factory=lambda: [2, 16, 2])
    scheme: str = "uniform"
    activation: str = "tanh"
    output_normalize: bool = True
    predictor_hidden_multiple: int = 4


@dataclass
class OptimizerSpec:
    lr: float = 0.05
    epochs: int = 100
    batch_mode: str = "mini"           # mini | full
    batch_size: int = 50
    predictor_lr_multiplier: float = 1.0


@dataclass
class DiagnosticsSpec:
    cadence: int = 1                   # epochs between ticks
    knn_cadence: int = 5               # ticks between kNN evaluations
    knn_k: int = 5
    center_hi: float = 0.8
    std_lo: float = 0.05


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    augmentation: AugmentationModel = field(default_factory=AugmentationModel)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    diagnostics: DiagnosticsSpec = field(default_factory=DiagnosticsSpec)
    num_seeds: int = 5
    base_seed: int = 0
    record_wall_time: bool = True

    def validate(self) -> None:
        """Raise ConfigError, naming the field, unless a trainer can be built."""
        self.build(self.base_seed)

    def build(self, seed: int) -> tuple[ToyDataset, AugmentedSet, EncoderStack,
                                        BatchSampler]:
        """Check the config and build what a trainer for `seed` runs on: the
        base points, their augmented view pool, the encoder and the batch
        sampler.

        Each constructor runs in the section of its fields, so its
        ParameterError becomes a ConfigError under that section's path.
        """
        _check_types(self, "")
        enc = self.encoder
        # the run directory is <out-dir>/<name>, so a name is one path component
        if (self.name in ("", ".", "..") or "/" in self.name or os.sep in self.name
                or os.path.isabs(self.name)):
            raise ConfigError(f"name: {self.name!r} is not one path component")
        if self.base_seed < 0:  # numpy takes no negative seed
            raise ConfigError("base_seed: must be >= 0")
        with _section("dataset"):
            base = _build_dataset(self.dataset, seed)
        with _section("augmentation"):
            augmented = augment(base, self.augmentation, seed=seed + 20_000)
        with _section("encoder"):
            encoder = init_encoder(enc.dims, seed + 10_000, scheme=enc.scheme,
                                   activation=enc.activation,
                                   output_normalize=enc.output_normalize)
        with _section("optimizer"):
            sampler = BatchSampler(self.optimizer.batch_mode,
                                   self.optimizer.batch_size, seed + 30_000)
        with _section("loss"):
            if self.loss.kind not in _OBJECTIVES:
                raise ParameterError(f"kind: unknown loss kind {self.loss.kind!r}")
            self.loss.validate()
        self._validate(base, augmented)
        return base, augmented, encoder, sampler

    def _validate(self, base: ToyDataset, augmented: AugmentedSet) -> None:
        """The rules no constructor makes: scalar bounds and cross-section
        rules, checked against the built points."""
        aug, enc = self.augmentation, self.encoder
        opt, diag, lc = self.optimizer, self.diagnostics, self.loss
        if aug.kind == "class" and base.num_classes < 2:
            raise ConfigError(f"augmentation.kind: class views need >= 2 classes; "
                              f"the data has {base.num_classes}")
        if enc.dims[0] != base.dim:
            raise ConfigError(f"encoder.dims: first dim {enc.dims[0]} does not match "
                              f"the data dim {base.dim}")
        if enc.predictor_hidden_multiple < 0:
            raise ConfigError("encoder.predictor_hidden_multiple: must be >= 0")
        if opt.epochs < 0:
            raise ConfigError("optimizer.epochs: must be >= 0")
        if opt.lr < 0:
            raise ConfigError("optimizer.lr: must be >= 0")
        if opt.predictor_lr_multiplier <= 0:
            raise ConfigError("optimizer.predictor_lr_multiplier: must be > 0")
        if diag.cadence < 1 or diag.knn_cadence < 1:
            raise ConfigError("diagnostics cadences must be >= 1")
        for name in ("center_hi", "std_lo"):
            if not 0.0 < getattr(diag, name) < 1.0:
                raise ConfigError(f"diagnostics.{name}: must lie in (0, 1)")
        if self.num_seeds < 1:
            raise ConfigError("num_seeds: must be >= 1")
        objective = _OBJECTIVES[lc.kind]
        if objective.class_views and aug.kind != "class":
            raise ConfigError(f"loss.kind: {lc.kind} needs class-as-augmentation "
                              "data")
        if "prototypes" in objective.heads:
            if lc.num_prototypes < 2:
                raise ConfigError("loss.num_prototypes: must be >= 2")
            if enc.dims[-1] < 2:
                raise ConfigError(f"encoder.dims: {lc.kind} needs an output dim >= 2 "
                                  "for its prototypes")
        # kNN runs leave-one-out on the base points, so k < pool
        pool = base.n
        if base.num_classes >= 2 and not 1 <= diag.knn_k <= pool - 1:
            raise ConfigError(f"diagnostics.knn_k: must lie in [1, {pool - 1}] "
                              f"for a pool of {pool} points")
        # the last mini batch holds the remainder
        rows = augmented.n
        smallest = (rows if opt.batch_mode == "full"
                    else rows % opt.batch_size or opt.batch_size)
        if smallest < objective.min_batch:
            raise ConfigError(f"optimizer.batch_size: {lc.kind} needs batches of >= "
                              f"{objective.min_batch} rows; {rows} rows leave one of "
                              f"{smallest}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = _from_dict(cls, raw, path="")
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON or bytes that are not UTF-8
                raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(raw)


_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}


def _fits(value, annotation: str) -> bool:
    """Whether a value fits a field annotation such as ``list[float] | None``.

    A bool fits only ``bool``, not ``int`` or ``float``, and NaN fits nothing;
    a config section fits none (``_check_types`` checks its fields in turn).
    """
    for option in annotation.split(" | "):
        if option == "None":
            if value is None:
                return True
        elif option.startswith("list[") and option.endswith("]"):
            if (isinstance(value, (list, tuple))
                    and all(_fits(v, option[5:-1]) for v in value)):
                return True
        elif option in _TYPES:
            if (isinstance(value, _TYPES[option])
                    and (option == "bool") == isinstance(value, bool)
                    and value == value):
                return True
    return False


def _check_types(spec, path: str) -> None:
    """Every field of a config dataclass holds values of its annotated type,
    inside lists, ``| None`` unions and config sections (the fields whose
    default factory is a dataclass) too."""
    for f in fields(spec):
        value, section = getattr(spec, f.name), f.default_factory
        if dataclasses.is_dataclass(section) and isinstance(value, section):
            _check_types(value, f"{path}{f.name}.")
        elif not _fits(value, f.type):
            raise ConfigError(f"{path}{f.name}: expected {f.type}, got {value!r}")


@contextmanager
def _section(name: str):
    """Re-raise a constructor's ParameterError as a ConfigError under `name`;
    the constructor's message starts with the field it names."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def _from_dict(cls, raw: dict, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(raw).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"unknown config key(s): "
                          + ", ".join(sorted(f"{where}{k}" for k in unknown)))
    kwargs = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        value = raw[f.name]
        if dataclasses.is_dataclass(f.default_factory):  # a config section
            value = _from_dict(f.default_factory, value,
                               f"{path + '.' if path else ''}{f.name}")
        kwargs[f.name] = value
    return cls(**kwargs)


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, object]) -> ExperimentConfig:
    """Rebuild a config with dotted-path overrides (e.g. 'optimizer.lr')."""
    raw = dataclasses.asdict(cfg)
    for key, value in overrides.items():
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key(s): {key}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key(s): {key}")
        node[parts[-1]] = value
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _index_table(keys: np.ndarray, what: str
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by key: a (keys x size) table of row indices, ascending
    within each key, plus each row's table row and its position in that row.

    Raises ParameterError unless every key has the same number of rows.
    """
    _, row, counts = np.unique(keys, return_inverse=True, return_counts=True)
    sizes = sorted(set(counts.tolist()))
    if len(sizes) > 1:
        raise ParameterError(f"{what} sizes differ: {sizes}; the pair "
                             "samplers need equal sizes")
    size = sizes[0] if sizes else 0
    order = np.argsort(row, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.tile(np.arange(size), counts.shape[0])
    return order.reshape(counts.shape[0], size), row, pos


def _build_dataset(spec: DatasetSpec, seed: int) -> ToyDataset:
    if spec.kind == "blobs":
        return toydata.gen_blobs(spec.n_per_class, spec.num_classes,
                                 sigma=spec.sigma, seed=seed)
    if spec.kind == "moons":
        return toydata.gen_moons(spec.n_per_class, noise=spec.noise, seed=seed,
                                 three_classes=spec.three_classes)
    if spec.kind == "gaussian":
        return toydata.gen_gaussian_points(spec.n, spec.dim, seed=seed)
    raise ParameterError(f"kind: unknown dataset kind {spec.kind!r}")


@dataclass
class TrainState:
    """Everything a run mutates: encoder, optional heads, counters."""
    encoder: EncoderStack
    predictor: EncoderStack | None = None
    twin: EmaTwin | None = None
    prototypes: PrototypeBank | None = None
    dino_center: DinoCenterState | None = None
    step: int = 0


@dataclass(frozen=True)
class _Objective:
    """What one loss kind needs from the trainer.

    ``step(state, loss config, x, z)`` returns the loss and a hook to run
    after the optimizer and EMA twin updates, or None. ``x`` stacks the step's
    input views as a (V, m, k) array (x_a, x_b, and x_n if the objective
    draws negatives) and ``z`` is the student's one (V, m, n) node over them;
    the trainer runs the student forward once per step. Steps look each loss
    function up on the losses module at call time, so wrappers installed
    there (the benchmark's tracer) see every call.

    ``heads`` names the TrainState fields the trainer builds, each by its
    ``_HEADS`` builder; the predictor builder follows ``loss.use_predictor``
    for every loss that names it.
    """
    step: Callable[..., tuple[Tensor, Callable[[], None] | None]]
    heads: tuple[str, ...] = ()
    negatives: bool = False              # draws one negative per row
    class_views: bool = False            # needs class-as-augmentation data
    min_batch: int = 1


# TrainState head field -> its builder (cfg, encoder, seed) -> head
_HEADS: dict[str, Callable[..., object]] = {
    "predictor": lambda cfg, encoder, seed: (init_predictor(
        cfg.encoder.dims[-1], seed + 11_000,
        hidden_multiple=cfg.encoder.predictor_hidden_multiple,
        activation=cfg.encoder.activation) if cfg.loss.use_predictor else None),
    "twin": lambda cfg, encoder, seed: EmaTwin(encoder, cfg.loss.ema_momentum),
    "prototypes": lambda cfg, encoder, seed: init_prototypes(
        cfg.loss.num_prototypes, cfg.encoder.dims[-1], seed + 12_000,
        trainable=cfg.loss.prototypes_trainable),
    "dino_center": lambda cfg, encoder, seed: DinoCenterState(
        np.zeros(cfg.encoder.dims[-1]), cfg.loss.dino_center_momentum),
}


def _dino(st, lc, x, z):
    loss, teacher_mean = L.dino_loss(z, st.twin.forward_array(x), st.dino_center,
                                     lc.student_temperature, lc.teacher_temperature,
                                     use_centering=lc.use_centering)
    return loss, lambda: st.dino_center.update(teacher_mean)


_OBJECTIVES: dict[str, _Objective] = {
    "invariance": _Objective(lambda st, lc, x, z: (L.invariance_loss(z), None)),
    "triplet": _Objective(
        lambda st, lc, x, z: (L.triplet_loss(z, lc.margin), None),
        negatives=True, class_views=True),
    "infonce": _Objective(
        lambda st, lc, x, z: (L.infonce_loss(z, temperature=lc.temperature), None),
        class_views=True, min_batch=2),
    "simsiam": _Objective(
        lambda st, lc, x, z: (L.simsiam_loss(z, st.predictor, lc.use_stop_gradient),
                              None),
        ("predictor",)),
    "byol": _Objective(
        lambda st, lc, x, z: (L.byol_loss(z, st.predictor, st.twin.forward_array(x)),
                              None),
        ("predictor", "twin")),
    "dino": _Objective(_dino, ("twin", "dino_center")),
    "swav": _Objective(
        lambda st, lc, x, z: (L.swav_loss(
            z, st.prototypes.matrix, lc.temperature, lc.sinkhorn_eps,
            lc.sinkhorn_iters), st.prototypes.renormalize),
        ("prototypes",)),
    # batch_norm_cols is looked up here at call time too
    "barlow_twins": _Objective(
        lambda st, lc, x, z: (L.barlow_twins_loss(
            batch_norm_cols(z, eps=1e-12), lc.bt_lambda,
            use_decorrelation=lc.use_decorrelation), None),
        min_batch=2),
    "simple": _Objective(
        lambda st, lc, x, z: (L.simple_objective(
            z, lc.center_penalty_weight, squared=lc.center_penalty_squared), None)),
}


class Trainer:
    """Single-seed training run for one experiment config."""

    def __init__(self, cfg: ExperimentConfig, seed: int):
        self.dataset, self.augmented, encoder, self.sampler = cfg.build(seed)
        self.cfg = cfg
        self.seed = seed
        self.group_table, self.group_row, self.group_pos = _index_table(
            self.augmented.group, "group")

        self.objective = _OBJECTIVES[cfg.loss.kind]
        st = self.state = TrainState(encoder, **{
            h: _HEADS[h](cfg, encoder, seed) for h in self.objective.heads})
        # a parameter's learning-rate group is the name of the head that owns it
        self.params = [p for group in ("encoder", "predictor", "prototypes")
                       if (head := getattr(st, group)) is not None
                       for p in head.parameters(group)]
        self.lr_multipliers = {"predictor": cfg.optimizer.predictor_lr_multiplier}
        self.prev_mean: np.ndarray | None = None

    # -- batch construction ---------------------------------------------
    def _negatives(self, idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A uniform class other than each row's own, then a uniform member of
        it. Negatives come only with class views, whose groups are the classes."""
        classes, size = self.group_table.shape
        draws = rng.integers(0, np.tile([classes - 1, size], idx.shape[0]))
        other = draws[0::2]
        other += other >= self.group_row[idx]
        return self.group_table[other, draws[1::2]]

    def draw_epoch(self, batches: list[np.ndarray],
                   rng: np.random.Generator) -> list[np.ndarray]:
        """Each batch's (V, m, k) views in batch order, drawn on `rng` and
        gathered with one ``take``: its anchors, a uniform other member of each
        row's group (the row itself if alone) and any negatives."""
        size = self.group_table.shape[1]
        ahead = 0 if self.objective.negatives else self.augmented.n // 4
        draws = iter(())  # partner draws read ahead, carried from batch to batch
        rows = []
        for idx in batches:
            if size == 1:  # alone in its group, a row is its own partner
                rows += [idx, idx]
            else:
                picks = []
                for own in self.group_pos[idx].tolist():
                    for pick in draws:
                        if pick != own:
                            break
                    else:  # the chunk ran out: every row from here on needs a draw
                        pick = own
                        while pick == own:
                            draws = iter(rng.integers(
                                size, size=max(idx.shape[0] - len(picks), ahead)).tolist())
                            pick = next((p for p in draws if p != own), own)
                    picks.append(pick)
                rows += [idx, self.group_table[self.group_row[idx], picks]]
            if self.objective.negatives:
                rows.append(self._negatives(idx, rng))
        x = self.augmented.points.take(np.concatenate(rows), axis=0)
        views = 2 + self.objective.negatives
        ends = np.cumsum([views * idx.shape[0] for idx in batches]).tolist()
        return [x[a:b].reshape(views, -1, x.shape[1]) for a, b in zip([0] + ends, ends)]

    # -- one optimizer step ---------------------------------------------
    def train_step(self, idx: np.ndarray, x: np.ndarray) -> float:
        """One step on batch `idx`'s drawn (V, m, k) views `x`; only the
        benchmark's tracer reads `idx`, as the step's pair count `len(idx)`."""
        cfg, st = self.cfg, self.state
        z = st.encoder.forward(x)
        try:
            loss, hook = self.objective.step(st, cfg.loss, x, z)
        except NumericError as exc:
            raise NumericAbort(f"{exc} at step {st.step}") from exc
        value = loss.item()
        if not math.isfinite(value):
            raise NumericAbort(f"non-finite loss at step {st.step}")
        backward(loss)
        sgd_step(self.params, cfg.optimizer.lr, self.lr_multipliers)
        if st.twin is not None:
            st.twin.update(st.encoder)
        if hook is not None:
            hook()
        st.step += 1
        return value

    # -- diagnostics -----------------------------------------------------
    def eval_embeddings(self) -> np.ndarray:
        """Embeddings of the full augmented pool (off-graph)."""
        return self.state.encoder.forward_array(self.augmented.points)

    def diagnostics_tick(self, epoch: int) -> tuple[CollapseReport, float | None, np.ndarray]:
        cfg = self.cfg
        emb = self.eval_embeddings()
        center = estimate_center(emb)
        report = collapse_verdict(emb, self.prev_mean,
                                  (cfg.diagnostics.center_hi, cfg.diagnostics.std_lo),
                                  center)
        self.prev_mean = center.s_hat
        knn_acc: float | None = None
        want_knn = (epoch % (cfg.diagnostics.cadence * cfg.diagnostics.knn_cadence) == 0
                    or epoch == cfg.optimizer.epochs)
        if want_knn and self.dataset.num_classes >= 2:
            # class views are the base points, row for row
            base = (emb if cfg.augmentation.kind == "class"
                    else self.state.encoder.forward_array(self.dataset.points))
            knn_acc = knn_eval(base, self.dataset.labels, cfg.diagnostics.knn_k)
        return report, knn_acc, emb


# ---------------------------------------------------------------------------
# metrics I/O
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


# collections.abc, not typing: typing caches subscripted aliases for the life
# of the process, so each re-import of this package would keep the previous
# diagnostics module alive through its CollapseReport class
TickCallback = Callable[["Trainer", int, CollapseReport, np.ndarray], None]


@dataclass
class RunResult:
    config: ExperimentConfig
    seed_csvs: list[Path]
    aggregate_csv: Path
    rows_by_seed: dict[int, list[dict]]
    trainers: dict[int, Trainer]
    checkpoints: list[Path]


def _run_one_seed(trainer: Trainer, csv_path: Path,
                  tick_callback: TickCallback | None) -> list[dict]:
    cfg, seed = trainer.cfg, trainer.seed
    rows: list[dict] = []
    start = time.monotonic()

    def tick(epoch: int, loss: float | None, aborted: bool = False) -> None:
        """Diagnostics at `epoch` and one CSV row; an abort row has epoch -1
        and reaches no callback."""
        report, knn, emb = trainer.diagnostics_tick(epoch)
        row = {"seed": seed, "epoch": -1 if aborted else epoch,
               "step": trainer.state.step, "loss": loss,
               "center_norm": report.center_norm,
               "mean_residual_norm": report.mean_residual_norm,
               "std_mean": report.std_mean, "delta_dist": report.delta_dist,
               "knn_accuracy": knn,
               "wall_time_ms": (int(1000.0 * (time.monotonic() - start))
                                if cfg.record_wall_time else None)}
        fh.write(",".join(_fmt(row[c]) for c in _COLUMNS) + "\n")
        fh.flush()
        rows.append(row)
        if tick_callback and not aborted:
            tick_callback(trainer, epoch, report, emb)

    with csv_path.open("w") as fh:
        fh.write(METRICS_HEADER + "\n")
        tick(0, None)
        try:
            for epoch in range(1, cfg.optimizer.epochs + 1):
                epoch_losses = []
                batches = trainer.sampler.epoch_batches(trainer.augmented.n, epoch)
                pair_rng = np.random.default_rng([seed + 40_000, epoch])
                for idx, x in zip(batches, trainer.draw_epoch(batches, pair_rng)):
                    epoch_losses.append(trainer.train_step(idx, x))
                if epoch % cfg.diagnostics.cadence == 0 or epoch == cfg.optimizer.epochs:
                    tick(epoch, float(np.mean(epoch_losses)))
        except NumericAbort:
            # flush a final row flagged non-finite, then re-raise
            tick(cfg.optimizer.epochs, float("nan"), aborted=True)
            raise
    return rows


def _aggregate(rows_by_seed: dict[int, list[dict]], path: Path) -> None:
    seeds = sorted(rows_by_seed)
    runs = [rows_by_seed[s] for s in seeds]
    ticks = [(r["epoch"], r["step"]) for r in runs[0]]
    for run in runs[1:]:
        if [(r["epoch"], r["step"]) for r in run] != ticks:
            raise ComparisonError("seed runs disagree in tick structure")
    header = ["epoch", "step"]
    filled, stats = [], []
    for col in _METRIC_COLS:
        header += [f"{col}_mean", f"{col}_std"]
        cells = [[run[i][col] for run in runs] for i in range(len(ticks))]
        col_filled = [tick[0] is not None for tick in cells]
        if any((v is not None) != f for tick, f in zip(cells, col_filled) for v in tick):
            raise ComparisonError(f"seed runs disagree in which ticks have {col}")
        # one (ticks x seeds) array: reducing it over axis 1 sums each tick's
        # seeds in the order np.mean and np.std of that tick's list do
        full = np.array([tick for tick, f in zip(cells, col_filled) if f],
                        dtype=np.float64).reshape(-1, len(runs))
        filled.append(col_filled)
        stats.append(zip(full.mean(axis=1), full.std(axis=1)))
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for i, (epoch, step) in enumerate(ticks):
            cells = [str(epoch), str(step)]
            for col_filled, col_stats in zip(filled, stats):
                cells += ([_fmt(float(v)) for v in next(col_stats)] if col_filled[i]
                          else ["", ""])
            fh.write(",".join(cells) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir,
                   tick_callback: TickCallback | None = None) -> RunResult:
    """Execute all seeds of a config; write its config.json, per-seed CSVs, an
    aggregate, and a final parameter checkpoint per seed.

    The first seed's trainer builds, and so checks, the config: an invalid
    one raises ConfigError before anything is written."""
    trainer = Trainer(cfg, cfg.base_seed)
    out = Path(out_dir) / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    # the config as `centerlab run` takes it: claims rebuild trainers from it
    (out / "config.json").write_text(
        json.dumps(dataclasses.asdict(cfg), indent=1, sort_keys=True) + "\n")
    seed_csvs, checkpoints = [], []
    rows_by_seed: dict[int, list[dict]] = {}
    trainers: dict[int, Trainer] = {}
    for i in range(cfg.num_seeds):
        seed = cfg.base_seed + i
        if i:
            trainer = Trainer(cfg, seed)
        csv_path = out / f"seed{seed}.csv"
        rows = _run_one_seed(trainer, csv_path, tick_callback)
        rows_by_seed[seed] = rows
        trainers[seed] = trainer
        seed_csvs.append(csv_path)
        ckpt = out / f"seed{seed}.npz"
        save_checkpoint(ckpt, trainer.params)
        checkpoints.append(ckpt)
    agg = out / "aggregate.csv"
    _aggregate(rows_by_seed, agg)
    return RunResult(cfg, seed_csvs, agg, rows_by_seed, trainers, checkpoints)


# ---------------------------------------------------------------------------
# named experiment registry
# ---------------------------------------------------------------------------

def _blobs(name: str, loss_kind: str, **loss_kw) -> ExperimentConfig:
    cfg = ExperimentConfig(
        name=name,
        dataset=DatasetSpec(kind="blobs", n_per_class=100, sigma=1.5),
        augmentation=AugmentationModel(kind="class"),
        encoder=EncoderSpec(dims=[2, 16, 2]),
        loss=LossConfig(kind=loss_kind, **loss_kw),
        optimizer=OptimizerSpec(lr=0.5, epochs=60, batch_mode="mini", batch_size=50),
        diagnostics=DiagnosticsSpec(cadence=1, knn_cadence=5),
        num_seeds=5,
    )
    return cfg


def _moons(name: str, loss_kind: str, **loss_kw) -> ExperimentConfig:
    cfg = _blobs(name, loss_kind, **loss_kw)
    cfg.dataset = DatasetSpec(kind="moons", n_per_class=100, noise=0.25)
    cfg.encoder = EncoderSpec(dims=[2, 32, 2])
    cfg.optimizer.lr = 0.2
    return cfg


def _collapse_grid_config(name: str, batch_mode: str, shifted: bool) -> ExperimentConfig:
    shift = (0.5 * np.ones(3) / np.sqrt(3)).tolist() if shifted else None
    return ExperimentConfig(
        name=name,
        dataset=DatasetSpec(kind="gaussian", n=100, dim=3),
        augmentation=AugmentationModel(kind="shifted" if shifted else "centered",
                                       sigma=0.3, shift=shift, views=10),
        encoder=EncoderSpec(dims=[3, 8, 2], activation="identity"),
        loss=LossConfig(kind="invariance"),
        optimizer=OptimizerSpec(lr=0.05, epochs=200 if batch_mode == "mini" else 500,
                                batch_mode=batch_mode, batch_size=50),
        diagnostics=DiagnosticsSpec(cadence=1, knn_cadence=10),
        num_seeds=5,
    )


def _registry() -> dict[str, Callable[[], list[tuple[str, ExperimentConfig]]]]:
    def fig3():
        out = []
        for ds, make in (("blobs", _blobs), ("moons", _moons)):
            out.append((f"simple-{ds}", make(f"simple-{ds}", "simple")))
            out.append((f"simsiam-{ds}", make(f"simsiam-{ds}", "simsiam")))
        return out

    def fig4():
        out = []
        for ds, make in (("blobs", _blobs), ("moons", _moons)):
            out.append((f"standard-{ds}", make(f"standard-{ds}", "simsiam")))
            out.append((f"no-predictor-{ds}",
                        make(f"no-predictor-{ds}", "simsiam", use_predictor=False)))
            out.append((f"no-stopgrad-{ds}",
                        make(f"no-stopgrad-{ds}", "simsiam", use_stop_gradient=False)))
        return out

    def fig7():
        out = []
        for eps in (0.5, 0.9, 0.99):
            cfg = _blobs(f"byol-momentum-{eps}", "byol", ema_momentum=eps)
            # heavier class overlap + a longer budget separate the momentum
            # settings: slow teachers keep the center down, fast ones drift up
            cfg.dataset.sigma = 2.0
            cfg.optimizer.epochs = 120
            out.append((f"momentum-{eps}", cfg))
        return out

    def s21():
        out = []
        for mode in ("mini", "full"):
            for aug in ("centered", "shifted"):
                key = f"{mode}-{aug}"
                out.append((key, _collapse_grid_config(f"collapse-{key}",
                                                       mode, aug == "shifted")))
        return out

    def s22():
        base = _blobs("dino-centering", "dino")
        no_center = _blobs("dino-no-centering", "dino", use_centering=False)
        for cfg in (base, no_center):
            cfg.encoder.dims = [2, 16, 8]
            cfg.optimizer.lr = 0.5
            cfg.optimizer.epochs = 150
        return [("centering", base), ("no-centering", no_center)]

    def s24():
        out = []
        for mult in (0.01, 0.1, 1.0):
            cfg = _blobs(f"predictor-lr-{mult}", "simsiam")
            # a linear predictor isolates the tracking-speed mechanism: when
            # it cannot keep up it degenerates into a fixed linear target map
            cfg.encoder.predictor_hidden_multiple = 0
            cfg.optimizer.predictor_lr_multiplier = mult
            out.append((f"multiplier-{mult}", cfg))
        return out

    def bt():
        full = _blobs("bt-full", "barlow_twins")
        no_decor = _blobs("bt-no-decor", "barlow_twins", use_decorrelation=False)
        for cfg in (full, no_decor):
            cfg.dataset.sigma = 1.4
            cfg.encoder.dims = [2, 16, 4]
            cfg.loss.bt_lambda = 5e-3
            cfg.optimizer.lr = 0.1
            cfg.optimizer.epochs = 150
        return [("full", full), ("no-decor", no_decor)]

    def swav():
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

    return {
        "fig3-simple-vs-simsiam": fig3,
        "fig4-simsiam-ablations": fig4,
        "fig7-byol-momentum": fig7,
        "s21-collapse-grid": s21,
        "s22-dino-centering": s22,
        "s24-predictor-lr": s24,
        "bt-no-decor": bt,
        "swav-fixed-protos": swav,
    }


def experiment_names() -> list[str]:
    return sorted(_registry())


def named_experiment(name: str) -> list[tuple[str, ExperimentConfig]]:
    """Frozen configs for a registered experiment (variant name, config)."""
    registry = _registry()
    if name not in registry:
        available = ", ".join(sorted(registry))
        raise KeyError(f"unknown experiment {name!r}; available: {available}")
    return registry[name]()
