"""Declarative experiment runner: configs, training loop, metrics, registry.

A run is a pure function of its config (seeds included): generation,
initialization, batch order and pairing all derive from the run seed, so
repeated runs produce bit-identical metrics rows. The per-step ordering is
pinned: loss -> backward -> optimizer step -> EMA update -> DINO center
update -> diagnostics.

The partner and negative samplers draw in bulk from rectangular index tables
but consume the pair stream draw for draw as per-item loops do: a partner is
one ``integers(group size)`` per row, drawn again while it picks the row
itself; a negative is one draw for the other class, then one for its member.
The seed CSVs are therefore byte-identical to those of the per-item loops.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data as toydata
from . import losses as L
from .autodiff import ParameterError, Tensor, backward, batch_norm_cols
from .data import AugmentationModel, BatchSampler, ToyDataset, augment
from .diagnostics import (CollapseReport, collapse_verdict, estimate_center,
                          knn_eval)
from .layers import (EmaTwin, EncoderStack, Param, PredictorHead,
                     PrototypeBank, init_encoder, init_predictor,
                     init_prototypes, save_checkpoint, sgd_step)
from .losses import DinoCenterState, LossConfig

__all__ = [
    "DatasetSpec",
    "AugmentationSpec",
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
    "compare_runs",
    "METRICS_HEADER",
]

METRICS_HEADER = ("seed,epoch,step,loss,center_norm,mean_residual_norm,"
                  "std_mean,delta_dist,knn_accuracy,wall_time_ms")
_METRIC_COLS = ("loss", "center_norm", "mean_residual_norm", "std_mean",
                "delta_dist", "knn_accuracy")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


class NumericAbort(ArithmeticError):
    """Training hit a non-finite loss; rows produced so far were flushed."""


class ComparisonError(ValueError):
    """Comparison inputs disagree in schema or cadence."""


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

    @property
    def input_dim(self) -> int:
        return self.dim if self.kind == "gaussian" else 2


@dataclass
class AugmentationSpec:
    kind: str = "class"                # class | centered | shifted
    sigma: float = 0.1
    shift: list[float] | None = None
    views: int = 1


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
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    diagnostics: DiagnosticsSpec = field(default_factory=DiagnosticsSpec)
    num_seeds: int = 5
    base_seed: int = 0
    record_wall_time: bool = True

    def validate(self) -> None:
        try:
            self._validate()
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def _validate(self) -> None:
        ds, aug, enc = self.dataset, self.augmentation, self.encoder
        opt, diag = self.optimizer, self.diagnostics
        if ds.kind not in ("blobs", "moons", "gaussian"):
            raise ConfigError(f"dataset.kind: unknown kind {ds.kind!r}")
        if aug.kind not in ("class", "centered", "shifted"):
            raise ConfigError(f"augmentation.kind: unknown kind {aug.kind!r}")
        if ds.kind == "gaussian" and aug.kind == "class":
            raise ConfigError("augmentation.kind: gaussian data has a single class; "
                              "use a jitter augmentation")
        if len(enc.dims) < 2:
            raise ConfigError("encoder.dims: need at least input and output dims")
        if enc.dims[0] != ds.input_dim:
            raise ConfigError(f"encoder.dims: first dim {enc.dims[0]} does not match "
                              f"dataset input dim {ds.input_dim}")
        if opt.epochs < 0:
            raise ConfigError("optimizer.epochs: must be >= 0")
        if opt.lr < 0:
            raise ConfigError("optimizer.lr: must be >= 0")
        if opt.batch_mode not in ("mini", "full"):
            raise ConfigError(f"optimizer.batch_mode: unknown mode {opt.batch_mode!r}")
        if opt.batch_mode == "mini" and opt.batch_size < 1:
            raise ConfigError("optimizer.batch_size: must be >= 1 in mini mode")
        if aug.views < 1:
            raise ConfigError("augmentation.views: must be >= 1")
        if aug.sigma < 0:
            raise ConfigError("augmentation.sigma: must be >= 0")
        if diag.cadence < 1 or diag.knn_cadence < 1:
            raise ConfigError("diagnostics cadences must be >= 1")
        if ds.kind != "gaussian":
            if ds.n_per_class < 1:
                raise ConfigError("dataset.n_per_class: must be >= 1")
            # kNN runs leave-one-out on the base points, so k < pool; the
            # class count comes from the built data, as in the trainer
            base = _build_dataset(ds, self.base_seed)
            pool = base.n
            if base.num_classes >= 2 and not 1 <= diag.knn_k <= pool - 1:
                raise ConfigError(f"diagnostics.knn_k: must lie in [1, {pool - 1}] "
                                  f"for a pool of {pool} points")
        if self.num_seeds < 1:
            raise ConfigError("num_seeds: must be >= 1")
        self.loss.validate()
        if self.loss.kind in ("triplet", "infonce") and aug.kind != "class":
            raise ConfigError("loss.kind: contrastive losses need class-as-augmentation "
                              "data for negatives")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = _from_dict(cls, raw, path="")
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(raw)


_NESTED = {
    "dataset": DatasetSpec,
    "augmentation": AugmentationSpec,
    "encoder": EncoderSpec,
    "loss": LossConfig,
    "optimizer": OptimizerSpec,
    "diagnostics": DiagnosticsSpec,
}


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
        sub = _NESTED.get(f.name) if cls is ExperimentConfig else None
        if sub is not None:
            value = _from_dict(sub, value, f"{path + '.' if path else ''}{f.name}")
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ParameterError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, object]) -> ExperimentConfig:
    """Rebuild a config with dotted-path overrides (e.g. 'optimizer.lr')."""
    raw = cfg.to_dict()
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
    return toydata.gen_gaussian_points(spec.n, spec.dim, seed=seed)


@dataclass
class TrainState:
    """Everything a run mutates: encoder, optional heads, counters."""
    encoder: EncoderStack
    predictor: PredictorHead | None = None
    twin: EmaTwin | None = None
    prototypes: PrototypeBank | None = None
    dino_center: DinoCenterState | None = None
    step: int = 0


class Trainer:
    """Single-seed training run for one experiment config."""

    def __init__(self, cfg: ExperimentConfig, seed: int):
        cfg.validate()
        self.cfg = cfg
        self.seed = seed
        self.dataset = _build_dataset(cfg.dataset, seed)
        aug = cfg.augmentation
        self.aug_model = AugmentationModel(
            kind=aug.kind, sigma=aug.sigma,
            shift=None if aug.shift is None else np.asarray(aug.shift, dtype=np.float64),
            views=aug.views)
        self.augmented = augment(self.dataset, self.aug_model, seed=seed + 20_000)
        self.group_table, self.group_row, self.group_pos = _index_table(
            self.augmented.group, "group")
        self.label_table, self.label_row, _ = _index_table(
            self.augmented.labels, "class")

        enc_spec = cfg.encoder
        encoder = init_encoder(enc_spec.dims, seed + 10_000, scheme=enc_spec.scheme,
                               activation=enc_spec.activation,
                               output_normalize=enc_spec.output_normalize)
        d = enc_spec.dims[-1]
        lc = cfg.loss
        predictor = twin = prototypes = dino_center = None
        if lc.needs_predictor:
            predictor = init_predictor(
                d, seed + 11_000, hidden_multiple=enc_spec.predictor_hidden_multiple,
                activation=enc_spec.activation,
                learning_rate_multiplier=cfg.optimizer.predictor_lr_multiplier)
        if lc.needs_twin:
            twin = EmaTwin(encoder, lc.ema_momentum)
        if lc.needs_prototypes:
            prototypes = init_prototypes(lc.num_prototypes, d, seed + 12_000,
                                         trainable=lc.prototypes_trainable)
        if lc.kind == "dino":
            dino_center = DinoCenterState(np.zeros(d), lc.dino_center_momentum)
        self.state = TrainState(encoder, predictor, twin, prototypes, dino_center)
        self.sampler = BatchSampler(cfg.optimizer.batch_mode,
                                    cfg.optimizer.batch_size, seed + 30_000)
        self.prev_mean: np.ndarray | None = None

    # -- parameter plumbing ---------------------------------------------
    def parameters(self) -> list[Param]:
        params = list(self.state.encoder.parameters("encoder"))
        if self.state.predictor is not None:
            params += self.state.predictor.parameters("predictor")
        if self.state.prototypes is not None:
            params += self.state.prototypes.parameters()
        return params

    # -- batch construction ---------------------------------------------
    def _partners(self, idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A uniform other member of each row's group (the row itself if alone)."""
        size = self.group_table.shape[1]
        if size == 1:
            return idx.copy()
        n = idx.shape[0]
        picks = [0] * n
        draws, k = [], 0
        for i, own in enumerate(self.group_pos[idx].tolist()):
            while True:
                if k == len(draws):
                    # every row from i on needs at least one more draw
                    draws, k = rng.integers(size, size=n - i).tolist(), 0
                pick = draws[k]
                k += 1
                if pick != own:
                    break
            picks[i] = pick
        return self.group_table[self.group_row[idx], picks]

    def _negatives(self, idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A uniform class other than each row's own, then a uniform member of it."""
        classes, size = self.label_table.shape
        draws = rng.integers(0, np.tile([classes - 1, size], idx.shape[0]))
        other = draws[0::2]
        other += other >= self.label_row[idx]
        return self.label_table[other, draws[1::2]]

    # -- one optimizer step ---------------------------------------------
    def train_step(self, idx: np.ndarray, rng: np.random.Generator) -> float:
        cfg, st = self.cfg, self.state
        lc = cfg.loss
        pts = self.augmented.points
        x_a = pts[idx]
        x_b = pts[self._partners(idx, rng)]
        pending_center: np.ndarray | None = None

        if lc.kind == "invariance":
            loss = L.invariance_loss(st.encoder.forward(Tensor(x_a)),
                                     st.encoder.forward(Tensor(x_b)))
        elif lc.kind == "simple":
            loss = L.simple_objective(st.encoder.forward(Tensor(x_a)),
                                      st.encoder.forward(Tensor(x_b)),
                                      lc.center_penalty_weight,
                                      squared=lc.center_penalty_squared)
        elif lc.kind == "triplet":
            x_n = pts[self._negatives(idx, rng)]
            loss = L.triplet_loss(st.encoder.forward(Tensor(x_a)),
                                  st.encoder.forward(Tensor(x_b)),
                                  st.encoder.forward(Tensor(x_n)), lc.margin)
        elif lc.kind == "infonce":
            loss = L.infonce_loss(st.encoder.forward(Tensor(x_a)),
                                  st.encoder.forward(Tensor(x_b)),
                                  temperature=lc.temperature)
        elif lc.kind == "simsiam":
            loss = L.simsiam_loss(st.encoder, st.predictor, x_a, x_b,
                                  use_stop_gradient=lc.use_stop_gradient,
                                  use_predictor=lc.use_predictor)
        elif lc.kind == "byol":
            loss = L.byol_loss(st.encoder, st.predictor, st.twin, x_a, x_b)
        elif lc.kind == "dino":
            loss, pending_center = L.dino_loss(
                st.encoder, st.twin, st.dino_center, x_a, x_b,
                lc.student_temperature, lc.teacher_temperature,
                use_centering=lc.use_centering)
        elif lc.kind == "swav":
            loss = L.swav_loss(st.encoder, st.prototypes, x_a, x_b,
                               temperature=lc.temperature,
                               sinkhorn_eps=lc.sinkhorn_eps,
                               sinkhorn_iters=lc.sinkhorn_iters)
        elif lc.kind == "barlow_twins":
            bt_lambda = (1.0 / np.sqrt(idx.shape[0])
                         if lc.bt_lambda_batch_coupled else lc.bt_lambda)
            z_a = batch_norm_cols(st.encoder.forward(Tensor(x_a)), eps=1e-12)
            z_b = batch_norm_cols(st.encoder.forward(Tensor(x_b)), eps=1e-12)
            loss = L.barlow_twins_loss(z_a, z_b, bt_lambda,
                                       use_decorrelation=lc.use_decorrelation)
        else:  # pragma: no cover - validate() excludes this
            raise ConfigError(f"unknown loss kind {lc.kind!r}")

        value = loss.item()
        if not np.isfinite(value):
            raise NumericAbort(f"non-finite loss at step {st.step}")
        backward(loss)
        sgd_step(self.parameters(), cfg.optimizer.lr,
                 {"predictor": cfg.optimizer.predictor_lr_multiplier})
        if st.prototypes is not None and st.prototypes.trainable:
            m = st.prototypes.matrix.values
            m /= np.sqrt((m * m).sum(axis=1, keepdims=True))
        if st.twin is not None:
            st.twin.update(st.encoder)
        if st.dino_center is not None and pending_center is not None:
            st.dino_center.update(pending_center)
        st.step += 1
        return value

    # -- diagnostics -----------------------------------------------------
    def eval_embeddings(self) -> np.ndarray:
        """Embeddings of the full augmented pool (off-graph)."""
        return self.state.encoder.forward_array(self.augmented.points)

    def base_embeddings(self) -> np.ndarray:
        return self.state.encoder.forward_array(self.dataset.points)

    def diagnostics_tick(self, epoch: int) -> tuple[CollapseReport, float | None, np.ndarray]:
        cfg = self.cfg
        emb = self.eval_embeddings()
        report = collapse_verdict(emb, self.prev_mean,
                                  (cfg.diagnostics.center_hi, cfg.diagnostics.std_lo))
        self.prev_mean = estimate_center(emb).s_hat
        knn_acc: float | None = None
        want_knn = (epoch % (cfg.diagnostics.cadence * cfg.diagnostics.knn_cadence) == 0
                    or epoch == cfg.optimizer.epochs)
        if want_knn and self.dataset.num_classes >= 2:
            base = self.base_embeddings()
            knn_acc = knn_eval(base, self.dataset.labels, base, self.dataset.labels,
                               k=cfg.diagnostics.knn_k).accuracy
        return report, knn_acc, emb


# ---------------------------------------------------------------------------
# metrics I/O
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def _write_row(fh, seed: int, epoch: int, step: int, loss: float | None,
               report: CollapseReport, knn: float | None,
               wall_ms: int | None) -> dict:
    row = {
        "seed": seed, "epoch": epoch, "step": step, "loss": loss,
        "center_norm": report.center_norm,
        "mean_residual_norm": report.mean_residual_norm,
        "std_mean": report.std_mean,
        "delta_dist": report.delta_dist,
        "knn_accuracy": knn,
        "wall_time_ms": wall_ms,
    }
    fh.write(f"{seed},{epoch},{step},{_fmt(loss)},{_fmt(report.center_norm)},"
             f"{_fmt(report.mean_residual_norm)},{_fmt(report.std_mean)},"
             f"{_fmt(report.delta_dist)},{_fmt(knn)},"
             f"{'' if wall_ms is None else wall_ms}\n")
    fh.flush()
    return row


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


def _run_one_seed(cfg: ExperimentConfig, seed: int, csv_path: Path,
                  tick_callback: TickCallback | None) -> tuple[list[dict], Trainer]:
    trainer = Trainer(cfg, seed)
    rows: list[dict] = []
    start = time.monotonic()

    def wall() -> int | None:
        if not cfg.record_wall_time:
            return None
        return int(1000.0 * (time.monotonic() - start))

    with csv_path.open("w") as fh:
        fh.write(METRICS_HEADER + "\n")
        report, knn, emb = trainer.diagnostics_tick(0)
        rows.append(_write_row(fh, seed, 0, 0, None, report, knn, wall()))
        if tick_callback:
            tick_callback(trainer, 0, report, emb)
        try:
            for epoch in range(1, cfg.optimizer.epochs + 1):
                epoch_losses = []
                batches = trainer.sampler.epoch_batches(trainer.augmented.n, epoch)
                pair_rng = np.random.default_rng([seed + 40_000, epoch])
                for idx in batches:
                    epoch_losses.append(trainer.train_step(idx, pair_rng))
                if epoch % cfg.diagnostics.cadence == 0 or epoch == cfg.optimizer.epochs:
                    report, knn, emb = trainer.diagnostics_tick(epoch)
                    mean_loss = float(np.mean(epoch_losses))
                    rows.append(_write_row(fh, seed, epoch, trainer.state.step,
                                           mean_loss, report, knn, wall()))
                    if tick_callback:
                        tick_callback(trainer, epoch, report, emb)
        except NumericAbort:
            # flush a final row flagged non-finite, then re-raise
            report, knn, emb = trainer.diagnostics_tick(cfg.optimizer.epochs)
            rows.append(_write_row(fh, seed, -1, trainer.state.step,
                                   float("nan"), report, knn, wall()))
            raise
    return rows, trainer


def _aggregate(rows_by_seed: dict[int, list[dict]], path: Path) -> None:
    seeds = sorted(rows_by_seed)
    ticks = [(r["epoch"], r["step"]) for r in rows_by_seed[seeds[0]]]
    for s in seeds[1:]:
        if [(r["epoch"], r["step"]) for r in rows_by_seed[s]] != ticks:
            raise ComparisonError("seed runs disagree in tick structure")
    header = ["epoch", "step"]
    for col in _METRIC_COLS:
        header += [f"{col}_mean", f"{col}_std"]
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for i, (epoch, step) in enumerate(ticks):
            cells = [str(epoch), str(step)]
            for col in _METRIC_COLS:
                vals = [rows_by_seed[s][i][col] for s in seeds
                        if rows_by_seed[s][i][col] is not None]
                if vals:
                    cells += [_fmt(float(np.mean(vals))), _fmt(float(np.std(vals)))]
                else:
                    cells += ["", ""]
            fh.write(",".join(cells) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir,
                   tick_callback: TickCallback | None = None) -> RunResult:
    """Execute all seeds of a config; write per-seed CSVs, an aggregate, and
    a final parameter checkpoint per seed."""
    cfg.validate()
    out = Path(out_dir) / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    seed_csvs, checkpoints = [], []
    rows_by_seed: dict[int, list[dict]] = {}
    trainers: dict[int, Trainer] = {}
    for i in range(cfg.num_seeds):
        seed = cfg.base_seed + i
        csv_path = out / f"seed{seed}.csv"
        rows, trainer = _run_one_seed(cfg, seed, csv_path, tick_callback)
        rows_by_seed[seed] = rows
        trainers[seed] = trainer
        seed_csvs.append(csv_path)
        ckpt = out / f"seed{seed}.npz"
        save_checkpoint(ckpt, trainer.parameters())
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
        augmentation=AugmentationSpec(kind="class"),
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
        augmentation=AugmentationSpec(kind="shifted" if shifted else "centered",
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


# ---------------------------------------------------------------------------
# run comparison
# ---------------------------------------------------------------------------

def _load_metric_file(path) -> dict[str, list]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ComparisonError(f"{path}: empty metrics file")
        cols: dict[str, list] = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name in reader.fieldnames:
                cell = row[name]
                cols[name].append(float(cell) if cell not in ("", None) else None)
    return cols


def _claim_value(cols: dict[str, list], column: str, stat: str) -> float:
    if column not in cols:
        raise ComparisonError(f"metric column {column!r} not present")
    values = [v for v in cols[column] if v is not None]
    if not values:
        raise ComparisonError(f"metric column {column!r} has no sampled values")
    if stat == "final":
        return values[-1]
    if stat == "max":
        return max(values)
    if stat == "min":
        return min(values)
    raise ComparisonError(f"unknown stat {stat!r}")


def compare_runs(spec: dict) -> list[dict]:
    """Evaluate declared inequalities between metric files.

    Each claim: {name, file_a, file_b, column, stat, op, margin} with
    op "gt" (a > b + margin) or "ge" (a >= b - margin). Files must share the
    (epoch, step) tick structure. Returns one verdict dict per claim.
    """
    claims = spec.get("claims")
    if not isinstance(claims, list) or not claims:
        raise ComparisonError("comparison spec needs a non-empty 'claims' list")
    results = []
    for claim in claims:
        missing = {"name", "file_a", "file_b", "column", "stat", "op"} - set(claim)
        if missing:
            raise ComparisonError(f"claim missing field(s): {sorted(missing)}")
        cols_a = _load_metric_file(claim["file_a"])
        cols_b = _load_metric_file(claim["file_b"])
        for key in ("epoch", "step"):
            if cols_a.get(key) != cols_b.get(key):
                raise ComparisonError(
                    f"claim {claim['name']!r}: files disagree in {key} cadence")
        a = _claim_value(cols_a, claim["column"], claim["stat"])
        b = _claim_value(cols_b, claim["column"], claim["stat"])
        margin = float(claim.get("margin", 0.0))
        op = claim["op"]
        if op == "gt":
            passed = a > b + margin
        elif op == "ge":
            passed = a >= b - margin
        else:
            raise ComparisonError(f"unknown op {op!r}")
        results.append({"name": claim["name"], "a": a, "b": b, "op": op,
                        "margin": margin, "passed": passed})
    return results
