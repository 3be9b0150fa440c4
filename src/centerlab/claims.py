"""The paper's empirical claims, each a function of one experiment's run directory.

A run directory, ``<out-dir>/KEY/``, holds one folder per variant, named after
its config, with ``config.json`` and a ``seed<s>.csv`` and ``seed<s>.npz`` per
seed that config names; a claim reads nothing else. A verdict compares two numbers with the
claim's own ``>`` or ``>=``; its margin ``left - right`` is how far it held. A
claim over every seed is its worst seed's verdict. Collapse is
``collapse_verdict``'s rule at the run config's thresholds.
"""

from __future__ import annotations

import csv
import functools
import operator
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ParameterError
from .diagnostics import angle_to_direction, estimate_center
from .harness import METRICS_HEADER, ConfigError, ExperimentConfig, Trainer
from .layers import load_checkpoint

_COLUMN = {name: i for i, name in enumerate(METRICS_HEADER.split(","))}


class ComparisonError(ValueError):
    """A run directory whose outputs cannot be compared: a missing or
    malformed file, or variants that do not pair up."""


@dataclass(frozen=True)
class Verdict:
    claim: str
    left: float
    op: str                     # ">" or ">="
    right: float

    @property
    def passed(self) -> bool:
        return self.left > self.right if self.op == ">" else self.left >= self.right

    @property
    def margin(self) -> float:
        return self.left - self.right


_WORST = operator.attrgetter("passed", "margin")   # min key: failed first, then by margin


class _Variant:
    """One variant's folder: its config and a (seeds x ticks x columns) table."""

    def __init__(self, run_dir, name: str):
        self.dir = Path(run_dir) / name
        path = self.dir / "config.json"
        try:
            self.cfg = ExperimentConfig.from_file(path)
        except ConfigError as exc:  # invalid JSON, or a field an older version wrote
            # the invalid-JSON message names the file already
            raise ComparisonError(f"{path}: {str(exc).removeprefix(f'{path}: ')}") from exc
        base = self.cfg.base_seed
        self.seeds = list(range(base, base + self.cfg.num_seeds))
        tables = []
        try:
            for path in (self.dir / f"seed{s}.csv" for s in self.seeds):
                with open(path, newline="", encoding="utf-8") as fh:
                    header, *rows = list(csv.reader(fh)) or [[]]
                if ",".join(header) != METRICS_HEADER:
                    raise ValueError("not a metrics CSV")
                if not rows:  # tick 0 writes the first row
                    raise ValueError("header only: the run stopped before its first tick")
                table = np.array([[float(c) if c else np.nan for c in r]
                                  for r in rows])  # a ragged row fails here
                if table.shape[1:] != (len(_COLUMN),):
                    raise ValueError(f"rows of {table.shape[1]} cells, not {len(_COLUMN)}")
                aborted = table[table[:, _COLUMN["epoch"]] == -1, _COLUMN["step"]]
                if aborted.size:  # NumericAbort's row
                    raise ValueError(f"the run aborted at step {aborted[0]:.0f}")
                tables.append(table)
            self.table = np.array(tables)  # as do seeds with other tick counts
        except (ValueError, csv.Error) as exc:  # also bytes that are not UTF-8
            raise ComparisonError(f"{path}: {exc}") from exc
        if self.table.ndim != 3 or 0 in self.table.shape:
            raise ComparisonError(f"{self.dir}: no seed CSVs with rows")

    def column(self, name: str) -> np.ndarray:
        """(seeds x ticks) values of one metrics column; an empty cell is NaN."""
        return self.table[:, :, _COLUMN[name]]

    def trainers(self) -> dict[int, Trainer]:
        """A trainer per seed, rebuilt from the config, with its checkpoint."""
        out = {seed: Trainer(self.cfg, seed) for seed in self.seeds}
        for seed, trainer in out.items():
            path = self.dir / f"seed{seed}.npz"
            try:
                load_checkpoint(path, trainer.groups)
            # a missing group, a wrong shape, or a file that is no archive
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise ComparisonError(f"{path}: {exc}") from exc
        return out


def _means(run_dir, column: str, *names: str) -> list[float]:
    """Each variant's seed-mean final value of `column`."""
    return [_Variant(run_dir, name).column(column)[:, -1].mean() for name in names]


def _collapse(label: str, var: _Variant, every: bool) -> list[Verdict]:
    """Collapse at each seed's last tick, on every seed or on none."""
    hi, lo = var.cfg.diagnostics.center_hi, var.cfg.diagnostics.std_lo
    seeds = list(zip(var.seeds, var.column("center_norm")[:, -1],
                     var.column("std_mean")[:, -1]))
    if every:
        return [min((Verdict(f"{label} seed {s}: center_norm > center_hi", c, ">", hi)
                     for s, c, _ in seeds), key=_WORST),
                min((Verdict(f"{label} seed {s}: std_lo > std_mean", lo, ">", m)
                     for s, _, m in seeds), key=_WORST)]
    return [min((max(Verdict(f"{label} seed {s}: center_hi >= center_norm", hi, ">=", c),
                     Verdict(f"{label} seed {s}: std_mean >= std_lo", m, ">=", lo), key=_WORST)
                 for s, c, m in seeds), key=_WORST)]


def ac05(run_dir) -> list[Verdict]:
    """Invariance collapses every s21 variant; the mini-batch center rises first."""
    var = {(m, a): _Variant(run_dir, f"collapse-{m}-{a}") for m in ("mini", "full")
           for a in ("centered", "shifted")}
    out = [v for (m, a), x in var.items() for v in _collapse(f"ac05 {m}-{a}", x, True)]
    for aug in ("centered", "shifted"):
        mini, full = (var[m, aug].column("center_norm").mean(axis=0) for m in ("mini", "full"))
        hi = var["mini", aug].cfg.diagnostics.center_hi
        cross = int(np.argmax(mini > hi))
        if cross >= full.size:
            raise ComparisonError(f"{run_dir}: full-{aug} has no tick {cross}")
        out += [Verdict(f"ac05 {aug}: mini center_norm > center_hi at tick {cross}",
                        mini[cross], ">", hi),
                Verdict(f"ac05 {aug}: mini center_norm > full at tick {cross}",
                        mini[cross], ">", full[cross])]
    return out


def ac06(run_dir) -> list[Verdict]:
    """A shifted augmentation turns the center toward the shift's image under
    the trained projector further than a centered one, on every seed."""
    out = []
    for mode in ("mini", "full"):
        shifted, centered = (_Variant(run_dir, f"collapse-{mode}-{a}")
                             for a in ("shifted", "centered"))
        if shifted.seeds != centered.seeds:
            raise ComparisonError(f"{run_dir}: {mode} variants differ in seeds")
        if shifted.cfg.augmentation.shift is None:
            raise ComparisonError(f"{shifted.dir}: config.json has no augmentation.shift")
        shift, verdicts = np.asarray(shifted.cfg.augmentation.shift), []
        for (seed, trainer), other in zip(shifted.trainers().items(),
                                          centered.trainers().values()):
            w = functools.reduce(np.matmul, [layer.values for layer in
                                             trainer.state.encoder.weights], np.eye(len(shift)))
            try:
                cos = [angle_to_direction(estimate_center(t.eval_embeddings()), shift @ w)
                       for t in (trainer, other)]
            except ParameterError as exc:  # a zero center or shift image
                raise ComparisonError(f"{run_dir}: {mode} seed {seed}: {exc}") from exc
            verdicts.append(Verdict(f"ac06 {mode} seed {seed}: cos(center, shift) "
                                    "shifted > centered", cos[0], ">", cos[1]))
        out.append(min(verdicts, key=_WORST))
    return out


def ac07(run_dir) -> list[Verdict]:
    """SimSiam without predictor or stop-gradient: center +0.3, kNN -0.2."""
    out = []
    for ds in ("blobs", "moons"):
        for run in (f"no-predictor-{ds}", f"no-stopgrad-{ds}"):
            (s_cn, a_cn), (s_knn, a_knn) = (_means(run_dir, col, f"standard-{ds}", run)
                                            for col in ("center_norm", "knn_accuracy"))
            out += [Verdict(f"ac07 {run}: center_norm rise > 0.3", a_cn - s_cn, ">", 0.3),
                    Verdict(f"ac07 {run}: knn_accuracy fall > 0.2", s_knn - a_knn, ">", 0.2)]
    return out


def ac08(run_dir) -> list[Verdict]:
    """The simple objective's kNN is within a pooled std of SimSiam's; center < 0.3."""
    out = []
    for ds in ("blobs", "moons"):
        a, b = (_Variant(run_dir, f"{k}-{ds}").column("knn_accuracy")[:, -1]
                for k in ("simple", "simsiam"))
        pooled_std = np.sqrt((a.std() ** 2 + b.std() ** 2) / 2.0)
        out += [Verdict(f"ac08 {ds}: simple knn >= simsiam knn - pooled std",
                        a.mean(), ">=", b.mean() - pooled_std),
                Verdict(f"ac08 {ds}: 0.3 > simple center_norm",
                        0.3, ">", *_means(run_dir, "center_norm", f"simple-{ds}"))]
    return out


def ac09(run_dir) -> list[Verdict]:
    """A lower BYOL momentum leaves a larger center and a lower kNN accuracy."""
    names = [f"byol-momentum-{m}" for m in (0.5, 0.9, 0.99)]
    cn, knn = (_means(run_dir, col, *names) for col in ("center_norm", "knn_accuracy"))
    return [v for i in (0, 1) for v in (
        Verdict(f"ac09 center_norm {names[i]} >= {names[i + 1]}", cn[i], ">=", cn[i + 1]),
        Verdict(f"ac09 knn_accuracy {names[i + 1]} >= {names[i]}", knn[i + 1], ">=", knn[i]))]


def ac10(run_dir) -> list[Verdict]:
    """DINO without teacher centering ends with a center larger by over 0.3."""
    with_c, without = _means(run_dir, "center_norm", "dino-centering", "dino-no-centering")
    return [Verdict("ac10 center_norm rise without centering > 0.3", without - with_c, ">", 0.3)]


def ac11(run_dir) -> list[Verdict]:
    """Barlow Twins without decorrelation: kNN over chance + 0.15, under the full loss."""
    full, no_decor = _means(run_dir, "knn_accuracy", "bt-full", "bt-no-decor")
    return [Verdict("ac11 no-decor knn_accuracy > 1/3 + 0.15", no_decor, ">", 1.0 / 3.0 + 0.15),
            Verdict("ac11 full knn_accuracy > no-decor", full, ">", no_decor)]


def ac12(run_dir) -> list[Verdict]:
    """Frozen SwAV prototypes: center < 0.5 at every tick; learnable ones classify as well."""
    worst = _Variant(run_dir, "swav-fixed").column("center_norm").max()
    fixed, learnable = _means(run_dir, "knn_accuracy", "swav-fixed", "swav-learnable")
    return [Verdict("ac12 fixed: 0.5 > center_norm at every tick", 0.5, ">", worst),
            Verdict("ac12 learnable knn_accuracy >= fixed", learnable, ">=", fixed)]


def ac13(run_dir) -> list[Verdict]:
    """A predictor at 1% of the encoder rate collapses every seed, at 100% none."""
    slow, fast = ("predictor-lr-0.01", "predictor-lr-1.0")
    slow_knn, fast_knn = _means(run_dir, "knn_accuracy", slow, fast)
    return (_collapse(f"ac13 {slow}", _Variant(run_dir, slow), True)
            + _collapse(f"ac13 {fast}", _Variant(run_dir, fast), False)
            + [Verdict("ac13 knn_accuracy gain of the fast predictor > 0.2",
                       fast_knn - slow_knn, ">", 0.2)])

