import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerlab.autodiff import ParameterError
from centerlab.cli import main as cli_main
from centerlab.data import AugmentedSet, gen_blobs
from centerlab.harness import (METRICS_HEADER, AugmentationSpec, ComparisonError,
                               ConfigError, DatasetSpec, EncoderSpec,
                               ExperimentConfig, NumericAbort, OptimizerSpec,
                               Trainer, _OBJECTIVES, _index_table,
                               apply_overrides, compare_runs, experiment_names,
                               named_experiment, run_experiment)
from centerlab.layers import EncoderStack
from centerlab.losses import LossConfig
from test_autodiff import composed_l2_normalize_rows, composed_linear


def tiny_config(**loss_kw) -> ExperimentConfig:
    return ExperimentConfig(
        name="tiny",
        dataset=DatasetSpec(kind="blobs", n_per_class=10),
        loss=LossConfig(**loss_kw),
        optimizer=OptimizerSpec(lr=0.1, epochs=2, batch_mode="mini", batch_size=15),
        num_seeds=2,
        record_wall_time=False,
    )


class TestConfigSchema:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            ExperimentConfig.from_dict({"learning_rate": 0.1})

    def test_unknown_nested_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"optimizer\.momentum"):
            ExperimentConfig.from_dict({"optimizer": {"momentum": 0.9}})

    def test_encoder_input_dim_must_match_dataset(self):
        with pytest.raises(ConfigError, match="encoder.dims"):
            ExperimentConfig.from_dict(
                {"dataset": {"kind": "gaussian", "dim": 3},
                 "augmentation": {"kind": "centered"}})

    def test_gaussian_data_rejects_class_augmentation(self):
        with pytest.raises(ConfigError, match="augmentation.kind"):
            ExperimentConfig.from_dict(
                {"dataset": {"kind": "gaussian", "dim": 2}})

    def test_contrastive_losses_need_class_augmentation(self):
        with pytest.raises(ConfigError, match="loss.kind"):
            ExperimentConfig.from_dict(
                {"loss": {"kind": "infonce"},
                 "augmentation": {"kind": "centered"}})

    def test_knn_k_must_leave_one_out_of_the_pool(self):
        def cfg(dataset, knn_k, aug="class"):
            return {"dataset": dataset, "augmentation": {"kind": aug},
                    "encoder": {"dims": [dataset.get("dim", 2), 4, 2]},
                    "diagnostics": {"knn_k": knn_k}}

        blobs = {"kind": "blobs", "n_per_class": 10, "num_classes": 4}
        moons = {"kind": "moons", "n_per_class": 10, "three_classes": False}
        ExperimentConfig.from_dict(cfg(blobs, 39))
        ExperimentConfig.from_dict(cfg(moons, 19))
        for dataset, knn_k in ((blobs, 40), (moons, 20), (blobs, 0)):
            with pytest.raises(ConfigError, match="diagnostics.knn_k"):
                ExperimentConfig.from_dict(cfg(dataset, knn_k))
        # gaussian data has one class and never runs kNN
        ExperimentConfig.from_dict(cfg({"kind": "gaussian", "dim": 2}, 10_000,
                                       aug="centered"))

    def test_dataset_the_builder_rejects_is_a_config_error(self):
        # validate() builds what the trainer builds, the base points first
        with pytest.raises(ConfigError, match=r"^dataset\.num_classes must be >= 2"):
            ExperimentConfig.from_dict({"dataset": {"kind": "blobs", "num_classes": 1}})

    def test_full_batch_ignores_batch_size(self):
        ExperimentConfig.from_dict({"optimizer": {"batch_mode": "full",
                                                  "batch_size": 0}})

    def test_roundtrip_through_dict(self):
        cfg = tiny_config(kind="byol")
        again = ExperimentConfig.from_dict(dataclasses.asdict(cfg))
        assert again == cfg

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_file(path)


class TestOverrides:
    def test_dotted_path_override(self):
        cfg = apply_overrides(tiny_config(), {"optimizer.lr": 0.9,
                                              "loss.kind": "invariance"})
        assert cfg.optimizer.lr == 0.9
        assert cfg.loss.kind == "invariance"

    def test_unknown_override_path(self):
        with pytest.raises(ConfigError, match="optimizer.beta"):
            apply_overrides(tiny_config(), {"optimizer.beta": 0.5})

    def test_override_does_not_mutate_original(self):
        cfg = tiny_config()
        apply_overrides(cfg, {"optimizer.lr": 0.9})
        assert cfg.optimizer.lr == 0.1


# Override values for every config field, as (in range, anything) pairs of
# strategies: "anything" adds out-of-range, non-finite and wrong-type values.
# Sizes stay bounded: at most 60 points, dims of 8, 4 views, 8 prototypes.
_WRONG = st.sampled_from([None, "x", [1], {"a": 1}, True])
_ANY_FLOAT = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([np.nan, np.inf, -np.inf]))


def _ints(lo, hi):
    return st.integers(lo, hi), st.one_of(st.integers(lo - 2, hi), _WRONG)


def _floats(lo, hi):
    return st.floats(lo, hi), st.one_of(_ANY_FLOAT, _WRONG)


def _kinds(*kinds):
    return st.sampled_from(kinds), st.one_of(st.sampled_from(kinds + ("foo",)), _WRONG)


def _bools():
    return st.booleans(), st.one_of(st.booleans(), _WRONG)


def _lists(valid, anything):
    return valid, st.one_of(anything, st.none(), _WRONG)


_OVERRIDES = {
    "name": (st.just("prop"), st.one_of(st.just(""), _WRONG)),
    "num_seeds": _ints(1, 1),
    "base_seed": _ints(0, 3),
    "record_wall_time": _bools(),
    "dataset.kind": _kinds("blobs", "moons", "gaussian"),
    "dataset.n_per_class": _ints(1, 20),
    "dataset.n": _ints(1, 60),
    "dataset.dim": _ints(1, 8),
    "dataset.num_classes": _ints(2, 3),
    "dataset.sigma": _floats(0.1, 2.0),
    "dataset.noise": _floats(0.0, 0.5),
    "dataset.three_classes": _bools(),
    "augmentation.kind": _kinds("class", "centered", "shifted"),
    "augmentation.sigma": _floats(0.0, 0.5),
    "augmentation.shift": _lists(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
                                 st.lists(_ANY_FLOAT, max_size=4)),
    "augmentation.views": _ints(1, 4),
    "encoder.dims": _lists(st.lists(st.integers(1, 8), min_size=1, max_size=3)
                           .map(lambda rest: [2] + rest),
                           st.lists(st.integers(-1, 8), max_size=4)),
    "encoder.scheme": _kinds("uniform", "biased"),
    "encoder.activation": _kinds("tanh", "relu", "identity"),
    "encoder.output_normalize": _bools(),
    "encoder.predictor_hidden_multiple": _ints(0, 2),
    "loss.kind": _kinds(*_OBJECTIVES),
    "loss.temperature": _floats(0.05, 1.0),
    "loss.student_temperature": _floats(0.05, 1.0),
    "loss.teacher_temperature": _floats(0.02, 1.0),
    "loss.margin": _lists(st.one_of(st.none(), st.floats(0.0, 2.0)), _ANY_FLOAT),
    "loss.bt_lambda": _floats(0.0, 0.1),
    "loss.center_penalty_weight": _floats(-2.0, 2.0),
    "loss.center_penalty_squared": _bools(),
    "loss.ema_momentum": _floats(0.0, 0.99),
    "loss.dino_center_momentum": _floats(0.0, 0.99),
    "loss.sinkhorn_iters": _ints(1, 3),
    "loss.sinkhorn_eps": _floats(0.01, 1.0),
    "loss.num_prototypes": _ints(2, 8),
    "loss.prototypes_trainable": _bools(),
    "loss.use_stop_gradient": _bools(),
    "loss.use_predictor": _bools(),
    "loss.use_centering": _bools(),
    "loss.use_decorrelation": _bools(),
    "optimizer.lr": _floats(0.0, 1.0),
    "optimizer.epochs": _ints(0, 1),
    "optimizer.batch_mode": _kinds("mini", "full"),
    "optimizer.batch_size": _ints(1, 70),
    "optimizer.predictor_lr_multiplier": _floats(0.01, 2.0),
    "diagnostics.cadence": _ints(1, 2),
    "diagnostics.knn_cadence": _ints(1, 2),
    "diagnostics.knn_k": _ints(1, 70),
    "diagnostics.center_hi": _floats(0.01, 0.99),
    "diagnostics.std_lo": _floats(0.01, 0.99),
}


@st.composite
def _overrides(draw):
    """Up to six in-range overrides, then up to two that may be anything."""
    paths = st.sampled_from(sorted(_OVERRIDES))
    out = {key: draw(_OVERRIDES[key][0])
           for key in draw(st.lists(paths, max_size=6, unique=True))}
    for key in draw(st.lists(paths, max_size=2, unique=True)):
        out[key] = draw(_OVERRIDES[key][1])
    return out


def _property_base() -> ExperimentConfig:
    return ExperimentConfig(
        name="prop",
        dataset=DatasetSpec(kind="blobs", n_per_class=10, n=20, dim=2),
        augmentation=AugmentationSpec(views=2),
        encoder=EncoderSpec(dims=[2, 8, 2]),
        loss=LossConfig(num_prototypes=4),
        optimizer=OptimizerSpec(epochs=1, batch_size=16),
        num_seeds=1,
        record_wall_time=False,
    )


def test_overrides_cover_every_field():
    paths = set()
    for key, value in dataclasses.asdict(_property_base()).items():
        paths |= {f"{key}.{sub}" for sub in value} if isinstance(value, dict) else {key}
    assert paths == set(_OVERRIDES)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(_overrides())
def test_any_config_is_rejected_or_trains(overrides):
    """validate() raises ConfigError, or one epoch runs to completion or to
    NumericAbort; nothing else escapes."""
    try:
        cfg = apply_overrides(_property_base(), overrides)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run_experiment(cfg, out)
        except NumericAbort:
            pass


class TestTrainer:
    @pytest.mark.parametrize("kind", list(_OBJECTIVES))
    def test_every_loss_kind_trains(self, kind):
        cfg = tiny_config(kind=kind)
        trainer = Trainer(cfg, seed=0)
        rng = np.random.default_rng(0)
        idx = np.arange(15)
        first = trainer.train_step(idx, rng)
        assert np.isfinite(first)
        assert trainer.state.step == 1

    def test_post_step_hooks(self):
        # SwAV puts a trainable bank back on the sphere after the SGD step and
        # leaves a frozen one untouched; DINO folds the teacher mean into its center
        idx = np.arange(15)
        learnable = Trainer(tiny_config(kind="swav"), seed=0)
        before = learnable.state.prototypes.matrix.values.copy()
        learnable.train_step(idx, np.random.default_rng(0))
        after = learnable.state.prototypes.matrix.values
        assert not np.array_equal(after, before)
        np.testing.assert_allclose(np.linalg.norm(after, axis=1), 1.0, atol=1e-12)
        frozen = Trainer(tiny_config(kind="swav", prototypes_trainable=False), seed=0)
        before = frozen.state.prototypes.matrix.values.copy()
        frozen.train_step(idx, np.random.default_rng(0))
        np.testing.assert_array_equal(frozen.state.prototypes.matrix.values, before)
        assert frozen.state.prototypes.matrix.grad is None
        dino = Trainer(tiny_config(kind="dino"), seed=0)
        dino.train_step(idx, np.random.default_rng(0))
        assert np.any(dino.state.dino_center.center != 0.0)

    @pytest.mark.parametrize("kind", list(_OBJECTIVES))
    def test_one_student_forward_per_view(self, monkeypatch, kind):
        # the trainer embeds each view once and the losses take embeddings;
        # counted on this encoder only, since predictor heads are EncoderStacks
        trainer = Trainer(tiny_config(kind=kind), seed=0)
        encoder = trainer.state.encoder
        calls = []

        def counted(x, forward=encoder.forward):
            calls.append(x.shape)
            return forward(x)

        monkeypatch.setattr(encoder, "forward", counted)
        trainer.train_step(np.arange(15), np.random.default_rng(0))
        assert calls == [(15, 2)] * (3 if kind == "triplet" else 2)

    @pytest.mark.parametrize("overrides", [
        *({"loss.kind": kind} for kind in _OBJECTIVES),
        {"loss.kind": "simsiam", "loss.use_predictor": False},
        {"loss.kind": "simsiam", "loss.use_stop_gradient": False},
        {"loss.kind": "simsiam", "loss.use_predictor": False,
         "loss.use_stop_gradient": False},
        {"loss.kind": "simsiam", "encoder.activation": "relu"},
    ], ids=lambda kw: "-".join(str(v) for v in kw.values()))
    def test_fused_forward_matches_composed(self, monkeypatch, overrides):
        # one linear node per layer and one normalization node must train
        # exactly as the matmul + add + activation and five-node graphs did
        cfg = apply_overrides(tiny_config(), overrides)

        def state_after_three_steps():
            trainer = Trainer(cfg, seed=0)
            rng = np.random.default_rng(0)
            for idx in (np.arange(15), np.arange(15, 30), np.arange(30)):
                trainer.train_step(idx, rng)
            st = trainer.state
            arrays = [p.tensor.values for p in trainer.parameters()]
            if st.twin is not None:
                arrays += [t.values for t in st.twin.shadow.weights + st.twin.shadow.biases]
            if st.dino_center is not None:
                arrays.append(st.dino_center.center)
            return arrays

        def composed_forward(self, x):
            h = x
            for w, b, act in zip(self.weights, self.biases, self.activations):
                h = composed_linear(h, w, b, act)
            return composed_l2_normalize_rows(h) if self.output_normalize else h

        fused = state_after_three_steps()
        monkeypatch.setattr(EncoderStack, "forward", composed_forward)
        composed = state_after_three_steps()
        assert len(fused) == len(composed)
        for a, b in zip(fused, composed):
            assert a.tobytes() == b.tobytes()

    def test_partners_stay_within_group(self):
        trainer = Trainer(tiny_config(), seed=0)
        rng = np.random.default_rng(1)
        idx = np.arange(trainer.augmented.n)
        partners = trainer._partners(idx, rng)
        np.testing.assert_array_equal(trainer.augmented.group[partners],
                                      trainer.augmented.group[idx])
        assert not np.any(partners == idx)

    def test_negatives_come_from_other_classes(self):
        trainer = Trainer(tiny_config(kind="triplet"), seed=0)
        rng = np.random.default_rng(2)
        idx = np.arange(trainer.augmented.n)
        negs = trainer._negatives(idx, rng)
        assert not np.any(trainer.augmented.labels[negs]
                          == trainer.augmented.labels[idx])

    def test_paired_variants_share_data_and_init(self):
        a = Trainer(tiny_config(kind="simsiam"), seed=3)
        b = Trainer(tiny_config(kind="simple"), seed=3)
        np.testing.assert_array_equal(a.dataset.points, b.dataset.points)
        for wa, wb in zip(a.state.encoder.weights, b.state.encoder.weights):
            np.testing.assert_array_equal(wa.values, wb.values)

    def test_diagnostics_tick_shapes(self):
        trainer = Trainer(tiny_config(), seed=0)
        report, knn, emb = trainer.diagnostics_tick(0)
        assert emb.shape == (trainer.augmented.n, 2)
        assert 0.0 <= knn <= 1.0
        assert report.delta_dist == 0.0  # first tick has no previous mean


def loop_partners(trainer, members, idx, rng):
    """Per-item rejection loop that the bulk partner sampler must match."""
    partners = np.empty(idx.shape[0], dtype=np.int64)
    group = trainer.augmented.group
    for i, item in enumerate(idx):
        pool = members[int(group[item])]
        if pool.shape[0] == 1:
            partners[i] = item
            continue
        j = int(pool[rng.integers(pool.shape[0])])
        while j == item:
            j = int(pool[rng.integers(pool.shape[0])])
        partners[i] = j
    return partners


def loop_negatives(trainer, label_members, idx, rng):
    """Per-item loop that the bulk negative sampler must match."""
    labels = trainer.augmented.labels
    negatives = np.empty(idx.shape[0], dtype=np.int64)
    for i, item in enumerate(idx):
        other = [pool for lab, pool in label_members.items()
                 if lab != int(labels[item])]
        pool = other[rng.integers(len(other))]
        negatives[i] = int(pool[rng.integers(pool.shape[0])])
    return negatives


def registry_config(experiment, variant, **overrides):
    return apply_overrides(dict(named_experiment(experiment))[variant], overrides)


class TestPairSamplersMatchLoop:
    """The bulk samplers return the loop's indices and leave the pair RNG in
    the loop's state, batch after batch, as `run_experiment` calls them."""

    def _assert_same_stream(self, cfg, epochs, seed=3, negatives=False):
        """Compare over `epochs` epochs; returns the batch sizes seen."""
        trainer = Trainer(cfg, seed=seed)
        aug = trainer.augmented
        members = {int(g): np.flatnonzero(aug.group == g)
                   for g in np.unique(aug.group)}
        label_members = {int(lab): np.flatnonzero(aug.labels == lab)
                         for lab in np.unique(aug.labels)}
        batch_sizes = set()
        for epoch in range(1, epochs + 1):
            rng = np.random.default_rng([seed + 40_000, epoch])
            ref = np.random.default_rng([seed + 40_000, epoch])
            for idx in trainer.sampler.epoch_batches(aug.n, epoch):
                batch_sizes.add(idx.shape[0])
                np.testing.assert_array_equal(
                    trainer._partners(idx, rng),
                    loop_partners(trainer, members, idx, ref))
                assert rng.bit_generator.state == ref.bit_generator.state
                if negatives:
                    np.testing.assert_array_equal(
                        trainer._negatives(idx, rng),
                        loop_negatives(trainer, label_members, idx, ref))
                    assert rng.bit_generator.state == ref.bit_generator.state
        return batch_sizes

    def test_s21_full_batch(self):
        cfg = registry_config("s21-collapse-grid", "full-shifted")
        assert self._assert_same_stream(cfg, epochs=4) == {1000}

    def test_s21_mini_batch(self):
        cfg = registry_config("s21-collapse-grid", "mini-centered")
        assert self._assert_same_stream(cfg, epochs=3) == {50}

    @pytest.mark.parametrize("variant", ["simple-blobs", "simple-moons"])
    def test_class_augmentation(self, variant):
        cfg = registry_config("fig3-simple-vs-simsiam", variant)
        self._assert_same_stream(cfg, epochs=5)

    def test_single_view_draws_nothing(self):
        cfg = registry_config("s21-collapse-grid", "mini-centered",
                              **{"augmentation.views": 1})
        trainer = Trainer(cfg, seed=0)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        idx = np.arange(trainer.augmented.n)
        np.testing.assert_array_equal(trainer._partners(idx, rng), idx)
        assert rng.bit_generator.state == before
        self._assert_same_stream(cfg, epochs=3)

    def test_trailing_short_batch(self):
        cfg = apply_overrides(tiny_config(), {"dataset.n_per_class": 11})
        assert self._assert_same_stream(cfg, epochs=6) == {15, 3}

    @pytest.mark.parametrize("dataset", ["blobs", "moons"])
    def test_triplet_negatives(self, dataset):
        cfg = registry_config("fig3-simple-vs-simsiam", f"simple-{dataset}",
                              **{"loss.kind": "triplet"})
        self._assert_same_stream(cfg, epochs=5, negatives=True)

    def test_two_classes_draw_no_class(self):
        # with one other class the class draw has high 1 and consumes nothing
        cfg = apply_overrides(tiny_config(kind="triplet"),
                              {"dataset.num_classes": 2})
        self._assert_same_stream(cfg, epochs=4, negatives=True)


class TestIndexTables:
    def test_every_registry_variant_is_rectangular(self):
        for name in experiment_names():
            for label, cfg in named_experiment(name):
                trainer = Trainer(cfg, seed=0)
                aug = trainer.augmented
                for table, row, keys in (
                        (trainer.group_table, trainer.group_row, aug.group),
                        (trainer.label_table, trainer.label_row, aug.labels)):
                    # every row index appears once, in the table row of its key
                    np.testing.assert_array_equal(np.sort(table.ravel()),
                                                  np.arange(aug.n))
                    assert np.all(row[table] == np.arange(table.shape[0])[:, None])
                    assert np.all(keys[table] == keys[table[:, :1]]), (name, label)
                pos = trainer.group_pos
                np.testing.assert_array_equal(
                    trainer.group_table[trainer.group_row, pos], np.arange(aug.n))

    def test_ragged_augmented_set_rejected(self):
        ds = gen_blobs(4, num_classes=2, seed=0)
        ragged = AugmentedSet(ds.points, ds.labels,
                              np.array([0, 0, 1, 1, 1, 2, 2, 2]))
        with pytest.raises(ParameterError, match=r"group sizes differ: \[2, 3\]"):
            _index_table(ragged.group, "group")
        ragged.labels = np.array([0, 0, 0, 0, 0, 1, 1, 1])
        with pytest.raises(ParameterError, match=r"class sizes differ: \[3, 5\]"):
            _index_table(ragged.labels, "class")

    def test_trainer_builds_its_dataset_once(self, monkeypatch):
        from centerlab import data
        calls = []
        original = data.gen_blobs

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(data, "gen_blobs", counted)
        Trainer(tiny_config(), seed=0)
        assert len(calls) == 1

    def test_trainer_rejects_ragged_groups(self, monkeypatch):
        from centerlab import harness as H

        def ragged_augment(ds, model, seed=0):
            group = np.arange(ds.n) // 4
            group[-1] = group[0]
            return AugmentedSet(ds.points, ds.labels, group)

        monkeypatch.setattr(H, "augment", ragged_augment)
        with pytest.raises(ParameterError, match="group sizes differ"):
            Trainer(tiny_config(), seed=0)


class TestRunExperiment:
    def test_outputs_and_schema(self, tmp_path):
        cfg = tiny_config()
        result = run_experiment(cfg, tmp_path)
        assert len(result.seed_csvs) == 2
        text = result.seed_csvs[0].read_text().splitlines()
        assert text[0] == METRICS_HEADER
        # epochs=2, cadence=1 -> init tick + 2 epoch ticks
        assert len(text) == 1 + 3
        assert result.aggregate_csv.exists()
        assert all(p.exists() for p in result.checkpoints)
        agg = result.aggregate_csv.read_text().splitlines()
        assert agg[0].startswith("epoch,step,loss_mean,loss_std")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config()
        first = run_experiment(cfg, tmp_path / "a")
        second = run_experiment(cfg, tmp_path / "b")
        for p1, p2 in zip(first.seed_csvs, second.seed_csvs):
            assert p1.read_bytes() == p2.read_bytes()
        assert (first.aggregate_csv.read_bytes()
                == second.aggregate_csv.read_bytes())

    def test_numeric_abort_flags_final_row(self, tmp_path, monkeypatch):
        # inject a non-finite loss on the third step; the run must flush a
        # flagged final row and re-raise
        from centerlab import harness as H

        original = H.Trainer.train_step

        def poisoned(self, idx, rng):
            if self.state.step == 2:
                raise NumericAbort("non-finite loss injected for test")
            return original(self, idx, rng)

        monkeypatch.setattr(H.Trainer, "train_step", poisoned)
        cfg = tiny_config()
        with pytest.raises(NumericAbort):
            run_experiment(cfg, tmp_path)
        text = (tmp_path / "tiny" / "seed0.csv").read_text().splitlines()
        last = text[-1].split(",")
        assert last[1] == "-1"
        assert last[3] == "nan"

    def test_tick_callback_sees_every_tick(self, tmp_path):
        cfg = tiny_config()
        seen = []
        run_experiment(cfg, tmp_path,
                       tick_callback=lambda tr, ep, rep, emb: seen.append((tr.seed, ep)))
        assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_reimport_frees_previous_modules():
    # a process that re-imports centerlab (a benchmark, a notebook reload)
    # must not keep the previous import's classes alive
    script = textwrap.dedent("""
        import gc, importlib, sys, weakref
        def fresh():
            for name in [m for m in sys.modules if m.split(".")[0] == "centerlab"]:
                del sys.modules[name]
            gc.collect()
            return importlib.import_module("centerlab")
        old = [weakref.ref(getattr(fresh().diagnostics, n))
               for n in ("CollapseReport", "KnnResult", "CenterEstimate")]
        fresh()
        gc.collect()
        print(sum(r() is not None for r in old))
        """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "0"


class TestRegistry:
    def test_names_stable(self):
        assert experiment_names() == sorted(experiment_names())
        assert "s21-collapse-grid" in experiment_names()

    def test_all_registered_configs_validate(self):
        for name in experiment_names():
            for label, cfg in named_experiment(name):
                cfg.validate()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_experiment("does-not-exist")


class TestCompareRuns:
    def _write(self, path, rows):
        path.write_text("epoch,step,loss\n"
                        + "\n".join(",".join(map(str, r)) for r in rows) + "\n")

    def test_final_stat_gt(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a, [(0, 0, 1.0), (1, 3, 0.9)])
        self._write(b, [(0, 0, 1.0), (1, 3, 0.5)])
        res = compare_runs({"claims": [{"name": "a-beats-b", "file_a": a,
                                       "file_b": b, "column": "loss",
                                       "stat": "final", "op": "gt",
                                       "margin": 0.3}]})
        assert res == [{"name": "a-beats-b", "a": 0.9, "b": 0.5, "op": "gt",
                        "margin": 0.3, "passed": True}]

    def test_cadence_mismatch_rejected(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a, [(0, 0, 1.0), (1, 3, 0.9)])
        self._write(b, [(0, 0, 1.0), (2, 6, 0.5)])
        with pytest.raises(ComparisonError, match="cadence"):
            compare_runs({"claims": [{"name": "x", "file_a": a, "file_b": b,
                                      "column": "loss", "stat": "final",
                                      "op": "gt"}]})

    def test_missing_fields_and_columns(self, tmp_path):
        a = tmp_path / "a.csv"
        self._write(a, [(0, 0, 1.0)])
        with pytest.raises(ComparisonError, match="missing"):
            compare_runs({"claims": [{"name": "x"}]})
        with pytest.raises(ComparisonError, match="accuracy"):
            compare_runs({"claims": [{"name": "x", "file_a": a, "file_b": a,
                                      "column": "accuracy", "stat": "final",
                                      "op": "ge"}]})

    def test_empty_claims_rejected(self):
        with pytest.raises(ComparisonError):
            compare_runs({"claims": []})


class TestCli:
    def _config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "cli-tiny",
            "dataset": {"kind": "blobs", "n_per_class": 10},
            "optimizer": {"lr": 0.1, "epochs": 1, "batch_size": 15},
            "loss": {"kind": "invariance"},
            "num_seeds": 1,
            "record_wall_time": False,
        }))
        return path

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == experiment_names()

    def test_run_writes_metrics(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        code = cli_main(["--out-dir", str(tmp_path / "runs"), "run", str(cfg)])
        assert code == 0
        assert (tmp_path / "runs" / "cli-tiny" / "seed0.csv").exists()

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"loss": {"kind": "vicreg"}}))
        assert cli_main(["run", str(path)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert cli_main(["run", "/nonexistent.json"]) == 2

    def test_named_with_override(self, tmp_path, capsys):
        code = cli_main(["--out-dir", str(tmp_path), "--quiet",
                         "named", "fig7-byol-momentum",
                         "--override", "optimizer.epochs=1",
                         "--override", "num_seeds=1",
                         "--override", "dataset.n_per_class=10",
                         "--override", "optimizer.batch_size=15"])
        assert code == 0
        assert (tmp_path / "fig7-byol-momentum" / "byol-momentum-0.5"
                / "seed0.csv").exists()

    @pytest.mark.parametrize("override", [
        "optimizer.batch_size=0",
        "augmentation.views=0",
        "augmentation.sigma=-0.1",
        "diagnostics.knn_k=0",
        "diagnostics.knn_k=300",  # the pool is 3 x 100 blobs
        "dataset.n_per_class=0",
        # rejected by a constructor that validate() runs in the field's section
        "loss.temperature=0",
        "loss.sinkhorn_iters=0",
        "loss.kind=vicreg",
        "dataset.sigma=-1",
        "dataset.noise=-1",
        "dataset.kind=foo",
        "augmentation.kind=foo",
        "optimizer.batch_mode=x",
        "encoder.dims=[2]",
    ])
    def test_named_invalid_override_exits_2(self, tmp_path, capsys, override):
        code = cli_main(["--out-dir", str(tmp_path), "--quiet",
                         "named", "fig3-simple-vs-simsiam", "--override", override])
        assert code == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    # bad configs that used to pass validate() and crash with a traceback
    # during training (or, for the wrong types, inside validate() itself)
    @pytest.mark.parametrize("overrides, field", [
        # 3 x 67 = 201 points in batches of 50 leave a last batch of 1
        (["loss.kind=barlow_twins", "dataset.n_per_class=67"], "optimizer.batch_size"),
        (["loss.kind=infonce", "dataset.n_per_class=67"], "optimizer.batch_size"),
        (["optimizer.predictor_lr_multiplier=0"], "optimizer.predictor_lr_multiplier"),
        (["encoder.dims=[2,0,2]"], "encoder.dims"),
        (["encoder.activation=gelu"], "encoder.activation"),
        (["encoder.scheme=xavier"], "encoder.scheme"),
        (["diagnostics.center_hi=1.5"], "diagnostics.center_hi"),
        (["augmentation.kind=shifted"], "augmentation.shift"),
        (["loss.kind=swav", "loss.num_prototypes=1"], "loss.num_prototypes"),
        (['optimizer.epochs="3"'], "optimizer.epochs"),
        (["loss.kind=swav", "encoder.dims=[2,16,1]"], "encoder.dims"),
        (["encoder.predictor_hidden_multiple=-1"], "encoder.predictor_hidden_multiple"),
        (['encoder.dims=["2",16,2]'], "encoder.dims"),
        (['loss.margin="x"'], "loss.margin"),
        # used to be accepted silently
        (["augmentation.shift=1"], "augmentation.shift"),
        (["loss.use_predictor=0"], "loss.use_predictor"),
        (["record_wall_time=3"], "record_wall_time"),
        # used to crash with a TypeError
        (["name=null"], "name: expected str"),
        (["encoder.activation=[1]"], "encoder.activation"),
    ])
    def test_named_crashing_config_exits_2(self, tmp_path, capsys, overrides, field):
        argv = ["--out-dir", str(tmp_path), "--quiet", "named", "fig3-simple-vs-simsiam"]
        for override in overrides:
            argv += ["--override", override]
        assert cli_main(argv) == 2
        assert field in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_named_numeric_error_exits_3(self, tmp_path, capsys):
        # a huge step makes the learnable prototypes non-finite, so Sinkhorn
        # sees non-finite scores; the run aborts and flags its last row
        code = cli_main(["--out-dir", str(tmp_path), "--quiet",
                         "named", "swav-fixed-protos",
                         "--override", "optimizer.lr=1e200",
                         "--override", "num_seeds=1",
                         "--override", "optimizer.epochs=3"])
        assert code == 3
        assert "sinkhorn" in capsys.readouterr().err
        csv_path = tmp_path / "swav-fixed-protos" / "swav-learnable" / "seed0.csv"
        last = csv_path.read_text().splitlines()[-1].split(",")
        assert last[1] == "-1"
        assert last[3] == "nan"

    def test_numeric_abort_prints_one_stderr_line(self, tmp_path):
        # numpy's overflow warnings on the way to the abort stay off stderr
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-m", "centerlab.cli", "--out-dir", str(tmp_path), "--quiet",
             "named", "swav-fixed-protos", "--override", "optimizer.lr=1e200",
             "--override", "num_seeds=1", "--override", "optimizer.epochs=3"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 3
        lines = out.stderr.splitlines()
        assert len(lines) == 1, out.stderr
        assert lines[0].startswith("numeric abort (learnable): sinkhorn_knopp")

    def test_named_unknown_key_exits_2(self, capsys):
        assert cli_main(["named", "not-an-experiment"]) == 2

    def test_sweep_runs_grid(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        code = cli_main(["--out-dir", str(tmp_path / "runs"), "--quiet",
                         "sweep", str(cfg), "--grid", "optimizer.lr=0.1,0.2"])
        assert code == 0
        assert (tmp_path / "runs" / "cli-tiny-lr0.1" / "seed0.csv").exists()
        assert (tmp_path / "runs" / "cli-tiny-lr0.2" / "seed0.csv").exists()

    def test_compare_failure_exits_4(self, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        metrics.write_text("epoch,step,loss\n0,0,1.0\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"claims": [{
            "name": "self-gt-self", "file_a": str(metrics),
            "file_b": str(metrics), "column": "loss", "stat": "final",
            "op": "gt"}]}))
        assert cli_main(["compare", str(spec)]) == 4
        assert "FAIL" in capsys.readouterr().out
