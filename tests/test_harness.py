import copy
import csv
import dataclasses
import gc
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerlab import autodiff as ad
from centerlab import claims
from centerlab import harness as H
from centerlab.autodiff import ParameterError, Tensor
from centerlab.cli import main as cli_main
from centerlab.data import AugmentationModel, AugmentedSet, gen_blobs
from centerlab.diagnostics import knn_eval
from centerlab.claims import ComparisonError
from centerlab.harness import (METRICS_HEADER, ConfigError, DatasetSpec, EncoderSpec, ExperimentConfig,
                               NumericAbort, OptimizerSpec, Trainer, _OBJECTIVES,
                               _index_table, apply_overrides, run_experiment)
from centerlab.layers import EncoderStack
from centerlab.losses import LossConfig
from centerlab.registry import EXPERIMENTS, experiment_names, named_experiment
from oracles import (assert_bits_equal, composed_views, fold_case, loop_knn_winners,
                     stack_views)


def tiny_config(**loss_kw) -> ExperimentConfig:
    return ExperimentConfig(
        name="tiny",
        dataset=DatasetSpec(kind="blobs", n_per_class=10),
        loss=LossConfig(**loss_kw),
        optimizer=OptimizerSpec(lr=0.1, epochs=2, batch_mode="mini", batch_size=15),
        num_seeds=2,
        record_wall_time=False,
    )


def drawn_step(trainer, idx, rng) -> float:
    """One step on batch `idx`, its views drawn alone on `rng`."""
    return trainer.train_step(idx, trainer.draw_epoch([idx], rng)[0])


def seed_files(out, cfg, suffix=".csv") -> list[Path]:
    """The ``seed<s><suffix>`` file of each seed a run of `cfg` writes under `out`."""
    return [Path(out) / cfg.name / f"seed{s}{suffix}"
            for s in range(cfg.base_seed, cfg.base_seed + cfg.num_seeds)]


class TestConfigSchema:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_tuple_dims_validate_and_train(self, tmp_path):
        # a tuple fits `encoder.dims`' list[int]; init_encoder's size check
        # used to add a list to it and raise TypeError inside validate()
        as_list, as_tuple = tiny_config(), tiny_config()
        as_tuple.encoder = EncoderSpec(dims=(2, 16, 2))
        for cfg in (as_list, as_tuple):
            cfg.optimizer.epochs, cfg.num_seeds = 1, 1
        as_tuple.validate()
        result = run_experiment(as_tuple, tmp_path / "tuple")
        assert [row["epoch"] for row in result.rows_by_seed[0]] == [0, 1]
        run_experiment(as_list, tmp_path / "list")
        for name in ("seed0.csv", "seed0.npz", "config.json"):
            assert ((tmp_path / "tuple" / "tiny" / name).read_bytes()
                    == (tmp_path / "list" / "tiny" / name).read_bytes()), name

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
        moons = {"kind": "moons", "n_per_class": 10, "num_classes": 2}
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

    # a section that is not its dataclass once escaped build() as a TypeError
    # or an AttributeError
    @pytest.mark.parametrize("section, value", [
        ("dataset", None), ("augmentation", None), ("loss", None),
        ("dataset", EncoderSpec()),
    ], ids=["dataset-none", "augmentation-none", "loss-none", "dataset-wrong-section"])
    def test_section_of_the_wrong_type_is_a_config_error(self, section, value):
        with pytest.raises(ConfigError, match=rf"^{section}: expected"):
            ExperimentConfig(**{section: value}).validate()

    def test_only_the_seed_may_exceed_64_bits(self):
        # numpy sizes arrays with int64 but hashes a seed of any width
        ExperimentConfig.from_dict({"base_seed": 10**23, "num_seeds": 2**63 - 1})
        with pytest.raises(ConfigError, match=r"^num_seeds: .* does not fit in 64 bits"):
            ExperimentConfig.from_dict({"num_seeds": 2**63})

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

    def test_nan_fits_no_float_field(self):
        # nor does +-inf: None is the triplet's infinite margin
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError, match=r"^loss\.margin: expected float \| None"):
                apply_overrides(tiny_config(), {"loss.margin": value})
        assert apply_overrides(tiny_config(), {"loss.margin": None}).loss.margin is None

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
    "dataset.dim": _ints(1, 8),
    "dataset.num_classes": _ints(2, 3),
    "dataset.sigma": _floats(0.1, 2.0),
    "dataset.noise": _floats(0.0, 0.5),
    "augmentation.kind": _kinds("class", "centered", "shifted"),
    "augmentation.sigma": _floats(0.0, 0.5),
    "augmentation.shift": _lists(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
                                 st.lists(_ANY_FLOAT, max_size=4)),
    "augmentation.views": _ints(1, 4),
    "encoder.dims": _lists(st.lists(st.integers(1, 8), min_size=1, max_size=3)
                           .map(lambda rest: [2] + rest),
                           st.lists(st.integers(-1, 8), max_size=4)),
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
        dataset=DatasetSpec(kind="blobs", n_per_class=10, dim=2),
        augmentation=AugmentationModel(views=2),
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
        first = drawn_step(trainer, idx, rng)
        assert np.isfinite(first)
        assert trainer.state.step == 1

    def test_post_step_hooks(self):
        # SwAV puts a trainable bank back on the sphere after the SGD step and
        # leaves a frozen one untouched; DINO folds the teacher mean into its center
        idx = np.arange(15)
        learnable = Trainer(tiny_config(kind="swav"), seed=0)
        before = learnable.state.prototypes.matrix.values.copy()
        drawn_step(learnable, idx, np.random.default_rng(0))
        after = learnable.state.prototypes.matrix.values
        assert not np.array_equal(after, before)
        np.testing.assert_allclose(np.linalg.norm(after, axis=1), 1.0, atol=1e-12)
        frozen = Trainer(tiny_config(kind="swav", prototypes_trainable=False), seed=0)
        before = frozen.state.prototypes.matrix.values.copy()
        drawn_step(frozen, idx, np.random.default_rng(0))
        np.testing.assert_array_equal(frozen.state.prototypes.matrix.values, before)
        assert frozen.state.prototypes.matrix.grad is None
        dino = Trainer(tiny_config(kind="dino"), seed=0)
        drawn_step(dino, idx, np.random.default_rng(0))
        assert np.any(dino.state.dino_center.center != 0.0)

    @pytest.mark.parametrize("kind", list(_OBJECTIVES))
    def test_a_step_leaves_no_reference_cycle(self, kind):
        # reference counting frees each step's graph: a node whose backward
        # held the node itself would leave a cycle per step for the garbage
        # collector, which cost 4 us of a 47 us collapse-mini step (2-vCPU Xeon)
        trainer = Trainer(tiny_config(kind=kind), seed=0)
        gc.collect()
        gc.disable()
        try:
            drawn_step(trainer, np.arange(15), np.random.default_rng(0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", list(_OBJECTIVES))
    def test_graph_size_of_a_step(self, monkeypatch, kind):
        # the loss, the encoder's one mlp node over the views and its four
        # parameters; Barlow Twins adds one batch norm node over both views,
        # SwAV the trainable bank, SimSiam and BYOL their predictor's mlp
        # node and its four parameters. Each loss body is one node.
        nodes = {"invariance": 6, "simple": 6, "dino": 6, "infonce": 6,
                 "triplet": 6, "swav": 7, "barlow_twins": 7, "simsiam": 11,
                 "byol": 11}[kind]
        losses = []

        def capture(loss):
            losses.append(loss)
            ad.backward(loss)

        monkeypatch.setattr(H, "backward", capture)
        trainer = Trainer(tiny_config(kind=kind), seed=0)
        drawn_step(trainer, np.arange(15), np.random.default_rng(0))
        root = losses[0]
        graph, stack = {id(root): root}, [root]
        while stack:  # the loss and every node behind it that requires a gradient
            for p in stack.pop()._parents:
                if p.requires_grad and id(p) not in graph:
                    graph[id(p)] = p
                    stack.append(p)
        assert len(graph) == nodes
        # the backward sweep visits the nodes that have parents, not the leaves
        order = ad._toposort(root)
        assert order[-1] is root
        assert {id(n) for n in order} == {i for i, n in graph.items() if n._parents}

    @pytest.mark.parametrize("kind", list(_OBJECTIVES))
    def test_one_student_forward_per_view(self, monkeypatch, kind):
        # the trainer embeds all views of a step in one call on their stack
        # and the losses take embeddings; counted on this encoder only, since
        # predictor heads are EncoderStacks
        trainer = Trainer(tiny_config(kind=kind), seed=0)
        encoder = trainer.state.encoder
        calls = []

        def counted(x, forward=encoder.forward):
            calls.append(x.shape)
            return forward(x)

        monkeypatch.setattr(encoder, "forward", counted)
        drawn_step(trainer, np.arange(15), np.random.default_rng(0))
        assert calls == [(3 if kind == "triplet" else 2, 15, 2)]

    def test_barlow_twins_batch_norms_both_views_in_one_call(self, monkeypatch):
        # through the harness module's name, which the benchmark wraps to time
        # batch norm; a step that bypassed it would drop that time silently
        calls = []

        def counted(x, **kw):
            calls.append(x.shape[0])
            return ad.batch_norm_cols(x, **kw)

        monkeypatch.setattr(H, "batch_norm_cols", counted)
        trainer = Trainer(tiny_config(kind="barlow_twins"), seed=0)
        rng = np.random.default_rng(0)
        drawn_step(trainer, np.arange(15), rng)
        drawn_step(trainer, np.arange(15, 30), rng)
        assert calls == [2, 2]

    @pytest.mark.parametrize("overrides", [
        *({"loss.kind": kind} for kind in _OBJECTIVES),
        {"loss.kind": "simsiam", "loss.use_predictor": False},
        {"loss.kind": "simsiam", "loss.use_stop_gradient": False},
        {"loss.kind": "simsiam", "loss.use_predictor": False,
         "loss.use_stop_gradient": False},
        {"loss.kind": "simsiam", "encoder.activation": "relu"},
    ], ids=lambda kw: "-".join(str(v) for v in kw.values()))
    def test_fused_forward_matches_composed(self, monkeypatch, overrides):
        # one mlp node over the stacked views must train exactly as one
        # matmul + add + activation and normalisation graph per view did
        cfg = apply_overrides(tiny_config(), overrides)
        stacks = []

        def state_after_three_steps():
            trainer = Trainer(cfg, seed=0)
            rng = np.random.default_rng(0)
            for idx in (np.arange(15), np.arange(15, 30), np.arange(30)):
                drawn_step(trainer, idx, rng)
            st = trainer.state
            arrays = [group.values for group in trainer.groups.values()]
            if st.twin is not None:
                arrays += [t.values for t in st.twin.shadow.weights + st.twin.shadow.biases]
            if st.dino_center is not None:
                arrays.append(st.dino_center.center)
            return arrays

        views_of = {}  # each returned stack node's composed view graphs

        def composed_forward(self, x):
            layers = self.weights, self.biases, self.activations, self.output_normalize
            if isinstance(x, np.ndarray):
                stacks.append(x.shape)
                outs = composed_views([Tensor(v) for v in x], *layers)
            else:  # a predictor on the student's stack node
                outs = composed_views(views_of[id(x)], *layers)
            node = stack_views(outs)
            views_of[id(node)] = outs
            return node

        fused = state_after_three_steps()
        monkeypatch.setattr(EncoderStack, "forward", composed_forward)
        composed = state_after_three_steps()
        # the student's stack took the composed path at every step
        assert len(stacks) == 3
        assert len(fused) == len(composed)
        for a, b in zip(fused, composed):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("loss_kw,heads", [
        ({"kind": "simsiam"}, ("encoder", "predictor")),
        ({"kind": "byol"}, ("encoder", "predictor")),
        ({"kind": "byol", "use_predictor": False}, ("encoder",)),
        ({"kind": "swav"}, ("encoder", "prototypes")),
        ({"kind": "swav", "prototypes_trainable": False}, ("encoder",)),
    ], ids=["simsiam", "byol", "byol-no-predictor", "swav", "swav-frozen"])
    def test_params_group_by_owning_head(self, tmp_path, loss_kw, heads):
        cfg = tiny_config(**loss_kw)
        cfg.optimizer.epochs, cfg.num_seeds = 1, 1
        trainer = run_experiment(cfg, tmp_path).trainers[0]
        assert list(trainer.groups) == list(heads)
        for head in heads:
            owner = getattr(trainer.state, head)
            if head == "prototypes":  # a trainable bank's matrix is its group
                assert owner.group is owner.matrix is trainer.groups[head]
            else:
                assert owner.group is trainer.groups[head]
                assert all(t.group is owner.group for t in owner.weights + owner.biases)
        if trainer.state.prototypes is not None and "prototypes" not in heads:
            assert trainer.state.prototypes.group is None
        # a checkpoint holds one flat float64 array per group, in group order
        with np.load(seed_files(tmp_path, cfg, ".npz")[0]) as ckpt:
            assert ckpt.files == list(heads)
            for head in heads:
                assert ckpt[head].dtype == np.float64
                assert_bits_equal(ckpt[head], trainer.groups[head].values)

    def test_predictor_multiplier_scales_only_the_predictor_step(self):
        idx = np.arange(15)
        moved = {}
        for mult in (0.5, 1.0):
            cfg = tiny_config(kind="simsiam")
            cfg.optimizer.predictor_lr_multiplier = mult
            trainer = Trainer(cfg, seed=0)
            before = {name: g.values.copy() for name, g in trainer.groups.items()}
            drawn_step(trainer, idx, np.random.default_rng(0))
            moved[mult] = {name: g.values - before[name]
                           for name, g in trainer.groups.items()}
        assert list(moved[0.5]) == list(moved[1.0]) == ["encoder", "predictor"]
        np.testing.assert_array_equal(moved[0.5]["encoder"], moved[1.0]["encoder"])
        np.testing.assert_allclose(moved[0.5]["predictor"], 0.5 * moved[1.0]["predictor"],
                                   rtol=1e-9, atol=1e-15)

    def test_partners_stay_within_group(self):
        trainer = index_trainer(tiny_config(), seed=0)
        idx = np.arange(trainer.augmented.n)
        _, partners = drawn_rows(trainer, [idx], np.random.default_rng(1))[0]
        np.testing.assert_array_equal(trainer.augmented.group[partners],
                                      trainer.augmented.group[idx])
        assert not np.any(partners == idx)

    def test_negatives_come_from_other_classes(self):
        trainer = index_trainer(tiny_config(kind="triplet"), seed=0)
        idx = np.arange(trainer.augmented.n)
        _, _, negs = drawn_rows(trainer, [idx], np.random.default_rng(2))[0]
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

    def test_diagnostics_tick_estimates_one_center(self, monkeypatch):
        # the verdict and the next tick's previous mean share one estimate
        from centerlab import diagnostics, harness

        calls = []

        def counted(emb, estimate_center=diagnostics.estimate_center):
            calls.append(emb)
            return estimate_center(emb)

        monkeypatch.setattr(diagnostics, "estimate_center", counted)
        monkeypatch.setattr(harness, "estimate_center", counted)
        trainer = Trainer(tiny_config(), seed=0)
        _, _, emb = trainer.diagnostics_tick(0)
        assert len(calls) == 1
        np.testing.assert_array_equal(trainer.prev_mean, emb.mean(axis=0))
        drawn_step(trainer, np.arange(15), np.random.default_rng(0))
        second, _, emb2 = trainer.diagnostics_tick(1)
        assert len(calls) == 2
        shift = emb2.mean(axis=0) - emb.mean(axis=0)
        assert second.delta_dist == float(shift @ shift) > 0.0

    def test_class_views_embed_once_per_knn_tick(self, monkeypatch):
        # class views are the base points, so a kNN tick reuses the pool's
        # embeddings; jittered views still embed the base points apart
        from centerlab import layers

        calls = []

        def counted(self, x, forward_array=layers.EncoderStack.forward_array):
            calls.append(x.shape)
            return forward_array(self, x)

        monkeypatch.setattr(layers.EncoderStack, "forward_array", counted)
        trainer = Trainer(tiny_config(), seed=0)
        _, knn, emb = trainer.diagnostics_tick(0)
        assert calls == [trainer.augmented.points.shape]
        base = trainer.state.encoder.forward_array(trainer.dataset.points)
        np.testing.assert_array_equal(base, emb)
        assert knn == knn_eval(base, trainer.dataset.labels, trainer.cfg.diagnostics.knn_k)
        calls.clear()
        jittered = Trainer(apply_overrides(tiny_config(), {
            "augmentation.kind": "centered", "augmentation.views": 2}), seed=0)
        jittered.diagnostics_tick(0)
        assert calls == [jittered.augmented.points.shape, jittered.dataset.points.shape]

    def test_knn_tick_with_a_nan_row_stays_leave_one_out(self, monkeypatch):
        # a NaN embedding must not turn the tick's kNN into a self-vote, and
        # counts as a miss; the embeddings are noise, so voting for itself
        # would lift the accuracy
        from centerlab import layers

        def one_nan_row(self, x):
            out = np.random.default_rng(0).standard_normal((x.shape[0], 2))
            out[3] = np.nan
            return out

        monkeypatch.setattr(layers.EncoderStack, "forward_array", one_nan_row)
        trainer = Trainer(tiny_config(), seed=0)
        with np.errstate(invalid="ignore"):
            _, knn, emb = trainer.diagnostics_tick(0)
            labels = trainer.dataset.labels
            winners = loop_knn_winners(emb, labels, emb, trainer.cfg.diagnostics.knn_k, True)
        assert np.isnan(emb[3]).all()
        # the loop's vote scores the NaN row by its own label
        assert winners[3] == labels[3]
        hits = (winners == labels) & np.isfinite(emb).all(axis=1)
        assert knn == np.count_nonzero(hits) / labels.shape[0] == 3 / 30

    def test_thin_folds_keep_seed_csvs(self, tmp_path, monkeypatch):
        # the full-batch s21 arm reduces and broadcasts (2 x 1000 x 2) and
        # (1000 x 2) arrays column by column, and sums (2 x 1000 x 8) ones
        # by einsum; with numpy's own sums and broadcasts in their place the
        # CSVs are the same bytes
        from centerlab import diagnostics

        cfg = registry_config("s21-collapse-grid", "full-centered", **{
            "optimizer.epochs": 3, "num_seeds": 2, "record_wall_time": False})
        folded = run_experiment(cfg, tmp_path / "folds")
        assert ad._thin(folded.trainers[cfg.base_seed].eval_embeddings())
        thin, long = set(), set()  # the answers the helpers were handed

        def plain_op(op, a, b, is_thin, out=None):
            thin.add(is_thin)
            return op(a, b, out=out)

        for module in (ad, diagnostics):
            monkeypatch.setattr(module, "_row_sum", lambda a, is_thin: (
                thin.add(is_thin), a.sum(axis=-1, keepdims=True))[1])
            monkeypatch.setattr(module, "_col_sum", lambda a, is_long, out=None: (
                long.add((is_long, a.shape[-1])), a.sum(axis=-2, keepdims=True, out=out))[1])
            monkeypatch.setattr(module, "_by_row", plain_op)
        monkeypatch.setattr(ad, "_by_col", plain_op)
        plain = run_experiment(cfg, tmp_path / "numpy")
        assert thin == {False, True}
        # every column sum, the 8-wide hidden bias gradient's too, is long
        assert long == {(True, 2), (True, 8)}
        for a, b in zip(seed_files(tmp_path / "folds", cfg),
                        seed_files(tmp_path / "numpy", cfg), strict=True):
            assert a.read_bytes() == b.read_bytes()

    def test_epoch_loss_is_np_mean(self, monkeypatch, tmp_path):
        # an epoch's loss is np.mean of its steps' losses, bit for bit: 1, 7,
        # 8, 9 and 20 steps (numpy sums 8+ values pairwise) of losses that
        # span 20 decades, so the order of the sum shows
        for losses in ([3.0], *(fold_case((n,), n).tolist() for n in (7, 8, 9, 20)),
                       [1.0, float("nan"), 2.0]):
            want = np.mean(losses)
            got = np.add.reduce(np.array(losses)) / len(losses)
            assert_bits_equal(got, want)
        # and the run ticks the mean of the losses its steps return
        steps = []
        train_step = Trainer.train_step
        monkeypatch.setattr(Trainer, "train_step", lambda self, idx, x: (
            steps.append(train_step(self, idx, x)), steps[-1])[1])
        cfg = apply_overrides(tiny_config(), {"optimizer.batch_size": 4, "num_seeds": 1})
        rows = run_experiment(cfg, tmp_path).rows_by_seed[cfg.base_seed]
        per_epoch = len(steps) // cfg.optimizer.epochs
        assert per_epoch == 8
        for row in rows[1:]:
            epoch = steps[(row["epoch"] - 1) * per_epoch:row["epoch"] * per_epoch]
            assert_bits_equal(row["loss"], np.mean(epoch))


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


def index_trainer(cfg, seed):
    """A trainer whose view pool holds each row's own index, so a drawn slab
    reads back as the rows it gathered."""
    trainer = Trainer(cfg, seed=seed)
    aug = trainer.augmented
    trainer.augmented = dataclasses.replace(
        aug, points=np.arange(aug.n, dtype=np.float64)[:, None])
    return trainer


def drawn_rows(trainer, batches, rng):
    """The (V, m) rows `draw_epoch` returns for each batch, in batch order."""
    slabs = trainer.draw_epoch(batches, rng)
    assert len(slabs) == len(batches)
    return [x[..., 0].astype(np.int64) for x in slabs]


def loop_rows(trainer, batches, rng):
    """Each batch's (V, m) rows as the per-item loops draw them, batch after
    batch: anchors, partners, then any negatives."""
    aug = trainer.augmented
    members = {int(g): np.flatnonzero(aug.group == g) for g in np.unique(aug.group)}
    label_members = {int(lab): np.flatnonzero(aug.labels == lab)
                     for lab in np.unique(aug.labels)}
    out = []
    for idx in batches:
        views = [idx, loop_partners(trainer, members, idx, rng)]
        if trainer.objective.negatives:
            views.append(loop_negatives(trainer, label_members, idx, rng))
        out.append(np.stack(views))
    return out


def assert_in_loop_state(trainer, batches, rng, ref):
    """After drawing `batches`, `rng` is where the loops left `ref`: exactly
    with negatives, otherwise past k <= max(batch, pool // 4) more partner
    draws, those read ahead and left unread."""
    most = 0 if trainer.objective.negatives else max(
        *(idx.shape[0] for idx in batches), trainer.augmented.n // 4)
    ahead = copy.deepcopy(ref)
    for _ in range(most):
        if ahead.bit_generator.state == rng.bit_generator.state:
            break
        ahead.integers(trainer.group_table.shape[1])
    assert ahead.bit_generator.state == rng.bit_generator.state


class TestPairSamplersMatchLoop:
    """`draw_epoch` returns the loops' rows, epoch after epoch, as
    `run_experiment` calls it, and leaves each epoch's pair generator in the
    loops' state or just past it (`assert_in_loop_state`)."""

    @staticmethod
    def _assert_same_batches(trainer, batches, key):
        """`batches` drawn on a generator seeded `key` give the loops' rows."""
        rng, ref = np.random.default_rng(key), np.random.default_rng(key)
        for got, want in zip(drawn_rows(trainer, batches, rng),
                             loop_rows(trainer, batches, ref), strict=True):
            np.testing.assert_array_equal(got, want)
        assert_in_loop_state(trainer, batches, rng, ref)

    def _assert_same_stream(self, cfg, epochs, seed=3):
        """Compare over `epochs` epochs; returns the batch sizes seen."""
        trainer = index_trainer(cfg, seed)
        batch_sizes = set()
        for epoch in range(1, epochs + 1):
            batches = trainer.sampler.epoch_batches(trainer.augmented.n, epoch)
            self._assert_same_batches(trainer, batches, [seed + 40_000, epoch])
            batch_sizes.update(idx.shape[0] for idx in batches)
        return batch_sizes

    def test_s21_full_batch(self):
        cfg = registry_config("s21-collapse-grid", "full-shifted")
        assert self._assert_same_stream(cfg, epochs=4) == {1000}

    def test_s21_mini_batch(self):
        cfg = registry_config("s21-collapse-grid", "mini-centered")
        assert self._assert_same_stream(cfg, epochs=3) == {50}

    # a full batch is the pool in order, and only that one batch reads the
    # positions and offsets built for it: every other batch of every row
    # must still draw the loops' rows
    def test_one_mini_batch_of_every_row(self):
        cfg = registry_config("s21-collapse-grid", "mini-centered",
                              **{"optimizer.batch_size": 1000})
        trainer = index_trainer(cfg, seed=3)
        (idx,) = trainer.sampler.epoch_batches(trainer.augmented.n, 1)
        assert idx.shape[0] == trainer.augmented.n
        assert np.any(idx != np.arange(idx.shape[0]))  # a permutation, not the order
        assert self._assert_same_stream(cfg, epochs=3) == {1000}

    @pytest.mark.parametrize("batch", [
        lambda n: np.arange(n)[::-1],
        lambda n: np.arange(n)[::-1].copy(),
        lambda n: np.arange(n - 1),
        lambda n: np.arange(1, n),
        lambda n: np.arange(n, dtype=np.int32),
    ], ids=["reversed-view", "reversed", "prefix", "suffix", "int32"])
    def test_full_trainer_handed_other_rows(self, batch):
        cfg = registry_config("s21-collapse-grid", "full-centered")
        trainer = index_trainer(cfg, seed=3)
        assert trainer.cfg.optimizer.batch_mode == "full"
        for epoch in (1, 2):
            self._assert_same_batches(trainer, [batch(trainer.augmented.n)],
                                      [40_003, epoch])

    @pytest.mark.parametrize("variant", ["simple-blobs", "simple-moons"])
    def test_class_augmentation(self, variant):
        cfg = registry_config("fig3-simple-vs-simsiam", variant)
        self._assert_same_stream(cfg, epochs=5)

    def test_single_view_draws_nothing(self):
        cfg = registry_config("s21-collapse-grid", "mini-centered",
                              **{"augmentation.views": 1})
        trainer = index_trainer(cfg, seed=0)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        idx = np.arange(trainer.augmented.n)
        np.testing.assert_array_equal(drawn_rows(trainer, [idx], rng)[0], [idx, idx])
        assert rng.bit_generator.state == before
        self._assert_same_stream(cfg, epochs=3)

    def test_fresh_generator_reads_no_carry(self):
        # each epoch's generator is new: its draw reads none of the draws an
        # earlier draw left unread, even on a generator seeded alike
        cfg = registry_config("s21-collapse-grid", "mini-centered")
        trainer = index_trainer(cfg, seed=3)
        batches = trainer.sampler.epoch_batches(trainer.augmented.n, 1)[:2]
        for key in ([40_003, 1], [40_003, 2], [40_003, 1]):
            rng, ref = np.random.default_rng(key), np.random.default_rng(key)
            for got, want in zip(drawn_rows(trainer, batches, rng),
                                 loop_rows(trainer, batches, ref), strict=True):
                np.testing.assert_array_equal(got, want)
            # the draw left draws unread
            assert rng.bit_generator.state != ref.bit_generator.state
            assert_in_loop_state(trainer, batches, rng, ref)

    def test_trailing_short_batch(self):
        cfg = apply_overrides(tiny_config(), {"dataset.n_per_class": 11})
        assert self._assert_same_stream(cfg, epochs=6) == {15, 3}

    @pytest.mark.parametrize("dataset", ["blobs", "moons"])
    def test_triplet_negatives(self, dataset):
        cfg = registry_config("fig3-simple-vs-simsiam", f"simple-{dataset}",
                              **{"loss.kind": "triplet"})
        self._assert_same_stream(cfg, epochs=5)

    def test_two_classes_draw_no_class(self):
        # with one other class the class draw has high 1 and consumes nothing
        cfg = apply_overrides(tiny_config(kind="triplet"),
                              {"dataset.num_classes": 2})
        self._assert_same_stream(cfg, epochs=4)


class TestEpochDraw:
    """`run_experiment` draws each epoch's views before its first step and
    hands each step its batch's slab; a step reads no generator."""

    @staticmethod
    def step_inputs(trainer, monkeypatch):
        """The arrays the student encoder runs on, appended step by step."""
        seen = []
        forward = trainer.state.encoder.forward

        def recording(x):
            seen.append(x)
            return forward(x)

        monkeypatch.setattr(trainer.state.encoder, "forward", recording)
        return seen

    @pytest.mark.parametrize("kind", list(_OBJECTIVES))
    def test_drawn_views_match_per_step_draws(self, monkeypatch, kind):
        # the loops draw step by step; 33 rows in batches of 15 leave a
        # trailing batch of 3
        cfg = apply_overrides(tiny_config(kind=kind), {"dataset.n_per_class": 11})
        trainer = Trainer(cfg, seed=3)
        seen = self.step_inputs(trainer, monkeypatch)
        sizes = set()
        for epoch in (1, 2):
            batches = trainer.sampler.epoch_batches(trainer.augmented.n, epoch)
            rng, ref = (np.random.default_rng([40_003, epoch]) for _ in range(2))
            slabs = trainer.draw_epoch(batches, rng)
            drawn = rng.bit_generator.state
            for idx, slab, rows in zip(batches, slabs, loop_rows(trainer, batches, ref),
                                       strict=True):
                sizes.add(idx.shape[0])
                trainer.train_step(idx, slab)
                x = seen.pop()
                np.testing.assert_array_equal(x, trainer.augmented.points.take(rows, axis=0))
                # consecutive rows of the epoch's one gather, not a copy
                assert x.base is not None and x.flags.c_contiguous
            assert rng.bit_generator.state == drawn  # the steps drew nothing
            assert_in_loop_state(trainer, batches, rng, ref)
        assert sizes == {15, 3}

    @pytest.mark.parametrize("kind", list(_OBJECTIVES))
    def test_full_batch_slab(self, monkeypatch, kind):
        # the pool in order fills its one slab in place
        cfg = apply_overrides(tiny_config(kind=kind), {"optimizer.batch_mode": "full"})
        trainer = Trainer(cfg, seed=3)
        batches = trainer.sampler.epoch_batches(trainer.augmented.n, 1)
        rng, ref = (np.random.default_rng([40_003, 1]) for _ in range(2))
        (x,) = trainer.draw_epoch(batches, rng)
        (rows,) = loop_rows(trainer, batches, ref)
        assert x.tobytes() == trainer.augmented.points.take(rows, axis=0).tobytes()
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert_in_loop_state(trainer, batches, rng, ref)
        seen = self.step_inputs(trainer, monkeypatch)
        trainer.train_step(batches[0], x)
        assert len(seen) == 1 and seen[0] is x

    @pytest.mark.parametrize("kind", list(_OBJECTIVES))
    def test_step_trains_on_the_views_it_is_handed(self, monkeypatch, kind):
        # the student encoder runs once, on the very slab handed in, and
        # equal slabs train equal parameters: the step holds no draw of its own
        first, second = (Trainer(tiny_config(kind=kind), seed=0) for _ in range(2))
        idx = np.arange(15)
        x = first.draw_epoch([idx], np.random.default_rng(4))[0]
        seen = self.step_inputs(first, monkeypatch)
        first.train_step(idx, x)
        assert len(seen) == 1 and seen[0] is x
        second.train_step(idx, x.copy())
        assert list(first.groups) == list(second.groups)
        for a, b in zip(first.groups.values(), second.groups.values(), strict=True):
            assert a.values.tobytes() == b.values.tobytes()


class TestIndexTables:
    def test_every_registry_variant_is_rectangular(self):
        for name in experiment_names():
            for label, cfg in named_experiment(name):
                trainer = Trainer(cfg, seed=0)
                aug = trainer.augmented
                table, row = trainer.group_table, trainer.group_row
                # every row index appears once, in the table row of its group
                np.testing.assert_array_equal(np.sort(table.ravel()), np.arange(aug.n))
                assert np.all(row[table] == np.arange(table.shape[0])[:, None])
                assert np.all(aug.group[table] == aug.group[table[:, :1]]), (name, label)
                # class views are grouped by class, so negatives read the same table
                if cfg.augmentation.kind == "class":
                    np.testing.assert_array_equal(aug.group, aug.labels)
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
        def ragged_augment(ds, model, seed=0):
            group = np.arange(ds.n) // 4
            group[-1] = group[0]
            return AugmentedSet(ds.points, ds.labels, group)

        monkeypatch.setattr(H, "augment", ragged_augment)
        with pytest.raises(ParameterError, match="group sizes differ"):
            Trainer(tiny_config(), seed=0)


def loop_aggregate(rows_by_seed, path):
    """aggregate.csv cell by cell: the mean and std of each tick's values."""
    seeds = sorted(rows_by_seed)
    header = ["epoch", "step"]
    for col in H._METRIC_COLS:
        header += [f"{col}_mean", f"{col}_std"]
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(rows_by_seed[seeds[0]]):
            cells = [str(row["epoch"]), str(row["step"])]
            for col in H._METRIC_COLS:
                vals = [rows_by_seed[s][i][col] for s in seeds
                        if rows_by_seed[s][i][col] is not None]
                if vals:
                    cells += [H._fmt(float(np.mean(vals))), H._fmt(float(np.std(vals)))]
                else:
                    cells += ["", ""]
            fh.write(",".join(cells) + "\n")


def cancelling_rows(num_seeds, classes):
    """Per-seed metric rows for 30 ticks, half of whose values are +-1e16.
    Empty cells: the epoch-0 loss, kNN off its cadence or on one-class data."""
    rng = np.random.default_rng(num_seeds)

    def value():
        if rng.random() < 0.5:
            return float(rng.choice([1e16, -1e16]))
        return float(rng.standard_normal())

    rows_by_seed = {}
    for seed in range(num_seeds):
        rows = []
        for epoch in range(30):
            row = {"seed": seed, "epoch": epoch, "step": 6 * epoch,
                   "wall_time_ms": None}
            for col in H._METRIC_COLS:
                row[col] = value()
            if epoch == 0:
                row["loss"] = None
            if epoch % 5 or classes == 1:
                row["knn_accuracy"] = None
            rows.append(row)
        rows_by_seed[seed] = rows
    return rows_by_seed


class TestRunExperiment:
    def test_outputs_and_schema(self, tmp_path):
        cfg = tiny_config()
        result = run_experiment(cfg, tmp_path)
        assert sorted(result.rows_by_seed) == sorted(result.trainers) == [0, 1]
        assert sorted(p.name for p in (tmp_path / "tiny").iterdir()) == [
            "aggregate.csv", "config.json", "seed0.csv", "seed0.npz", "seed1.csv", "seed1.npz"]
        text = seed_files(tmp_path, cfg)[0].read_text().splitlines()
        assert text[0] == METRICS_HEADER
        # epochs=2 -> init tick + 2 epoch ticks
        assert len(text) == 1 + 3
        assert result.aggregate_csv == tmp_path / "tiny" / "aggregate.csv"
        for rows in result.rows_by_seed.values():
            assert all(list(row) == METRICS_HEADER.split(",") for row in rows)
        agg = result.aggregate_csv.read_text().splitlines()
        aggregated = ("loss", "center_norm", "mean_residual_norm", "std_mean",
                      "delta_dist", "knn_accuracy")
        assert agg[0].split(",") == ["epoch", "step"] + [
            f"{c}_{stat}" for c in aggregated for stat in ("mean", "std")]

    @pytest.mark.parametrize("classes", [3, 1])
    @pytest.mark.parametrize("num_seeds", [1, 2, 5, 9])
    def test_aggregate_matches_per_cell_loop(self, tmp_path, num_seeds, classes):
        # half the values are +-1e16, so partial sums cancel and another
        # summation order shows in 12 digits (over axis 0 of a (seeds x
        # ticks) array, from 9 seeds on)
        rows_by_seed = cancelling_rows(num_seeds, classes)
        H._aggregate(rows_by_seed, tmp_path / "got.csv")
        loop_aggregate(rows_by_seed, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("num_seeds", range(1, 10))
    def test_aggregate_bit_equal_to_numpy(self, tmp_path, monkeypatch, num_seeds):
        # with repr for _fmt every cell shows all 17 digits, so each tick's
        # mean and std must be np.mean and np.std of its seed list bit for bit
        monkeypatch.setattr(H, "_fmt", repr)
        rows_by_seed = cancelling_rows(num_seeds, 3)
        H._aggregate(rows_by_seed, tmp_path / "got.csv")
        loop_aggregate(rows_by_seed, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config()
        first = run_experiment(cfg, tmp_path / "a")
        second = run_experiment(cfg, tmp_path / "b")
        for p1, p2 in zip(seed_files(tmp_path / "a", cfg), seed_files(tmp_path / "b", cfg),
                          strict=True):
            assert p1.read_bytes() == p2.read_bytes()
        assert (first.aggregate_csv.read_bytes()
                == second.aggregate_csv.read_bytes())

    def test_numeric_abort_flags_final_row(self, tmp_path, monkeypatch):
        # inject a non-finite loss on the third step; the run must flush a
        # flagged final row and re-raise
        original = H.Trainer.train_step

        def poisoned(self, idx, x):
            if self.state.step == 2:
                raise NumericAbort("non-finite loss injected for test")
            return original(self, idx, x)

        monkeypatch.setattr(H.Trainer, "train_step", poisoned)
        cfg = tiny_config()
        with pytest.raises(NumericAbort):
            run_experiment(cfg, tmp_path)
        text = (tmp_path / "tiny" / "seed0.csv").read_text().splitlines()
        last = text[-1].split(",")
        assert last[1] == "-1"
        assert last[3] == "nan"
        # an aborted run returns no rows; every row it flushed, the abort row
        # among them, holds exactly the columns
        rows = list(csv.DictReader(text))
        assert all(list(row) == METRICS_HEADER.split(",") and None not in row.values()
                   for row in rows)

    def test_config_json_is_what_run_takes(self, tmp_path, capsys):
        cfg = tiny_config()
        first = run_experiment(cfg, tmp_path / "a")
        config_json = tmp_path / "a" / "tiny" / "config.json"
        assert ExperimentConfig.from_file(config_json) == cfg
        assert cli_main(["--out-dir", str(tmp_path / "b"), "run", str(config_json)]) == 0
        for path in seed_files(tmp_path / "a", cfg) + [first.aggregate_csv]:
            assert path.read_bytes() == (tmp_path / "b" / "tiny" / path.name).read_bytes()

    def test_invalid_config_writes_nothing(self, tmp_path):
        # no separate validation: the first trainer's build raises
        cfg = tiny_config()
        cfg.optimizer.epochs = -1
        with pytest.raises(ConfigError, match="optimizer.epochs"):
            run_experiment(cfg, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_tick_callback_sees_every_tick(self, tmp_path):
        cfg = tiny_config()
        seen = []
        run_experiment(cfg, tmp_path,
                       tick_callback=lambda tr, ep, rep, emb: seen.append((tr.seed, ep)))
        assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def full_batch_config(variant: str, **overrides) -> ExperimentConfig:
    """s21's full-batch arm, or fig3's blobs config trained full-batch as loss
    kind `variant`: 150 class views, so each step's (V, 150, 2) stack is thin
    and long while the (150, 2) pool forward is neither."""
    if variant == "s21":
        cfg = registry_config("s21-collapse-grid", "full-centered")
    else:
        cfg = registry_config("fig3-simple-vs-simsiam", "simple-blobs", **{
            "loss.kind": variant, "dataset.n_per_class": 50,
            "optimizer.batch_mode": "full", "diagnostics.knn_cadence": 2})
    return apply_overrides(cfg, {"num_seeds": 1, "record_wall_time": False, **overrides})


class TestFullBatchTicks:
    """A full-batch tick between two epochs reads view 0 of the next step's
    student forward instead of running its own pool forward."""

    @pytest.mark.parametrize("variant, epochs", [
        ("s21", 4), ("s21", 5), ("s21", 0), ("s21", 1),
        ("triplet", 3), ("barlow_twins", 3), ("dino", 4), ("simsiam", 3),
    ])
    def test_tick_is_the_pool_forward(self, tmp_path, monkeypatch, variant, epochs):
        from centerlab import layers

        cfg = full_batch_config(variant, **{"optimizer.epochs": epochs})
        ticks, pool_forwards, in_callback = [], [], []
        forward_array = layers.EncoderStack.forward_array

        def counted(self, x):
            if not in_callback and x is trainer.augmented.points:
                pool_forwards.append(len(ticks))  # the tick it serves
            return forward_array(self, x)

        def callback(tr, epoch, report, emb):
            in_callback.append(True)
            assert emb.tobytes() == tr.eval_embeddings().tobytes()
            in_callback.clear()
            ticks.append((epoch, tr.state.step, emb.flags.writeable))

        trainer = Trainer(cfg, cfg.base_seed)
        monkeypatch.setattr(layers.EncoderStack, "forward_array", counted)
        rows = H._run_one_seed(trainer, tmp_path / "seed.csv", callback)
        assert ticks == [(0, 0, True)] + [(e, e, e == epochs) for e in range(1, epochs + 1)]
        assert [row["epoch"] for row in rows] == list(range(epochs + 1))
        # only epoch 0 and the last epoch run their own pool forward
        assert pool_forwards == ([0, len(ticks) - 1] if epochs else [0])
        assert trainer.waiting_tick is None

    def test_rows_are_timed_at_their_epochs_end(self, tmp_path, monkeypatch):
        # the clock reads the number of steps begun, so a row timed inside
        # the next step's forward would read one epoch late
        original = H.Trainer.train_step
        begun = [0]

        def counting(self, idx, x):
            begun[0] += 1
            return original(self, idx, x)

        monkeypatch.setattr(H.Trainer, "train_step", counting)
        monkeypatch.setattr(H, "time", types.SimpleNamespace(monotonic=lambda: float(begun[0])))
        cfg = full_batch_config("s21", **{"optimizer.epochs": 5, "record_wall_time": True})
        rows = run_experiment(cfg, tmp_path).rows_by_seed[cfg.base_seed]
        assert [(row["epoch"], row["wall_time_ms"]) for row in rows] == [
            (e, 1000 * e) for e in range(6)]

    def test_a_run_leaves_no_reference_cycle(self, tmp_path):
        # a waiting tick refers to its trainer; none is left once the run ends
        cfg = full_batch_config("s21", **{"optimizer.epochs": 3})
        result = run_experiment(cfg, tmp_path)
        ref = weakref.ref(result.trainers[cfg.base_seed])
        assert ref().waiting_tick is None
        gc.collect()
        gc.disable()
        try:
            del result
            assert ref() is None
        finally:
            gc.enable()

    def test_abort_while_a_tick_waits(self, tmp_path, monkeypatch):
        # the third step aborts before its forward, so epoch 2's tick is
        # still waiting: it runs its own pool forward, then the abort row
        cfg = full_batch_config("s21", **{"optimizer.epochs": 4})
        run_experiment(cfg, tmp_path / "clean")
        clean = seed_files(tmp_path / "clean", cfg)[0].read_text().splitlines()
        original = H.Trainer.train_step
        trainers = []

        def poisoned(self, idx, x):
            trainers.append(self)
            if self.state.step == 2:
                raise NumericAbort("non-finite loss injected for test")
            return original(self, idx, x)

        monkeypatch.setattr(H.Trainer, "train_step", poisoned)
        with pytest.raises(NumericAbort):
            run_experiment(cfg, tmp_path / "poisoned")
        text = seed_files(tmp_path / "poisoned", cfg)[0].read_text().splitlines()
        assert len(text) == 5
        assert text[:4] == clean[:4]  # header, epochs 0, 1 and 2
        abort = text[4].split(",")
        assert abort[:4] == [str(cfg.base_seed), "-1", "2", "nan"]
        assert trainers[-1].waiting_tick is None


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
               for n in ("CollapseReport", "CenterEstimate")]
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

    def test_every_experiment_has_claims(self):
        assert all(record.claims for record in EXPERIMENTS.values())

    # ac05 and ac13 read the collapse thresholds from the run's config.json
    def test_collapse_thresholds(self):
        for name in experiment_names():
            for _, cfg in named_experiment(name):
                assert (cfg.diagnostics.center_hi, cfg.diagnostics.std_lo) == (0.8, 0.05)

    def test_collapse_claims_read_the_run_config(self, s21_one_epoch, tmp_path):
        run_dir = shutil.copytree(s21_one_epoch, tmp_path / "s21")
        for path in run_dir.glob("*/config.json"):
            raw = json.loads(path.read_text())
            raw["diagnostics"]["center_hi"] = 0.125
            path.write_text(json.dumps(raw))
        assert {v.right for v in claims.ac05(run_dir)
                if v.claim.endswith("center_norm > center_hi")} == {0.125}

    def test_ac06_needs_a_shift(self, s21_one_epoch, tmp_path):
        run_dir = shutil.copytree(s21_one_epoch, tmp_path / "s21")
        path = run_dir / "collapse-mini-shifted" / "config.json"
        raw = json.loads(path.read_text())
        raw["augmentation"].update(kind="centered", shift=None)
        path.write_text(json.dumps(raw))
        with pytest.raises(ComparisonError, match="no augmentation.shift"):
            claims.ac06(run_dir)

    def test_claims_read_seeds_in_numeric_order(self, tmp_path):
        run_experiment(apply_overrides(tiny_config(), {"base_seed": 9}), tmp_path)
        assert claims._Variant(tmp_path, "tiny").seeds == [9, 10]

    def test_claims_judge_the_seeds_config_names(self, tmp_path):
        # a second run into the same directory leaves the first run's seed
        # files; claims judge the seeds of config.json, as aggregate.csv does
        key = "swav-fixed-protos"
        for argv in (["named", key, "--override", "num_seeds=3"],
                     ["--seed", "10", "named", key, "--override", "num_seeds=2"]):
            assert cli_main(["--out-dir", str(tmp_path), "--quiet", *argv,
                             "--override", "optimizer.epochs=2"]) == 0
        for _, cfg in named_experiment(key):
            folder = tmp_path / key / cfg.name
            assert (folder / "seed2.csv").exists()
            var = claims._Variant(tmp_path / key, cfg.name)
            assert var.seeds == [10, 11]
            with open(folder / "aggregate.csv", newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            assert float(last["center_norm_mean"]) == pytest.approx(
                var.column("center_norm")[:, -1].mean(), rel=1e-11)



def registry_digest_script() -> types.ModuleType:
    """scripts/registry_digest.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "registry_digest.py"
    spec = importlib.util.spec_from_file_location("registry_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the pinned lines that cover the pair stream: a full batch and mini batches
# whose read-ahead draws carry (s21), and negatives drawn after each batch's
# partners (triplet); a byte moved in the stream moves one of them
@pytest.mark.parametrize("key", ["s21-collapse-grid", "triplet-blobs"])
def test_registry_digest_pins_the_pair_stream(tmp_path, key):
    script = registry_digest_script()
    digest = script.key_digest(tmp_path, key, script.digest_runs()[key],
                               script.BASE_SEED, script.NUM_SEEDS)
    assert script.digest_line(key, *digest) in script.EXPECTED.read_text().splitlines()


def test_registry_digest_expects_every_record():
    # a record added without its pinned line would fail only when the script runs
    script = registry_digest_script()
    lines = script.EXPECTED.read_text().splitlines()
    assert lines[-2].endswith(f"seed CSVs, base seed {script.BASE_SEED}, "
                              f"{script.NUM_SEEDS} seeds per variant")
    assert lines[-1].endswith(" aggregate CSVs")
    named = [line.split(", ", 1)[1].split(" (")[0] for line in lines[:-2]]
    assert named == [*experiment_names(), *script.LOSS_SWAPS]


class TestCheckpoints:
    @pytest.mark.parametrize("loss_kw, groups", [
        ({"kind": "simsiam"}, ["encoder", "predictor"]),
        ({"kind": "swav"}, ["encoder", "prototypes"]),
        ({"kind": "swav", "prototypes_trainable": False}, ["encoder"]),
        ({"kind": "byol", "use_predictor": False}, ["encoder"]),
    ], ids=["simsiam", "swav", "swav-frozen", "byol-no-predictor"])
    def test_round_trip_through_claims(self, tmp_path, loss_kw, groups):
        # claims rebuild each seed's trainer and load its checkpoint in
        # place: every group comes back bit for bit, and every parameter
        # still reads its group's memory
        cfg = tiny_config(**loss_kw)
        cfg.optimizer.epochs = 1
        trained = run_experiment(cfg, tmp_path).trainers
        loaded = claims._Variant(tmp_path, cfg.name).trainers()
        assert list(loaded) == list(trained) == [0, 1]
        for seed, trainer in loaded.items():
            want = trained[seed]
            assert list(trainer.groups) == list(want.groups) == groups
            fresh = Trainer(cfg, seed).groups["encoder"].values
            assert fresh.tobytes() != want.groups["encoder"].values.tobytes()
            for name, group in trainer.groups.items():
                assert group.values.tobytes() == want.groups[name].values.tobytes(), name
                head = getattr(trainer.state, name)
                for t in [head.matrix] if name == "prototypes" else head.weights + head.biases:
                    assert np.shares_memory(t.values, group.values), name
            if want.state.prototypes is not None:  # a frozen bank is rebuilt from the seed
                assert (trainer.state.prototypes.matrix.values.tobytes()
                        == want.state.prototypes.matrix.values.tobytes())
            assert trainer.eval_embeddings().tobytes() == want.eval_embeddings().tobytes()


def _npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# the first CSV ac05 reads and the first checkpoint ac06 loads
_CSV = "runs/s21-collapse-grid/collapse-mini-centered/seed0.csv"
_CKPT = "runs/s21-collapse-grid/collapse-mini-shifted/seed0.npz"
_CFG = "runs/s21-collapse-grid/collapse-full-centered/config.json"


@pytest.fixture(scope="module")
def s21_one_epoch(tmp_path_factory):
    """The s21 run directory after one epoch on one seed."""
    root = tmp_path_factory.mktemp("s21")
    for _, cfg in named_experiment("s21-collapse-grid"):
        cfg = apply_overrides(cfg, {"num_seeds": 1, "optimizer.epochs": 1})
        run_experiment(cfg, root / "s21-collapse-grid")
    return root / "s21-collapse-grid"


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
        assert out == [f"{key}  {EXPERIMENTS[key].question}" for key in experiment_names()]

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

    def test_named_builds_each_config_twice(self, tmp_path, monkeypatch):
        # per variant: the validation in apply_overrides and the one trainer;
        # neither the CLI nor run_experiment builds anything of its own
        from centerlab import data

        calls = []

        def counted(*args, gen_blobs=data.gen_blobs, **kwargs):
            calls.append(args)
            return gen_blobs(*args, **kwargs)

        monkeypatch.setattr(data, "gen_blobs", counted)
        assert cli_main(["--out-dir", str(tmp_path), "--quiet",
                         "named", "s24-predictor-lr",
                         "--override", "num_seeds=1",
                         "--override", "optimizer.epochs=1"]) == 0
        assert len(calls) == 6

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
        "diagnostics.knn_cadence=0",
        # fig3's blobs take four classes, its moons two or three
        "dataset.num_classes=4",
    ])
    def test_named_invalid_override_exits_2(self, tmp_path, capsys, override):
        code = cli_main(["--out-dir", str(tmp_path), "--quiet",
                         "named", "fig3-simple-vs-simsiam", "--override", override])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {override.split('=')[0]}")
        assert not any(tmp_path.iterdir())

    # bad configs that used to pass validate() and crash with a traceback
    # during training (or, for the wrong types, inside validate() itself)
    @pytest.mark.parametrize("overrides, field", [
        # 3 x 67 = 201 points in batches of 50 leave a last batch of 1
        pytest.param(["loss.kind=barlow_twins", "dataset.n_per_class=67"],
                     "optimizer.batch_size", id="barlow-twins-batch-of-1"),
        pytest.param(["loss.kind=infonce", "dataset.n_per_class=67"],
                     "optimizer.batch_size", id="infonce-batch-of-1"),
        pytest.param(["optimizer.predictor_lr_multiplier=0"],
                     "optimizer.predictor_lr_multiplier", id="zero-predictor-lr-multiplier"),
        pytest.param(["encoder.dims=[2,0,2]"], "encoder.dims", id="zero-width-layer"),
        pytest.param(["encoder.activation=gelu"], "encoder.activation",
                     id="unknown-activation"),
        pytest.param(["encoder.scheme=xavier"], "encoder.scheme", id="unknown-init-scheme"),
        pytest.param(["diagnostics.center_hi=1.5"], "diagnostics.center_hi",
                     id="center-hi-above-1"),
        pytest.param(["diagnostics.std_lo=0"], "diagnostics.std_lo", id="std-lo-zero"),
        pytest.param(["augmentation.kind=shifted"], "augmentation.shift",
                     id="shifted-without-shift"),
        pytest.param(["loss.kind=swav", "loss.num_prototypes=1"], "loss.num_prototypes",
                     id="one-prototype"),
        pytest.param(['optimizer.epochs="3"'], "optimizer.epochs", id="string-epochs"),
        pytest.param(["loss.kind=swav", "encoder.dims=[2,16,1]"], "encoder.dims",
                     id="swav-output-dim-1"),
        pytest.param(["encoder.predictor_hidden_multiple=-1"],
                     "encoder.predictor_hidden_multiple",
                     id="negative-predictor-hidden-multiple"),
        pytest.param(['encoder.dims=["2",16,2]'], "encoder.dims", id="string-dim"),
        pytest.param(['loss.margin="x"'], "loss.margin", id="string-margin"),
        # used to be accepted silently
        pytest.param(["augmentation.shift=1"], "augmentation.shift", id="scalar-shift"),
        pytest.param(["augmentation.shift=[1,0]"], "augmentation.shift",
                     id="class-views-ignore-shift"),
        pytest.param(["loss.use_predictor=0"], "loss.use_predictor", id="int-use-predictor"),
        pytest.param(["record_wall_time=3"], "record_wall_time", id="int-record-wall-time"),
        # used to crash with a TypeError
        pytest.param(["name=null"], "name: expected str", id="null-name"),
        pytest.param(["encoder.activation=[1]"], "encoder.activation", id="list-activation"),
        # NaN fits no float field: it used to run (a triplet margin of NaN
        # as the infinite-margin mode) or to abort with exit 3
        pytest.param(["loss.kind=triplet", "loss.margin=NaN"], "loss.margin",
                     id="nan-margin"),
        pytest.param(["augmentation.sigma=NaN"], "augmentation.sigma",
                     id="nan-augmentation-sigma"),
        pytest.param(["loss.temperature=NaN"], "loss.temperature", id="nan-temperature"),
        pytest.param(["optimizer.lr=NaN"], "optimizer.lr", id="nan-lr"),
        pytest.param(["dataset.sigma=NaN"], "dataset.sigma", id="nan-dataset-sigma"),
        pytest.param(["augmentation.kind=shifted", "augmentation.shift=[NaN,0]"],
                     "augmentation.shift", id="nan-shift"),
        # a margin of -inf used to run as the infinite-margin mode
        pytest.param(["loss.kind=triplet", "loss.margin=-Infinity"], "loss.margin",
                     id="minus-infinity-margin"),
        # validate() is each loss and head hyperparameter's only check
        pytest.param(["loss.kind=infonce", "loss.temperature=0"], "loss.temperature",
                     id="infonce-zero-temperature"),
        pytest.param(["loss.kind=dino", "loss.teacher_temperature=0"],
                     "loss.teacher_temperature", id="dino-zero-teacher-temperature"),
        pytest.param(["loss.kind=swav", "loss.sinkhorn_iters=0"], "loss.sinkhorn_iters",
                     id="swav-zero-sinkhorn-iters"),
        pytest.param(["loss.kind=byol", "loss.ema_momentum=1"], "loss.ema_momentum",
                     id="byol-momentum-one"),
        # sizes of 2**63 or more used to crash numpy with a ValueError
        pytest.param([f"dataset.n_per_class={10**19}"], "dataset.n_per_class",
                     id="n-per-class-past-int64"),
        pytest.param([f"encoder.dims=[2,{10**19},2]"], "encoder.dims",
                     id="layer-width-past-int64"),
        pytest.param(["loss.kind=swav", f"loss.num_prototypes={10**19}"],
                     "loss.num_prototypes", id="prototypes-past-int64"),
        # an integer past the largest float used to pass validate() and crash
        # the first step; one past Python's digit limit crashed the CLI's parser
        pytest.param(["optimizer.lr=1" + "0" * 400], "optimizer.lr", id="lr-past-float"),
        pytest.param(["dataset.sigma=1" + "0" * 400], "dataset.sigma",
                     id="sigma-past-float"),
        pytest.param(["optimizer.lr=1" + "0" * 5000], "optimizer.lr",
                     id="lr-past-digit-limit"),
        # JSON reads 1e400 as +inf, which used to pass validate() and end in
        # a numeric abort (exit 3) after the first variant's run directory
        pytest.param(["optimizer.lr=1e400"], "optimizer.lr", id="infinite-lr"),
        pytest.param(["dataset.sigma=1e400"], "dataset.sigma", id="infinite-dataset-sigma"),
        pytest.param(["dataset.noise=1e400"], "dataset.noise", id="infinite-moons-noise"),
        # None is the one spelling of the triplet's infinite margin
        pytest.param(["loss.kind=triplet", "loss.margin=1e400"], "loss.margin",
                     id="infinite-margin"),
        pytest.param(["loss.kind=triplet", "loss.margin=Infinity"], "loss.margin",
                     id="plus-infinity-margin"),
        # sizes below 2**63 whose arrays numpy refuses used to crash with a
        # ValueError, the predictor's only after a run directory was written
        pytest.param([f"dataset.n_per_class={2**62}"], "dataset.n_per_class",
                     id="n-per-class-past-numpy"),
        pytest.param([f"encoder.predictor_hidden_multiple={2**62}"],
                     "encoder.predictor_hidden_multiple", id="predictor-past-numpy"),
        pytest.param([f"encoder.dims=[2,{2**62},2]"], "encoder.dims",
                     id="layer-width-past-numpy"),
        pytest.param(["loss.kind=swav", f"loss.num_prototypes={2**60}"],
                     "loss.num_prototypes", id="prototypes-past-numpy"),
        pytest.param([f"dataset.num_classes={2**62}"], f"in {2**62} classes",
                     id="classes-past-numpy"),
        pytest.param(["dataset.kind=gaussian", f"dataset.n_per_class={2**62}"],
                     "dataset.n_per_class", id="gaussian-points-past-numpy"),
        # np.repeat's count overflowed: the process died of a segmentation fault
        pytest.param(["augmentation.kind=centered", f"augmentation.views={2**62}"],
                     "augmentation.views", id="views-past-numpy"),
    ])
    def test_named_crashing_config_exits_2(self, tmp_path, capsys, overrides, field):
        argv = ["--out-dir", str(tmp_path), "--quiet", "named", "fig3-simple-vs-simsiam"]
        for override in overrides:
            argv += ["--override", override]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0], err
        assert not any(tmp_path.iterdir())

    def test_null_margin_runs(self, tmp_path, capsys):
        # None is the triplet's infinite-margin mode
        argv = ["--out-dir", str(tmp_path), "--quiet", "named", "fig3-simple-vs-simsiam"]
        for override in ("loss.kind=triplet", "loss.margin=null", "num_seeds=1",
                         "optimizer.epochs=1"):
            argv += ["--override", override]
        assert cli_main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # numpy raises a MemoryError for a kNN distance matrix it cannot
        # allocate (100,000 points need 74.5 GiB)
        def no_memory(emb, labels, k):
            n = emb.shape[0]
            raise MemoryError(f"Unable to allocate an array with shape ({n}, {n})")

        monkeypatch.setattr(H, "knn_eval", no_memory)
        argv = ["--out-dir", str(tmp_path), "--quiet", "named", "fig3-simple-vs-simsiam",
                "--override", "num_seeds=1", "--override", "optimizer.epochs=1"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("out of memory: Unable to allocate"), err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_named_numeric_error_exits_3(self, tmp_path, capsys):
        # each run aborts with one stderr line and flags its last row
        for out, argv, message, run_dir in [
            # a huge step makes the learnable prototypes non-finite, so
            # Sinkhorn sees non-finite scores
            ("swav", ["named", "swav-fixed-protos", "--override", "optimizer.lr=1e200",
                      "--override", "num_seeds=1", "--override", "optimizer.epochs=3"],
             "sinkhorn", "swav-fixed-protos/swav-learnable"),
            # the student softmax underflows to 0 and DINO takes log(0) of
            # it, although the loss is finite
            ("dino", ["named", "fig3-simple-vs-simsiam", "--override", "loss.kind=dino",
                      "--override", "loss.student_temperature=0.001",
                      "--override", "num_seeds=1", "--override", "optimizer.epochs=2"],
             "non-finite loss at step 0", "fig3-simple-vs-simsiam/simple-blobs"),
        ]:
            code = cli_main(["--out-dir", str(tmp_path / out), "--quiet", *argv])
            assert code == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and message in err[0], err
            csv_path = tmp_path / out / run_dir / "seed0.csv"
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

    # both once ran every config and left only the last one's outputs
    @pytest.mark.parametrize("argv, run_dir", [
        (["sweep", "cfg.json", "--grid", "optimizer.lr=0.1,0.10"], ["cli-tiny-lr0.1"]),
        (["sweep", "cfg.json", "--grid", "encoder.dims=[2,16,2],[2, 16, 2]"],
         ["cli-tiny-dims2x16x2"]),
        (["named", "s24-predictor-lr", "--override", "name=x",
          "--override", "num_seeds=1", "--override", "optimizer.epochs=1"],
         ["s24-predictor-lr", "x"]),
    ], ids=["sweep-equal-values", "sweep-equal-lists", "named-one-name"])
    def test_configs_sharing_a_run_directory_exit_2(self, tmp_path, monkeypatch,
                                                     capsys, argv, run_dir):
        monkeypatch.chdir(tmp_path)
        self._config_file(tmp_path)
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config error: {os.path.join('runs', *run_dir)}: two configs would "
            "write this run directory"]
        assert not (tmp_path / "runs").exists()

    # the run directory is <out-dir>/<name>: each of these names would put
    # it outside --out-dir or make it --out-dir itself
    @pytest.mark.parametrize("name, grid", [
        ("<abs>", None), ("", None), (".", None), ("..", None), ("../up", None),
        ("a\0b", None), ("cli-tiny", "name=a/b"),
    ], ids=["absolute", "empty", "dot", "dot-dot", "separator", "nul-byte",
            "sweep-suffix"])
    def test_name_must_be_one_path_component(self, tmp_path, monkeypatch, capsys,
                                             name, grid):
        monkeypatch.chdir(tmp_path)
        if name == "<abs>":
            name = str(tmp_path / "elsewhere")
        cfg = self._config_file(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "name": name}))
        argv = ["run", str(cfg)] if grid is None else ["sweep", str(cfg), "--grid", grid]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error: name: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_named_unknown_key_exits_2(self, capsys):
        assert cli_main(["named", "not-an-experiment"]) == 2

    def test_sweep_runs_grid(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        code = cli_main(["--out-dir", str(tmp_path / "runs"), "--quiet",
                         "sweep", str(cfg), "--grid", "optimizer.lr=0.1,0.2"])
        assert code == 0
        assert (tmp_path / "runs" / "cli-tiny-lr0.1" / "seed0.csv").exists()
        assert (tmp_path / "runs" / "cli-tiny-lr0.2" / "seed0.csv").exists()

    def test_repeated_grid_key_exits_2(self, tmp_path, monkeypatch, capsys):
        # the grid point would keep only the last axis's value and write one run
        monkeypatch.chdir(tmp_path)
        self._config_file(tmp_path)
        assert cli_main(["sweep", "cfg.json", "--grid", "optimizer.lr=0.1",
                         "--grid", "optimizer.lr=0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: grid key optimizer.lr is named by two --grid axes"]
        assert not (tmp_path / "runs").exists()

    # an axis splits only at the commas outside brackets, so each list value
    # reaches the config whole
    # a list value names its run by its items, with no space, bracket or comma
    @pytest.mark.parametrize("axis, values, labels", [
        ("encoder.dims=[2,16,2],[2,32,2]", [[2, 16, 2], [2, 32, 2]],
         ["2x16x2", "2x32x2"]),
        ("encoder.activation=relu,tanh", ["relu", "tanh"], ["relu", "tanh"]),
        ("optimizer.lr=0.1,0.2", [0.1, 0.2], ["0.1", "0.2"]),
    ], ids=["list", "text", "number"])
    def test_grid_axis_values(self, tmp_path, axis, values, labels):
        runs = tmp_path / "runs"
        assert cli_main(["--out-dir", str(runs), "--quiet", "sweep",
                         str(self._config_file(tmp_path)), "--grid", axis]) == 0
        section, key = axis.partition("=")[0].split(".")
        run_dirs = sorted(runs.iterdir())
        assert [d.name for d in run_dirs] == [f"cli-tiny-{key}{v}" for v in labels]
        assert [json.loads((d / "config.json").read_text())[section][key]
                for d in run_dirs] == values

    # --seed beats the config's base_seed; a sweep names each grid point
    # after the last part of each axis key, in axis order, and a base_seed
    # axis beats --seed
    @pytest.mark.parametrize("command, seed_csvs", [
        (["run"], {"cli-tiny/seed4.csv"}),
        (["sweep", "--grid", "optimizer.lr=0.1,0.2"],
         {"cli-tiny-lr0.1/seed4.csv", "cli-tiny-lr0.2/seed4.csv"}),
        (["sweep", "--grid", "base_seed=1,2", "--grid", "optimizer.epochs=0"],
         {"cli-tiny-base_seed1-epochs0/seed1.csv",
          "cli-tiny-base_seed2-epochs0/seed2.csv"}),
    ], ids=["run", "sweep", "sweep-base_seed-axis"])
    def test_seed_option(self, tmp_path, command, seed_csvs):
        argv = ["--out-dir", str(tmp_path / "runs"), "--quiet", "--seed", "4",
                command[0], str(self._config_file(tmp_path)), *command[1:]]
        assert cli_main(argv) == 0
        written = {p.relative_to(tmp_path / "runs").as_posix()
                   for p in (tmp_path / "runs").rglob("seed*.csv")}
        assert written == seed_csvs

    def test_seed_option_beats_named_base_seed_override(self, tmp_path):
        key = "fig3-simple-vs-simsiam"
        assert cli_main(["--out-dir", str(tmp_path), "--quiet", "--seed", "4",
                         "named", key, "--override", "base_seed=3",
                         "--override", "num_seeds=1",
                         "--override", "optimizer.epochs=0"]) == 0
        written = {p.relative_to(tmp_path).as_posix()
                   for p in tmp_path.rglob("seed*.csv")}
        assert written == {f"{key}/{cfg.name}/seed4.csv"
                           for _, cfg in named_experiment(key)}

    def test_claims_failure_exits_4(self, s21_one_epoch, capsys):
        # one epoch collapses nothing
        assert cli_main(["--out-dir", str(s21_one_epoch.parent), "claims",
                         "s21-collapse-grid"]) == 4
        assert "  FAIL  " in capsys.readouterr().out

    def test_claims_missing_seed_csv_exits_2(self, s21_one_epoch, tmp_path, capsys):
        # a seed that config.json names but whose CSV is gone is a missing file
        run_dir = shutil.copytree(s21_one_epoch, tmp_path / s21_one_epoch.name)
        (run_dir / "collapse-mini-centered" / "seed0.csv").unlink()
        assert cli_main(["--out-dir", str(tmp_path), "claims", "s21-collapse-grid"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "collapse-mini-centered/seed0.csv" in err[0]

    def test_claims_name_a_run_that_stopped_before_its_first_tick(self, tmp_path,
                                                                monkeypatch, capsys):
        # a run that dies before its epoch-0 tick leaves its seed CSV's header
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(H, "knn_eval", out_of_memory)
        key = "fig3-simple-vs-simsiam"
        assert cli_main(["--out-dir", str(tmp_path), "--quiet", "named", key,
                         "--override", "optimizer.epochs=1",
                         "--override", "num_seeds=1"]) == 2
        capsys.readouterr()
        assert cli_main(["--out-dir", str(tmp_path), "claims", key]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith("/seed0.csv: header only: the run stopped before its first tick")

    def test_claims_name_an_aborted_run(self, tmp_path, capsys):
        # a rerun that aborts rewrites its seed CSV to end in the abort row
        # (epoch -1); claims used to judge that row as a finished run's last
        key = "fig3-simple-vs-simsiam"
        assert cli_main(["--out-dir", str(tmp_path), "--quiet", "named", key,
                         "--override", "optimizer.epochs=1",
                         "--override", "num_seeds=1"]) == 0
        folder = tmp_path / key / "simple-blobs"
        raw = json.loads((folder / "config.json").read_text())
        raw["loss"].update(kind="dino", student_temperature=0.001)
        (tmp_path / "abort.json").write_text(json.dumps(raw))
        assert cli_main(["--out-dir", str(tmp_path / key), "--quiet", "run",
                         str(tmp_path / "abort.json")]) == 3
        last = (folder / "seed0.csv").read_text().splitlines()[-1].split(",")
        assert last[1] == "-1"
        capsys.readouterr()
        assert cli_main(["--out-dir", str(tmp_path), "claims", key]) == 4
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1
        assert err.rstrip().endswith(f"simple-blobs/seed0.csv: the run aborted at step {last[2]}")

    def test_claims_without_key_skips_missing_experiments(self, s21_one_epoch,
                                                          tmp_path, capsys):
        shutil.copytree(s21_one_epoch, tmp_path / s21_one_epoch.name)
        assert cli_main(["--out-dir", str(tmp_path), "claims"]) == 4
        out, err = capsys.readouterr()
        judged = {line.split()[0] for line in out.splitlines()}
        assert judged == {"s21-collapse-grid"}
        assert len(err.splitlines()) == 1
        skipped = [key for key in experiment_names() if key != "s21-collapse-grid"]
        assert err.rstrip().endswith(f"for {', '.join(skipped)}; skipped")
        assert cli_main(["--out-dir", str(tmp_path / "empty"), "claims"]) == 2
        assert "skipped" in capsys.readouterr().err

    def test_claims_named_keys_need_their_run_directories(self, s21_one_epoch,
                                                         tmp_path, capsys):
        # in the no-key path's words; a named key is not skipped, so none is judged
        shutil.copytree(s21_one_epoch, tmp_path / s21_one_epoch.name)
        assert cli_main(["--out-dir", str(tmp_path), "claims", "s21-collapse-grid",
                         "bt-no-decor", "swav-fixed-protos"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"no run directory under {tmp_path} for bt-no-decor, swav-fixed-protos\n"

    # each input once printed a traceback and exited 1 (compare's spec and
    # metrics files) or would (a claim's run directory); the last field is a
    # part of the one stderr line: the path, field or file at fault
    @pytest.mark.parametrize("argv, files, code, names", [
        # a checkpoint of per-parameter arrays, as runs wrote before each
        # group became one array, lacks its group
        (["claims", "s21-collapse-grid"], {_CKPT: _npz(**{"encoder.w0": np.zeros((3, 8)),
                                                          "encoder.b0": np.zeros((1, 8))})},
         4, "seed0.npz: checkpoint lacks group encoder"),
        # s21's [3, 8, 2] encoder holds 3*8 + 8 + 8*2 + 2 = 50 parameters
        (["claims", "s21-collapse-grid"], {_CKPT: _npz(encoder=np.zeros(49))}, 4,
         "seed0.npz: checkpoint group encoder has shape (49,), not (50,)"),
        (["claims", "s21-collapse-grid"], {_CKPT: b"not an archive"}, 4, "seed0.npz: "),
        (["claims", "s21-collapse-grid"], {_CSV: f"{METRICS_HEADER}\n0,0,0,,abc,0,0,0,,\n".encode()}, 4,
         "seed0.csv: could not convert"),
        (["claims", "s21-collapse-grid"], {_CSV: f"{METRICS_HEADER}\n0,0,0,,\xff,0,0,0,,\n".encode("latin-1")},
         4, "seed0.csv: 'utf-8' codec"),
        (["claims", "s21-collapse-grid"], {_CSV: f"{METRICS_HEADER}\n".encode()}, 4,
         "seed0.csv: header only: the run stopped before its first tick"),
        # a NumericAbort's row has epoch -1
        (["claims", "s21-collapse-grid"],
         {_CSV: f"{METRICS_HEADER}\n0,0,0,,0.1,0,0,0,,\n0,-1,7,nan,0.3,0,0,0,,\n".encode()}, 4,
         "seed0.csv: the run aborted at step 7"),
        # rows of one width other than the header's: each used to fail on a
        # column index past the row, with a traceback
        (["claims", "s21-collapse-grid"], {_CSV: f"{METRICS_HEADER}\n0,0\n0,1\n".encode()}, 4,
         "seed0.csv: rows of 2 cells, not 10"),
        # a named key without its run directory used to name the first
        # variant's config.json, as if the directory held a broken run
        (["--out-dir", "elsewhere", "claims", "s21-collapse-grid"], {}, 2,
         "no run directory under elsewhere for s21-collapse-grid\n"),
        # a key the config no longer has used to exit 2 naming no file
        (["claims", "s21-collapse-grid"], {_CFG: b'{"diagnostics": {"cadence": 1}}'}, 4,
         "collapse-full-centered/config.json: unknown config key(s): diagnostics.cadence"),
        (["claims", "s21-collapse-grid"], {_CFG: b"{not json"}, 4,
         "collapse-full-centered/config.json: invalid JSON"),
        (["claims", "s21-collapse-grid", "no-such-key"], {}, 2,
         "unknown experiment(s) no-such-key"),
        # a repeated key used to print its verdicts twice and exit 0
        (["claims", "bt-no-decor", "s21-collapse-grid", "bt-no-decor"], {}, 2,
         "experiment(s) bt-no-decor named more than once"),
        (["run", "spec.json"], {"spec.json": b'{"name": "\xff"}'}, 2,
         "spec.json: invalid JSON"),
        (["run", "."], {}, 2, "Is a directory"),
        (["--out-dir", "m.csv", "named", "fig3-simple-vs-simsiam"], {"m.csv": b""}, 2,
         "Not a directory"),
    ], ids=["checkpoint-missing-parameter", "checkpoint-wrong-shape",
            "checkpoint-not-archive", "cell-not-number", "metrics-not-utf8", "metrics-header-only",
            "metrics-aborted-run", "metrics-short-rows",
            "missing-run-directory", "config-removed-key", "config-not-json", "unknown-key",
            "repeated-key", "config-not-utf8", "run-directory",
            "out-dir-is-file"])
    def test_bad_input_prints_one_line(self, s21_one_epoch, tmp_path, argv, files,
                                       code, names):
        shutil.copytree(s21_one_epoch, tmp_path / "runs" / s21_one_epoch.name)
        for rel, content in files.items():
            (tmp_path / rel).write_bytes(content)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-m", "centerlab.cli", *argv],
                             cwd=tmp_path, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, env=env)
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1, out.stderr
        assert out.stderr.count(names) == 1, out.stderr
