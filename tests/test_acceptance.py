"""End-to-end acceptance suite: one test (one pass/fail line) per criterion.

Registry experiments are executed once per session and shared across tests;
per-tick invariants (second-moment identity, post-batch-norm centering) are
collected through the run callback while the experiments execute.
"""

from unittest import mock

import time

import numpy as np
import pytest

from centerlab import losses as L
from centerlab.autodiff import Tensor, backward, batch_norm_cols, grad_check
from centerlab.diagnostics import (angle_to_direction, estimate_center,
                                   second_moment_gap)
from centerlab.harness import _OBJECTIVES, named_experiment, run_experiment
from centerlab.layers import (EncoderStack, EmaTwin, init_encoder,
                              init_predictor, init_prototypes)
from oracles import logsumexp_rows

# ---------------------------------------------------------------------------
# shared experiment runs
# ---------------------------------------------------------------------------


class GroupRun:
    """All variants of one registry experiment plus per-tick collectibles."""

    def __init__(self, results, elapsed_s, max_moment_gap, max_bn_center):
        self.results = results            # label -> RunResult
        self.elapsed_s = elapsed_s
        self.max_moment_gap = max_moment_gap
        self.max_bn_center = max_bn_center  # label -> worst post-BN center norm

    def finals(self, label, column):
        rows = self.results[label].rows_by_seed
        return np.array([rows[s][-1][column] for s in sorted(rows)])

    def seed_mean_curve(self, label, column):
        rows = self.results[label].rows_by_seed
        return np.array([[r[column] for r in rows[s]] for s in sorted(rows)]
                        ).mean(axis=0)


ALL_GROUPS = (
    "fig3-simple-vs-simsiam",
    "fig4-simsiam-ablations",
    "fig7-byol-momentum",
    "s21-collapse-grid",
    "s22-dino-centering",
    "s24-predictor-lr",
    "bt-no-decor",
    "swav-fixed-protos",
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-runs")
    cache: dict[str, GroupRun] = {}

    def get(key: str) -> GroupRun:
        if key not in cache:
            results, bn_centers = {}, {}
            gaps = [0.0]
            start = time.monotonic()
            for label, cfg in named_experiment(key):
                cfg.record_wall_time = False
                worst_bn = 0.0

                def tick(trainer, epoch, report, emb):
                    nonlocal worst_bn
                    gaps.append(second_moment_gap(emb, estimate_center(emb)))
                    bn = batch_norm_cols(Tensor(emb), eps=1e-12).values
                    worst_bn = max(worst_bn,
                                   float(np.linalg.norm(bn.mean(axis=0))))

                results[label] = run_experiment(cfg, root / key,
                                                tick_callback=tick)
                bn_centers[label] = worst_bn
            cache[key] = GroupRun(results, time.monotonic() - start,
                                  max(gaps), bn_centers)
        return cache[key]

    return get


# ---------------------------------------------------------------------------
# 1. gradient suite over the full loss catalog
# ---------------------------------------------------------------------------

_D, _BATCH = 8, 16


def _unit_rows(x):
    return x / np.sqrt((x * x).sum(axis=1, keepdims=True))


def _linear_stack(weight: Tensor):
    bias = Tensor(np.zeros((1, weight.shape[1])))
    return EncoderStack([weight], [bias], ["identity"])


def _grad_instance(kind: str, rng: np.random.Generator):
    """A scalar loss as a function of one probe tensor, plus the probe.

    Embedding-level losses differentiate w.r.t. one view; architectural
    losses differentiate w.r.t. a weight matrix on the student/online side so
    that stop-gradiented targets stay constant under the finite-difference
    perturbation.
    """
    x_a = rng.standard_normal((_BATCH, _D))
    x_b = rng.standard_normal((_BATCH, _D))
    z_w = Tensor(rng.standard_normal((_BATCH, _D)))
    probe_emb = Tensor(rng.standard_normal((_BATCH, _D)), requires_grad=True)
    probe_w = Tensor(rng.standard_normal((_D, _D)) / np.sqrt(_D),
                     requires_grad=True)
    seed = int(rng.integers(1 << 30))

    def views(enc):
        return enc.forward(np.stack([x_a, x_b]))

    if kind == "invariance":
        return (lambda t: L.invariance_loss(t, z_w)), probe_emb
    if kind == "simple":
        return (lambda t: L.simple_objective(t, z_w)), probe_emb
    if kind == "triplet":
        # unit rows bound the squared distances by 4, so margin 5 keeps the
        # hinge strictly active and the loss smooth at the probe
        z_p = Tensor(_unit_rows(rng.standard_normal((_BATCH, _D))))
        z_n = Tensor(_unit_rows(rng.standard_normal((_BATCH, _D))))
        anchor = Tensor(_unit_rows(rng.standard_normal((_BATCH, _D))),
                        requires_grad=True)
        return (lambda t: L.triplet_loss(t, z_p, z_n, margin=5.0)), anchor
    if kind == "infonce":
        z_p = Tensor(rng.standard_normal((_BATCH, _D)))
        return (lambda t: L.infonce_loss(t, z_p, temperature=0.1)), probe_emb
    if kind == "barlow_twins":
        zb = batch_norm_cols(Tensor(rng.standard_normal((_BATCH, _D))))
        return (lambda t: L.barlow_twins_loss(
            batch_norm_cols(t), zb)), probe_emb
    if kind == "simsiam":
        enc = init_encoder([_D, _D], seed)
        return (lambda t: L.simsiam_loss(
            *views(enc), _linear_stack(t))), probe_w
    if kind == "byol":
        pred = init_predictor(_D, seed)
        twin = EmaTwin(init_encoder([_D, _D], seed + 1), 0.9)
        t_a, t_b = twin.forward_array(x_a), twin.forward_array(x_b)
        return (lambda t: L.byol_loss(
            *views(_linear_stack(t)), pred, t_a, t_b)), probe_w
    if kind == "dino":
        twin = EmaTwin(init_encoder([_D, _D], seed + 1), 0.9)
        center = L.DinoCenterState(0.1 * rng.standard_normal(_D), 0.9)
        t_a, t_b = twin.forward_array(x_a), twin.forward_array(x_b)
        return (lambda t: L.dino_loss(
            *views(_linear_stack(t)), t_a, t_b, center)[0]), probe_w
    if kind == "swav":
        protos = init_prototypes(6, _D, seed, trainable=False)
        base_enc = _linear_stack(Tensor(probe_w.values.copy()))
        q_a = L.sinkhorn_knopp(base_enc.forward_array(x_a) @ protos.matrix.values.T)
        q_b = L.sinkhorn_knopp(base_enc.forward_array(x_b) @ protos.matrix.values.T)

        def f(t):
            # assignment targets are stop-gradiented; freeze them at the
            # linearization point so finite differences probe only the
            # differentiable part
            with mock.patch.object(L, "sinkhorn_knopp", side_effect=[q_a, q_b]):
                return L.swav_loss(*views(_linear_stack(t)), protos.matrix)

        return f, probe_w
    raise AssertionError(f"no gradient instance for {kind!r}")


def test_ac01_gradient_suite_full_catalog():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = {}
    for kind in _OBJECTIVES:
        errs = [grad_check(*_grad_instance(kind, rng)).max_rel_err
                for _ in range(20)]
        worst[kind] = max(errs)
    assert all(err < 1e-4 for err in worst.values()), worst
    assert time.monotonic() - start < 30.0


def test_ac02_triplet_infinite_margin_closed_form():
    rng = np.random.default_rng(7)
    m = _BATCH
    z_a = Tensor(rng.standard_normal((m, _D)), requires_grad=True)
    z_p = Tensor(rng.standard_normal((m, _D)))
    z_n = Tensor(rng.standard_normal((m, _D)))
    backward(L.triplet_loss(z_a, z_p, z_n, margin=None))
    expected = (z_n.values - z_p.values) / m
    assert np.abs(z_a.grad - expected).max() < 1e-10


def test_ac03_infonce_low_temperature_limit():
    tau, n_neg = 1e-3, 32
    rng = np.random.default_rng(11)
    for _ in range(100):
        sims = rng.standard_normal((1, n_neg))
        lse = logsumexp_rows(Tensor(sims), tau).item()
        assert abs(lse - sims.max()) < tau * np.log(n_neg)


def test_ac04_sinkhorn_equipartition():
    m, K = 64, 8
    uniform = L.sinkhorn_knopp(np.zeros((m, K)), iters=3)
    assert np.all(uniform.values.sum(axis=0) == m / K)
    rng = np.random.default_rng(13)
    # direct iteration on exp(scores): eps=1 applies no extra sharpening, so
    # three alternating normalizations already balance the columns
    q = L.sinkhorn_knopp(rng.standard_normal((m, K)), eps=1.0, iters=3)
    col = q.values.sum(axis=0)
    assert np.abs(col - m / K).max() / (m / K) < 0.05


# ---------------------------------------------------------------------------
# 5-6. invariance-only collapse grid
# ---------------------------------------------------------------------------

def test_ac05_collapse_grid_all_collapse_mini_faster(runs):
    grid = runs("s21-collapse-grid")
    for label in ("mini-centered", "mini-shifted", "full-centered", "full-shifted"):
        cn = grid.finals(label, "center_norm")
        sm = grid.finals(label, "std_mean")
        assert np.all((cn > 0.8) & (sm < 0.05)), (label, cn, sm)
    for aug in ("centered", "shifted"):
        mini = grid.seed_mean_curve(f"mini-{aug}", "center_norm")
        full = grid.seed_mean_curve(f"full-{aug}", "center_norm")
        cross = int(np.argmax(mini > 0.8))
        assert mini[cross] > 0.8, aug
        assert full[cross] < mini[cross], (aug, cross)
    assert grid.elapsed_s < 120.0


def test_ac06_shifted_augmentation_steers_the_center(runs):
    grid = runs("s21-collapse-grid")
    for mode in ("mini", "full"):
        shifted = grid.results[f"{mode}-shifted"]
        centered = grid.results[f"{mode}-centered"]
        shift = np.asarray(shifted.config.augmentation.shift)
        for seed, trainer in shifted.trainers.items():
            w = np.eye(len(shift))
            for layer in trainer.state.encoder.weights:
                w = w @ layer.values
            reference = shift @ w   # shift direction under the trained projector
            cos_shifted = angle_to_direction(
                estimate_center(trainer.eval_embeddings()), reference)
            cos_centered = angle_to_direction(
                estimate_center(centered.trainers[seed].eval_embeddings()),
                reference)
            assert cos_shifted > cos_centered, (mode, seed)


# ---------------------------------------------------------------------------
# 7-8. SimSiam ablations and the simplified objective
# ---------------------------------------------------------------------------

def test_ac07_simsiam_ablations_collapse_and_lose_accuracy(runs):
    group = runs("fig4-simsiam-ablations")
    for ds in ("blobs", "moons"):
        std_center = group.finals(f"standard-{ds}", "center_norm").mean()
        std_knn = group.finals(f"standard-{ds}", "knn_accuracy").mean()
        for ablation in ("no-predictor", "no-stopgrad"):
            abl_center = group.finals(f"{ablation}-{ds}", "center_norm").mean()
            abl_knn = group.finals(f"{ablation}-{ds}", "knn_accuracy").mean()
            assert abl_center - std_center > 0.3, (ds, ablation)
            assert std_knn - abl_knn > 0.2, (ds, ablation)
    assert group.elapsed_s < 600.0


def test_ac08_simple_objective_matches_simsiam_without_centering(runs):
    group = runs("fig3-simple-vs-simsiam")
    for ds in ("blobs", "moons"):
        simple = group.finals(f"simple-{ds}", "knn_accuracy")
        simsiam = group.finals(f"simsiam-{ds}", "knn_accuracy")
        pooled_std = np.sqrt((simple.std() ** 2 + simsiam.std() ** 2) / 2.0)
        assert simple.mean() >= simsiam.mean() - pooled_std, ds
        assert group.finals(f"simple-{ds}", "center_norm").mean() < 0.3, ds


# ---------------------------------------------------------------------------
# 9-13. per-method ablation analogues
# ---------------------------------------------------------------------------

def test_ac09_byol_momentum_monotone(runs):
    group = runs("fig7-byol-momentum")
    labels = ["momentum-0.5", "momentum-0.9", "momentum-0.99"]
    centers = [group.finals(l, "center_norm").mean() for l in labels]
    knns = [group.finals(l, "knn_accuracy").mean() for l in labels]
    assert centers[0] >= centers[1] >= centers[2], centers
    assert knns[0] <= knns[1] <= knns[2], knns


def test_ac10_dino_without_centering_collapses(runs):
    group = runs("s22-dino-centering")
    with_c = group.finals("centering", "center_norm").mean()
    without = group.finals("no-centering", "center_norm").mean()
    assert without - with_c > 0.3, (with_c, without)


def test_ac11_barlow_twins_batch_norm_prevents_collapse(runs):
    group = runs("bt-no-decor")
    assert group.max_bn_center["full"] < 1e-9
    assert group.max_bn_center["no-decor"] < 1e-9
    full_knn = group.finals("full", "knn_accuracy").mean()
    nodecor_knn = group.finals("no-decor", "knn_accuracy").mean()
    assert nodecor_knn > 1.0 / 3.0 + 0.15
    assert nodecor_knn < full_knn


def test_ac12_swav_fixed_prototypes_do_not_collapse(runs):
    group = runs("swav-fixed-protos")
    fixed = group.results["fixed"]
    for seed, rows in fixed.rows_by_seed.items():
        assert all(r["center_norm"] < 0.5 for r in rows), seed
    for seed, trainer in fixed.trainers.items():
        fresh = init_prototypes(fixed.config.loss.num_prototypes,
                                fixed.config.encoder.dims[-1],
                                seed + 12_000, trainable=False)
        assert np.array_equal(trainer.state.prototypes.matrix.values,
                              fresh.matrix.values), seed
    fixed_knn = group.finals("fixed", "knn_accuracy").mean()
    learnable_knn = group.finals("learnable", "knn_accuracy").mean()
    assert learnable_knn >= fixed_knn


def test_ac13_slow_predictor_collapses(runs):
    group = runs("s24-predictor-lr")
    slow_cn = group.finals("multiplier-0.01", "center_norm")
    slow_sm = group.finals("multiplier-0.01", "std_mean")
    fast_cn = group.finals("multiplier-1.0", "center_norm")
    fast_sm = group.finals("multiplier-1.0", "std_mean")
    assert np.all((slow_cn > 0.8) & (slow_sm < 0.05)), (slow_cn, slow_sm)
    assert not np.any((fast_cn > 0.8) & (fast_sm < 0.05)), (fast_cn, fast_sm)
    slow_knn = group.finals("multiplier-0.01", "knn_accuracy").mean()
    fast_knn = group.finals("multiplier-1.0", "knn_accuracy").mean()
    assert fast_knn - slow_knn > 0.2


# ---------------------------------------------------------------------------
# 14-15. determinism and the second-moment identity
# ---------------------------------------------------------------------------

def test_ac14_rerun_is_byte_identical(runs, tmp_path):
    first = runs("swav-fixed-protos")
    for label, cfg in named_experiment("swav-fixed-protos"):
        cfg.record_wall_time = False
        again = run_experiment(cfg, tmp_path / "rerun")
        prev = first.results[label]
        pairs = zip(prev.seed_csvs + [prev.aggregate_csv],
                    again.seed_csvs + [again.aggregate_csv])
        for p_first, p_again in pairs:
            assert p_first.read_bytes() == p_again.read_bytes(), p_first.name


def test_ac15_second_moment_identity_every_tick(runs):
    for key in ALL_GROUPS:
        assert runs(key).max_moment_gap < 1e-9, key
