"""End-to-end acceptance suite: one test (one pass/fail line) per criterion.

Registry experiments are executed once per session and shared across tests;
per-tick invariants (second-moment identity, post-batch-norm centering) are
collected through the run callback while the experiments execute. The
empirical claims (ac05-ac13, ac11's kNN part) are judged by
``centerlab.claims`` on the run directories the experiments wrote.
"""

from unittest import mock

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from centerlab import claims
from centerlab import losses as L
from centerlab.autodiff import Tensor, backward, batch_norm_cols
from centerlab.diagnostics import angle_to_direction, estimate_center
from centerlab.cli import main as cli_main
from centerlab.harness import (_OBJECTIVES, ExperimentConfig, named_experiment,
                               run_experiment)
from centerlab.layers import (EncoderStack, EmaTwin, init_encoder,
                              init_predictor, init_prototypes)
from oracles import grad_check, second_moment_gap

# ---------------------------------------------------------------------------
# shared experiment runs
# ---------------------------------------------------------------------------


class GroupRun:
    """All variants of one registry experiment plus per-tick collectibles."""

    def __init__(self, run_dir, results, elapsed_s, max_moment_gap, max_bn_center):
        self.run_dir = run_dir            # <root>/<experiment>, what claims read
        self.results = results            # label -> RunResult
        self.elapsed_s = elapsed_s
        self.max_moment_gap = max_moment_gap
        self.max_bn_center = max_bn_center  # label -> worst post-BN center norm

    def hold(self, claim):
        verdicts = claim(self.run_dir)
        assert verdicts and all(v.passed for v in verdicts), verdicts


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
            cache[key] = GroupRun(root / key, results, time.monotonic() - start,
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

    Embedding-level losses differentiate w.r.t. their whole (V, m, n) view
    stack; architectural losses differentiate w.r.t. a weight matrix on the
    student/online side so that stop-gradiented targets stay constant under
    the finite-difference perturbation.
    """
    x_a = rng.standard_normal((_BATCH, _D))
    x_b = rng.standard_normal((_BATCH, _D))
    z_w = rng.standard_normal((_BATCH, _D))
    probe_emb = rng.standard_normal((_BATCH, _D))
    probe_w = Tensor(rng.standard_normal((_D, _D)) / np.sqrt(_D),
                     requires_grad=True)
    seed = int(rng.integers(1 << 30))

    def views(enc):
        return enc.forward(np.stack([x_a, x_b]))

    def stack(*rows):
        return Tensor(np.stack(rows), requires_grad=True)

    if kind == "invariance":
        return L.invariance_loss, stack(probe_emb, z_w)
    if kind == "simple":
        return L.simple_objective, stack(probe_emb, z_w)
    if kind == "triplet":
        # unit rows bound the squared distances by 4, so margin 5 keeps the
        # hinge strictly active and the loss smooth at the probe
        z_p = _unit_rows(rng.standard_normal((_BATCH, _D)))
        z_n = _unit_rows(rng.standard_normal((_BATCH, _D)))
        anchor = _unit_rows(rng.standard_normal((_BATCH, _D)))
        return (lambda t: L.triplet_loss(t, margin=5.0)), stack(anchor, z_p, z_n)
    if kind == "infonce":
        z_p = rng.standard_normal((_BATCH, _D))
        return (lambda t: L.infonce_loss(t, temperature=0.1)), stack(probe_emb, z_p)
    if kind == "barlow_twins":
        z_b = rng.standard_normal((_BATCH, _D))
        return (lambda t: L.barlow_twins_loss(batch_norm_cols(t))), stack(probe_emb, z_b)
    if kind == "simsiam":
        enc = init_encoder([_D, _D], seed)
        return (lambda t: L.simsiam_loss(views(enc), _linear_stack(t))), probe_w
    if kind == "byol":
        pred = init_predictor(_D, seed)
        twin = EmaTwin(init_encoder([_D, _D], seed + 1), 0.9)
        t = twin.forward_array(np.stack([x_a, x_b]))
        return (lambda w: L.byol_loss(views(_linear_stack(w)), pred, t)), probe_w
    if kind == "dino":
        twin = EmaTwin(init_encoder([_D, _D], seed + 1), 0.9)
        center = L.DinoCenterState(0.1 * rng.standard_normal(_D), 0.9)
        t = twin.forward_array(np.stack([x_a, x_b]))
        return (lambda w: L.dino_loss(views(_linear_stack(w)), t, center)[0]), probe_w
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
                return L.swav_loss(views(_linear_stack(t)), protos.matrix)

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
    z = Tensor(rng.standard_normal((3, m, _D)), requires_grad=True)
    backward(L.triplet_loss(z, margin=None))
    _, z_p, z_n = z.values
    expected = (z_n - z_p) / m
    assert np.abs(z.grad[0] - expected).max() < 1e-10


def test_ac03_infonce_low_temperature_limit():
    # identity anchors make the similarities the rows of S, positives on the
    # diagonal: tau * loss tends to the mean hardest-negative gap
    tau, m = 1e-3, 32
    rng = np.random.default_rng(11)
    for _ in range(100):
        sims = rng.standard_normal((m, m))
        loss = L.infonce_loss(Tensor(np.stack([np.eye(m), sims.T])), tau).item()
        gap = (sims.max(axis=1) - np.diag(sims)).mean()
        assert abs(tau * loss - gap) < tau * np.log(m)


def test_ac04_sinkhorn_equipartition():
    m, K = 64, 8
    uniform = L.sinkhorn_knopp(np.zeros((m, K)), iters=3)
    assert np.all(uniform.sum(axis=0) == m / K)
    rng = np.random.default_rng(13)
    # direct iteration on exp(scores): eps=1 applies no extra sharpening, so
    # three alternating normalizations already balance the columns
    q = L.sinkhorn_knopp(rng.standard_normal((m, K)), eps=1.0, iters=3)
    col = q.sum(axis=0)
    assert np.abs(col - m / K).max() / (m / K) < 0.05


# ---------------------------------------------------------------------------
# 5-6. invariance-only collapse grid
# ---------------------------------------------------------------------------

def test_ac05_collapse_grid_all_collapse_mini_faster(runs):
    grid = runs("s21-collapse-grid")
    grid.hold(claims.ac05)
    assert grid.elapsed_s < 120.0


def test_ac06_shifted_augmentation_steers_the_center(runs):
    runs("s21-collapse-grid").hold(claims.ac06)


# ---------------------------------------------------------------------------
# 7-8. SimSiam ablations and the simplified objective
# ---------------------------------------------------------------------------

def test_ac07_simsiam_ablations_collapse_and_lose_accuracy(runs):
    group = runs("fig4-simsiam-ablations")
    group.hold(claims.ac07)
    assert group.elapsed_s < 600.0


def test_ac08_simple_objective_matches_simsiam_without_centering(runs):
    runs("fig3-simple-vs-simsiam").hold(claims.ac08)


# ---------------------------------------------------------------------------
# 9-13. per-method ablation analogues
# ---------------------------------------------------------------------------

def test_ac09_byol_momentum_monotone(runs):
    runs("fig7-byol-momentum").hold(claims.ac09)


def test_ac10_dino_without_centering_collapses(runs):
    runs("s22-dino-centering").hold(claims.ac10)


def test_ac11_barlow_twins_batch_norm_prevents_collapse(runs):
    group = runs("bt-no-decor")
    assert group.max_bn_center["full"] < 1e-9
    assert group.max_bn_center["no-decor"] < 1e-9
    group.hold(claims.ac11)


def test_ac12_swav_fixed_prototypes_do_not_collapse(runs):
    group = runs("swav-fixed-protos")
    group.hold(claims.ac12)
    # a frozen bank is no group, so no checkpoint holds it
    fixed = group.results["fixed"]
    for seed, trainer in fixed.trainers.items():
        fresh = init_prototypes(trainer.cfg.loss.num_prototypes,
                                trainer.cfg.encoder.dims[-1],
                                seed + 12_000, trainable=False)
        assert np.array_equal(trainer.state.prototypes.matrix.values,
                              fresh.matrix.values), seed


def test_ac13_slow_predictor_collapses(runs):
    runs("s24-predictor-lr").hold(claims.ac13)


# ---------------------------------------------------------------------------
# 14-15. determinism and the second-moment identity
# ---------------------------------------------------------------------------

def test_ac14_rerun_is_byte_identical(runs, tmp_path):
    first = runs("swav-fixed-protos")
    for label, cfg in named_experiment("swav-fixed-protos"):
        cfg.record_wall_time = False
        again = run_experiment(cfg, tmp_path / "rerun")
        prev = first.results[label]
        names = [f"seed{s}.csv" for s in prev.rows_by_seed] + [again.aggregate_csv.name]
        for name in names:
            assert ((first.run_dir / cfg.name / name).read_bytes()
                    == (tmp_path / "rerun" / cfg.name / name).read_bytes()), name


def test_ac15_second_moment_identity_every_tick(runs):
    for key in ALL_GROUPS:
        assert runs(key).max_moment_gap < 1e-9, key


# ---------------------------------------------------------------------------
# the claims command on the suite's run directories
# ---------------------------------------------------------------------------

def _claims_cli(out_dir, *keys):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-m", "centerlab.cli", "--out-dir",
                           str(out_dir), "claims", *keys],
                          capture_output=True, text=True, env=env)


def test_config_json_round_trips(runs):
    for key in ALL_GROUPS:
        for _, cfg in named_experiment(key):
            cfg.record_wall_time = False
            path = runs(key).run_dir / cfg.name / "config.json"
            assert ExperimentConfig.from_file(path) == cfg, path


def test_claims_command_reproduces_the_verdicts(runs, capsys):
    run_root = [runs(key) for key in ALL_GROUPS][0].run_dir.parent
    assert cli_main(["--out-dir", str(run_root), "claims"]) == 0
    in_process = capsys.readouterr().out
    verdicts = [v for key in claims.CLAIMS for c in claims.CLAIMS[key]
                for v in c(run_root / key)]
    lines = in_process.splitlines()
    assert len(lines) == len(verdicts)
    assert all(f"  {v.claim}  PASS  " in line for v, line in zip(verdicts, lines))
    out = _claims_cli(run_root)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == lines


def test_claims_command_fails_an_edited_run(runs, tmp_path):
    # the no-centering run's final center set to 0 undoes ac10
    run_dir = shutil.copytree(runs("s22-dino-centering").run_dir,
                              tmp_path / "s22-dino-centering")
    for path in (run_dir / "dino-no-centering").glob("seed*.csv"):
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[4] = "0"   # center_norm
        path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    out = _claims_cli(tmp_path, "s22-dino-centering")
    assert out.returncode == 4, out.stderr
    assert "  FAIL  " in out.stdout
