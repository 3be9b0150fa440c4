from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from centerlab import autodiff as ad
from centerlab import losses as L
from centerlab.autodiff import ParameterError, ShapeError, Tensor, backward
from centerlab.harness import _OBJECTIVES, DatasetSpec, ExperimentConfig, Trainer
from centerlab.layers import EmaTwin, init_encoder, init_predictor, init_prototypes
from centerlab.losses import (DinoCenterState, LossConfig, NumericError,
                              barlow_twins_loss, byol_loss, dino_loss,
                              infonce_loss, invariance_loss, simple_objective,
                              simsiam_loss, sinkhorn_knopp, swav_loss,
                              triplet_loss)
from oracles import (assert_bits_equal, composed_barlow_twins,
                     composed_batch_norm_cols, composed_byol, composed_dino,
                     composed_infonce, composed_neg_cosine, composed_simple,
                     composed_simsiam, composed_swav, composed_triplet,
                     composed_views, grad_check, leaf, log, mul, softmax_rows,
                     stack_views, tensor_sum, unit_rows)


class TestLossConfig:
    def test_defaults_validate(self):
        LossConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"student_temperature": 0.0},
        {"temperature": 0.0},
        {"teacher_temperature": -0.1},
        {"margin": -1.0},
        {"sinkhorn_iters": 0},
        {"sinkhorn_eps": 0.0},
        {"ema_momentum": 1.0},
        {"dino_center_momentum": -0.1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            LossConfig(**kwargs).validate()

    def test_component_requirements(self):
        cases = [  # (kind, use_predictor, heads the trainer builds)
            ("invariance", True, set()), ("triplet", True, set()),
            ("infonce", True, set()), ("simsiam", True, {"predictor"}),
            ("simsiam", False, set()), ("byol", True, {"predictor", "twin"}),
            ("byol", False, {"twin"}),
            ("dino", True, {"twin", "dino_center"}), ("swav", True, {"prototypes"}),
            ("barlow_twins", True, set()), ("simple", True, set()),
        ]
        assert set(_OBJECTIVES) == {kind for kind, _, _ in cases}
        for kind, use_predictor, heads in cases:
            cfg = ExperimentConfig(dataset=DatasetSpec(n_per_class=10),
                                   loss=LossConfig(kind=kind, use_predictor=use_predictor))
            state = Trainer(cfg, 0).state
            built = {name for name in ("predictor", "twin", "prototypes", "dino_center")
                     if getattr(state, name) is not None}
            assert built == heads, (kind, use_predictor)


def stacked(*views, requires_grad=False):
    """2-D views as one (V, m, n) leaf."""
    return Tensor(np.stack(views), requires_grad=requires_grad)


class TestInvariance:
    def test_identical_unit_views_hit_minus_one(self):
        z = unit_rows(np.random.default_rng(0), 6, 3)
        assert abs(invariance_loss(stacked(z, z)).item() + 1.0) < 1e-12

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        expected = -np.mean(np.sum(a * b, axis=1))
        assert abs(invariance_loss(stacked(a, b)).item() - expected) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((5, 4))
        rep = grad_check(invariance_loss, stacked(rng.standard_normal((5, 4)), b),
                         tol=1e-6)
        assert rep.passed

    def test_shape_mismatch(self):
        # one stack of two views: three views, or rows alone, are refused
        for shape in ((3, 4, 2), (3, 2)):
            with pytest.raises(ShapeError):
                invariance_loss(Tensor(np.ones(shape)))

    # a twin with gradient, one without, and one operand used as both
    @pytest.mark.parametrize("pair", ["both", "one", "same"])
    def test_fused_node_matches_composed(self, pair):
        # the one node must replay tensor_sum(a * b) * (-1 / m): values,
        # gradients and the signs of zeros
        def run(loss_fn):
            rng = np.random.default_rng(8)
            a = leaf(rng.standard_normal((6, 3)))
            b = {"both": leaf, "one": Tensor}.get(pair, lambda v: a)(
                rng.standard_normal((6, 3)))
            # -0.0 entries whose gradients keep their sign through the copy
            a.values[2] = -0.0
            b.values[4, 1] = -0.0
            loss = mul(loss_fn(a, b), 0.5)
            backward(loss)
            return [loss.values, a.grad, b.grad]

        got = run(lambda a, b: invariance_loss(stack_views([a, b])))
        want = run(lambda a, b: tensor_sum(a * b) * (-1.0 / a.shape[0]))
        for g, w in zip(got, want):
            assert_bits_equal(g, w)


class TestTriplet:
    def test_finite_margin_closed_form(self):
        rng = np.random.default_rng(3)
        a, p, n = (rng.standard_normal((7, 3)) for _ in range(3))
        margin = 0.4
        d_ap = ((a - p) ** 2).sum(axis=1)
        d_an = ((a - n) ** 2).sum(axis=1)
        expected = 0.5 * np.maximum(d_ap - d_an + margin, 0.0).mean()
        got = triplet_loss(stacked(a, p, n), margin).item()
        assert abs(got - expected) < 1e-10

    def test_infinite_margin_limit(self):
        rng = np.random.default_rng(4)
        a, p, n = (rng.standard_normal((7, 3)) for _ in range(3))
        expected = np.mean(np.sum(a * n, axis=1) - np.sum(a * p, axis=1))
        for margin in (None, np.inf):
            got = triplet_loss(stacked(a, p, n), margin).item()
            assert abs(got - expected) < 1e-12

    def test_inactive_hinge_zero_loss_zero_grad(self):
        z = stacked([[1.0, 0.0]], [[1.0, 0.0]], [[-1.0, 0.0]], requires_grad=True)
        loss = triplet_loss(z, margin=0.5)
        assert loss.item() == 0.0
        backward(loss)
        assert z.grad is None or not z.grad.any()

    def test_gradient_both_modes(self):
        rng = np.random.default_rng(5)
        p = rng.standard_normal((6, 3))
        n = rng.standard_normal((6, 3))
        x = stacked(rng.standard_normal((6, 3)), p, n)
        assert grad_check(lambda t: triplet_loss(t, 1.0), x).passed
        assert grad_check(lambda t: triplet_loss(t, None), x).passed

    def test_minus_infinity_and_nan_margins_rejected(self):
        # only None and +inf select the infinite-margin mode
        z = Tensor(np.ones((3, 2, 2)))
        with pytest.raises(ParameterError, match="margin"):
            LossConfig(kind="triplet", margin=-np.inf).validate()
        assert (triplet_loss(z, margin=np.inf).values
                == triplet_loss(z, margin=None).values).all()


class TestInfoNCE:
    def _reference(self, a, p, tau):
        # direct evaluation: -log softmax with positive included in denominator
        losses = []
        for i in range(a.shape[0]):
            sim_p = a[i] @ p[i]
            sims = a[i] @ p.T
            shifted = sims / tau
            losses.append(np.log(np.exp(shifted - shifted.max()).sum())
                          + shifted.max() - sim_p / tau)
        return np.mean(losses)

    def test_within_batch_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        a, p = unit_rows(rng, 8, 4), unit_rows(rng, 8, 4)
        got = infonce_loss(stacked(a, p), temperature=0.2).item()
        assert abs(got - self._reference(a, p, 0.2)) < 1e-10

    def test_low_temperature_approaches_hard_max_gap(self):
        # as tau -> 0 the loss per row tends to (max sim - positive sim)/tau;
        # with the positive strictly dominant the loss vanishes
        loss = infonce_loss(stacked(np.eye(3), np.eye(3)), temperature=1e-3).item()
        assert loss < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(8)
        p = unit_rows(rng, 6, 3)
        x = stacked(unit_rows(rng, 6, 3), p)
        assert grad_check(lambda t: infonce_loss(t, temperature=0.5), x).passed


class TestSimSiam:
    def _setup(self, seed=0, m=8):
        rng = np.random.default_rng(seed)
        enc = init_encoder([3, 8, 4], seed=seed)
        pred = init_predictor(4, seed=seed + 1)
        x_a = rng.standard_normal((m, 3))
        x_b = x_a + 0.1 * rng.standard_normal((m, 3))
        return enc, pred, x_a, x_b

    def test_symmetric_in_views(self):
        enc, pred, x_a, x_b = self._setup()
        ab = simsiam_loss(enc.forward(np.stack([x_a, x_b])), pred).item()
        ba = simsiam_loss(enc.forward(np.stack([x_b, x_a])), pred).item()
        assert abs(ab - ba) < 1e-12

    def test_no_predictor_no_sg_reduces_to_invariance(self):
        enc, _, x_a, x_b = self._setup(seed=2)
        got = simsiam_loss(enc.forward(np.stack([x_a, x_b])),
                           use_stop_gradient=False).item()
        z_a = enc.forward_array(x_a)
        z_b = enc.forward_array(x_b)
        expected = invariance_loss(stacked(z_a, z_b)).item()
        assert abs(got - expected) < 1e-12

    def test_stop_gradient_toggle_changes_encoder_grads(self):
        enc, pred, x_a, x_b = self._setup(seed=3)

        def loss(use_stop_gradient):
            return simsiam_loss(enc.forward(np.stack([x_a, x_b])),
                                pred, use_stop_gradient)

        backward(loss(True))
        with_sg = enc.weights[0].grad.copy()
        for t in enc.weights + enc.biases + pred.weights + pred.biases:
            t.grad = None
        backward(loss(False))
        without_sg = enc.weights[0].grad.copy()
        assert not np.allclose(with_sg, without_sg)


class TestByol:
    def test_value_matches_direct_evaluation(self):
        rng = np.random.default_rng(9)
        enc = init_encoder([3, 8, 4], seed=9)
        pred = init_predictor(4, seed=10)
        twin = EmaTwin(enc, momentum=0.9)
        x_a = rng.standard_normal((6, 3))
        x_b = rng.standard_normal((6, 3))

        def neg_cos(p, t):
            return -np.mean(np.sum(p * t, axis=1))

        z = enc.forward_array(np.stack([x_a, x_b]))
        p_a, p_b = pred.forward(z).values
        t_a, t_b = twin.forward_array(x_a), twin.forward_array(x_b)
        expected = 0.5 * (neg_cos(p_a, t_b) + neg_cos(p_b, t_a))
        got = byol_loss(enc.forward(np.stack([x_a, x_b])), pred,
                        np.stack([t_a, t_b])).item()
        assert abs(got - expected) < 1e-12

    def test_teacher_receives_no_gradient(self):
        rng = np.random.default_rng(10)
        enc = init_encoder([3, 8, 4], seed=11)
        pred = init_predictor(4, seed=12)
        twin = EmaTwin(enc, momentum=0.9)
        x = np.stack([rng.standard_normal((5, 3)), rng.standard_normal((5, 3))])
        backward(byol_loss(enc.forward(x), pred, twin.forward_array(x)))
        assert all(t.grad is None for t in twin.shadow.weights)
        assert enc.weights[0].grad is not None
        assert pred.weights[0].grad is not None


class TestDino:
    def _setup(self, seed=0, m=6):
        rng = np.random.default_rng(seed)
        enc = init_encoder([2, 8, 4], seed=seed)
        twin = EmaTwin(enc, momentum=0.9)
        center = DinoCenterState(np.zeros(4), momentum=0.9)
        return enc, twin, center, rng.standard_normal((m, 2)), rng.standard_normal((m, 2))

    @staticmethod
    def _loss(enc, twin, center, x_a, x_b, *args, **kwargs):
        x = np.stack([x_a, x_b])
        return dino_loss(enc.forward(x), twin.forward_array(x), center, *args, **kwargs)

    def test_value_matches_direct_evaluation(self):
        enc, twin, center, x_a, x_b = self._setup(seed=13)
        center.center = np.full(4, 0.1)
        tau_s, tau_t = 0.2, 0.05
        loss, mean = self._loss(enc, twin, center, x_a, x_b, tau_s, tau_t)

        def softmax(v, tau):
            e = np.exp((v - v.max(axis=1, keepdims=True)) / tau)
            return e / e.sum(axis=1, keepdims=True)

        def direction(x_s, x_t):
            q = softmax(twin.forward_array(x_t) - center.center, tau_t)
            log_p = np.log(softmax(enc.forward_array(x_s), tau_s))
            return -np.mean(np.sum(tau_t * q * tau_s * log_p, axis=1)) * q.shape[1]

        # per-row inner product, not a mean over columns
        def direction_exact(x_s, x_t):
            q = softmax(twin.forward_array(x_t) - center.center, tau_t)
            log_p = np.log(softmax(enc.forward_array(x_s), tau_s))
            return -(tau_t * q * tau_s * log_p).sum() / q.shape[0]

        expected = 0.5 * (direction_exact(x_a, x_b) + direction_exact(x_b, x_a))
        assert abs(loss.item() - expected) < 1e-12

    def test_returns_teacher_batch_mean(self):
        enc, twin, center, x_a, x_b = self._setup(seed=14)
        _, mean = self._loss(enc, twin, center, x_a, x_b)
        expected = np.concatenate([twin.forward_array(x_a),
                                   twin.forward_array(x_b)]).mean(axis=0)
        np.testing.assert_allclose(mean, expected, atol=1e-15)

    def test_centering_toggle_changes_loss(self):
        enc, twin, center, x_a, x_b = self._setup(seed=15)
        center.center = np.array([2.0, -1.0, 0.5, 0.0])
        with_c, _ = self._loss(enc, twin, center, x_a, x_b, use_centering=True)
        without_c, _ = self._loss(enc, twin, center, x_a, x_b, use_centering=False)
        assert abs(with_c.item() - without_c.item()) > 1e-8

    def test_center_state_ema_update(self):
        state = DinoCenterState(np.zeros(2), momentum=0.9)
        state.update(np.array([1.0, 2.0]))
        np.testing.assert_allclose(state.center, [0.1, 0.2])
        state.update(np.array([1.0, 2.0]))
        np.testing.assert_allclose(state.center, [0.19, 0.38])

    def test_teacher_receives_no_gradient(self):
        enc, twin, center, x_a, x_b = self._setup(seed=16)
        loss, _ = self._loss(enc, twin, center, x_a, x_b)
        backward(loss)
        assert all(t.grad is None for t in twin.shadow.weights)
        assert enc.weights[0].grad is not None


class TestSinkhorn:
    def test_rows_sum_to_one_exactly(self):
        rng = np.random.default_rng(17)
        q = sinkhorn_knopp(rng.standard_normal((10, 4)))
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_columns_approach_equipartition(self):
        rng = np.random.default_rng(18)
        m, k = 64, 8
        q = sinkhorn_knopp(rng.standard_normal((m, k)), iters=50)
        # the loop ends on a row step, so column sums stay within a few
        # percent of m/k rather than matching it exactly
        np.testing.assert_allclose(q.sum(axis=0), m / k, rtol=0.05)

    def test_more_iterations_reduce_column_imbalance(self):
        rng = np.random.default_rng(19)
        scores = 3.0 * rng.standard_normal((32, 4))

        def imbalance(iters):
            cols = sinkhorn_knopp(scores, iters=iters).sum(axis=0)
            return np.abs(cols - 32 / 4).max()

        assert imbalance(20) < imbalance(1)

    def test_output_is_constant_tensor(self):
        # a plain new array: the targets never join the graph
        scores = np.zeros((4, 4))
        q = sinkhorn_knopp(scores)
        assert type(q) is np.ndarray
        assert not np.shares_memory(q, scores)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(NumericError):
            sinkhorn_knopp(np.array([[np.inf, 0.0]]))


class TestSwav:
    @staticmethod
    def _loss(enc, protos, x_a, x_b):
        return swav_loss(enc.forward(np.stack([x_a, x_b])), protos.matrix)

    def test_frozen_bank_gets_no_gradient(self):
        rng = np.random.default_rng(20)
        enc = init_encoder([2, 8, 4], seed=20)
        protos = init_prototypes(8, 4, seed=21, trainable=False)
        backward(self._loss(enc, protos, rng.standard_normal((6, 2)),
                            rng.standard_normal((6, 2))))
        assert protos.matrix.grad is None
        assert enc.weights[0].grad is not None

    def test_trainable_bank_gets_gradient(self):
        rng = np.random.default_rng(21)
        enc = init_encoder([2, 8, 4], seed=22)
        protos = init_prototypes(8, 4, seed=23, trainable=True)
        backward(self._loss(enc, protos, rng.standard_normal((6, 2)),
                            rng.standard_normal((6, 2))))
        assert protos.matrix.grad is not None

    def test_sinkhorn_runs_once_per_view_view_a_first(self):
        # looked up on the module: ac01 freezes the targets with
        # side_effect=[q_a, q_b], and one call on both views' scores would
        # hand q_a to both and still pass its check
        rng = np.random.default_rng(23)
        z = stacked(unit_rows(rng, 6, 4), unit_rows(rng, 6, 4))
        protos = init_prototypes(5, 4, seed=26).matrix
        with mock.patch.object(L, "sinkhorn_knopp", wraps=sinkhorn_knopp) as spy:
            swav_loss(z, protos)
        assert spy.call_count == 2
        for call, view in zip(spy.call_args_list, z.values):
            np.testing.assert_allclose(call.args[0], view @ protos.values.T,
                                       rtol=1e-12)

    def test_symmetric_in_views(self):
        rng = np.random.default_rng(22)
        enc = init_encoder([2, 8, 4], seed=24)
        protos = init_prototypes(8, 4, seed=25)
        x_a, x_b = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        assert abs(self._loss(enc, protos, x_a, x_b).item()
                   - self._loss(enc, protos, x_b, x_a).item()) < 1e-12


class TestBarlowTwins:
    def test_identity_correlation_zero_loss(self):
        # construct z with exact identity cross-correlation: scaled orthonormal
        m, d = 8, 4
        q, _ = np.linalg.qr(np.random.default_rng(23).standard_normal((m, d)))
        z = q * np.sqrt(m)
        assert abs(barlow_twins_loss(stacked(z, z)).item()) < 1e-12

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(24)
        a, b = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
        corr = a.T @ b / 10
        lam = 0.01
        expected = (((1 - np.diag(corr)) ** 2).sum()
                    + lam * (corr[~np.eye(3, dtype=bool)] ** 2).sum())
        got = barlow_twins_loss(stacked(a, b), bt_lambda=lam).item()
        assert abs(got - expected) < 1e-10

    def test_no_decorrelation_keeps_only_diagonal(self):
        rng = np.random.default_rng(25)
        a, b = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
        corr = a.T @ b / 10
        expected = ((1 - np.diag(corr)) ** 2).sum()
        got = barlow_twins_loss(stacked(a, b), use_decorrelation=False).item()
        assert abs(got - expected) < 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(26)
        b = rng.standard_normal((8, 3))
        x = stacked(rng.standard_normal((8, 3)), b)
        assert grad_check(lambda t: barlow_twins_loss(t, bt_lambda=0.1), x).passed


class TestSimpleObjective:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(27)
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        s_hat = np.concatenate([a, b]).mean(axis=0)
        inv = -np.mean(np.sum(a * b, axis=1))
        expected = 0.5 * (inv - (-1.0) * s_hat @ s_hat)
        got = simple_objective(stacked(a, b)).item()
        assert abs(got - expected) < 1e-12

    def test_raw_norm_variant(self):
        rng = np.random.default_rng(28)
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        s_hat = np.concatenate([a, b]).mean(axis=0)
        inv = -np.mean(np.sum(a * b, axis=1))
        expected = 0.5 * (inv - 2.0 * np.linalg.norm(s_hat))
        got = simple_objective(stacked(a, b), center_penalty_weight=2.0,
                               squared=False).item()
        assert abs(got - expected) < 1e-9

    def test_penalty_gradient_pushes_center_down(self):
        # with the default weight the penalty adds +||s||^2; its gradient on a
        # common offset points away from the offset direction
        offset = np.array([[0.5, 0.5]])
        # zero partner view kills the invariance gradient, isolating the penalty
        z = stacked(np.tile(offset, (4, 1)), np.zeros((4, 2)), requires_grad=True)
        loss = simple_objective(z)
        backward(loss)
        # the gradient projected on the offset is positive: descending it
        # moves the cloud toward the origin
        assert (z.grad[0].sum(axis=0) @ offset.ravel()) > 0

    def test_gradient(self):
        rng = np.random.default_rng(29)
        b = rng.standard_normal((6, 3))
        x = stacked(rng.standard_normal((6, 3)), b)
        assert grad_check(simple_objective, x).passed
        assert grad_check(lambda t: simple_objective(t, 1.5, squared=False), x).passed


# each implementation takes the views in its own form: the library's loss
# nodes one (V, m, n) stack (and DINO and BYOL the teachers' stack), the
# composed oracles V 2-D Tensors
FUSED = {"invariance": invariance_loss, "simsiam": simsiam_loss, "byol": byol_loss,
         "triplet": triplet_loss, "infonce": infonce_loss,
         "dino": lambda *a, **kw: dino_loss(*a, **kw)[0], "swav": swav_loss,
         "barlow_twins": barlow_twins_loss, "simple": simple_objective,
         "batch_norm": ad.batch_norm_cols}
COMPOSED = {"invariance": lambda z: composed_neg_cosine(*z),
            "simsiam": lambda z, *a: composed_simsiam(*z, *a),
            "byol": lambda z, pred, t: composed_byol(*z, pred, *t),
            "triplet": lambda z, *a: composed_triplet(*z, *a),
            "infonce": lambda z, **kw: composed_infonce(*z, **kw),
            "dino": lambda z, t, *a, **kw: composed_dino(*z, *t, *a, **kw),
            "swav": lambda z, *a: composed_swav(*z, *a),
            "barlow_twins": lambda z, *a, **kw: composed_barlow_twins(*z, *a, **kw),
            "simple": lambda z, *a, **kw: composed_simple(*z, *a, **kw),
            "batch_norm": lambda z: [composed_batch_norm_cols(v) for v in z]}

# case -> (views, loss of (implementations, views, extras))
ONE_NODE_CASES = {
    "invariance": (2, lambda f, z, x: f["invariance"](z)),
    "simsiam": (2, lambda f, z, x: f["simsiam"](z, x.pred)),
    "simsiam-no-stop-gradient": (2, lambda f, z, x: f["simsiam"](z, x.pred, False)),
    "simsiam-no-predictor": (2, lambda f, z, x: f["simsiam"](z)),
    "simsiam-no-predictor-no-stop-gradient": (2, lambda f, z, x: f["simsiam"](
        z, None, False)),
    "byol": (2, lambda f, z, x: f["byol"](z, x.pred, x.t)),
    "byol-no-predictor": (2, lambda f, z, x: f["byol"](z, None, x.t)),
    "triplet-inf": (3, lambda f, z, x: f["triplet"](z)),
    "triplet-inf-explicit": (3, lambda f, z, x: f["triplet"](z, np.inf)),
    "triplet-margin": (3, lambda f, z, x: f["triplet"](z, 1.0)),
    "infonce": (2, lambda f, z, x: f["infonce"](z, temperature=0.3)),
    "dino": (2, lambda f, z, x: f["dino"](z, x.t, x.center, 0.2, 0.05)),
    "dino-no-centering": (2, lambda f, z, x: f["dino"](
        z, x.t, x.center, 0.2, 0.05, use_centering=False)),
    "swav-frozen": (2, lambda f, z, x: f["swav"](z, x.frozen, 0.2)),
    "swav-trainable": (2, lambda f, z, x: f["swav"](z, x.trainable, 0.2)),
    "barlow-twins": (2, lambda f, z, x: f["barlow_twins"](z, 0.1)),
    "barlow-twins-no-decor": (2, lambda f, z, x: f["barlow_twins"](
        z, use_decorrelation=False)),
    # as the trainer composes them: the views batch-normed first
    "barlow-twins-batch-norm": (2, lambda f, z, x: f["barlow_twins"](
        f["batch_norm"](z))),
    "simple": (2, lambda f, z, x: f["simple"](z)),
    "simple-raw": (2, lambda f, z, x: f["simple"](z, 1.5, squared=False)),
}


def _extras(rng, d):
    """Teacher outputs and a DINO center, one prototype bank frozen and one
    trainable, and a predictor head."""
    protos = unit_rows(rng, 5, d)
    return SimpleNamespace(t=np.stack([rng.standard_normal((6, d)),
                                       rng.standard_normal((6, d))]),
                           center=DinoCenterState(0.1 * rng.standard_normal(d)),
                           frozen=Tensor(protos), trainable=leaf(protos.copy()),
                           pred=init_predictor(d, seed=35))


def _extras_grads(x):
    return [x.trainable.grad] + [t.grad for t in x.pred.weights + x.pred.biases]


def assert_all_bits_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_bits_equal(g, w)


class TestOneNodeLosses:
    @pytest.mark.parametrize("inputs", ["all", "first", "same"])
    @pytest.mark.parametrize("case", sorted(ONE_NODE_CASES))
    def test_matches_composed(self, case, inputs):
        # the loss value, every input gradient and the signs of zeros, with
        # every view on the graph, only the first one, or the first two equal;
        # the library's node takes the views' stack node
        views, loss_fn = ONE_NODE_CASES[case]

        def run(impl):
            rng = np.random.default_rng(31)
            values = [unit_rows(rng, 6, 4) for _ in range(views)]
            values[0][2] = -0.0
            values[-1][4, 1] = -0.0
            if inputs == "same":  # tied views
                values[1] = values[0].copy()
            z = [Tensor(v, requires_grad=inputs != "first" or i == 0)
                 for i, v in enumerate(values)]
            extras = _extras(rng, 4)
            loss = mul(loss_fn(impl, stack_views(z) if impl is FUSED else z, extras), 0.3)
            backward(loss)
            return [loss.values, *_extras_grads(extras)] + [t.grad for t in z]

        assert_all_bits_equal(run(FUSED), run(COMPOSED))

    @pytest.mark.parametrize("case", sorted(ONE_NODE_CASES))
    def test_matches_composed_through_the_encoder(self, case):
        # the library's node on the encoder's mlp node against the composed
        # loss on one composed encoder graph per view: the mlp node folds its
        # parameters' view gradients in the order the composed graph reaches
        # the views, which with three views sets their rounding
        views, loss_fn = ONE_NODE_CASES[case]

        def run(impl):
            rng = np.random.default_rng(32)
            enc = init_encoder([2, 8, 4], seed=33)
            x = rng.standard_normal((views, 6, 2))
            z = (enc.forward(x) if impl is FUSED else composed_views(
                [Tensor(v) for v in x], enc.weights, enc.biases, enc.activations,
                enc.output_normalize))
            extras = _extras(rng, 4)
            loss = loss_fn(impl, z, extras)
            backward(loss)
            return ([loss.values, *_extras_grads(extras)]
                    + [t.grad for t in enc.weights + enc.biases])

        assert_all_bits_equal(run(FUSED), run(COMPOSED))

    # the cases whose gradient finite differences can see: no stop-gradient
    # target and no Sinkhorn assignment computed from the views
    @pytest.mark.parametrize("case", [
        "invariance", "simsiam-no-predictor-no-stop-gradient", "byol-no-predictor",
        "triplet-inf", "triplet-margin", "infonce", "dino", "barlow-twins",
        "barlow-twins-batch-norm", "simple", "simple-raw"])
    def test_gradient_over_the_whole_stack(self, case):
        # finite differences over every entry of every view
        views, loss_fn = ONE_NODE_CASES[case]
        rng = np.random.default_rng(36)
        x = Tensor(np.stack([unit_rows(rng, 6, 4) for _ in range(views)]))
        extras = _extras(rng, 4)
        assert grad_check(lambda t: loss_fn(FUSED, t, extras), x).passed

    def test_every_inactive_hinge_hands_out_zeros(self):
        # zero gradients, not None, with the composed graph's signs of zero
        def run(triplet):
            a = unit_rows(np.random.default_rng(34), 5, 3)
            z = [leaf(a), leaf(a.copy()), leaf(-a)]
            backward(triplet(z, 0.5))
            return [t.grad for t in z]

        got = run(lambda z, margin: triplet_loss(stack_views(z), margin))
        assert all(g is not None and not g.any() for g in got)
        assert_all_bits_equal(got, run(lambda z, margin: composed_triplet(*z, margin)))


def _stack_case(views, m, n, seed):
    """V (m, n) views: one row of -0.0, one whose maximum is tied (in its
    first and last column), and a -0.0 entry."""
    x = np.random.default_rng(seed).standard_normal((views, m, n))
    x[:, 0] = -0.0
    x[:, 1, 0] = x[:, 1, -1] = x[:, 1].max(axis=-1) + 0.5
    x[:, 2, n // 2] = -0.0
    return x


class TestViewStacks:
    """One evaluation over a (V, m, n) view stack against one composed 2-D
    graph per view: values, gradients and the signs of zeros. A stacked
    primitive may only reduce per row (the last axis) or per view, in the
    order a view's own graph does."""

    @pytest.mark.parametrize("views", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(12, 5), (9, 1)])
    def test_log_softmax_grad(self, views, shape):
        s, g = _stack_case(views, *shape, seed=41), _stack_case(views, *shape, seed=42)
        log_p, grad = L._log_softmax_grad(s, 0.3)
        g_s = grad(g)
        for v in range(views):
            t = leaf(s[v].copy())
            out = log(softmax_rows(t, 0.3))
            backward(tensor_sum(mul(out, g[v])))
            assert_bits_equal(log_p[v], out.values)
            assert_bits_equal(g_s[v], t.grad)

    @pytest.mark.parametrize("use_centering", [True, False])
    def test_dino(self, use_centering):
        # the center keeps the teachers' tied maxima tied
        z_a, z_b, t_a, t_b = _stack_case(4, 12, 5, seed=43)
        center = DinoCenterState(np.full(5, 0.25))

        def run(dino):
            z = [leaf(z_a.copy()), leaf(z_b.copy())]
            loss = dino(z, center, 0.2, 0.05, use_centering=use_centering)
            backward(loss)
            return [loss.values] + [t.grad for t in z]

        fused = run(lambda z, *a, **kw: FUSED["dino"](
            stack_views(z), np.stack([t_a, t_b]), *a, **kw))
        assert_all_bits_equal(fused, run(
            lambda z, *a, **kw: composed_dino(*z, t_a, t_b, *a, **kw)))
        assert_bits_equal(dino_loss(stacked(z_a, z_b), np.stack([t_a, t_b]), center)[1],
                          np.concatenate([t_a, t_b]).mean(axis=0))

    @pytest.mark.parametrize("trainable", [True, False])
    def test_swav(self, trainable):
        # two equal prototypes tie the scores of a row aligned with them; a
        # soft Sinkhorn (eps 1) keeps every target, so the view sums round
        z_a, z_b = _stack_case(2, 12, 5, seed=44)
        protos = unit_rows(np.random.default_rng(45), 6, 5)
        protos[1] = protos[0]
        z_a[3] = z_b[5] = 2.0 * protos[0]

        def run(swav):
            z = [leaf(z_a.copy()), leaf(z_b.copy())]
            bank = Tensor(protos.copy(), requires_grad=trainable)
            loss = swav(z, bank, 0.2, 1.0)
            backward(loss)
            return [loss.values, bank.grad] + [t.grad for t in z]

        assert_all_bits_equal(run(lambda z, *a: swav_loss(stack_views(z), *a)),
                              run(COMPOSED["swav"]))

    @pytest.mark.parametrize("reached", ["all", "first"])
    @pytest.mark.parametrize("views", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(12, 5), (9, 1)])
    def test_batch_norm_cols(self, views, shape, reached):
        # one node over V views against V composed graphs, under one probe of
        # their stack; with "first" the probe weighs only view 0, and the
        # other views get the composed graphs' gradients of a zero weight
        x, w = _stack_case(views, *shape, seed=46), _stack_case(views, *shape, seed=47)
        if reached == "first":
            w[1:] = 0.0

        def run(batch_norm):
            ts = [leaf(x[v].copy()) for v in range(views)]
            out = batch_norm(ts)
            loss = tensor_sum(mul(out, w))
            backward(loss)
            return [loss.values, out.values] + [t.grad for t in ts]

        assert_all_bits_equal(
            run(lambda ts: ad.batch_norm_cols(stack_views(ts))),
            run(lambda ts: stack_views([composed_batch_norm_cols(t) for t in ts])))
