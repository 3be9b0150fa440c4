import numpy as np
import pytest

from centerlab import autodiff as ad
from centerlab.autodiff import ParameterError, ShapeError, Tensor, backward, grad_check
from centerlab.harness import _OBJECTIVES, DatasetSpec, ExperimentConfig, Trainer
from centerlab.layers import EmaTwin, init_encoder, init_predictor, init_prototypes
from centerlab.losses import (DinoCenterState, LossConfig, NumericError,
                              barlow_twins_loss, byol_loss, dino_loss,
                              infonce_loss, invariance_loss, simple_objective,
                              simsiam_loss, sinkhorn_knopp, swav_loss,
                              triplet_loss)


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def leaf(values):
    return Tensor(values, requires_grad=True)


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


class TestInvariance:
    def test_identical_unit_views_hit_minus_one(self):
        z = unit_rows(np.random.default_rng(0), 6, 3)
        assert abs(invariance_loss(Tensor(z), Tensor(z)).item() + 1.0) < 1e-12

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        expected = -np.mean(np.sum(a * b, axis=1))
        assert abs(invariance_loss(Tensor(a), Tensor(b)).item() - expected) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(2)
        b = Tensor(rng.standard_normal((5, 4)))
        rep = grad_check(lambda t: invariance_loss(t, b),
                         Tensor(rng.standard_normal((5, 4))), tol=1e-6)
        assert rep.passed

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            invariance_loss(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))))


class TestTriplet:
    def test_finite_margin_closed_form(self):
        rng = np.random.default_rng(3)
        a, p, n = (rng.standard_normal((7, 3)) for _ in range(3))
        margin = 0.4
        d_ap = ((a - p) ** 2).sum(axis=1)
        d_an = ((a - n) ** 2).sum(axis=1)
        expected = 0.5 * np.maximum(d_ap - d_an + margin, 0.0).mean()
        got = triplet_loss(Tensor(a), Tensor(p), Tensor(n), margin).item()
        assert abs(got - expected) < 1e-10

    def test_infinite_margin_limit(self):
        rng = np.random.default_rng(4)
        a, p, n = (rng.standard_normal((7, 3)) for _ in range(3))
        expected = np.mean(np.sum(a * n, axis=1) - np.sum(a * p, axis=1))
        for margin in (None, np.inf):
            got = triplet_loss(Tensor(a), Tensor(p), Tensor(n), margin).item()
            assert abs(got - expected) < 1e-12

    def test_inactive_hinge_zero_loss_zero_grad(self):
        a = leaf(np.array([[1.0, 0.0]]))
        p = np.array([[1.0, 0.0]])
        n = np.array([[-1.0, 0.0]])
        loss = triplet_loss(a, Tensor(p), Tensor(n), margin=0.5)
        assert loss.item() == 0.0
        backward(loss)
        assert a.grad is None or not a.grad.any()

    def test_gradient_both_modes(self):
        rng = np.random.default_rng(5)
        p = Tensor(rng.standard_normal((6, 3)))
        n = Tensor(rng.standard_normal((6, 3)))
        x = Tensor(rng.standard_normal((6, 3)))
        assert grad_check(lambda t: triplet_loss(t, p, n, 1.0), x).passed
        assert grad_check(lambda t: triplet_loss(t, p, n, None), x).passed

    def test_negative_margin_rejected(self):
        z = Tensor(np.ones((2, 2)))
        with pytest.raises(ParameterError):
            triplet_loss(z, z, z, margin=-0.1)


class TestInfoNCE:
    def _reference(self, a, p, negs, tau):
        # direct evaluation: -log softmax with positive included in denominator
        losses = []
        for i in range(a.shape[0]):
            sim_p = a[i] @ p[i]
            if negs is None:
                sims = a[i] @ p.T
            else:
                sims = np.concatenate([[sim_p], a[i] @ negs.T])
            shifted = sims / tau
            losses.append(np.log(np.exp(shifted - shifted.max()).sum())
                          + shifted.max() - sim_p / tau)
        return np.mean(losses)

    def test_within_batch_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        a, p = unit_rows(rng, 8, 4), unit_rows(rng, 8, 4)
        got = infonce_loss(Tensor(a), Tensor(p), temperature=0.2).item()
        assert abs(got - self._reference(a, p, None, 0.2)) < 1e-10

    def test_shared_bank_matches_direct_evaluation(self):
        rng = np.random.default_rng(7)
        a, p = unit_rows(rng, 5, 4), unit_rows(rng, 5, 4)
        negs = unit_rows(rng, 12, 4)
        got = infonce_loss(Tensor(a), Tensor(p), Tensor(negs), 0.3).item()
        assert abs(got - self._reference(a, p, negs, 0.3)) < 1e-10

    def test_low_temperature_approaches_hard_max_gap(self):
        # as tau -> 0 the loss per row tends to (max sim - positive sim)/tau;
        # with the positive strictly dominant the loss vanishes
        a = np.eye(3)
        p = np.eye(3)
        loss = infonce_loss(Tensor(a), Tensor(p), temperature=1e-3).item()
        assert loss < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(8)
        p = Tensor(unit_rows(rng, 6, 3))
        x = Tensor(unit_rows(rng, 6, 3))
        assert grad_check(lambda t: infonce_loss(t, p, temperature=0.5), x).passed
        negs = Tensor(unit_rows(rng, 9, 3))
        assert grad_check(lambda t: infonce_loss(t, p, negs, 0.5), x).passed

    def test_degenerate_batch_rejected(self):
        z = Tensor(np.ones((1, 2)))
        with pytest.raises(ShapeError):
            infonce_loss(z, z)
        with pytest.raises(ParameterError):
            infonce_loss(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))),
                         temperature=0.0)


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
        z_a, z_b = enc.forward(Tensor(x_a)), enc.forward(Tensor(x_b))
        ab = simsiam_loss(z_a, z_b, pred).item()
        ba = simsiam_loss(z_b, z_a, pred).item()
        assert abs(ab - ba) < 1e-12

    def test_no_predictor_no_sg_reduces_to_invariance(self):
        enc, _, x_a, x_b = self._setup(seed=2)
        got = simsiam_loss(enc.forward(Tensor(x_a)), enc.forward(Tensor(x_b)),
                           use_stop_gradient=False).item()
        z_a = enc.forward_array(x_a)
        z_b = enc.forward_array(x_b)
        expected = invariance_loss(Tensor(z_a), Tensor(z_b)).item()
        assert abs(got - expected) < 1e-12

    def test_stop_gradient_toggle_changes_encoder_grads(self):
        enc, pred, x_a, x_b = self._setup(seed=3)

        def loss(use_stop_gradient):
            return simsiam_loss(enc.forward(Tensor(x_a)), enc.forward(Tensor(x_b)),
                                pred, use_stop_gradient)

        backward(loss(True))
        with_sg = enc.weights[0].grad.copy()
        ad.zero_grads([p.tensor for p in enc.parameters() + pred.parameters()])
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

        p_a = pred.forward(Tensor(enc.forward_array(x_a))).values
        p_b = pred.forward(Tensor(enc.forward_array(x_b))).values
        t_a, t_b = twin.forward_array(x_a), twin.forward_array(x_b)
        expected = 0.5 * (neg_cos(p_a, t_b) + neg_cos(p_b, t_a))
        got = byol_loss(enc.forward(Tensor(x_a)), enc.forward(Tensor(x_b)), pred,
                        t_a, t_b).item()
        assert abs(got - expected) < 1e-12

    def test_teacher_receives_no_gradient(self):
        rng = np.random.default_rng(10)
        enc = init_encoder([3, 8, 4], seed=11)
        pred = init_predictor(4, seed=12)
        twin = EmaTwin(enc, momentum=0.9)
        x_a, x_b = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        backward(byol_loss(enc.forward(Tensor(x_a)), enc.forward(Tensor(x_b)), pred,
                           twin.forward_array(x_a), twin.forward_array(x_b)))
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
        return dino_loss(enc.forward(Tensor(x_a)), enc.forward(Tensor(x_b)),
                         twin.forward_array(x_a), twin.forward_array(x_b), center,
                         *args, **kwargs)

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
        np.testing.assert_allclose(q.values.sum(axis=1), 1.0, atol=1e-12)

    def test_columns_approach_equipartition(self):
        rng = np.random.default_rng(18)
        m, k = 64, 8
        q = sinkhorn_knopp(rng.standard_normal((m, k)), iters=50)
        # the loop ends on a row step, so column sums stay within a few
        # percent of m/k rather than matching it exactly
        np.testing.assert_allclose(q.values.sum(axis=0), m / k, rtol=0.05)

    def test_more_iterations_reduce_column_imbalance(self):
        rng = np.random.default_rng(19)
        scores = 3.0 * rng.standard_normal((32, 4))

        def imbalance(iters):
            cols = sinkhorn_knopp(scores, iters=iters).values.sum(axis=0)
            return np.abs(cols - 32 / 4).max()

        assert imbalance(20) < imbalance(1)

    def test_output_is_constant_tensor(self):
        q = sinkhorn_knopp(np.zeros((4, 4)))
        assert not q.requires_grad

    def test_non_finite_scores_rejected(self):
        with pytest.raises(NumericError):
            sinkhorn_knopp(np.array([[np.inf, 0.0]]))

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            sinkhorn_knopp(np.zeros((2, 2)), iters=0)
        with pytest.raises(ParameterError):
            sinkhorn_knopp(np.zeros((2, 2)), eps=0.0)


class TestSwav:
    @staticmethod
    def _loss(enc, protos, x_a, x_b):
        return swav_loss(enc.forward(Tensor(x_a)), enc.forward(Tensor(x_b)),
                         protos.matrix)

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
        assert abs(barlow_twins_loss(Tensor(z), Tensor(z)).item()) < 1e-12

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(24)
        a, b = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
        corr = a.T @ b / 10
        lam = 0.01
        expected = (((1 - np.diag(corr)) ** 2).sum()
                    + lam * (corr[~np.eye(3, dtype=bool)] ** 2).sum())
        got = barlow_twins_loss(Tensor(a), Tensor(b), bt_lambda=lam).item()
        assert abs(got - expected) < 1e-10

    def test_no_decorrelation_keeps_only_diagonal(self):
        rng = np.random.default_rng(25)
        a, b = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
        corr = a.T @ b / 10
        expected = ((1 - np.diag(corr)) ** 2).sum()
        got = barlow_twins_loss(Tensor(a), Tensor(b),
                                use_decorrelation=False).item()
        assert abs(got - expected) < 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(26)
        b = Tensor(rng.standard_normal((8, 3)))
        x = Tensor(rng.standard_normal((8, 3)))
        assert grad_check(lambda t: barlow_twins_loss(t, b, bt_lambda=0.1), x).passed

    def test_batch_of_one_rejected(self):
        with pytest.raises(ShapeError):
            barlow_twins_loss(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))))


class TestSimpleObjective:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(27)
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        s_hat = np.concatenate([a, b]).mean(axis=0)
        inv = -np.mean(np.sum(a * b, axis=1))
        expected = 0.5 * (inv - (-1.0) * s_hat @ s_hat)
        got = simple_objective(Tensor(a), Tensor(b)).item()
        assert abs(got - expected) < 1e-12

    def test_raw_norm_variant(self):
        rng = np.random.default_rng(28)
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        s_hat = np.concatenate([a, b]).mean(axis=0)
        inv = -np.mean(np.sum(a * b, axis=1))
        expected = 0.5 * (inv - 2.0 * np.linalg.norm(s_hat))
        got = simple_objective(Tensor(a), Tensor(b),
                               center_penalty_weight=2.0, squared=False).item()
        assert abs(got - expected) < 1e-9

    def test_penalty_gradient_pushes_center_down(self):
        # with the default weight the penalty adds +||s||^2; its gradient on a
        # common offset points away from the offset direction
        offset = np.array([[0.5, 0.5]])
        z = leaf(np.tile(offset, (4, 1)))
        # zero partner view kills the invariance gradient, isolating the penalty
        loss = simple_objective(z, Tensor(np.zeros((4, 2))))
        backward(loss)
        # the gradient projected on the offset is positive: descending it
        # moves the cloud toward the origin
        assert (z.grad.sum(axis=0) @ offset.ravel()) > 0

    def test_gradient(self):
        rng = np.random.default_rng(29)
        b = Tensor(rng.standard_normal((6, 3)))
        x = Tensor(rng.standard_normal((6, 3)))
        assert grad_check(lambda t: simple_objective(t, b), x).passed
        assert grad_check(lambda t: simple_objective(t, b, 1.5, squared=False),
                          x).passed
