import numpy as np
import pytest

from centerlab.autodiff import ParameterError, ShapeError, Tensor, grad_check
from centerlab.layers import (EmaTwin, Param, init_encoder, init_predictor,
                              init_prototypes, load_checkpoint,
                              save_checkpoint, sgd_step)
from oracles import mul, tensor_sum


class TestInitEncoder:
    def test_same_seed_identical_parameters(self):
        a = init_encoder([3, 8, 2], seed=7)
        b = init_encoder([3, 8, 2], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa.values, wb.values)

    def test_rejects_too_few_dims(self):
        with pytest.raises(ParameterError):
            init_encoder([4], seed=0)

    def test_rejects_unknown_activation_without_hidden_layers(self):
        # a one-layer encoder gives its only layer the identity, never the
        # activation; init_encoder still rejects a name it does not know
        with pytest.raises(ParameterError, match="activation"):
            init_encoder([2, 2], seed=0, activation="gelu")

    def test_default_scheme_starts_near_centered(self):
        # Monte-Carlo: embedding cloud of standard-normal inputs sits near the
        # origin at init (measured ~0.03 over seeds; 0.3 leaves wide margin)
        x = np.random.default_rng(123).standard_normal((1000, 3))
        enc = init_encoder([3, 8, 2], seed=0)
        center = enc.forward_array(x).mean(axis=0)
        assert np.linalg.norm(center) < 0.3

    @pytest.mark.parametrize("seed", range(5))
    def test_biased_scheme_shifts_the_center(self, seed):
        x = np.random.default_rng(123).standard_normal((1000, 3))
        default = init_encoder([3, 8, 2], seed)
        biased = init_encoder([3, 8, 2], seed, scheme="biased")
        norm_default = np.linalg.norm(default.forward_array(x).mean(axis=0))
        norm_biased = np.linalg.norm(biased.forward_array(x).mean(axis=0))
        assert norm_biased > norm_default


class TestForward:
    def test_identity_single_layer_normalizes_input(self):
        enc = init_encoder([2, 2], seed=0)
        enc.weights[0].values[...] = np.eye(2)
        enc.biases[0].values[...] = 0.0
        x = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(enc.forward_array(x), [[0.6, 0.8]], atol=1e-12)

    def test_output_rows_unit_norm(self):
        enc = init_encoder([3, 8, 2], seed=1)
        z = enc.forward_array(np.random.default_rng(0).standard_normal((50, 3)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)

    # a zero input row gives a zero embedding row (the biases start at zero),
    # which normalisation keeps at zero through its eps
    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    @pytest.mark.parametrize("normalize", [True, False], ids=["unit", "raw"])
    @pytest.mark.parametrize("zero_row", [False, True], ids=["dense", "zero-row"])
    @pytest.mark.parametrize("shape", [(10, 3), (3, 10, 3)], ids=["rows", "views"])
    def test_graph_and_array_forwards_agree(self, activation, normalize, zero_row,
                                            shape):
        enc = init_encoder([3, 8, 2], seed=2, activation=activation,
                           output_normalize=normalize)
        x = np.random.default_rng(1).standard_normal(shape)
        if zero_row:
            x[..., 4, :] = 0.0
        array = enc.forward_array(x)
        # the graph forward takes a view stack: rows are one view
        graph = enc.forward(x if len(shape) == 3 else x[None]).values.reshape(array.shape)
        np.testing.assert_array_equal(graph, array)
        np.testing.assert_array_equal(np.signbit(graph), np.signbit(array))

    def test_dimension_mismatch(self):
        enc = init_encoder([3, 8, 2], seed=0)
        with pytest.raises(ShapeError):
            enc.forward(np.ones((1, 4, 5)))
        with pytest.raises(ShapeError, match="view stack"):  # rows are not a stack
            enc.forward(np.ones((4, 3)))

    def test_gradient_through_full_stack(self):
        # finite differences over every entry of a two-view input stack
        enc = init_encoder([3, 8, 2], seed=3)
        probe = np.random.default_rng(2).standard_normal((2, 6, 2))

        def f(t):
            return tensor_sum(mul(enc.forward(t), probe))

        x = Tensor(np.random.default_rng(3).standard_normal((2, 6, 3)))
        assert grad_check(f, x, tol=1e-4).passed


class TestEmaTwin:
    def test_momentum_zero_copies_source(self):
        enc = init_encoder([2, 4, 2], seed=5)
        twin = EmaTwin(enc, momentum=0.0)
        enc.weights[0].values += 1.0
        twin.update(enc)
        np.testing.assert_array_equal(twin.shadow.weights[0].values,
                                      enc.weights[0].values)

    def test_typical_momentum_value(self):
        enc = init_encoder([2, 2], seed=5)
        enc.weights[0].values[...] = 0.0
        twin = EmaTwin(enc, momentum=0.99)
        twin.shadow.weights[0].values[...] = 1.0
        twin.update(enc)
        np.testing.assert_allclose(twin.shadow.weights[0].values, 0.99)

    def test_momentum_one_rejected(self):
        with pytest.raises(ParameterError):
            EmaTwin(init_encoder([2, 2], seed=0), momentum=1.0)

    def test_geometric_convergence_to_constant_source(self):
        enc = init_encoder([2, 2], seed=6)
        twin = EmaTwin(enc, momentum=0.5)
        twin.shadow.weights[0].values += 1.0
        gaps = []
        for _ in range(4):
            twin.update(enc)
            gaps.append(np.abs(twin.shadow.weights[0].values
                               - enc.weights[0].values).max())
        for prev, cur in zip(gaps, gaps[1:]):
            np.testing.assert_allclose(cur, 0.5 * prev, rtol=1e-12)

    def test_update_stays_off_graph(self):
        enc = init_encoder([2, 4, 2], seed=7)
        twin = EmaTwin(enc, momentum=0.9)
        twin.update(enc)
        for t in twin.shadow.weights + twin.shadow.biases:
            assert not t.requires_grad


class TestPrototypes:
    def test_rows_unit_norm(self):
        bank = init_prototypes(32, 8, seed=0)
        np.testing.assert_allclose(np.linalg.norm(bank.matrix.values, axis=1),
                                   1.0, atol=1e-9)

    def test_spherical_mean_concentrates(self):
        bank = init_prototypes(4096, 16, seed=0)
        assert np.linalg.norm(bank.matrix.values.mean(axis=0)) < 0.05

    def test_frozen_bank_has_no_parameters(self):
        assert init_prototypes(8, 4, seed=0, trainable=False).parameters() == []

    def test_renormalize_after_a_step(self):
        bank = init_prototypes(8, 4, seed=0)
        bank.matrix.values -= 0.3 * np.random.default_rng(1).standard_normal((8, 4))
        bank.renormalize()
        np.testing.assert_allclose(np.linalg.norm(bank.matrix.values, axis=1), 1.0,
                                   atol=1e-15)
        frozen = init_prototypes(8, 4, seed=0, trainable=False)
        frozen.matrix.values *= 2.0
        before = frozen.matrix.values.copy()
        frozen.renormalize()
        np.testing.assert_array_equal(frozen.matrix.values, before)

    def test_too_small_bank_rejected(self):
        with pytest.raises(ParameterError):
            init_prototypes(1, 4, seed=0)


class TestSgdStep:
    def _param(self, value, grad, group="encoder"):
        t = Tensor(value, requires_grad=True)
        t.grad = np.asarray(grad, dtype=np.float64).reshape(t.shape)
        return Param("p", t, group)

    def test_zero_lr_no_change(self):
        p = self._param([[1.0]], [[2.0]])
        sgd_step([p], lr=0.0)
        assert p.tensor.values[0, 0] == 1.0

    def test_scalar_arithmetic(self):
        p = self._param([[1.0]], [[2.0]])
        sgd_step([p], lr=0.1)
        np.testing.assert_allclose(p.tensor.values, [[0.8]])
        assert p.tensor.grad is None  # grads are zeroed by the step

    def test_missing_grad_rejected(self):
        p = Param("p", Tensor([[1.0]], requires_grad=True), "encoder")
        with pytest.raises(ValueError):
            sgd_step([p], lr=0.1)

    def test_predictor_multiplier_scales_only_its_group(self):
        enc_p = self._param([[1.0]], [[1.0]], "encoder")
        pred_p = self._param([[1.0]], [[1.0]], "predictor")
        sgd_step([enc_p, pred_p], lr=0.1, per_group_multipliers={"predictor": 0.01})
        np.testing.assert_allclose(enc_p.tensor.values, [[0.9]])
        np.testing.assert_allclose(pred_p.tensor.values, [[0.999]])


def test_predictor_requires_square_dims():
    pred = init_predictor(4, seed=0)
    assert pred.weights[0].shape[0] == pred.weights[-1].shape[1] == 4


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    enc = init_encoder([3, 8, 2], seed=9)
    params = enc.parameters()
    original = [p.tensor.values.copy() for p in params]
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    for p in params:
        p.tensor.values += np.pi
    load_checkpoint(path, params)
    for p, orig in zip(params, original):
        np.testing.assert_array_equal(p.tensor.values, orig)
