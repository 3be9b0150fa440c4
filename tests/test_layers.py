import numpy as np
import pytest

from centerlab.autodiff import ParameterError, ShapeError, Tensor, backward
from centerlab.harness import Trainer, run_experiment
from centerlab.registry import named_experiment
from centerlab.layers import (EmaTwin, init_encoder, init_predictor,
                              init_prototypes, load_checkpoint,
                              save_checkpoint, sgd_step)
from oracles import (assert_bits_equal, ema_update_per_param, grad_check, group_params,
                     loose_params, mul, sgd_step_per_param, tensor_sum)


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
        # a trainable bank's matrix is its group; a frozen bank has none
        assert init_prototypes(8, 4, seed=0, trainable=False).group is None
        bank = init_prototypes(8, 4, seed=0)
        assert bank.group is bank.matrix and bank.matrix.requires_grad

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


class TestSgdStep:
    # a loose leaf is a group of its own
    def _group(self, value, grad):
        t = Tensor(value, requires_grad=True)
        t.grad = np.asarray(grad, dtype=np.float64).reshape(t.shape)
        return t

    def test_zero_lr_no_change(self):
        t = self._group([[1.0]], [[2.0]])
        sgd_step({"encoder": t}, lr=0.0)
        assert t.values[0, 0] == 1.0

    def test_scalar_arithmetic(self):
        t = self._group([[1.0]], [[2.0]])
        sgd_step({"encoder": t}, lr=0.1)
        np.testing.assert_allclose(t.values, [[0.8]])
        assert t.grad is None  # grads are zeroed by the step

    def test_predictor_multiplier_scales_only_its_group(self):
        enc, pred = self._group([[1.0]], [[1.0]]), self._group([[1.0]], [[1.0]])
        sgd_step({"encoder": enc, "predictor": pred}, lr=0.1,
                 per_group_multipliers={"predictor": 0.01})
        np.testing.assert_allclose(enc.values, [[0.9]])
        np.testing.assert_allclose(pred.values, [[0.999]])


class TestGroupedUpdates:
    """``sgd_step`` and ``EmaTwin.update`` update each group's flat arrays in
    one pass, bit for bit as the per-parameter loops do, signs of zeros too."""

    @staticmethod
    def _stepped_trainer():
        # s24: a linear predictor whose learning rate is 0.01 of the encoder's
        cfg = dict(named_experiment("s24-predictor-lr"))["multiplier-0.01"]
        trainer = Trainer(cfg, seed=0)
        idx = np.arange(cfg.optimizer.batch_size)
        x = np.stack([trainer.augmented.points[idx], trainer.augmented.points[idx[::-1]]])
        backward(trainer.objective.step(trainer.state, cfg.loss, x,
                                        trainer.state.encoder.forward(x))[0])
        for group in trainer.groups.values():
            # -0.0 against a value of 0.0 and of -0.0, and an encoder step
            # at lr 0.5 that takes a value to exactly 0.0
            group.values[:3] = [0.0, -0.0, 0.25]
            group.grad[:3] = [-0.0, 0.0, 0.5]
        return trainer

    def test_sgd_step_matches_the_per_parameter_loop(self):
        trainer = self._stepped_trainer()
        assert set(trainer.groups) == {"encoder", "predictor"}
        assert trainer.lr_multipliers == {"predictor": 0.01}
        want = loose_params(group_params(trainer))
        sgd_step_per_param(want, 0.5, trainer.lr_multipliers)
        sgd_step(trainer.groups, 0.5, trainer.lr_multipliers)
        for (name, got), (ref_name, ref) in zip(group_params(trainer), want, strict=True):
            assert name == ref_name
            assert_bits_equal(got.values, ref.values)
            assert got.grad is None
        # the zero entries kept their signs, and the last one reached 0.0
        assert np.signbit(trainer.groups["encoder"].values[:3]).tolist() == [False, True, False]

    @pytest.mark.parametrize("momentum", [0.0, 0.5, 0.99])
    def test_ema_update_matches_the_per_parameter_loop(self, momentum):
        trainer = self._stepped_trainer()
        source = trainer.state.encoder
        twin, want = EmaTwin(source, momentum), EmaTwin(source, momentum)
        source.group.values += 0.5 * np.random.default_rng(4).standard_normal(
            source.group.values.shape)
        source.group.values[:2] = [-0.0, 0.0]
        twin.shadow.group.values[:2] = [-0.0, -0.0]
        want.shadow.group.values[:2] = [-0.0, -0.0]
        for _ in range(3):
            twin.update(source)
            ema_update_per_param(want.shadow, source, momentum)
        assert_bits_equal(twin.shadow.group.values, want.shadow.group.values)


class TestGroupIntegrity:
    """Every parameter's values stay a view of its group's values: a
    parameter rebound to an array of its own would read stale values while
    ``sgd_step`` moves the group."""

    @staticmethod
    def assert_grouped(stack, group):
        params = stack.weights + stack.biases
        assert stack.group is group
        assert sum(p.values.size for p in params) == group.values.size
        for i, p in enumerate(params):
            assert np.shares_memory(p.values, group.values), i
            assert p.group is group

    def test_after_a_run(self, tmp_path):
        cfg = dict(named_experiment("s24-predictor-lr"))["multiplier-0.1"]
        cfg.optimizer.epochs, cfg.num_seeds = 2, 1
        trainer = run_experiment(cfg, tmp_path).trainers[0]
        for name, group in trainer.groups.items():
            self.assert_grouped(getattr(trainer.state, name), group)
        assert list(trainer.groups) == ["encoder", "predictor"]

    def test_after_load_checkpoint(self, tmp_path):
        enc = init_encoder([3, 8, 2], seed=9)
        save_checkpoint(tmp_path / "ckpt.npz", {"encoder": enc.group})
        load_checkpoint(tmp_path / "ckpt.npz", {"encoder": enc.group})
        self.assert_grouped(enc, enc.group)

    def test_after_copy(self):
        enc = init_encoder([3, 8, 2], seed=9)
        twin = enc.copy()
        self.assert_grouped(twin, twin.group)
        assert not np.shares_memory(twin.group.values, enc.group.values)
        assert not twin.group.requires_grad
        assert_bits_equal(twin.group.values, enc.group.values)

    def test_linear_predictor(self):
        pred = init_predictor(4, seed=0, hidden_multiple=0)
        self.assert_grouped(pred, pred.group)


def test_predictor_requires_square_dims():
    pred = init_predictor(4, seed=0)
    assert pred.weights[0].shape[0] == pred.weights[-1].shape[1] == 4


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    enc = init_encoder([3, 8, 2], seed=9)
    bank = init_prototypes(4, 2, seed=9)
    groups = {"encoder": enc.group, "prototypes": bank.group}
    params = enc.weights + enc.biases + [bank.matrix]
    original = [p.values.copy() for p in params]
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, groups)
    with np.load(path) as ckpt:  # one float64 array per group
        assert ckpt.files == ["encoder", "prototypes"]
        assert [ckpt[name].dtype for name in ckpt.files] == [np.float64] * 2
    for p in params:
        p.values += np.pi
    load_checkpoint(path, groups)
    for p, orig in zip(params, original):
        np.testing.assert_array_equal(p.values, orig)


@pytest.mark.parametrize("arrays, match", [
    ({"encoder.w0": np.zeros((3, 8))}, "lacks group encoder"),
    ({"encoder": np.zeros((1, 50))}, r"group encoder has shape \(1, 50\), not \(50,\)"),
], ids=["per-parameter-keys", "wrong-shape"])
def test_checkpoint_load_checks_each_group(tmp_path, arrays, match):
    enc = init_encoder([3, 8, 2], seed=9)
    before = enc.group.values.copy()
    np.savez(tmp_path / "ckpt.npz", **arrays)
    with pytest.raises(ValueError, match=match):
        load_checkpoint(tmp_path / "ckpt.npz", {"encoder": enc.group})
    assert_bits_equal(enc.group.values, before)
