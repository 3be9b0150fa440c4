import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerlab import autodiff as ad
from centerlab.autodiff import (ParameterError, ShapeError, Tensor, backward,
                                grad_check)


def leaf(values):
    return Tensor(values, requires_grad=True)


def grad_of(t):
    """Leaf gradient with None treated as the exact zero matrix."""
    return np.zeros(t.shape) if t.grad is None else t.grad


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.values, m)

    def test_basis_vector_selection(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [0.0]]))
        np.testing.assert_array_equal(out.values, [[1.0], [3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        w = rng.standard_normal((4, 2))
        rep = grad_check(lambda t: ad.tensor_sum(ad.matmul(t, b) * w), Tensor(a),
                         tol=1e-6)
        assert rep.max_rel_err < 1e-6
        rep = grad_check(lambda t: ad.tensor_sum(ad.matmul(Tensor(a), t) * w),
                         Tensor(b), tol=1e-6)
        assert rep.max_rel_err < 1e-6


# The composed graphs that `ad.linear` and `ad.l2_normalize_rows` replace:
# oracles that the fused nodes must match bit for bit.
def composed_tanh(a):
    a = ad._wrap(a)
    out_vals = np.tanh(a.values)

    def bwd(g):
        ad._accum(a, g * (1.0 - out_vals ** 2))

    return ad._make(out_vals, (a,), bwd)


def composed_linear(h, w, b, act):
    out = ad.matmul(h, w) + b
    return {"tanh": composed_tanh, "relu": ad.relu, "identity": lambda t: t}[act](out)


def composed_l2_normalize_rows(x, eps=1e-12):
    x = ad._wrap(x)
    sumsq = ad.tensor_sum(x * x, axis=1)
    denom = ad.power(sumsq + eps * eps, 0.5)
    return x / denom


def assert_bits_equal(got, want):
    """Equal values and equal signs of zeros; None only matches None."""
    if want is None:
        assert got is None
        return
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# every activation in the table; one without an oracle above fails
ACTIVATIONS = sorted(ad._ACTIVATIONS)


class TestLinear:
    @staticmethod
    def two_layer_grads(layer, normalize, act, h_grad, views=1):
        """Values and every gradient of a two-layer, normalized stack whose
        parameters `views` forwards share, under one scalar loss."""
        rng = np.random.default_rng(17)
        w0, b0 = leaf(rng.standard_normal((3, 8))), leaf(rng.standard_normal((1, 8)))
        w1, b1 = leaf(rng.standard_normal((8, 4))), leaf(rng.standard_normal((1, 4)))
        xs = [Tensor(rng.standard_normal((20, 3)), requires_grad=h_grad)
              for _ in range(views)]
        outs = [normalize(layer(layer(x, w0, b0, act), w1, b1, "identity"))
                for x in xs]
        loss = ad.tensor_sum(outs[0] * rng.standard_normal((20, 4)))
        for out in outs[1:]:
            loss = loss + ad.tensor_sum(out * outs[0]) * -0.5
        backward(loss)
        return ([out.values for out in outs]
                + [t.grad for t in [w0, b0, w1, b1] + xs])

    @pytest.mark.parametrize("views", [1, 3])
    @pytest.mark.parametrize("h_grad", [False, True])
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_stack_matches_composed(self, act, h_grad, views):
        # three forwards through one set of parameters accumulate three
        # gradients into each, so the order of the additions matters
        got = self.two_layer_grads(ad.linear, ad.l2_normalize_rows, act, h_grad, views)
        want = self.two_layer_grads(composed_linear, composed_l2_normalize_rows,
                                    act, h_grad, views)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                      Tensor(np.zeros((1, 3))), "tanh")

    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_backward_matches_finite_differences(self, act):
        rng = np.random.default_rng(23)
        h, w = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
        b, probe = rng.standard_normal((1, 4)), rng.standard_normal((5, 4))
        for f, x in ((lambda t: ad.linear(t, Tensor(w), Tensor(b), act), h),
                     (lambda t: ad.linear(Tensor(h), t, Tensor(b), act), w),
                     (lambda t: ad.linear(Tensor(h), Tensor(w), t, act), b)):
            rep = grad_check(lambda t: ad.tensor_sum(f(t) * probe), Tensor(x), tol=1e-6)
            assert rep.max_rel_err < 1e-6


class TestL2NormalizeRows:
    def test_345_triple(self):
        out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_fixed_point(self):
        row = np.array([[1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
        out = ad.l2_normalize_rows(Tensor(row))
        np.testing.assert_allclose(out.values, row, atol=1e-12)

    def test_gradient_orthogonal_to_input_direction(self):
        # the normalization Jacobian annihilates the direction of x itself
        rng = np.random.default_rng(3)
        x = leaf(rng.standard_normal((1, 4)))
        out = ad.l2_normalize_rows(x)
        # pushing the output along x's own unit direction gives zero input grad
        z = out.values
        proxy = ad.tensor_sum(out * z)
        backward(proxy)
        np.testing.assert_allclose(grad_of(x), np.zeros_like(x.values), atol=1e-9)

    @pytest.mark.parametrize("cols", [1, 5])
    def test_matches_composed_with_a_zero_row(self, cols):
        def grads(normalize):
            rng = np.random.default_rng(31)
            x = leaf(rng.standard_normal((40, cols)))
            upstream = rng.standard_normal((40, cols))
            # a zero row, and a row of -0.0 that meets a -0.0 gradient: the
            # sign of its input gradient depends on the composed sum order
            x.values[7] = 0.0
            x.values[8] = upstream[8] = -0.0
            out = normalize(x)
            backward(ad.tensor_sum(out * upstream))
            return out.values, x.grad

        got, want = grads(ad.l2_normalize_rows), grads(composed_l2_normalize_rows)
        np.testing.assert_array_equal(got[0][7:9], 0.0)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_output_rows_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 3))
        # keep row norms >= 1e-3 per the stated domain
        x += np.sign(x) * 1e-3
        out = ad.l2_normalize_rows(Tensor(x))
        norms = np.linalg.norm(out.values, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = ad.softmax_rows(Tensor([[2.0, 2.0, 2.0, 2.0]]), 1.0)
        np.testing.assert_allclose(out.values, 0.25, atol=1e-12)

    def test_low_temperature_one_hot(self):
        out = ad.softmax_rows(Tensor([[0.1, 0.9, 0.3]]), 1e-3)
        np.testing.assert_allclose(out.values, [[0.0, 1.0, 0.0]], atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = ad.softmax_rows(Tensor(rng.standard_normal((6, 4)) * 20), 0.5)
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)

    def test_nonpositive_temperature(self):
        with pytest.raises(ParameterError):
            ad.softmax_rows(Tensor(np.ones((2, 2))), 0.0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5))
        w = rng.standard_normal((2, 5))
        rep = grad_check(lambda t: ad.tensor_sum(ad.softmax_rows(t, 0.4) * w),
                         Tensor(x), tol=1e-6)
        assert rep.max_rel_err < 1e-6


class TestLogsumexpRows:
    def test_single_element_row(self):
        out = ad.logsumexp_rows(Tensor([[1.7]]), 1.0)
        np.testing.assert_allclose(out.values, [[1.7]], atol=1e-12)

    def test_low_temperature_max_limit(self):
        out = ad.logsumexp_rows(Tensor([[0.1, 0.9, 0.3]]), 1e-4)
        assert abs(out.item() - 0.9) < 1e-3

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=(3, 4))
        out = ad.logsumexp_rows(Tensor(x), 1.0)
        direct = np.log(np.exp(x).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out.values, direct, atol=1e-12)


class TestStopGradient:
    def test_forward_identity(self):
        x = np.array([[1.0, -2.0], [3.0, 0.5]])
        np.testing.assert_array_equal(ad.stop_gradient(Tensor(x)).values, x)

    def test_blocked_branch_gets_exact_zero(self):
        rng = np.random.default_rng(1)
        x = leaf(rng.standard_normal((3, 2)))
        y = leaf(rng.standard_normal((3, 2)))
        backward(ad.tensor_sum(ad.stop_gradient(x) * y))
        np.testing.assert_array_equal(grad_of(x), np.zeros(x.shape))

    def test_open_branch_gets_the_other_operand(self):
        rng = np.random.default_rng(2)
        x = leaf(rng.standard_normal((3, 2)))
        y = leaf(rng.standard_normal((3, 2)))
        backward(ad.tensor_sum(ad.stop_gradient(x) * y))
        np.testing.assert_allclose(grad_of(y), x.values, atol=1e-15)


class TestBatchNormCols:
    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.full(4, 3.0), np.arange(4.0)])
        out = ad.batch_norm_cols(Tensor(x))
        np.testing.assert_allclose(out.values[:, 0], 0.0, atol=1e-6)

    def test_column_means_vanish(self):
        rng = np.random.default_rng(9)
        out = ad.batch_norm_cols(Tensor(rng.standard_normal((8, 4))))
        assert np.abs(out.values.mean(axis=0)).max() < 1e-12

    def test_batch_of_one_rejected(self):
        with pytest.raises(ShapeError):
            ad.batch_norm_cols(Tensor(np.ones((1, 3))))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 4))
        w = rng.standard_normal((8, 4))
        rep = grad_check(lambda t: ad.tensor_sum(ad.batch_norm_cols(t) * w),
                         Tensor(x), tol=1e-5)
        assert rep.max_rel_err < 1e-5


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        backward(ad.tensor_sum(x))
        np.testing.assert_array_equal(grad_of(x), np.ones((2, 3)))

    def test_half_square_norm_gives_x(self):
        x = leaf(np.array([[1.0, -2.0, 3.0]]))
        backward(ad.tensor_sum(x * x) * 0.5)
        np.testing.assert_allclose(grad_of(x), x.values, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(leaf(np.ones((2, 2))))

    def test_accumulation_without_zeroing(self):
        x = leaf(np.array([[2.0]]))
        loss = ad.tensor_sum(x * x)
        backward(loss)
        backward(loss)
        np.testing.assert_allclose(grad_of(x), [[8.0]])

    def test_composite_chain_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((3, 4))
        probe = rng.standard_normal((5, 4))

        def f(t):
            z = ad.l2_normalize_rows(t)
            p = ad.softmax_rows(ad.matmul(z, Tensor(w)), 0.5)
            return ad.tensor_sum(p * probe)

        rep = grad_check(f, Tensor(rng.standard_normal((5, 3))), tol=1e-4)
        assert rep.max_rel_err < 1e-4



def zeros_then_add(t, g):
    """`_accum` as it was: allocate zeros on the first write, then add."""
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


class TestAccum:
    """First writes copy the incoming gradient into an owned C-ordered array."""

    def test_grads_c_contiguous_after_transposed_matmul(self):
        rng = np.random.default_rng(5)
        x = leaf(rng.standard_normal((6, 3)))
        z = composed_tanh(x)
        zt = z.T
        backward(ad.tensor_sum(ad.matmul(zt, z)))
        # y's only gradient arrives through transpose's backward, as g.T
        y = leaf(rng.standard_normal((6, 3)))
        backward(ad.tensor_sum(ad.matmul(y.T, Tensor(rng.standard_normal((6, 2))))))
        for t in (x, z, zt, y):
            assert t.grad.flags.c_contiguous

    def test_add_operands_never_share_a_grad(self):
        a, b = leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))
        out = a + b
        backward(ad.tensor_sum(out))
        assert a.grad is not b.grad
        for g, h in ((a.grad, b.grad), (a.grad, out.grad), (b.grad, out.grad)):
            assert not np.shares_memory(g, h)

    def test_self_add_accumulates_into_its_own_array(self):
        x = leaf(np.ones((2, 3)))
        out = x + x
        backward(ad.tensor_sum(out))
        assert not np.shares_memory(x.grad, out.grad)
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(out.grad, np.ones((2, 3)))

    def test_transpose_matmul_grads_bit_equal_to_zeros_then_add(self, monkeypatch):
        def grads():
            rng = np.random.default_rng(8)
            x = leaf(rng.standard_normal((64, 16)))
            b = leaf(rng.standard_normal((1, 16)))
            w = leaf(rng.standard_normal((16, 16)))
            # h's first gradient is the F-ordered g.T; b's is its column sum
            h = ad.matmul(x, w) + b
            v = Tensor(rng.standard_normal((64, 3)))
            backward(ad.tensor_sum(composed_tanh(ad.matmul(h.T, v))))
            return [t.grad for t in (x, b, w)]

        new = grads()
        monkeypatch.setattr(ad, "_accum", zeros_then_add)
        old = grads()
        for g_new, g_old in zip(new, old):
            assert g_new.flags.c_contiguous and g_old.flags.c_contiguous
            assert g_new.tobytes() == g_old.tobytes()

    def test_relu_signed_zero_grads_equal_to_zeros_then_add(self, monkeypatch):
        def grads():
            # relu's backward gives x[0, 0] a -0.0 (a negative g times a
            # False mask); zeros + g turned it into +0.0, a copy keeps it
            x = leaf(np.array([[-1.0, 2.0], [3.0, -4.0]]))
            w = leaf(np.array([[1.0, 1.0], [-1.0, -1.0]]))
            backward(ad.tensor_sum(ad.matmul(ad.relu(x), w) * -1.0))
            return [x.grad, w.grad]

        new = grads()
        monkeypatch.setattr(ad, "_accum", zeros_then_add)
        old = grads()
        # equal values; the only bit that differs is the sign of that zero
        np.testing.assert_array_equal(new[0], old[0])
        sign_flips = np.signbit(new[0]) != np.signbit(old[0])
        np.testing.assert_array_equal(sign_flips, [[True, False], [False, False]])
        assert new[1].tobytes() == old[1].tobytes()


class TestGradCheck:
    def test_sum_is_exact(self):
        rep = grad_check(ad.tensor_sum, Tensor(np.random.default_rng(0).standard_normal((3, 3))))
        assert rep.max_rel_err < 1e-10

    def test_rejects_nonscalar_target(self):
        with pytest.raises(ShapeError):
            grad_check(lambda t: t, Tensor(np.ones((2, 2))))

    def test_rejects_out_of_range_step(self):
        with pytest.raises(ParameterError):
            grad_check(ad.tensor_sum, Tensor(np.ones((2, 2))), step=1e-2)

    def test_stop_gradient_contract(self):
        # f(t) = <sg(t), y> + <t, c>: the analytic gradient is c alone.
        rng = np.random.default_rng(4)
        y = rng.standard_normal((3, 2))
        c = rng.standard_normal((3, 2))
        x0 = rng.standard_normal((3, 2))

        def f(t):
            return ad.tensor_sum(ad.stop_gradient(t) * y) + ad.tensor_sum(t * c)

        # naive finite differences of f see through sg and disagree
        naive = grad_check(f, Tensor(x0))
        assert naive.max_rel_err > 0.01
        # the sg-respecting check freezes the blocked branch and agrees

        def f_frozen(t):
            return ad.tensor_sum(Tensor(x0) * y) + ad.tensor_sum(t * c)

        assert grad_check(f_frozen, Tensor(x0)).max_rel_err < 1e-10


@pytest.mark.parametrize("trial", range(20))
def test_primitive_gradients_randomized(trial):
    """Every primitive matches central finite differences on random inputs."""
    rng = np.random.default_rng(1000 + trial)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((4, 3))
    w44 = rng.standard_normal((4, 4))
    w46 = rng.standard_normal((4, 6))
    cases = [
        lambda t: ad.tensor_sum(composed_tanh(t) * w),
        lambda t: ad.tensor_sum(ad.relu(t + 0.01) * w),
        lambda t: ad.tensor_sum(ad.exp(t * 0.3) * w),
        lambda t: ad.tensor_sum(ad.l2_normalize_rows(t) * w),
        lambda t: ad.tensor_sum(ad.softmax_rows(t, 0.7) * w),
        lambda t: ad.tensor_sum(ad.logsumexp_rows(t, 0.7)),
        lambda t: ad.tensor_sum(ad.batch_norm_cols(t) * w),
        lambda t: ad.tensor_sum(ad.matmul(t, w.T) * w44),
        lambda t: ad.tensor_sum((t ** 2.0) * w),
        lambda t: ad.tensor_sum(ad.concat_cols(t, t * 2.0) * w46),
    ]
    for f in cases:
        assert grad_check(f, Tensor(x), step=1e-5, tol=1e-4).passed


def test_replay_determinism():
    """Identical seeds and inputs give bit-identical losses and gradients."""
    def build(seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng.standard_normal((6, 4)))
        w = Tensor(rng.standard_normal((4, 4)))
        loss = ad.tensor_sum(ad.softmax_rows(ad.matmul(ad.l2_normalize_rows(x), w), 0.5) ** 2)
        backward(loss)
        return loss.item(), grad_of(x).copy()

    l1, g1 = build(99)
    l2, g2 = build(99)
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
