import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centerlab
from centerlab import autodiff as ad
from centerlab import losses as L
from centerlab.autodiff import ParameterError, ShapeError, Tensor, backward
from oracles import (Var, accum_views, add, assert_bits_equal,
                     composed_batch_norm_cols, composed_neg_cosine, composed_tanh,
                     composed_triplet, composed_views, exp, first_view, fold_case,
                     grad_check, leaf,
                     logsumexp_rows, matmul, mul, power, relu, softmax_rows,
                     stack_views, stop_gradient, tensor_sum)


def grad_of(t):
    """Leaf gradient with None treated as the exact zero matrix."""
    return np.zeros(t.shape) if t.grad is None else t.grad


def test_library_builds_fused_nodes_only():
    # the composed op library, its operators and its exports live in the
    # oracles, so no src path can build a graph the second way
    moved = ("_wrap add sub mul div neg power matmul transpose tensor_sum tensor_mean "
             "relu exp log softmax_rows logsumexp_rows stop_gradient").split()
    assert [name for name in moved if hasattr(ad, name)] == []
    sugar = set(vars(Var)) - {"__module__", "__doc__", "__slots__"}
    assert len(sugar) == 12 and [name for name in sugar if hasattr(Tensor, name)] == []
    assert [name for name in moved if hasattr(centerlab, name)] == []


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.values, m)

    def test_basis_vector_selection(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [0.0]]))
        np.testing.assert_array_equal(out.values, [[1.0], [3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        w = rng.standard_normal((4, 2))
        rep = grad_check(lambda t: tensor_sum(matmul(t, b) * w), Tensor(a),
                         tol=1e-6)
        assert rep.max_rel_err < 1e-6
        rep = grad_check(lambda t: tensor_sum(matmul(Tensor(a), t) * w),
                         Tensor(b), tol=1e-6)
        assert rep.max_rel_err < 1e-6


def fused_views(xs, weights, biases, acts, normalize):
    """The views through one `ad.mlp` node, over the view Tensors' stack node
    when they carry gradients, else over their (V, m, k) array, as the
    trainer runs; returns the node."""
    if xs[0].requires_grad:
        return ad.mlp(stack_views(xs), weights, biases, acts, normalize)
    return ad.mlp(np.stack([x.values for x in xs]), weights, biases, acts, normalize)


def fused_linear(h, w, b, act):
    return first_view(ad.mlp(stack_views([h]), [w], [b], [act], normalize=False))


def normalize_rows(x):
    """Row normalisation alone: an mlp node without layers."""
    return first_view(ad.mlp(stack_views([x]), [], [], [], normalize=True))


# every activation in the table; one without a composed oracle fails
ACTIVATIONS = sorted(ad._ACTIVATIONS)


class TestLinear:
    @staticmethod
    def two_layer_grads(views_fn, act, h_grad, views=1, normalize=True,
                        loss_fn=None):
        """Values and every gradient of a two-layer stack whose parameters
        `views` forwards share, under one scalar loss of the views (in the
        form `views_fn` gives them: one stack or a list of 2-D Tensors); by
        default a probe of their stack."""
        rng = np.random.default_rng(17)
        w0, b0 = leaf(rng.standard_normal((3, 8))), leaf(rng.standard_normal((1, 8)))
        w1, b1 = leaf(rng.standard_normal((8, 4))), leaf(rng.standard_normal((1, 4)))
        xs = [Tensor(rng.standard_normal((20, 3)), requires_grad=h_grad)
              for _ in range(views)]
        outs = views_fn(xs, [w0, w1], [b0, b1], [act, "identity"], normalize)
        if loss_fn is None:
            stack = stack_views(outs) if isinstance(outs, list) else outs
            loss = tensor_sum(mul(stack, rng.standard_normal((views, 20, 4))))
        else:
            loss = loss_fn(outs)
        backward(loss)
        values = [out.values for out in outs] if isinstance(outs, list) else list(outs.values)
        return values + [t.grad for t in [w0, b0, w1, b1] + xs]

    @pytest.mark.parametrize("views", [1, 2, 3])
    @pytest.mark.parametrize("h_grad", [False, True])
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_stack_matches_composed(self, act, h_grad, views):
        # three forwards through one set of parameters accumulate three
        # gradients into each, so the order of the additions matters
        got = self.two_layer_grads(fused_views, act, h_grad, views)
        want = self.two_layer_grads(composed_views, act, h_grad, views)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)

    # triplet's two modes reach its three views in different orders
    @pytest.mark.parametrize("loss", ["probe", "invariance", "triplet-inf",
                                      "triplet-margin"])
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_stacked_views_match_composed(self, act, normalize, loss):
        # the library loss on the mlp node's stack against the composed loss
        # on one composed graph per view
        probe = np.random.default_rng(5).standard_normal((20, 4))
        views, fused_loss, composed_loss = {
            "probe": (1, lambda z: tensor_sum(mul(first_view(z), probe)),
                      lambda z: tensor_sum(mul(z[0], probe))),
            "invariance": (2, L.invariance_loss, lambda z: composed_neg_cosine(*z)),
            "triplet-inf": (3, L.triplet_loss, lambda z: composed_triplet(*z)),
            "triplet-margin": (3, lambda z: L.triplet_loss(z, margin=0.5),
                               lambda z: composed_triplet(*z, margin=0.5)),
        }[loss]
        got, want = (self.two_layer_grads(fn, act, False, views, normalize, loss_fn)
                     for fn, loss_fn in ((fused_views, fused_loss),
                                         (composed_views, composed_loss)))
        assert len(got) == len(want) == 2 * views + 4
        for g, w in zip(got, want):
            assert_bits_equal(g, w)

    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_backward_matches_finite_differences(self, act):
        rng = np.random.default_rng(23)
        h, w = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
        b, probe = rng.standard_normal((1, 4)), rng.standard_normal((5, 4))
        for f, x in ((lambda t: fused_linear(t, Tensor(w), Tensor(b), act), h),
                     (lambda t: fused_linear(Tensor(h), t, Tensor(b), act), w),
                     (lambda t: fused_linear(Tensor(h), Tensor(w), t, act), b)):
            rep = grad_check(lambda t: tensor_sum(mul(f(t), probe)), Tensor(x), tol=1e-6)
            assert rep.max_rel_err < 1e-6


def two_layer_params(rng, grouped):
    """The weights and biases of a (3, 5, 4) stack: Views of one group, as
    ``init_encoder`` builds them, or loose leaves, each a group of its own."""
    arrays = [rng.standard_normal(shape) for shape in ((3, 5), (1, 5), (5, 4), (1, 4))]
    params = ad.pack(arrays) if grouped else [leaf(a) for a in arrays]
    return params[0::2], params[1::2]


class TestMlpFold:
    """Each parameter of an ``mlp`` over V views gets its views' gradients
    bit for bit as ``_accum`` hands them out one at a time in the order the
    node's consumer names: as one fold when its group holds no gradient,
    view by view onto the one it holds."""

    # every order of one, two and three views
    ORDERS = [order for views in (1, 2, 3)
              for order in itertools.permutations(range(views))]

    GROUPED = True

    @pytest.mark.parametrize("sweeps", [1, 2])
    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_fold_matches_accum(self, order, normalize, rows, sweeps):
        rng = np.random.default_rng(31)
        views = len(order)
        weights, biases = two_layer_params(rng, self.GROUPED)
        acts = ["tanh", "identity"]
        x = fold_case((views, rows, 3), seed=1)
        # gradients spanning 20 decades, so the order of the adds shows, and a
        # column of -0.0 in every view, so the sign of a zero sum shows
        grads = [fold_case((rows, 4), seed=10 + v) for v in range(views)]
        for g in grads:
            g[:, 0] = -0.0
        node = ad.mlp(x, weights, biases, acts, normalize)
        # as a consumer whose composed graph reaches the views in this order
        node.view_order = order
        loss = ad._make(np.zeros((1, 1)), (node,),
                        lambda g: ad._accum(node, np.stack(grads)))
        params = (*weights, *biases)
        backward(loss)
        held = None
        if sweeps == 2:  # the second sweep adds onto the gradients held
            held = [p.grad.copy() for p in params]
            backward(loss)
        got = [p.grad for p in params]
        want = accum_views(x, weights, biases, acts, normalize, grads, order, held)
        for g, w in zip(got, want, strict=True):
            assert g.flags.c_contiguous
            assert_bits_equal(g, w)
        if rows == 1 and not normalize:  # the -0.0 column reaches the last layer
            assert any(np.signbit(g[g == 0.0]).any() for g in got)

    @pytest.mark.parametrize("margin,order", [(None, (2, 0, 1)), (0.5, (1, 0, 2))],
                             ids=["inf", "margin"])
    def test_triplet_names_its_fold_order(self, margin, order):
        # the composed infinite-margin graph reaches the views (n, a, p), the
        # finite one (p, a, n); the triplet node names that order to the mlp
        # node, whose parameters fold the views' gradients in it. The second
        # sweep adds onto held gradients, where (p, a, n) and view order differ
        rng = np.random.default_rng(3)
        weights, biases = two_layer_params(rng, self.GROUPED)
        acts = ["tanh", "identity"]
        x = rng.standard_normal((3, 6, 3))
        node = ad.mlp(x, weights, biases, acts, True)
        loss = L.triplet_loss(node, margin)
        assert node.view_order == order
        params = (*weights, *biases)
        backward(loss)
        held = [p.grad.copy() for p in params]
        backward(loss)
        grads = list(node.grad)
        got = [p.grad for p in params]
        for first, want in ((held, None), (got, held)):  # from none, then onto held
            for g, w in zip(first, accum_views(x, weights, biases, acts, True, grads,
                                               order, want), strict=True):
                assert_bits_equal(g, w)
        # and the data tell the order apart from view order
        in_view_order = accum_views(x, weights, biases, acts, True, grads, (0, 1, 2), held)
        assert any((g != w).any() for g, w in zip(got, in_view_order))


class TestMlpFoldLoose(TestMlpFold):
    """The same folds for loose parameters, each a group of its own."""

    GROUPED = False


class TestL2NormalizeRows:
    def test_345_triple(self):
        out = normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_fixed_point(self):
        row = np.array([[1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
        out = normalize_rows(Tensor(row))
        np.testing.assert_allclose(out.values, row, atol=1e-12)

    def test_gradient_orthogonal_to_input_direction(self):
        # the normalization Jacobian annihilates the direction of x itself
        rng = np.random.default_rng(3)
        x = leaf(rng.standard_normal((1, 4)))
        out = normalize_rows(x)
        # pushing the output along x's own unit direction gives zero input grad
        z = out.values
        proxy = tensor_sum(mul(out, z))
        backward(proxy)
        np.testing.assert_allclose(grad_of(x), np.zeros_like(x.values), atol=1e-9)

    # rows or a view stack, normalised alone or after one layer as wide as
    # its input; the (300, 2) rows and the (2, 1000, 2) stack are thin, so
    # the node runs its broadcasts and sums column by column
    @pytest.mark.parametrize("shape,act", [
        ((40, 1), None), ((40, 5), None), ((300, 2), None), ((300, 2), "identity"),
        ((300, 2), "tanh"), ((2, 1000, 2), None), ((2, 1000, 2), "identity"),
        ((2, 1000, 2), "tanh")], ids=[
        "1", "5", "300x2", "300x2-identity", "300x2-tanh", "2x1000x2",
        "2x1000x2-identity", "2x1000x2-tanh"])
    def test_matches_composed_with_a_zero_row(self, shape, act):
        def grads(views_fn):
            rng = np.random.default_rng(31)
            views, (m, n) = (shape[0] if len(shape) == 3 else 1), shape[-2:]
            xs = [leaf(rng.standard_normal((m, n))) for _ in range(views)]
            upstream = rng.standard_normal((views, m, n))
            # a zero row, and a row of -0.0 that meets a -0.0 gradient: the
            # sign of its input gradient depends on the composed sum order
            for x, up in zip(xs, upstream):
                x.values[7] = 0.0
                x.values[8] = up[8] = -0.0
            ws, bs = ([leaf(rng.standard_normal(s))] if act else []
                      for s in ((n, n), (1, n)))
            out = views_fn(xs, ws, bs, [act] if act else [], True)
            stack = stack_views(out) if isinstance(out, list) else out
            backward(tensor_sum(mul(stack, upstream)))
            return [stack.values] + [t.grad for t in (*ws, *bs, *xs)]

        got, want = grads(fused_views), grads(composed_views)
        assert ad._thin(got[0]) == (shape[-2] > 40)
        if act is None:
            np.testing.assert_array_equal(got[0][:, 7:9], 0.0)
        for g, w in zip(got, want, strict=True):
            assert_bits_equal(g, w)

    # collapse-full's encoder, dims [3, 8, 2] over a (2, 1000, 3) stack: the
    # hidden layer is long but not thin, so only its bias gradient's sum runs
    # by columns (einsum), and every broadcast of it runs as one numpy call
    @pytest.mark.parametrize("act", ["identity", "tanh"])
    def test_matches_composed_on_a_long_wide_hidden_layer(self, act):
        def grads(views_fn):
            rng = np.random.default_rng(32)
            xs = [leaf(fold_case((1000, 3), v) * 1e-12) for v in range(2)]
            upstream = rng.standard_normal((2, 1000, 2))
            ws = [leaf(rng.standard_normal(s)) for s in ((3, 8), (8, 2))]
            bs = [leaf(rng.standard_normal(s)) for s in ((1, 8), (1, 2))]
            out = views_fn(xs, ws, bs, [act, "identity"], True)
            stack = stack_views(out) if isinstance(out, list) else out
            backward(tensor_sum(mul(stack, upstream)))
            return [stack.values] + [t.grad for t in (*ws, *bs, *xs)]

        hidden = np.empty((2, 1000, 8))
        assert ad._long(hidden) and not ad._thin(hidden)
        for g, w in zip(grads(fused_views), grads(composed_views), strict=True):
            assert_bits_equal(g, w)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_output_rows_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 3))
        # keep row norms >= 1e-3 per the stated domain
        x += np.sign(x) * 1e-3
        out = normalize_rows(Tensor(x))
        norms = np.linalg.norm(out.values, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(Tensor([[2.0, 2.0, 2.0, 2.0]]), 1.0)
        np.testing.assert_allclose(out.values, 0.25, atol=1e-12)

    def test_low_temperature_one_hot(self):
        out = softmax_rows(Tensor([[0.1, 0.9, 0.3]]), 1e-3)
        np.testing.assert_allclose(out.values, [[0.0, 1.0, 0.0]], atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = softmax_rows(Tensor(rng.standard_normal((6, 4)) * 20), 0.5)
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)

    def test_nonpositive_temperature(self):
        with pytest.raises(ParameterError):
            softmax_rows(Tensor(np.ones((2, 2))), 0.0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5))
        w = rng.standard_normal((2, 5))
        rep = grad_check(lambda t: tensor_sum(softmax_rows(t, 0.4) * w),
                         Tensor(x), tol=1e-6)
        assert rep.max_rel_err < 1e-6


class TestLogsumexpRows:
    def test_single_element_row(self):
        out = logsumexp_rows(Tensor([[1.7]]), 1.0)
        np.testing.assert_allclose(out.values, [[1.7]], atol=1e-12)

    def test_low_temperature_max_limit(self):
        out = logsumexp_rows(Tensor([[0.1, 0.9, 0.3]]), 1e-4)
        assert abs(out.item() - 0.9) < 1e-3

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=(3, 4))
        out = logsumexp_rows(Tensor(x), 1.0)
        direct = np.log(np.exp(x).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out.values, direct, atol=1e-12)


class TestStopGradient:
    def test_forward_identity(self):
        x = np.array([[1.0, -2.0], [3.0, 0.5]])
        np.testing.assert_array_equal(stop_gradient(Tensor(x)).values, x)

    def test_blocked_branch_gets_exact_zero(self):
        rng = np.random.default_rng(1)
        x = leaf(rng.standard_normal((3, 2)))
        y = leaf(rng.standard_normal((3, 2)))
        backward(tensor_sum(stop_gradient(x) * y))
        np.testing.assert_array_equal(grad_of(x), np.zeros(x.shape))

    def test_open_branch_gets_the_other_operand(self):
        rng = np.random.default_rng(2)
        x = leaf(rng.standard_normal((3, 2)))
        y = leaf(rng.standard_normal((3, 2)))
        backward(tensor_sum(stop_gradient(x) * y))
        np.testing.assert_allclose(grad_of(y), x.values, atol=1e-15)


class TestBatchNormCols:
    @pytest.mark.parametrize("case", ["random", "no-grad", "constant-column",
                                      "signed-zeros", "one-column"])
    def test_fused_node_matches_composed(self, case):
        # values, the input's gradient and the signs of its zeros; the input
        # receives two accumulations, as from the composed sub and sum nodes
        def run(batch_norm):
            rng = np.random.default_rng(11)
            x = rng.standard_normal((7, 3))
            if case == "constant-column":
                x[:, 1] = 0.25
            elif case == "signed-zeros":
                x[2] = -0.0
                x[:, 0] = -0.0
            elif case == "one-column":
                x = x[:, :1].copy()
            t = Tensor(x, requires_grad=case != "no-grad")
            out = batch_norm(t)
            loss = tensor_sum(mul(out, rng.standard_normal(x.shape)))
            backward(loss)
            return [out.values, loss.values, t.grad]

        for got, want in zip(run(ad.batch_norm_cols), run(composed_batch_norm_cols)):
            assert_bits_equal(got, want)

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.full(4, 3.0), np.arange(4.0)])
        out = ad.batch_norm_cols(Tensor(x))
        np.testing.assert_allclose(out.values[:, 0], 0.0, atol=1e-6)

    def test_column_means_vanish(self):
        rng = np.random.default_rng(9)
        out = ad.batch_norm_cols(Tensor(rng.standard_normal((8, 4))))
        assert np.abs(out.values.mean(axis=0)).max() < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 4))
        w = rng.standard_normal((8, 4))
        rep = grad_check(lambda t: tensor_sum(mul(ad.batch_norm_cols(t), w)),
                         Tensor(x), tol=1e-5)
        assert rep.max_rel_err < 1e-5


class TestItem:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 1, 1)], ids=["2-d", "view-stack"])
    def test_reads_the_one_element(self, shape):
        assert Tensor(np.full(shape, -2.5)).item() == -2.5

    def test_more_than_one_element_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 1, 1))).item()


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        backward(tensor_sum(x))
        np.testing.assert_array_equal(grad_of(x), np.ones((2, 3)))

    def test_half_square_norm_gives_x(self):
        x = leaf(np.array([[1.0, -2.0, 3.0]]))
        backward(tensor_sum(x * x) * 0.5)
        np.testing.assert_allclose(grad_of(x), x.values, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(leaf(np.ones((2, 2))))

    def test_accumulation_without_zeroing(self):
        x = leaf(np.array([[2.0]]))
        loss = tensor_sum(x * x)
        backward(loss)
        backward(loss)
        np.testing.assert_allclose(grad_of(x), [[8.0]])

    def test_composite_chain_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((3, 4))
        probe = rng.standard_normal((5, 4))

        def f(t):
            z = normalize_rows(t)
            p = softmax_rows(matmul(z, Tensor(w)), 0.5)
            return tensor_sum(p * probe)

        rep = grad_check(f, Tensor(rng.standard_normal((5, 3))), tol=1e-4)
        assert rep.max_rel_err < 1e-4



def zeros_then_add(t, g):
    """`_accum` as it was: allocate zeros on the first write, then add."""
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


class TestAccum:
    """First writes copy the incoming gradient into an owned C-ordered array,
    unless its giver built it for that write alone."""

    def test_shared_first_gradients_are_copied(self):
        # an array its giver still holds (the caller's own, a node's grad
        # passed through, a transposed view) must not become another
        # tensor's gradient: a later += would write through to the giver
        g = np.arange(6.0).reshape(1, 2, 3)
        x = leaf(np.ones((1, 2, 3)))
        node = ad.mlp(x, [], [], [], normalize=False)  # hands its gradient on
        backward(ad._make(np.zeros((1, 1)), (node,), lambda _: ad._accum(node, g)))
        for a, b in ((node.grad, g), (x.grad, node.grad), (x.grad, g)):
            assert not np.shares_memory(a, b)
        t = leaf(np.ones((3, 2)))
        L._hand_out((t, g[0].T))
        assert not np.shares_memory(t.grad, g) and t.grad.flags.c_contiguous
        np.testing.assert_array_equal(t.grad, g[0].T)

    def test_fresh_first_gradients_are_handed_over(self):
        t, u = leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))
        g = np.arange(6.0).reshape(2, 3)
        ad._accum(t, g, fresh=True)
        assert t.grad is g
        h = g * 2.0  # a loss term: built for its hand-out alone
        L._hand_out((u, h))
        assert u.grad is h

    def test_grads_c_contiguous_after_transposed_matmul(self):
        rng = np.random.default_rng(5)
        x = leaf(rng.standard_normal((6, 3)))
        z = composed_tanh(x)
        zt = z.T
        backward(tensor_sum(matmul(zt, z)))
        # y's only gradient arrives through transpose's backward, as g.T
        y = leaf(rng.standard_normal((6, 3)))
        backward(tensor_sum(matmul(y.T, Tensor(rng.standard_normal((6, 2))))))
        for t in (x, z, zt, y):
            assert t.grad.flags.c_contiguous

    def test_add_operands_never_share_a_grad(self):
        a, b = leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))
        out = a + b
        backward(tensor_sum(out))
        assert a.grad is not b.grad
        for g, h in ((a.grad, b.grad), (a.grad, out.grad), (b.grad, out.grad)):
            assert not np.shares_memory(g, h)

    def test_self_add_accumulates_into_its_own_array(self):
        x = leaf(np.ones((2, 3)))
        out = x + x
        backward(tensor_sum(out))
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
            h = matmul(x, w) + b
            v = Tensor(rng.standard_normal((64, 3)))
            backward(tensor_sum(composed_tanh(matmul(h.T, v))))
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
            backward(tensor_sum(matmul(relu(x), w) * -1.0))
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
        rep = grad_check(tensor_sum, Tensor(np.random.default_rng(0).standard_normal((3, 3))))
        assert rep.max_rel_err < 1e-10

    def test_rejects_nonscalar_target(self):
        with pytest.raises(ShapeError):
            grad_check(lambda t: t, Tensor(np.ones((2, 2))))

    def test_rejects_out_of_range_step(self):
        with pytest.raises(ParameterError):
            grad_check(tensor_sum, Tensor(np.ones((2, 2))), step=1e-2)

    def test_stop_gradient_contract(self):
        # f(t) = <sg(t), y> + <t, c>: the analytic gradient is c alone.
        rng = np.random.default_rng(4)
        y = rng.standard_normal((3, 2))
        c = rng.standard_normal((3, 2))
        x0 = rng.standard_normal((3, 2))

        def f(t):
            return tensor_sum(stop_gradient(t) * y) + tensor_sum(mul(t, c))

        # naive finite differences of f see through sg and disagree
        naive = grad_check(f, Tensor(x0))
        assert naive.max_rel_err > 0.01
        # the sg-respecting check freezes the blocked branch and agrees

        def f_frozen(t):
            return tensor_sum(Var(x0) * y) + tensor_sum(mul(t, c))

        assert grad_check(f_frozen, Tensor(x0)).max_rel_err < 1e-10


# (shape, thin): 1 row, 1 column, 2-4 columns at 256+ rows, 8+ columns; the
# view stacks of mlp's bias sums on both sides of the rule
FOLD_SHAPES = [((1, 3), False), ((300, 1), False), ((255, 2), False),
               ((2, 50, 2), False), ((256, 2), True), ((1000, 3), True),
               ((2, 1000, 2), True), ((300, 4), True), ((300, 5), False),
               ((300, 8), False), ((1000, 16), False), ((3, 85, 3), False),
               ((3, 86, 3), True), ((2, 1000, 8), False)]


# (shape, long) on both sides of the long rule (2+ columns, 256+ rows in
# all): 255/256 rows, either side of numpy's 8,192-element buffer, 20,000
# rows, a three-view stack of collapse-full's hidden width and 32 columns
LONG_SHAPES = [((255, 2), False), ((256, 2), True), ((2, 127, 5), False),
               ((2, 128, 5), True), ((8192, 2), True), ((8193, 2), True),
               ((1024, 8), True), ((1025, 8), True), ((20000, 2), True),
               ((3, 1000, 8), True), ((300, 32), True), ((1000, 1), False)]


class TestFolds:
    """``_row_sum`` and ``_col_sum`` are numpy's sums bit for bit, on both
    sides of the thin and the long rule."""

    @pytest.mark.parametrize("shape,thin", FOLD_SHAPES)
    def test_thin_rule(self, shape, thin):
        assert ad._thin(np.empty(shape)) == thin

    @pytest.mark.parametrize("shape,long", LONG_SHAPES)
    def test_long_rule(self, shape, long):
        assert ad._long(np.empty(shape)) == long

    @pytest.mark.parametrize("shape,thin", FOLD_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_row_sum(self, shape, thin, seed):
        a = fold_case(shape, seed)
        for x in (a, np.asfortranarray(a), -a, np.zeros(shape), -np.zeros(shape)):
            assert_bits_equal(ad._row_sum(x, thin), x.sum(axis=-1, keepdims=True))

    # 2-D shapes first, then mlp's (V, m, k) bias sums
    @pytest.mark.parametrize("shape,thin", sorted(FOLD_SHAPES, key=lambda c: len(c[0])))
    @pytest.mark.parametrize("seed", range(3))
    def test_col_sum(self, shape, thin, seed):
        a = fold_case(shape, seed)
        assert thin <= ad._long(a)  # every thin array is long
        for x in (a, np.asfortranarray(a), -a, np.zeros(shape), -np.zeros(shape)):
            assert_bits_equal(ad._col_sum(x, ad._long(x)), x.sum(axis=-2, keepdims=True))

    @pytest.mark.parametrize("shape,long", LONG_SHAPES)
    @pytest.mark.parametrize("seed", range(2))
    def test_col_sum_long(self, shape, long, seed):
        a = fold_case(shape, seed)
        one_nan = a.copy()
        one_nan[..., shape[-2] // 2, 0] = -np.nan
        with np.errstate(invalid="ignore"):
            for x in (a, -a, np.zeros(shape), -np.zeros(shape), one_nan,
                      special_case(shape, seed, nan=False)):
                assert_bits_equal(ad._col_sum(x, long), x.sum(axis=-2, keepdims=True))
            # where a NaN meets a NaN, which sign comes out is the inner loop's
            # choice, as in the broadcasts (from 8 columns on, einsum's and
            # sum's differ), so NaN entries match by place only
            x = special_case(shape, seed)
            got, want = ad._col_sum(x, long), x.sum(axis=-2, keepdims=True)
            np.testing.assert_array_equal(got, want)
            assert_bits_equal(np.where(np.isnan(got), 0.0, got), np.where(np.isnan(want), 0.0, want))
        # on values of one scale a fold's order shows: the mutant that folds
        # the rows in reverse fails where _col_sum passes
        x = np.random.default_rng(seed).standard_normal(shape)
        want = x.sum(axis=-2, keepdims=True)
        assert_bits_equal(ad._col_sum(x, long), want)
        with pytest.raises(AssertionError):
            assert_bits_equal(ad._col_sum(x[..., ::-1, :].copy(), long), want)

    @pytest.mark.parametrize("shape", [(2, 1000, 2), (3, 1000, 8), (2, 300, 32)])
    def test_col_sum_into_a_strided_block(self, shape):
        # as mlp's bias gradients: each view's row of one (V, P) array; values
        # of one scale, so the order of the fold shows in its bits
        a = np.random.default_rng(0).standard_normal(shape)
        views, _, k = shape
        out = np.empty((views, k + 5))[:, 2:k + 2].reshape(views, 1, k)
        assert ad._long(a) and not out.flags.c_contiguous
        assert ad._col_sum(a, True, out) is out
        assert_bits_equal(out, a.sum(axis=-2, keepdims=True))

    @pytest.mark.parametrize("x", [fold_case((1000, 1)), np.asfortranarray(fold_case((1000, 8))),
                                   fold_case((2, 8, 1000)).transpose(0, 2, 1)],
                             ids=["one-column", "F-ordered", "transposed-stack"])
    def test_col_sum_of_what_einsum_sums_otherwise(self, x):
        # numpy sums these pairwise and einsum does not, so each must take sum
        want = x.sum(axis=-2, keepdims=True)
        assert not np.array_equal(np.einsum("...ij->...j", x)[..., None, :], want)
        assert_bits_equal(ad._col_sum(x, ad._long(x)), want)
        if x.shape[-1] > 1:
            assert_bits_equal(ad._col_sum(x, True), want)

    def test_cancelling_entries(self):
        # in numpy's order each row and column sums to 0.0 or 1.0; a pairwise
        # sum of a column gives 128.0
        a = np.tile([[1e16, 1.0, -1e16], [1.0, -1e16, 1e16],
                     [-1e16, 1e16, 1.0], [-0.0, -0.0, -0.0]], (128, 1))
        assert ad._thin(a) and ad._long(a)
        assert_bits_equal(ad._row_sum(a, True), a.sum(axis=-1, keepdims=True))
        assert_bits_equal(ad._col_sum(a, True), a.sum(axis=0, keepdims=True))
        assert_bits_equal(ad._col_sum(a[::-1].copy(), True), a[::-1].sum(axis=0, keepdims=True))


def special_case(shape, seed=0, nan=True):
    """``fold_case`` with +-inf entries, and NaN ones when `nan`."""
    a = fold_case(shape, seed)
    pick = np.random.default_rng(seed + 100).random(shape)
    a[pick < 0.05] = np.inf
    a[(pick >= 0.05) & (pick < 0.1)] = -np.inf
    if nan:
        a[(pick >= 0.1) & (pick < 0.15)] = np.nan
    return a


# binary ops whose operands do not commute, and two that do
BROADCAST_OPS = [np.subtract, np.divide, np.add, np.multiply]


class TestBroadcasts:
    """``_by_col`` and ``_by_row`` are numpy's broadcasts bit for bit, given
    either answer of the thin rule on every shape: C- and F-ordered, with
    -0.0, +-inf and NaN entries, and in place. Only the array holds NaNs:
    where a NaN meets a NaN, which one's sign comes out is numpy's inner
    loop's choice, and an F-ordered array's contiguous columns take another
    loop than the whole array (46 signs of a (1000, 16) add differ).
    """

    @staticmethod
    def operands(shape):
        a = special_case(shape)
        return a, np.asfortranarray(a), -a

    @pytest.mark.parametrize("shape", [shape for shape, _ in FOLD_SHAPES])
    @pytest.mark.parametrize("thin", [False, True])
    def test_by_col(self, shape, thin):
        col = special_case((*shape[:-1], 1), 1, nan=False)
        with np.errstate(all="ignore"):
            for a, op in itertools.product(self.operands(shape), BROADCAST_OPS):
                assert_bits_equal(ad._by_col(op, a, col, thin), op(a, col))
                assert_bits_equal(ad._by_col(op, a, -col, thin), op(a, -col))

    @pytest.mark.parametrize("shape", [shape for shape, _ in FOLD_SHAPES])
    @pytest.mark.parametrize("thin", [False, True])
    def test_by_row(self, shape, thin):
        row = special_case((1, shape[-1]), 2, nan=False)
        with np.errstate(all="ignore"):
            for a, op, r in itertools.product(self.operands(shape), BROADCAST_OPS,
                                              (row, row[0], -row)):
                want = op(a, r)
                assert_bits_equal(ad._by_row(op, a, r, thin), want)
                inplace = a.copy(order="K")
                assert ad._by_row(op, inplace, r, thin, out=inplace) is inplace
                assert_bits_equal(inplace, want)


@pytest.mark.parametrize("trial", range(20))
def test_primitive_gradients_randomized(trial):
    """Every primitive matches central finite differences on random inputs."""
    rng = np.random.default_rng(1000 + trial)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((4, 3))
    w44 = rng.standard_normal((4, 4))
    cases = [
        lambda t: tensor_sum(composed_tanh(t) * w),
        lambda t: tensor_sum(relu(add(t, 0.01)) * w),
        lambda t: tensor_sum(exp(mul(t, 0.3)) * w),
        lambda t: tensor_sum(mul(normalize_rows(t), w)),
        lambda t: tensor_sum(softmax_rows(t, 0.7) * w),
        lambda t: tensor_sum(logsumexp_rows(t, 0.7)),
        lambda t: tensor_sum(mul(ad.batch_norm_cols(t), w)),
        lambda t: tensor_sum(matmul(t, w.T) * w44),
        lambda t: tensor_sum(power(t, 2.0) * w),
    ]
    for f in cases:
        assert grad_check(f, Tensor(x), step=1e-5, tol=1e-4).passed


def test_replay_determinism():
    """Identical seeds and inputs give bit-identical losses and gradients."""
    def build(seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng.standard_normal((6, 4)))
        w = Tensor(rng.standard_normal((4, 4)))
        loss = tensor_sum(softmax_rows(matmul(normalize_rows(x), w), 0.5) ** 2)
        backward(loss)
        return loss.item(), grad_of(x).copy()

    l1, g1 = build(99)
    l2, g2 = build(99)
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
