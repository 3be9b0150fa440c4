import tracemalloc

import numpy as np
import pytest

from centerlab import autodiff as ad
from centerlab.autodiff import ParameterError
from centerlab.diagnostics import (CenterEstimate, _nearest, angle_to_direction,
                                   collapse_verdict, delta_dist,
                                   estimate_center, knn_eval, residual_stats)
from centerlab.harness import DiagnosticsSpec
from oracles import (assert_bits_equal, fold_case, knn_unit, loop_knn_winners,
                     second_moment_gap, unit_rows)


class TestEstimateCenter:
    def test_matches_row_mean(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((20, 3))
        est = estimate_center(z)
        np.testing.assert_allclose(est.s_hat, z.mean(axis=0), atol=1e-15)
        assert abs(est.norm - np.linalg.norm(z.mean(axis=0))) < 1e-15

    def test_symmetric_cloud_centers_at_origin(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert estimate_center(z).norm == 0.0



class TestResiduals:
    def test_mean_residual_of_shifted_unit_circle(self):
        # points on a unit circle around (2, 0): residual norms are exactly 1
        t = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        z = np.stack([2.0 + np.cos(t), np.sin(t)], axis=1)
        mean_norm, per_dim_std = residual_stats(z, estimate_center(z))
        np.testing.assert_allclose(mean_norm, 1.0, atol=1e-12)
        # circle coordinates have std 1/sqrt(2) per dimension
        np.testing.assert_allclose(per_dim_std, 1.0 / np.sqrt(2), atol=1e-12)

    def test_collapsed_cloud_zero_residuals(self):
        z = np.tile([[0.3, -0.7]], (10, 1))
        mean_norm, per_dim_std = residual_stats(z, estimate_center(z))
        assert mean_norm < 1e-12
        np.testing.assert_allclose(per_dim_std, 0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        est = CenterEstimate(np.zeros(3), 0.0)
        with pytest.raises(ParameterError):
            residual_stats(np.ones((4, 2)), est)


def with_row(z, row):
    """`z` with its middle row replaced by `row`."""
    out = z.copy()
    out[z.shape[0] // 2] = row
    return out


class TestStatsMatchNumpy:
    """The center, its norm and the residual statistics equal numpy's mean,
    ``np.linalg.norm`` and std bit for bit, on both sides of
    ``autodiff._thin``: 1 row, 1 column, 2-4 columns at 256+ rows, 8+
    columns; also with a -0.0 row and rows holding +-inf or NaN."""

    @pytest.mark.parametrize("shape", [(1, 3), (300, 1), (255, 2), (256, 2),
                                       (1000, 3), (300, 4), (300, 8), (1000, 16)])
    @pytest.mark.parametrize("seed", range(3))
    def test_center_and_residuals(self, shape, seed):
        z = fold_case(shape, seed)
        cases = [z, -z, np.zeros(shape), -np.zeros(shape),
                 np.tile([[1e16, 1.0], [-1e16, -0.0]], (128, 1)),
                 with_row(z, -0.0), with_row(np.zeros(shape), -0.0), with_row(z, np.inf),
                 with_row(z, -np.inf), with_row(z, np.nan)]
        cases.append(with_row(z, np.resize([np.inf, -np.inf, np.nan], shape[1])))
        with np.errstate(invalid="ignore"):
            for x in cases:
                est = estimate_center(x)
                assert_bits_equal(est.s_hat, x.mean(axis=0))
                assert_bits_equal(est.norm, np.linalg.norm(x.mean(axis=0)))
                mean_norm, per_dim_std = residual_stats(x, est)
                r = x - est.s_hat
                assert_bits_equal(mean_norm, float(np.sqrt((r ** 2).sum(axis=1)).mean()))
                assert_bits_equal(per_dim_std, r.std(axis=0))
        assert ad._thin(z) == (shape in ((256, 2), (1000, 3), (300, 4)))


class TestSecondMomentGap:
    def test_identity_holds_for_batch_mean(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((50, 4)) * 3 + 1
        assert second_moment_gap(z, estimate_center(z)) < 1e-9

    def test_identity_breaks_for_wrong_center(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((50, 4))
        wrong = CenterEstimate(np.full(4, 2.0), float(np.sqrt(16.0)))
        assert second_moment_gap(z, wrong) > 1.0


class TestDeltaDist:
    def test_squared_euclidean(self):
        assert delta_dist([1.0, 0.0], [0.0, 1.0]) == 2.0
        assert delta_dist([3.0], [3.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            delta_dist([1.0, 2.0], [1.0])


class TestAngle:
    def test_parallel_and_orthogonal(self):
        est = estimate_center(np.tile([[2.0, 0.0]], (3, 1)))
        assert abs(angle_to_direction(est, [5.0, 0.0]) - 1.0) < 1e-12
        assert abs(angle_to_direction(est, [0.0, 1.0])) < 1e-12
        assert abs(angle_to_direction(est, [-1.0, 0.0]) + 1.0) < 1e-12

    def test_zero_vectors_rejected(self):
        est = estimate_center(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            angle_to_direction(est, [1.0, 0.0])


class TestKnn:
    def test_separable_clusters_perfect_accuracy(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 2)) * 0.1 + [5.0, 0.0]
        b = rng.standard_normal((20, 2)) * 0.1 + [-5.0, 0.0]
        emb = np.concatenate([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        assert knn_eval(emb, labels, 5) == 1.0

    def test_each_point_is_left_out(self):
        # a lone mislabeled point is classified by its neighbors, not itself
        emb = np.array([[1.0, 0.0], [0.99, 0.05], [0.98, -0.05]])
        labels = np.array([0, 0, 1])
        assert knn_eval(emb, labels, 1) == pytest.approx(2.0 / 3.0)
        # a NaN row leaves the others leave-one-out, so the mislabeled point
        # stays wrong, and the NaN row is a miss: its own inf distance sorts
        # before its NaNs, so the vote alone would score it by its own label
        with np.errstate(invalid="ignore"):
            acc = knn_eval(np.vstack([emb, [np.nan, 0.0]]), [0, 0, 1, 1], 1)
        assert acc == pytest.approx(2.0 / 4.0)

    def test_cosine_ignores_magnitude(self):
        emb = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-0.9, -0.1],
                        [100.0, 5.0], [-200.0, -4.0]])
        labels = np.array([0, 0, 1, 1, 0, 1])
        scale = 10.0 ** np.random.default_rng(7).uniform(-3, 3, (6, 1))
        assert knn_eval(emb, labels, 2) == 1.0
        assert knn_eval(emb * scale, labels, 2) == 1.0

    def test_tie_breaks_by_summed_distance(self):
        # k=2 over P0, P1 and Q: the query row Q has one neighbor of each
        # label, and the closer one, P0, wins. P1 with Q labelled 1 is the
        # same tie, won by the closer Q. Labelled 0, Q and P0 are right;
        # labelled 1, only P1 is.
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
        assert knn_eval(emb, np.array([0, 1, 0]), 2) == pytest.approx(2.0 / 3.0)
        assert knn_eval(emb, np.array([0, 1, 1]), 2) == pytest.approx(1.0 / 3.0)

    def test_tie_breaks_by_lowest_label_last(self):
        # the last row's two neighbors are exactly symmetric around it, so
        # votes and summed distances tie and label 0 wins; the second row
        # is right too (its closer neighbor, the last row, is a 0)
        emb = np.array([[1.0, 0.1], [1.0, -0.1], [1.0, 0.0]])
        assert knn_eval(emb, np.array([1, 0, 0]), 2) == pytest.approx(2.0 / 3.0)

    def test_k_out_of_range(self):
        emb = np.eye(3)
        labels = np.arange(3)
        for k in (0, 3):  # leave-one-out caps k at n-1
            with pytest.raises(ParameterError):
                knn_eval(emb, labels, k)
        with pytest.raises(ParameterError):
            knn_eval(np.ones((1, 3)), np.zeros(1), 1)

    @pytest.mark.parametrize("labels", [np.zeros(7), np.zeros(4), np.zeros((2, 3))],
                             ids=["7-labels", "4-labels", "2x3-labels"])
    def test_labels_must_match_the_embeddings(self, labels):
        emb = np.random.default_rng(8).standard_normal((6, 2))
        with pytest.raises(ParameterError, match="labels"):
            knn_eval(emb, labels, 2)


def grid_embeddings(seed, n, span=2, dim=2):
    """Integer-grid points: many exactly equal cosine distances."""
    return np.random.default_rng(seed).integers(-span, span + 1, (n, dim)).astype(float)


def sum_order_set():
    """Training points where the vote's distance sums decide by one ulp.

    Seen from the query (1, 0), label 1 has distances 1 - c, 1, 1 + c
    (c = cos of (3, 16)) and label 0 has 1, 1, 1. Summed in neighbour order,
    label 1's total is exactly 3.0, a tie that the lower label 0 wins; summed
    farthest first it is 3 - 2**-51 and label 1 wins. Label 1's points are
    stored farthest first, so index order is the wrong order too. A far point
    of label 2 makes k = pool - 1 pick exactly the six.
    """
    emb = np.array([[-3.0, 16.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0],
                    [0.0, 1.0], [3.0, 16.0], [-1.0, 0.0]])
    labels = np.array([1, 0, 1, 0, 0, 1, 2])
    return emb, labels


def knn_case(name):
    """(embeddings, labels, ks): one set, scored leave-one-out."""
    rng = np.random.default_rng(11)
    labels = rng.permutation(np.repeat([0, 1, 2], 30))
    if name == "grid":
        return grid_embeddings(1, 90), labels, (7,)
    if name == "collapsed":
        # unit rows are exactly (0, 1, 0), so every distance is exactly 0
        emb = np.tile([[0.0, 2.0, 0.0]], (40, 1))
        return emb, rng.permutation(np.arange(40) % 3), (6, 13)
    if name == "k-extremes":
        emb, set_labels = sum_order_set()
        query = np.array([[1.0, 0.0], [5.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
        return (np.vstack([emb, query]),
                np.concatenate([set_labels, [0, 1, 1, 2]]), (1, 10))
    if name == "queries":
        emb = np.vstack([grid_embeddings(4, 90), grid_embeddings(5, 50, span=3)])
        return emb, np.concatenate([labels, rng.integers(0, 3, 50)]), (8,)
    if name == "odd-labels":
        return grid_embeddings(6, 90), np.array([-4, 7, 30])[labels], (7,)
    if name == "nan-rows":
        emb = grid_embeddings(7, 90, span=1)
        emb[rng.random(90) < 0.3] = np.nan
        return emb, labels, (9,)
    raise KeyError(name)


def knn_winners(monkeypatch, emb, labels, k):
    """(accuracy, each row's winning label) of one `knn_eval` call."""
    from centerlab import diagnostics

    seen = []

    def recorded(*args, _vote=diagnostics._vote):
        seen.append(_vote(*args))
        return seen[-1]

    monkeypatch.setattr(diagnostics, "_vote", recorded)
    acc = knn_eval(emb, labels, k)
    return acc, np.unique(np.asarray(labels).astype(np.int64))[seen[0]]


class TestKnnMatchesLoop:
    """The vectorised vote picks the loop's neighbours, in the loop's order,
    and the loop's winner on every row, ties and NaN sums included."""

    @pytest.mark.parametrize("name", ["grid", "collapsed", "k-extremes",
                                      "queries", "odd-labels", "nan-rows"])
    def test_same_winners_as_loop(self, name, monkeypatch):
        emb, labels, ks = knn_case(name)
        for k in ks:
            with np.errstate(invalid="ignore"):
                expected = loop_knn_winners(emb, labels, emb, k, True)
                acc, winners = knn_winners(monkeypatch, emb, labels, k)
            np.testing.assert_array_equal(winners, expected, err_msg=f"k={k}")
            # whatever its vote, a row that is not finite is a miss
            hits = (expected == labels) & np.isfinite(emb).all(axis=1)
            assert acc == np.count_nonzero(hits) / emb.shape[0]

    def test_sum_order_set_decides_by_one_ulp(self, monkeypatch):
        emb, labels = sum_order_set()
        # knn_eval's own normalisation; the query (1, 0) picks the x column
        d = 1.0 - knn_unit(emb)[labels == 1, 0]
        nearest_first = farthest_first = 0.0
        for v, w in zip(np.sort(d), np.sort(d)[::-1]):
            nearest_first += v
            farthest_first += w
        assert nearest_first == 3.0 and farthest_first < 3.0
        query = np.array([[1.0, 0.0]])
        assert loop_knn_winners(emb, labels, query, 6, False).tolist() == [0]
        # in the set, the query's six nearest others are the same six
        emb, labels = np.vstack([emb, query]), np.append(labels, 1)
        for k in (6, 7):
            _, winners = knn_winners(monkeypatch, emb, labels, k)
            assert winners[-1] == 0, k


def nearest_case(name):
    """(distance matrix, ks) for `_nearest`."""
    rng = np.random.default_rng(12)
    if name == "ties":
        # integer-grid cosine distances repeat many times per row
        unit = knn_unit(grid_embeddings(2, 40))
        return 1.0 - unit @ unit.T, (1, 5, 39, 40)
    if name == "all-equal":
        d = np.zeros((6, 8))
        d[3] = 0.5
        return d, (1, 3, 8)
    if name == "nan-rows":
        d = rng.integers(0, 4, (12, 10)).astype(float)
        d[0, 0] = d[1, 9] = d[2, 4] = np.nan
        d[3] = np.nan
        d[4, ::2] = np.nan
        return d, (1, 4, 10)
    if name == "loo-k-is-n-minus-1":
        # each row holds exactly k finite distances
        d = rng.integers(0, 3, (9, 9)).astype(float)
        np.fill_diagonal(d, np.inf)
        return d, (8,)
    if name == "inf-rows":
        d = rng.integers(0, 3, (8, 7)).astype(float)
        d[0, 2] = np.inf          # k-th pick finite, an inf beyond it
        d[1, 1:] = np.inf         # one finite distance: the k-th pick is inf
        d[2] = np.inf
        d[3, 4] = -np.inf
        d[4, [0, 6]] = np.inf
        d[4, 3] = np.nan          # NaN and inf in one row
        return d, (1, 2, 6, 7)
    raise KeyError(name)


class TestNearest:
    """k argmin passes pick what a whole-row stable argsort picks."""

    @pytest.mark.parametrize("name", ["ties", "all-equal", "nan-rows",
                                      "loo-k-is-n-minus-1", "inf-rows"])
    def test_matches_stable_argsort(self, name):
        d, ks = nearest_case(name)
        for k in ks:
            expected = np.argsort(d, axis=1, kind="stable")[:, :k]
            cols, dists = _nearest(d.copy(), k)
            np.testing.assert_array_equal(cols, expected, err_msg=f"k={k}")
            # NaN compares equal here, so the NaN rows' distances are checked too
            np.testing.assert_array_equal(
                dists, np.take_along_axis(d, expected, axis=1), err_msg=f"k={k}")

    def test_knn_eval_leaves_its_inputs_unchanged(self):
        rng = np.random.default_rng(5)
        emb, labels = rng.standard_normal((30, 3)), rng.integers(0, 3, 30)
        before = [a.copy() for a in (emb, labels)]
        knn_eval(emb, labels, 4)
        for a, b in zip((emb, labels), before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim", [2, 8])
    def test_distances_are_a_two_buffer_product(self, dim, monkeypatch):
        # unit @ unit.T would take BLAS's symmetric path, whose last bits
        # differ from the product of two separately normalised copies
        from centerlab import diagnostics

        seen = []

        def recorded(dists, k, _nearest=diagnostics._nearest):
            seen.append(dists.copy())
            return _nearest(dists, k)

        monkeypatch.setattr(diagnostics, "_nearest", recorded)
        rng = np.random.default_rng(8)
        emb, labels = rng.standard_normal((300, dim)), rng.integers(0, 3, 300)
        knn_eval(emb, labels, 5)
        a, b = knn_unit(emb), knn_unit(emb.copy())
        expected = 1.0 - a @ b.T
        np.fill_diagonal(expected, np.inf)
        assert_bits_equal(seen[0], expected)

    def test_one_call_allocates_one_distance_matrix(self):
        # the (n, n) distances are the only large array a call makes; the
        # per-row work is in place, so the traced peak stays near one of them
        n = 300
        rng = np.random.default_rng(6)
        emb, labels = rng.standard_normal((n, 2)), rng.integers(0, 3, n)
        knn_eval(emb, labels, 5)
        tracemalloc.start()
        try:
            knn_eval(emb, labels, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8, peak / (n * n * 8)


def verdict(z, prev_mean=None):
    """`collapse_verdict` at the default diagnostics thresholds."""
    spec = DiagnosticsSpec()
    return collapse_verdict(z, prev_mean, (spec.center_hi, spec.std_lo),
                            estimate_center(z))


class TestCollapseVerdict:
    def test_collapsed_cloud_flagged(self):
        rng = np.random.default_rng(4)
        z = np.tile([[0.7, 0.7]], (30, 1)) + 0.01 * rng.standard_normal((30, 2))
        report = verdict(z)
        assert report.collapsed
        assert report.center_norm > 0.9
        assert report.std_mean < 0.05

    def test_healthy_unit_cloud_not_flagged(self):
        rng = np.random.default_rng(5)
        report = verdict(unit_rows(rng, 100, 2))
        assert not report.collapsed

    def test_high_center_with_spread_not_flagged(self):
        # spread cloud far from the origin: center alone must not trip it
        rng = np.random.default_rng(6)
        z = rng.standard_normal((100, 2)) + [3.0, 0.0]
        assert not verdict(z).collapsed

    def test_delta_dist_wired_through(self):
        z = np.tile([[1.0, 0.0]], (4, 1))
        report = verdict(z, prev_mean=np.array([0.0, 0.0]))
        assert report.delta_dist == 1.0
        assert verdict(z).delta_dist == 0.0
