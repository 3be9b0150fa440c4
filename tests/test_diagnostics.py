import numpy as np
import pytest

from centerlab.autodiff import ParameterError
from centerlab.diagnostics import (CenterEstimate, angle_to_direction,
                                   collapse_verdict, delta_dist,
                                   estimate_center, knn_eval, residual_stats,
                                   second_moment_gap)


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


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
        res = knn_eval(emb, labels, emb, labels, k=5)
        assert res.accuracy == 1.0
        assert res.k == 5

    def test_leave_one_out_auto_detection(self):
        # a lone mislabeled point is classified by its neighbors, not itself
        emb = np.array([[1.0, 0.0], [0.99, 0.05], [0.98, -0.05]])
        labels = np.array([0, 0, 1])
        res = knn_eval(emb, labels, emb, labels, k=1)
        assert res.accuracy == pytest.approx(2.0 / 3.0)
        # explicit leave_one_out=False lets each point vote for itself
        res2 = knn_eval(emb, labels, emb.copy(), labels, k=1,
                        leave_one_out=False)
        assert res2.accuracy == 1.0

    def test_cosine_ignores_magnitude(self):
        emb = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-0.9, -0.1]])
        labels = np.array([0, 0, 1, 1])
        query = np.array([[100.0, 5.0], [-200.0, -4.0]])
        res = knn_eval(emb, labels, query, np.array([0, 1]), k=2)
        assert res.accuracy == 1.0

    def test_tie_breaks_by_summed_distance(self):
        # k=2, one vote each: the closer neighbor's label wins
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        query = np.array([[0.9, 0.1]])
        res = knn_eval(emb, labels, query, np.array([0]), k=2)
        assert res.accuracy == 1.0
        res = knn_eval(emb, labels, query, np.array([1]), k=2)
        assert res.accuracy == 0.0

    def test_tie_breaks_by_lowest_label_last(self):
        # two neighbors exactly symmetric around the query: label 0 wins
        emb = np.array([[1.0, 0.1], [1.0, -0.1]])
        query = np.array([[1.0, 0.0]])
        res = knn_eval(emb, np.array([1, 0]), query, np.array([0]), k=2)
        assert res.accuracy == 1.0

    def test_k_out_of_range(self):
        emb = np.eye(3)
        labels = np.arange(3)
        with pytest.raises(ParameterError):
            knn_eval(emb, labels, emb, labels, k=3)  # LOO caps k at n-1
        with pytest.raises(ParameterError):
            knn_eval(emb, labels, np.ones((1, 3)), np.zeros(1), k=4)


def loop_knn_winners(train_emb, train_labels, eval_emb, k, leave_one_out):
    """Each eval row's winning label from the per-row vote loop that
    `knn_eval` ran before it was vectorised (the oracle)."""
    def unit(x):
        return x / np.sqrt((x * x).sum(axis=1, keepdims=True) + 1e-24)

    dists = 1.0 - unit(eval_emb) @ unit(train_emb).T
    if leave_one_out:
        np.fill_diagonal(dists, np.inf)
    winners = []
    for i in range(eval_emb.shape[0]):
        nearest = np.argsort(dists[i], kind="stable")[:k]
        votes: dict[int, tuple[int, float]] = {}
        for j in nearest:
            label = int(train_labels[j])
            count, total = votes.get(label, (0, 0.0))
            votes[label] = (count + 1, total + dists[i][j])
        winners.append(min(votes.items(),
                           key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[0])
    return np.array(winners)


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
    """(train_emb, train_labels, eval_emb, eval_labels, ks, leave_one_out)."""
    rng = np.random.default_rng(11)
    labels = rng.permutation(np.repeat([0, 1, 2], 30))
    if name == "grid":
        emb = grid_embeddings(1, 90)
        return emb, labels, emb, labels, (7,), True
    if name == "collapsed":
        # unit rows are exactly (0, 1, 0), so every distance is exactly 0
        emb = np.tile([[0.0, 2.0, 0.0]], (40, 1))
        labels = rng.permutation(np.arange(40) % 3)
        return emb, labels, emb, labels, (6, 13), True
    if name == "k-extremes":
        emb, train_labels = sum_order_set()
        query = np.array([[1.0, 0.0], [5.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
        return emb, train_labels, query, np.array([0, 1, 1, 2]), (1, 6), False
    if name == "queries":
        emb = grid_embeddings(4, 90)
        query = grid_embeddings(5, 50, span=3)
        return emb, labels, query, rng.integers(0, 3, 50), (8,), False
    if name == "odd-labels":
        emb = grid_embeddings(6, 90)
        odd = np.array([-4, 7, 30])[labels]
        return emb, odd, emb, odd, (7,), True
    if name == "nan-rows":
        emb = grid_embeddings(7, 90, span=1)
        emb[rng.random(90) < 0.3] = np.nan
        return emb, labels, emb, labels, (9,), True
    raise KeyError(name)


class TestKnnMatchesLoop:
    """The vectorised vote picks the loop's neighbours, in the loop's order,
    and the loop's winner on every row, ties and NaN sums included."""

    @pytest.mark.parametrize("name", ["grid", "collapsed", "k-extremes",
                                      "queries", "odd-labels", "nan-rows"])
    def test_same_winners_as_loop(self, name):
        train_emb, train_labels, eval_emb, eval_labels, ks, loo = knn_case(name)
        for k in ks:
            with np.errstate(invalid="ignore"):
                winners = loop_knn_winners(train_emb, train_labels, eval_emb, k, loo)
                res = knn_eval(train_emb, train_labels, eval_emb, eval_labels,
                               k=k, leave_one_out=loo)
                # scored against the loop's own winners, every row must agree
                per_row = knn_eval(train_emb, train_labels, eval_emb, winners,
                                   k=k, leave_one_out=loo)
            expected = np.count_nonzero(winners == eval_labels) / eval_emb.shape[0]
            assert res.accuracy == expected
            assert per_row.accuracy == 1.0

    def test_sum_order_set_decides_by_one_ulp(self):
        emb, labels = sum_order_set()
        # knn_eval's own normalisation; the query (1, 0) picks the x column
        unit = emb / np.sqrt((emb * emb).sum(axis=1, keepdims=True) + 1e-24)
        d = 1.0 - unit[labels == 1, 0]
        nearest_first = farthest_first = 0.0
        for v, w in zip(np.sort(d), np.sort(d)[::-1]):
            nearest_first += v
            farthest_first += w
        assert nearest_first == 3.0 and farthest_first < 3.0
        query = np.array([[1.0, 0.0]])
        assert loop_knn_winners(emb, labels, query, 6, False).tolist() == [0]


class TestCollapseVerdict:
    def test_collapsed_cloud_flagged(self):
        rng = np.random.default_rng(4)
        z = np.tile([[0.7, 0.7]], (30, 1)) + 0.01 * rng.standard_normal((30, 2))
        report = collapse_verdict(z)
        assert report.collapsed
        assert report.center_norm > 0.9
        assert report.std_mean < 0.05

    def test_healthy_unit_cloud_not_flagged(self):
        rng = np.random.default_rng(5)
        report = collapse_verdict(unit_rows(rng, 100, 2))
        assert not report.collapsed

    def test_high_center_with_spread_not_flagged(self):
        # spread cloud far from the origin: center alone must not trip it
        rng = np.random.default_rng(6)
        z = rng.standard_normal((100, 2)) + [3.0, 0.0]
        assert not collapse_verdict(z).collapsed

    def test_delta_dist_wired_through(self):
        z = np.tile([[1.0, 0.0]], (4, 1))
        report = collapse_verdict(z, prev_mean=np.array([0.0, 0.0]))
        assert report.delta_dist == 1.0
        assert collapse_verdict(z).delta_dist == 0.0

    def test_invalid_thresholds(self):
        with pytest.raises(ParameterError):
            collapse_verdict(np.ones((3, 2)), thresholds=(1.5, 0.05))
