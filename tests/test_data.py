import numpy as np
import pytest

from centerlab.autodiff import ParameterError
from centerlab.data import (AugmentationModel, BatchSampler, augment,
                            default_blob_centers, gen_blobs,
                            gen_gaussian_points, gen_moons)


class TestGenerators:
    def test_same_seed_bit_identical(self):
        a = gen_blobs(50, seed=3)
        b = gen_blobs(50, seed=3)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = gen_blobs(50, seed=3)
        b = gen_blobs(50, seed=4)
        assert not np.array_equal(a.points, b.points)

    def test_blob_class_balance_and_shape(self):
        ds = gen_blobs(40, num_classes=3)
        assert ds.points.shape == (120, 2)
        assert np.bincount(ds.labels).tolist() == [40, 40, 40]

    def test_blobs_concentrate_near_their_centers(self):
        # with sigma=0.5 in 2-D, E||x - mu|| ~ 0.63; the per-class mean of
        # 500 samples lands within a few standard errors of the true center
        centers = default_blob_centers(3)
        ds = gen_blobs(500, sigma=0.5, seed=0)
        for c in range(3):
            mean = ds.points[ds.labels == c].mean(axis=0)
            assert np.linalg.norm(mean - centers[c]) < 0.1

    def test_default_centers_equilateral(self):
        centers = default_blob_centers(3)
        dists = [np.linalg.norm(centers[i] - centers[(i + 1) % 3])
                 for i in range(3)]
        np.testing.assert_allclose(dists, dists[0], rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 3.0)

    def test_blob_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            gen_blobs(10, num_classes=1)
        with pytest.raises(ParameterError):
            gen_blobs(10, sigma=0.0)
        with pytest.raises(ParameterError, match="n_per_class"):
            gen_blobs(0)

    def test_moons_rejects_bad_params(self):
        with pytest.raises(ParameterError, match="n_per_class"):
            gen_moons(0)
        with pytest.raises(ParameterError, match="noise"):
            gen_moons(10, noise=-0.1)
        for num_classes in (1, 4):
            with pytest.raises(ParameterError, match="^num_classes must be 2 or 3"):
                gen_moons(10, num_classes=num_classes)

    def test_moons_noise_free_points_lie_on_arcs(self):
        ds = gen_moons(80, noise=0.0, seed=0)
        for c, (center, radius) in enumerate([((0.0, 0.0), 1.0),
                                              ((1.0, 0.5), 1.0),
                                              ((-2.0, -0.5), 1.0)]):
            pts = ds.points[ds.labels == c]
            radii = np.linalg.norm(pts - np.asarray(center), axis=1)
            np.testing.assert_allclose(radii, radius, atol=1e-12)

    def test_moons_three_class_balance(self):
        ds = gen_moons(30)
        assert ds.num_classes == 3
        assert np.bincount(ds.labels).tolist() == [30, 30, 30]

    def test_moons_two_class_option(self):
        ds = gen_moons(30, num_classes=2)
        assert ds.num_classes == 2
        assert np.bincount(ds.labels).tolist() == [30, 30]
        # the two arcs are the three-class construction's first two
        two, three = (gen_moons(30, noise=0.0, num_classes=k) for k in (2, 3))
        np.testing.assert_array_equal(two.points, three.points[:60])

    def test_gaussian_rejects_bad_params(self):
        with pytest.raises(ParameterError, match="^n_per_class"):
            gen_gaussian_points(0, 3)
        # numpy refuses the array: a ParameterError before it is asked for
        with pytest.raises(ParameterError, match="^n_per_class"):
            gen_gaussian_points(2**62, 3)
        with pytest.raises(ParameterError, match="^dim"):
            gen_gaussian_points(10, 0)

    def test_gaussian_points_centered(self):
        ds = gen_gaussian_points(5000, 3, seed=1)
        assert np.abs(ds.points.mean(axis=0)).max() < 0.05
        assert ds.num_classes == 1


class TestAugment:
    def test_class_kind_groups_by_label(self):
        ds = gen_blobs(20, seed=0)
        aug = augment(ds, AugmentationModel(kind="class"))
        np.testing.assert_array_equal(aug.points, ds.points)
        np.testing.assert_array_equal(aug.group, ds.labels)

    def test_jitter_row_count_and_grouping(self):
        ds = gen_blobs(20, seed=0)  # 60 points
        aug = augment(ds, AugmentationModel(kind="centered", sigma=0.2, views=4))
        assert aug.n == 240
        np.testing.assert_array_equal(np.bincount(aug.group), np.full(60, 4))
        # views of a group share the label of the original point
        np.testing.assert_array_equal(aug.labels, ds.labels[aug.group])

    def test_centered_sigma_zero_copies_points(self):
        ds = gen_blobs(10, seed=0)
        aug = augment(ds, AugmentationModel(kind="centered", sigma=0.0, views=2))
        np.testing.assert_array_equal(aug.points, np.repeat(ds.points, 2, axis=0))

    def test_shifted_mean_displacement(self):
        # Monte-Carlo: the mean view displacement converges to the shift vector
        ds = gen_gaussian_points(200, 2, seed=2)
        shift = np.array([0.7, -0.4])
        aug = augment(ds, AugmentationModel(kind="shifted", sigma=0.3,
                                            shift=shift, views=50), seed=5)
        disp = (aug.points - np.repeat(ds.points, 50, axis=0)).mean(axis=0)
        np.testing.assert_allclose(disp, shift, atol=0.01)

    def test_shifted_requires_matching_shift(self):
        ds = gen_blobs(5, seed=0)
        with pytest.raises(ParameterError):
            augment(ds, AugmentationModel(kind="shifted", sigma=0.1))
        with pytest.raises(ParameterError):
            augment(ds, AugmentationModel(kind="shifted", sigma=0.1,
                                          shift=[1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("kind", ["class", "centered"])
    def test_shift_rejected_off_shifted_views(self, kind):
        # a shift other views would ignore is an error, not a silent no-op
        model = AugmentationModel(kind=kind, sigma=0.1, shift=[1.0, 0.0], views=2)
        with pytest.raises(ParameterError, match="shift: only shifted views"):
            augment(gen_blobs(5, seed=0), model)

    # a model is a config section, so augment() checks it, for class views too
    def test_unknown_kind_rejected(self):
        model = AugmentationModel(kind="mixup")
        with pytest.raises(ParameterError, match="kind"):
            augment(gen_blobs(5, seed=0), model)

    def test_negative_sigma_rejected(self):
        model = AugmentationModel(kind="centered", sigma=-0.1)
        with pytest.raises(ParameterError, match="sigma"):
            augment(gen_blobs(5, seed=0), model)

    def test_zero_views_rejected(self):
        model = AugmentationModel(kind="class", views=0)
        with pytest.raises(ParameterError, match="views"):
            augment(gen_blobs(5, seed=0), model)

    def test_augment_deterministic_in_seed(self):
        ds = gen_blobs(10, seed=0)
        model = AugmentationModel(kind="centered", sigma=0.5, views=3)
        a = augment(ds, model, seed=9)
        b = augment(ds, model, seed=9)
        np.testing.assert_array_equal(a.points, b.points)


class TestBatchSampler:
    def test_full_mode_single_batch(self):
        batches = BatchSampler(mode="full").epoch_batches(17, epoch=3)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], np.arange(17))

    def test_mini_batches_partition_indices(self):
        batches = BatchSampler(mode="mini", batch_size=7).epoch_batches(20, 0)
        assert [len(b) for b in batches] == [7, 7, 6]
        merged = np.sort(np.concatenate(batches))
        np.testing.assert_array_equal(merged, np.arange(20))

    def test_epochs_reshuffle_but_replays_match(self):
        sampler = BatchSampler(mode="mini", batch_size=10, shuffle_seed=1)
        e0 = sampler.epoch_batches(30, 0)
        e1 = sampler.epoch_batches(30, 1)
        assert not all(np.array_equal(a, b) for a, b in zip(e0, e1))
        again = BatchSampler(mode="mini", batch_size=10, shuffle_seed=1)
        for a, b in zip(e0, again.epoch_batches(30, 0)):
            np.testing.assert_array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            BatchSampler(mode="stream")
        with pytest.raises(ParameterError):
            BatchSampler(mode="mini", batch_size=0)
