"""Unit tests for the k-means implementation."""

import numpy as np
import pytest

import reference
from bgmix import clustering
from bgmix.clustering import _assign, _lloyd, _work_arrays, kmeans


def _blobs(rng, centers, n_per, scale=0.1):
    points = []
    labels = []
    for i, c in enumerate(centers):
        points.append(c + scale * rng.standard_normal((n_per, len(c))))
        labels.append(np.full(n_per, i))
    return np.vstack(points), np.concatenate(labels)


class TestKmeansBasics:

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        X, truth = _blobs(rng, [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 40)
        result = kmeans(X, 3, np.random.default_rng(1))
        assert result.n_nonempty == 3
        # every true blob maps to exactly one distinct estimated cluster
        mapped = [np.unique(result.labels[truth == i]) for i in range(3)]
        assert all(m.size == 1 for m in mapped)
        assert len({m[0] for m in mapped}) == 3

    def test_single_cluster_center_is_mean(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        result = kmeans(X, 1, np.random.default_rng(3))
        np.testing.assert_allclose(result.centers[0], X.mean(axis=0),
                                   rtol=1e-12)
        expected = ((X - X.mean(axis=0)) ** 2).sum()
        np.testing.assert_allclose(result.inertia, expected, rtol=1e-12)

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 2))
        result = kmeans(X, 6, np.random.default_rng(5))
        assert result.inertia < 1e-20
        assert result.n_nonempty == 6

    def test_labels_consistent_with_centers(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((80, 2))
        result = kmeans(X, 4, np.random.default_rng(7))
        d = ((X[:, None, :] - result.centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(result.labels, d.argmin(axis=1))

    def test_rejects_bad_k(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError):
            kmeans(X, 0, np.random.default_rng(0))

    def test_k_larger_than_n_caps_nonempty(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((5, 2))
        result = kmeans(X, 8, np.random.default_rng(15))
        assert result.n_nonempty <= 5


class TestKmeansRobustness:

    def test_no_empty_clusters(self):
        """Duplicated points force collisions; revival must fill every cluster."""
        rng = np.random.default_rng(8)
        X = np.vstack([np.zeros((30, 2)),
                       np.full((30, 2), 5.0),
                       rng.standard_normal((4, 2)) + 20])
        for seed in range(5):
            result = kmeans(X, 4, np.random.default_rng(seed))
            assert result.n_nonempty == 4

    def test_restarts_never_hurt(self, monkeypatch):
        rng = np.random.default_rng(10)
        X, _ = _blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)], 25, scale=0.5)
        many = kmeans(X, 4, np.random.default_rng(11))
        monkeypatch.setattr(clustering, "N_RESTARTS", 1)
        single = kmeans(X, 4, np.random.default_rng(11))
        assert many.inertia <= single.inertia + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 3))
        a = kmeans(X, 3, np.random.default_rng(13))
        b = kmeans(X, 3, np.random.default_rng(13))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_work_arrays_built_once_per_call(self, monkeypatch):
        """Every restart and Lloyd step writes into the same work arrays."""
        built = []

        def counted(points, k):
            built.append(_work_arrays(points, k))
            return built[-1]

        monkeypatch.setattr(clustering, "_work_arrays", counted)
        X = np.random.default_rng(14).standard_normal((80, 2))
        kmeans(X, 3, np.random.default_rng(15))
        assert len(built) == 1
        cols, d2, diff = built[0]
        assert cols.shape == (2, 80) and d2.shape == diff.shape == (3, 80)


class TestAssign:

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_bit_identical_to_broadcast_below_eight_coordinates(self, d):
        rng = np.random.default_rng(d)
        points = rng.standard_normal((300, d)) * 7.0
        centers = rng.standard_normal((6, d)) * 7.0
        labels, d2 = _assign(_work_arrays(points, 6), centers)
        ref_labels, ref_d2 = reference.assign(points, centers)
        np.testing.assert_array_equal(labels, ref_labels)
        assert d2.tobytes() == ref_d2.tobytes()

    def test_same_labels_at_nine_coordinates(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((300, 9)) * 7.0
        centers = rng.standard_normal((6, 9)) * 7.0
        labels, d2 = _assign(_work_arrays(points, 6), centers)
        ref_labels, ref_d2 = reference.assign(points, centers)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_allclose(d2, ref_d2, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_exact_ties_go_to_the_lowest_index_as_argmin(self, k):
        """Integer points and repeated centers: many points are exactly
        as far from two or more centers."""
        rng = np.random.default_rng(30 + k)
        points = rng.integers(-3, 4, size=(400, 2)).astype(float)
        centers = rng.integers(-2, 3, size=(k, 2)).astype(float)
        if k > 1:
            centers[-1] = centers[0]
        work = _work_arrays(points, k)
        labels, d2 = _assign(work, centers)
        dist2 = work[1]
        if k > 1:
            tied = np.sum(dist2 == dist2.min(axis=0), axis=0) > 1
            assert tied.sum() > 50
        np.testing.assert_array_equal(labels, np.argmin(dist2, axis=0))
        assert labels.dtype == np.argmin(dist2, axis=0).dtype
        assert d2.tobytes() == dist2.min(axis=0).tobytes()


class TestSeedPlusPlus:

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_same_centers_as_seeding_from_rows(self, d):
        X = np.random.default_rng(40 + d).standard_normal((500, d)) * 4.0
        got = clustering._seed_plus_plus(_work_arrays(X, 6), 6,
                                         np.random.default_rng(d))
        want = reference.seed_plus_plus(X, 6, np.random.default_rng(d))
        assert got.tobytes() == want.tobytes()

    def test_coinciding_points(self):
        """Once every point sits on a chosen center, D^2 is zero and the
        next center is drawn uniformly, as from the rows."""
        X = np.repeat([[1.0, 2.0], [3.0, 5.0]], 20, axis=0)
        got = clustering._seed_plus_plus(_work_arrays(X, 4), 4,
                                         np.random.default_rng(7))
        want = reference.seed_plus_plus(X, 4, np.random.default_rng(7))
        assert got.tobytes() == want.tobytes()


class TestMatchesPerClusterMeans:
    """Every center update sums in the order a per-cluster mean does."""

    @staticmethod
    def _assert_same(got, want):
        centers, labels, inertia = want
        assert got[0].tobytes() == centers.tobytes()
        np.testing.assert_array_equal(got[1], labels)
        assert got[2] == inertia

    @pytest.mark.parametrize("seed", range(4))
    def test_eight_clusters_of_four_thousand_points(self, seed):
        rng = np.random.default_rng(100 + seed)
        X, _ = _blobs(rng, rng.uniform(-6, 6, size=(8, 5)), 500, scale=1.5)
        got = kmeans(X, 8, np.random.default_rng(seed))
        want = reference.kmeans(X, 8, np.random.default_rng(seed))
        self._assert_same((got.centers, got.labels, got.inertia), want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_start_that_revives_an_empty_cluster(self, d):
        rng = np.random.default_rng(d)
        X = rng.standard_normal((200, d))
        # the far center wins no point, so the first step revives it
        start = np.vstack([X[:3], np.full((1, d), 1e3)])
        assert np.bincount(_assign(_work_arrays(X, 4), start)[0],
                           minlength=4)[3] == 0
        got = _lloyd(X, start, _work_arrays(X, 4))
        self._assert_same(got, reference.lloyd(X, start, clustering.MAX_ITER))
        assert np.unique(got[1]).size == 4

    @pytest.mark.parametrize("seed", range(3))
    def test_more_clusters_than_points(self, seed):
        X = np.random.default_rng(seed).standard_normal((5, 2))
        got = kmeans(X, 8, np.random.default_rng(seed))
        want = reference.kmeans(X, 8, np.random.default_rng(seed))
        self._assert_same((got.centers, got.labels, got.inertia), want)

    def test_one_coordinate_agrees_to_rounding(self):
        """At d = 1 numpy's mean pair-sums the column, so only the last
        bits of a center may differ."""
        rng = np.random.default_rng(21)
        X = np.concatenate([rng.normal(c, 0.3, 300) for c in (0, 4, 9)])
        got = kmeans(X[:, None], 3, np.random.default_rng(22))
        centers, labels, inertia = reference.kmeans(
            X[:, None], 3, np.random.default_rng(22))
        np.testing.assert_array_equal(got.labels, labels)
        np.testing.assert_allclose(got.centers, centers, rtol=1e-14)
        np.testing.assert_allclose(got.inertia, inertia, rtol=1e-12)
