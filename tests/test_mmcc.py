import numpy as np
import pytest

from truematch import (
    DegenerateResample,
    FictitiousClusterer,
    LabelVector,
    LloydClusterer,
    ProbMatrix,
    VoteMatrix,
    build_truth,
    cic_stats,
    lloyd_base_clusterer,
    majority_labels,
    mmcc_run,
    random_clusterer,
    true_class_clusterer,
)
from truematch.mmcc import _squared_distances


class TestMajorityLabels:
    def test_strict_majority(self):
        labels = majority_labels(np.array([[7, 3]]), np.random.default_rng(0))
        assert labels.labels.tolist() == [1]

    def test_symmetric_tie_uniform(self):
        rng = np.random.default_rng(1)
        picks = [majority_labels(np.array([[5, 5]]), rng).labels[0] for _ in range(2000)]
        rate = np.mean(np.array(picks) == 1)
        assert abs(rate - 0.5) <= 0.05

    def test_matches_constant_clusterer(self):
        labels = np.array([1, 1, 2, 2, 1])
        clusterer = true_class_clusterer(labels, np.eye(2), shuffle_labels=False)
        votes, _ = mmcc_run(np.zeros(5), 2, clusterer, "truematch", 20, np.random.default_rng(2))
        majority = majority_labels(votes, np.random.default_rng(3))
        assert majority.labels.tolist() == labels.tolist()

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            majority_labels(np.array([[0, 0], [1, 0]]), np.random.default_rng(0))

    @pytest.mark.parametrize("n, k", [(1, 1), (5, 2), (2000, 4), (300, 12)])
    def test_equals_row_argmax_reference(self, n, k):
        # the expression majority_labels used before it reduced down the transpose
        def reference(v, rng):
            top = v == v.max(axis=1, keepdims=True)
            draw = rng.uniform(size=v.shape)
            return np.where(top, draw, -1.0).argmax(axis=1) + 1

        for seed in range(50):
            votes = np.random.default_rng(seed).integers(0, 4, (n, k))
            votes[:, 0] += 1  # every row holds a vote; small counts leave many ties
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            labels = majority_labels(VoteMatrix(votes, 3), rng)
            assert labels.n_clusters == k
            assert np.array_equal(labels.labels, reference(votes, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_row_rejected_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            majority_labels(np.array([[2, 1], [0, 0]]), rng)
        assert rng.bit_generator.state == state


class TestCicStats:
    def test_single_column_crisp(self):
        stats = cic_stats(ProbMatrix(np.ones((100, 1))))
        assert (stats.uncertainty, stats.complexity, stats.information, stats.cic) == (0, 0, 0, 0)

    def test_two_crisp_halves(self):
        probs = np.zeros((100, 2))
        probs[:50, 0] = 1.0
        probs[50:, 1] = 1.0
        stats = cic_stats(ProbMatrix(probs))
        assert stats.uncertainty == 0.0
        assert stats.complexity == pytest.approx(0.010, abs=1e-12)
        assert stats.cic == pytest.approx(1.0, abs=1e-12)

    def test_half_crisp_half_split(self):
        # 50 rows one-hot, 50 rows spread over two columns: column means
        # (0.5, 0.25, 0.25) carry 1.5 bits, rows average 0.5 bits
        probs = np.zeros((100, 3))
        probs[:50, 0] = 1.0
        probs[50:, 1] = 0.5
        probs[50:, 2] = 0.5
        stats = cic_stats(ProbMatrix(probs))
        assert stats.uncertainty == pytest.approx(0.5, abs=1e-12)
        assert stats.complexity == pytest.approx((2**1.5 - 1) / 100, abs=1e-12)
        assert stats.information == pytest.approx(1.0, abs=1e-12)
        assert stats.cic == pytest.approx(0.5, abs=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        raw = rng.dirichlet(np.ones(4), size=50)
        base = cic_stats(ProbMatrix(raw))
        shuffled = cic_stats(ProbMatrix(raw[:, rng.permutation(4)]))
        assert base == shuffled

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(2, 40))
            probs = rng.dirichlet(np.ones(k), size=n)
            stats = cic_stats(ProbMatrix(probs))
            assert 0.0 <= stats.uncertainty <= np.log2(k) + 1e-12
            assert 0.0 <= stats.complexity <= (k - 1) / n + 1e-12


class TestMmccRun:
    def test_constant_clusterer_crisp(self):
        truth = build_truth(40, 0.5)
        clusterer = true_class_clusterer(truth, np.eye(2), shuffle_labels=False)
        _, probs = mmcc_run(np.zeros(40), 2, clusterer, "truematch", 50, np.random.default_rng(6))
        assert cic_stats(probs).uncertainty == 0.0

    def test_vote_conservation_and_row_stochastic(self):
        clusterer = random_clusterer([0.6, 0.4])
        votes, probs = mmcc_run(np.zeros(30), 2, clusterer, "truematch", 25, np.random.default_rng(7))
        assert votes.votes.sum() == 30 * 25
        assert np.all(votes.votes.sum(axis=1) == 25)
        np.testing.assert_allclose(probs.probs.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "rounds, window",
        [(1, None), (5, 0), (5, -1)],
        ids=["rounds-1", "window-0", "window-minus-1"],
    )
    def test_rejects_invalid_settings(self, rounds, window):
        with pytest.raises(ValueError):
            mmcc_run(np.zeros(10), 2, random_clusterer([0.5, 0.5]), "truematch", rounds,
                     np.random.default_rng(0), early_stop_window=window)

    def test_rejects_bad_labels(self):
        class Broken:
            def fit(self, data, idx, k, rng):
                return None

            def predict(self, model, data):
                return LabelVector(np.full(len(data), 3), 3)

        with pytest.raises(ValueError):
            mmcc_run(np.zeros(10), 2, Broken(), "truematch", 5, np.random.default_rng(0))

    def test_column_means_symmetrize_under_truematch(self):
        # purely random base clusterer: the matcher must spread votes so the
        # columns converge toward uniform shares even for a skewed clusterer
        clusterer = random_clusterer([0.99, 0.01])
        _, probs = mmcc_run(np.zeros(100), 2, clusterer, "truematch", 1000,
                            np.random.default_rng(8))
        shares = probs.probs.mean(axis=0)
        assert np.all(np.abs(shares - 0.5) <= 0.05)

    def test_k1_runs(self):
        _, probs = mmcc_run(np.zeros(20), 1, random_clusterer([1.0]), "truematch", 10,
                            np.random.default_rng(9))
        stats = cic_stats(probs)
        assert stats.uncertainty == 0.0 and stats.cic == 0.0

    def test_short_resamples_redrawn(self):
        # six distinct points and k=4: some resamples hold fewer than four
        votes, _ = mmcc_run(np.arange(6.0), 4, lloyd_base_clusterer(), "truematch", 20,
                            np.random.default_rng(0))
        assert votes.rounds == 20
        assert np.all(votes.votes.sum(axis=1) == 20)

    def test_redraw_budget_exhausted(self):
        class NeverFits:
            def fit(self, data, idx, k, rng):
                raise DegenerateResample("never")

            def predict(self, model, data):
                raise AssertionError("unreachable")

        with pytest.raises(ValueError, match="no resample in 1000 draws"):
            mmcc_run(np.zeros(10), 2, NeverFits(), "truematch", 5, np.random.default_rng(0))

    def test_early_stop_window(self):
        truth = build_truth(30, 0.5)
        clusterer = true_class_clusterer(truth, np.eye(2), shuffle_labels=False)
        votes, _ = mmcc_run(np.zeros(30), 2, clusterer, "truematch", 500,
                            np.random.default_rng(10), early_stop_window=20)
        assert votes.rounds < 500


class TestLloydClusterer:
    def test_separated_blobs_consistent_partition(self):
        rng = np.random.default_rng(11)
        data = np.r_[rng.normal(0.0, 0.3, 40), rng.normal(10.0, 0.3, 40)]
        clusterer = lloyd_base_clusterer()
        split = data < 5.0
        for seed in range(5):
            fit_rng = np.random.default_rng(seed)
            idx = fit_rng.integers(0, 80, 80)
            model = clusterer.fit(data, idx, 2, fit_rng)
            labels = clusterer.predict(model, data).labels
            assert len(np.unique(labels[split])) == 1
            assert len(np.unique(labels[~split])) == 1
            assert labels[0] != labels[-1]

    def test_exact_convergence_on_two_points(self):
        data = np.array([0.0, 0.0, 10.0, 10.0])
        clusterer = lloyd_base_clusterer()
        model = clusterer.fit(data, np.arange(4), 2, np.random.default_rng(12))
        assert sorted(model.ravel().tolist()) == [0.0, 10.0]

    def test_too_few_distinct_points_rejected(self):
        clusterer = lloyd_base_clusterer()
        with pytest.raises(ValueError):
            clusterer.fit(np.array([1.0, 1.0, 1.0]), np.arange(3), 2, np.random.default_rng(0))

    def test_short_resample_signals_redraw(self):
        # the data has two distinct points but this resample only one; the
        # generator is untouched, so a redraw continues the same stream
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DegenerateResample, match="resample holds only 1"):
            lloyd_base_clusterer().fit(np.array([1.0, 2.0]), np.array([0, 0]), 2, rng)
        assert rng.bit_generator.state == state

    def test_too_few_distinct_points_in_data_named(self):
        with pytest.raises(ValueError, match="data holds only 2 distinct points") as err:
            lloyd_base_clusterer().fit(np.array([1.0, 1.0, 1.0, 2.0]), np.arange(4), 4,
                                       np.random.default_rng(0))
        assert not isinstance(err.value, DegenerateResample)

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            lloyd_base_clusterer().fit(np.array([0.0, np.nan, 1.0]), np.arange(3), 2,
                                       np.random.default_rng(0))

    def test_uniform_data_fuzzifies(self):
        # structureless data must leave visible uncertainty (the boundary
        # cases flip sides across resamples), unlike the separable case's
        # exact zero; pilot runs put the band at roughly 0.03-0.17 bits
        rng = np.random.default_rng(13)
        data = rng.uniform(0.0, 1.0, 100)
        _, probs = mmcc_run(data, 2, lloyd_base_clusterer(), "truematch", 150,
                            np.random.default_rng(14))
        assert cic_stats(probs).uncertainty > 0.02


class _ReferenceLloyd(LloydClusterer):
    """The plain row-major Lloyd loop.  The bundled clusterer must give the
    same centroids, labels and generator stream bit for bit."""

    def fit(self, data, resample_indices, k, rng):
        pts = self._as_points(data)
        sample = pts[np.asarray(resample_indices, dtype=np.int64)]
        distinct = np.unique(sample, axis=0)
        if distinct.shape[0] < k:
            raise ValueError(f"resample holds only {distinct.shape[0]} distinct points")
        centroids = distinct[rng.choice(distinct.shape[0], size=k, replace=False)]
        for _ in range(self.iterations):
            dist = ((sample[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            owner = dist.argmin(axis=1)
            updated = centroids.copy()
            for j in range(k):
                members = owner == j
                if members.any():
                    updated[j] = sample[members].mean(axis=0)
            if np.allclose(updated, centroids):
                break
            centroids = updated
        return centroids

    def predict(self, model, data):
        pts = self._as_points(data)
        dist = ((pts[:, None, :] - model[None, :, :]) ** 2).sum(axis=2)
        return LabelVector(dist.argmin(axis=1) + 1, model.shape[0])


def _equivalence_data(kind, d, rng):
    n = int(rng.integers(20, 200))
    if kind == "continuous":
        centers = 3.0 * rng.integers(0, 3, size=(n, 1))
        data = centers + rng.normal(size=(n, d)) * 10.0 ** rng.integers(-2, 3)
    elif kind == "far from origin":
        # moves below the relative convergence tolerance still change labels
        offset = 10.0 ** rng.integers(3, 7)
        data = offset + 3.0 * rng.integers(0, 3, size=(n, 1)) + rng.normal(size=(n, d))
    elif kind == "integer grid":
        data = rng.integers(0, 3, size=(n, d)).astype(float)
    else:  # rounded: many repeated rows and ties in single coordinates
        data = np.round(rng.normal(size=(n, d)), 1)
    return data[:, 0] if d == 1 and rng.random() < 0.5 else data


class TestLloydEquivalence:
    # d < 8 and d >= 8 sum squared distances in different orders inside
    # numpy; d = 1 sums centroid coordinates pairwise
    @pytest.mark.parametrize("d", [1, 4, 8, 9, 10, 11, 12])
    @pytest.mark.parametrize("kind", ["continuous", "far from origin", "integer grid", "rounded"])
    def test_matches_reference(self, d, kind):
        rng = np.random.default_rng([d, len(kind)])
        fast, slow = lloyd_base_clusterer(), _ReferenceLloyd()
        for _ in range(8):
            data = _equivalence_data(kind, d, rng)
            n = data.shape[0]
            picks = rng.integers(0, n, n)
            points = data.reshape(n, -1)
            available = np.unique(points[picks], axis=0).shape[0]
            for k in sorted({1, min(3, available), available}):
                seed = int(rng.integers(2**32))
                fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                model = fast.fit(data, picks, k, fast_rng)
                expected = slow.fit(data, picks, k, slow_rng)
                assert np.array_equal(model, expected)
                assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
                assert np.array_equal(fast.predict(model, data).labels,
                                      slow.predict(expected, data).labels)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_squared_distances_sum_in_numpy_order(self, d):
        # a last-ulp difference seldom flips a label, so compare the sums
        rng = np.random.default_rng(d)
        points = rng.normal(size=(500, d)) * 10.0 ** rng.integers(-3, 4, size=(500, d))
        centroids = rng.normal(size=(5, d))
        expected = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).T
        got = _squared_distances(points, np.ascontiguousarray(points.T), centroids)
        assert np.array_equal(got, expected)


class TestFictitiousClusterer:
    def test_probability_rows_validated(self):
        with pytest.raises(ValueError):
            FictitiousClusterer(2, [[0.7, 0.7]])
        with pytest.raises(ValueError, match="finite"):
            FictitiousClusterer(2, [[np.nan, np.nan]])

    def test_proportions_respected(self):
        clusterer = random_clusterer([0.8, 0.2], shuffle_labels=False)
        rng = np.random.default_rng(15)
        labels = clusterer.fit(np.zeros(4000), None, 2, rng)
        assert abs(np.mean(labels == 1) - 0.8) <= 0.02

    def test_votes_structures_validated(self):
        with pytest.raises(ValueError):
            VoteMatrix(np.array([[1, -1]]), 1)
        with pytest.raises(ValueError):
            ProbMatrix(np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError, match="finite"):
            ProbMatrix(np.array([[np.nan, np.nan]]))
