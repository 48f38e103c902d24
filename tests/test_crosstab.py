import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truematch import MatchingTable, crosstab, residuals

OUTLIER_MATCHED = [[99, 0], [0, 1]]
OUTLIER_MISSED = [[98, 1], [1, 0]]


def square_count_tables(max_k=5, max_count=60):
    return (
        st.integers(min_value=1, max_value=max_k)
        .flatmap(
            lambda k: st.lists(
                st.lists(st.integers(min_value=0, max_value=max_count), min_size=k, max_size=k),
                min_size=k,
                max_size=k,
            )
        )
        .map(np.array)
        .filter(lambda counts: counts.sum() >= 1)
    )


class TestCrosstab:
    def test_matched_outliers(self):
        a = np.r_[np.ones(99, dtype=int), 2]
        table = crosstab(a, a, 2)
        assert table.counts.tolist() == OUTLIER_MATCHED

    def test_missed_outliers(self):
        a = np.r_[np.ones(99, dtype=int), 2]
        b = np.r_[2, np.ones(99, dtype=int)]
        table = crosstab(a, b, 2)
        assert table.counts.tolist() == OUTLIER_MISSED

    def test_self_crosstab_is_identity(self):
        table = crosstab([1, 2, 3], [1, 2, 3])
        assert table.counts.tolist() == np.eye(3, dtype=int).tolist()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crosstab([1, 2], [1, 2, 1])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            crosstab([1, 3], [1, 2], k=2)

    def test_marginals(self):
        table = crosstab([1, 1, 2, 2, 2], [1, 2, 2, 2, 1], 2)
        assert table.row_sums.tolist() == [2, 3]
        assert table.col_sums.tolist() == [2, 3]
        assert table.total == 5

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=400),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_counts_equal_add_at_reference(self, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.integers(1, k + 1, n), rng.integers(1, k + 1, n)
        reference = np.zeros((k, k), dtype=np.int64)
        np.add.at(reference, (a - 1, b - 1), 1)
        table = crosstab(a, b, k)
        assert table.counts.dtype == np.int64
        assert np.array_equal(table.counts, reference)


class TestResiduals:
    def test_missed_outlier_values(self):
        # hand-derived from the expected counts [[98.01, .99], [.99, .01]]
        res = residuals(MatchingTable(OUTLIER_MISSED))
        np.testing.assert_allclose(res.expected, [[98.01, 0.99], [0.99, 0.01]], rtol=1e-12)
        np.testing.assert_allclose(
            res.signed,
            [[-1.0203040506070809e-06, 1.0101010101010101e-04],
             [1.0101010101010101e-04, -1.0e-02]],
            rtol=1e-9,
        )

    def test_matched_outlier_values(self):
        res = residuals(MatchingTable(OUTLIER_MATCHED))
        np.testing.assert_allclose(
            res.signed, [[0.01, -0.99], [-0.99, 98.01]], rtol=1e-12
        )

    def test_balanced_diagonal_symmetry(self):
        res = residuals(MatchingTable([[7, 0], [0, 7]]))
        assert res.signed[0, 0] > 0 and res.signed[1, 1] > 0
        assert res.signed[0, 1] < 0 and res.signed[1, 0] < 0
        np.testing.assert_allclose(res.signed, res.signed.T)

    def test_zero_marginal_cells_are_neutral(self):
        res = residuals(MatchingTable([[3, 0, 2], [1, 0, 4], [0, 0, 0]]))
        assert np.all(res.signed[:, 1] == 0.0)
        assert np.all(res.signed[2, :] == 0.0)
        assert np.all(res.dev >= 0.0)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            residuals(MatchingTable([[0, 0], [0, 0]]))

    @settings(max_examples=150, deadline=None)
    @given(square_count_tables())
    def test_expected_marginal_sums(self, counts):
        table = MatchingTable(counts)
        res = residuals(table)
        tol = 1e-9 * max(table.total, 1)
        np.testing.assert_allclose(res.expected.sum(axis=1), table.row_sums, atol=tol)
        np.testing.assert_allclose(res.expected.sum(axis=0), table.col_sums, atol=tol)
        assert abs(res.expected.sum() - table.total) <= tol

    @settings(max_examples=150, deadline=None)
    @given(square_count_tables(), st.integers(0, 2**32 - 1))
    def test_conjugation_invariance(self, counts, seed):
        # permuting rows and columns by the same permutation conjugates signed
        rng = np.random.default_rng(seed)
        k = counts.shape[0]
        perm = rng.permutation(k)
        base = residuals(MatchingTable(counts)).signed
        moved = residuals(MatchingTable(counts[np.ix_(perm, perm)])).signed
        np.testing.assert_allclose(moved, base[np.ix_(perm, perm)], rtol=1e-9, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(square_count_tables())
    def test_chi2_zero_iff_independent(self, counts):
        table = MatchingTable(counts)
        res = residuals(table)
        assert np.isclose(res.chi2, res.dev.sum(), rtol=1e-9)
        if res.chi2 == 0.0:
            np.testing.assert_allclose(table.counts, res.expected, atol=1e-9)
        if np.allclose(table.counts, res.expected, atol=0):
            assert res.chi2 == 0.0

    @settings(max_examples=150, deadline=None)
    @given(square_count_tables(max_k=2))
    def test_two_by_two_sign_pattern(self, counts):
        if counts.shape[0] != 2:
            return
        signs = np.sign(residuals(MatchingTable(counts)).signed)
        patterns = {
            ((1, -1), (-1, 1)),
            ((-1, 1), (1, -1)),
            ((0, 0), (0, 0)),
        }
        assert tuple(map(tuple, signs.astype(int))) in patterns


class TestMatchingTable:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MatchingTable([[1, -1], [0, 2]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MatchingTable([[1, 2, 3], [4, 5, 6]])

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            MatchingTable([[1.5, 0], [0, 1]])
