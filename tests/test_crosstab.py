import copy
import importlib
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truematch import (
    LabelVector,
    MatchingTable,
    aligned_table,
    crosstab,
    match_tracemax,
    match_truematch,
    match_truematch_heuristic,
    residuals,
)
from truematch.crosstab import MAX_TOTAL
from truematch.labels import _label_array

CROSSTAB_MODULE = importlib.import_module("truematch.crosstab")

OUTLIER_MATCHED = [[99, 0], [0, 1]]
OUTLIER_MISSED = [[98, 1], [1, 0]]

COPIERS = pytest.mark.parametrize(
    "copier", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))], ids=["copy", "deepcopy", "pickle"]
)


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

    def test_label_space_from_n_clusters(self):
        a = LabelVector(np.array([1, 2, 1]), 5)
        b = LabelVector(np.array([2, 2, 1]), 5)
        table = crosstab(a, b)
        assert table.counts.shape == (5, 5)
        assert table.total == 3

    def test_each_input_checked_once_without_k(self, monkeypatch):
        calls = []

        def counted(v, *args, **kwargs):
            calls.append(args)
            return _label_array(v, *args, **kwargs)

        monkeypatch.setattr(CROSSTAB_MODULE, "_label_array", counted)
        table = crosstab(LabelVector(np.array([1, 2]), 5), LabelVector(np.array([2, 1]), 3))
        assert table.k == 5
        assert calls == [(5,), (5,)]
        calls.clear()
        assert crosstab([1, 3], LabelVector(np.array([2, 1]), 2)).k == 3
        assert calls == [(), (3,), (3,)]

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

    @pytest.mark.parametrize("counts", [
        [[MAX_TOTAL, 1], [0, 0]],
        [[MAX_TOTAL + 1, 0], [0, 0]],
        [[5 * 10**9, 1], [1, 5 * 10**9]],  # margin products of 2.5e19 overflow int64
        [[2**62, 2**62], [2**62, 2**62]],  # a sum that wraps around int64
    ])
    def test_rejects_total_over_the_bound(self, counts):
        with pytest.raises(ValueError, match="total at most 3000000000"):
            MatchingTable(counts)

    @pytest.mark.parametrize("k, message", [
        (0, "square and non-empty"),
        (1, "at least one observation"),
        (2, "at least one observation"),
        (3, "at least one observation"),
    ])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_rejects_table_without_observations(self, k, message, dtype):
        # no residual expectation and no agreement index is defined on a zero total
        with pytest.raises(ValueError, match=message):
            MatchingTable(np.zeros((k, k), dtype=dtype))


def reference_signed(counts):
    # the residual arithmetic written out, step for step, on plain arrays
    counts = np.asarray(counts, dtype=np.int64)
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)).astype(float) / int(counts.sum())
    diff = counts.astype(float) - expected
    positive = expected > 0.0
    dev = np.where(positive, diff * diff / np.where(positive, expected, 1.0), 0.0)
    return expected, dev, np.sign(diff) * dev


def same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestSignedK2:
    """The K=2 matchers' Python-float residuals against the numpy matrix, bit for bit."""

    @staticmethod
    def assert_same_bytes(table):
        assert np.array(table._signed_k2).tobytes() == residuals(table).signed.tobytes()

    def test_every_small_table(self):
        tables = 0
        for counts in itertools.product(range(13), repeat=4):
            if any(counts):
                table = MatchingTable(np.reshape(counts, (2, 2)))
                self.assert_same_bytes(table)
                tables += 1
                # the K=2 presentation relies on it: matched cells of equal count carry equal residuals
                (a, b), (c, d) = table._signed_k2
                assert (a == d) >= (counts[0] == counts[3]) and (b == c) >= (counts[1] == counts[2])
        assert tables == 28_560

    def test_random_tables_up_to_the_total_bound(self):
        rng = np.random.default_rng(2007)
        for _ in range(3000):
            total = int(rng.integers(1, MAX_TOTAL, endpoint=True))
            cuts = np.sort(rng.integers(0, total, size=3, endpoint=True))
            counts = np.diff(cuts, prepend=0, append=total).reshape(2, 2)  # four cells summing to total
            empty = int(rng.integers(8))  # 0, 1: an empty row (expectation 0); 2, 3: an empty column
            if empty < 2:
                counts[empty] = 0
            elif empty < 4:
                counts[:, empty - 2] = 0
            if counts.sum():
                self.assert_same_bytes(MatchingTable(counts))
        self.assert_same_bytes(MatchingTable([[MAX_TOTAL - 2, 1], [1, 0]]))


class TestImmutableTable:
    def test_residuals_computed_once_per_table(self):
        table = MatchingTable([[3, 1], [0, 2]])
        assert residuals(table) is residuals(table)

    def test_counts_and_residuals_read_only(self):
        table = MatchingTable([[3, 1, 0], [0, 2, 4], [1, 1, 1]])
        res = residuals(table)
        for arr in (table.counts, table.row_sums, table.col_sums, res.expected, res.dev, res.signed):
            with pytest.raises(ValueError):
                arr[0] = 7

    @pytest.mark.parametrize("read_first", [False, True])
    def test_caller_array_stays_writable_and_unaliased(self, read_first):
        owned = np.array([[5, 1], [2, 4]], dtype=np.int64)
        table = MatchingTable(owned)
        before = residuals(MatchingTable(owned.copy()))
        if read_first:
            residuals(table)
        owned[0, 0] = 100
        owned[1] = 0
        assert owned.flags.writeable
        assert table.counts.tolist() == [[5, 1], [2, 4]]
        assert table.row_sums.tolist() == [6, 6]
        assert table.col_sums.tolist() == [7, 5]
        assert table.total == 12
        for name in ("expected", "dev", "signed"):
            assert same_bits(getattr(residuals(table), name), getattr(before, name))

    def test_library_made_tables_read_only(self):
        table = crosstab([1, 2, 2], [2, 1, 2])
        result = match_truematch(table, np.random.default_rng(0))
        for made in (table, result.matched_table, aligned_table(table, result.perm)):
            assert not made.counts.flags.writeable
            assert made.counts.dtype == np.int64

    @settings(max_examples=150, deadline=None)
    @given(square_count_tables(max_k=8, max_count=10**6))
    def test_cached_equals_fresh(self, counts):
        table = MatchingTable(counts)
        first = residuals(table)
        cached = residuals(table)
        fresh = residuals(MatchingTable(counts))
        assert cached is first and fresh is not first
        for name, ref in zip(("expected", "dev", "signed"), reference_signed(counts)):
            assert same_bits(getattr(cached, name), getattr(fresh, name))
            assert same_bits(getattr(cached, name), ref)

    @COPIERS
    def test_copies_are_read_only_tables(self, copier):
        table = MatchingTable([[5, 1], [2, 4]])
        original = residuals(table)
        copied = copier(table)
        assert not copied.counts.flags.writeable
        assert copied.counts.tolist() == [[5, 1], [2, 4]] and copied.total == 12
        assert same_bits(residuals(copied).signed, original.signed)

    @COPIERS
    def test_copies_start_with_an_empty_presentation_slot(self, copier):
        table = MatchingTable([[2, 2], [2, 2]])  # all four presentations reachable
        for seed in range(16):
            match_truematch(table, np.random.default_rng(seed)).matched_table
        copied = copier(table)
        assert "_k2" in table.__dict__ and "_k2" not in copied.__dict__
        for seed in range(16):
            got = match_truematch(copied, np.random.default_rng(seed))
            want = match_truematch(table, np.random.default_rng(seed))
            for read in (lambda r: r.row_order, lambda r: r.col_order, lambda r: r.matched_table.counts):
                assert read(got).tolist() == read(want).tolist()
        assert copied._k2[1].keys() == table._k2[1].keys() and len(table._k2[1]) == 4

    @COPIERS
    def test_copies_are_read_only_label_vectors(self, copier):
        vector = LabelVector([2, 1, 3, 1], 4)
        copied = copier(vector)
        assert not copied.labels.flags.writeable
        assert copied.labels.dtype == np.int64
        assert copied.labels.tolist() == [2, 1, 3, 1] and copied.n_clusters == 4

    def test_tracemax_leaves_residuals_to_the_reader(self):
        table = crosstab([1, 1, 2, 2, 2], [2, 2, 1, 1, 2])
        result = match_tracemax(table, np.random.default_rng(0))
        assert result.perm.tolist() == [2, 1]
        assert "_residuals" not in table.__dict__
        assert result.residuals is residuals(table)
        assert result.pair_signed.tolist() == residuals(table).signed[[0, 1], result.row_to_col].tolist()

    def test_truematch_builds_residuals_on_read_at_k2(self):
        # at K=2 both residual matchers score and present on the table's Python floats
        for matcher in (match_truematch, match_truematch_heuristic):
            table = crosstab([1, 1, 2, 2, 2], [2, 2, 1, 1, 2])
            result = matcher(table, np.random.default_rng(0))
            assert result.perm.tolist() == [2, 1] and result.matched_table.counts.tolist() == [[2, 1], [0, 2]]
            assert "_residuals" not in table.__dict__
            assert result.residuals is residuals(table) and "_residuals" in table.__dict__
            assert same_bits(result.residuals.signed, np.array(table._signed_k2))
        for matcher in (match_truematch, match_truematch_heuristic):  # K >= 3 scores on the numpy matrix
            table = crosstab([1, 1, 2, 2, 3, 3], [2, 2, 1, 1, 3, 3])
            matcher(table, np.random.default_rng(0))
            assert "_residuals" in table.__dict__
