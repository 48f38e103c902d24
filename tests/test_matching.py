from collections import Counter

import numpy as np
import pytest

from truematch import (
    MatchedPair,
    MatchingTable,
    aligned_table,
    apply_permutation,
    crosstab,
    inverse_permutation,
    match_tracemax,
    match_truematch,
    match_truematch_heuristic,
    resolve_matcher,
    residuals,
)
from truematch.labels import LabelVector

MISSED = MatchingTable([[98, 1], [1, 0]])
MATCHED = MatchingTable([[99, 0], [0, 1]])

ORIENT_A = ((1, 98), (0, 1))
ORIENT_B = ((1, 0), (98, 1))


def table_key(result):
    return tuple(map(tuple, result.matched_table.counts))


def reference_presentation(table, perm, draws, method, pair_order=None, pair_signed=None):
    """Oracle for the presentation attributes of a match: the pairs,
    matched table and row/column orders built eagerly in one function
    from the assignment ``perm`` and the per-row pair draws.  The
    heuristic passes its own selection order and residuals."""
    k = table.k
    rows = np.arange(k)
    cols = np.argsort(perm)  # perm[c] is the row of column c, so row r holds column cols[r]
    s_vals = residuals(table).signed[rows, cols]
    n_vals = table.counts[rows, cols]
    present = np.lexsort((draws, -s_vals, -n_vals))
    row_order = rows[present]
    col_order = cols[present]
    matched = table.counts[np.ix_(row_order, col_order)]
    if pair_order is None:
        if method == "tracemax":
            pair_order = np.lexsort((draws, -n_vals))
        else:
            pair_order = np.lexsort((draws, -s_vals))
    reported_s = s_vals if pair_signed is None else pair_signed
    pairs = tuple(
        MatchedPair(int(rows[i]) + 1, int(cols[i]) + 1, float(reported_s[i]), int(n_vals[i]))
        for i in pair_order
    )
    return pairs, matched, row_order + 1, col_order + 1


def presentation_tables():
    """Random tables with K from 1 to 6, many of them tie-heavy."""
    rng = np.random.default_rng(2024)
    tables = []
    for k in range(1, 7):
        tables.append(np.full((k, k), 4))  # all-equal counts
        tables.append(3 * np.eye(k, dtype=np.int64))
        tables += [rng.integers(0, 2, (k, k)) for _ in range(8)]  # {0, 1} counts
        tables += [rng.integers(0, 30, (k, k)) for _ in range(8)]
        padded = rng.integers(0, 9, (k, k))
        padded[:, -1] = 0  # an unused column label, as canonical_pair pads
        tables.append(padded)
    return [MatchingTable(t) for t in tables if t.sum() > 0]


class TestTracemax:
    def test_missed_outliers_identity(self):
        res = match_tracemax(MISSED, np.random.default_rng(0))
        assert res.perm.tolist() == [1, 2]
        assert res.matched_table.counts.trace() == 98
        assert table_key(res) == ((98, 1), (1, 0))

    def test_matched_outliers_identity(self):
        res = match_tracemax(MATCHED, np.random.default_rng(0))
        assert res.perm.tolist() == [1, 2]
        assert res.matched_table.counts.trace() == 100

    def test_symmetric_tie_uniform(self):
        rng = np.random.default_rng(77)
        table = MatchingTable([[5, 5], [5, 5]])
        rate = np.mean([match_tracemax(table, rng).perm.tolist() == [1, 2] for _ in range(2000)])
        assert abs(rate - 0.5) <= 0.05


class TestTruematch:
    def test_missed_outliers_always_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(64):
            assert match_truematch(MISSED, rng).perm.tolist() == [2, 1]

    def test_missed_outliers_two_orientations(self):
        rng = np.random.default_rng(13)
        seen = Counter(table_key(match_truematch(MISSED, rng)) for _ in range(2000))
        assert set(seen) == {ORIENT_A, ORIENT_B}
        assert abs(seen[ORIENT_A] / 2000 - 0.5) <= 0.05

    def test_matched_outliers_identity(self):
        # residual diagonal 0.01 + 98.01 dominates the off-diagonal option
        res = match_truematch(MATCHED, np.random.default_rng(3))
        assert res.perm.tolist() == [1, 2]
        assert table_key(res) == ((99, 0), (0, 1))

    def test_perfect_agreement_identity(self):
        table = MatchingTable(np.diag([10, 10, 10]))
        res = match_truematch(table, np.random.default_rng(4))
        assert res.perm.tolist() == [1, 2, 3]

    def test_swap_has_higher_residual_trace(self):
        signed = residuals(MISSED).signed
        identity_trace = signed[0, 0] + signed[1, 1]
        swap_trace = signed[0, 1] + signed[1, 0]
        assert swap_trace == pytest.approx(2.0202e-4, rel=1e-3)
        assert identity_trace == pytest.approx(-0.0100, abs=1e-4)
        assert swap_trace > identity_trace

    def test_pairs_sorted_by_signed_dev(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            counts = rng.integers(0, 30, (k, k))
            if counts.sum() == 0:
                continue
            res = match_truematch(MatchingTable(counts), rng)
            devs = [p.signed_dev for p in res.pairs]
            assert devs == sorted(devs, reverse=True)

    def test_k1_trivial(self):
        res = match_truematch(MatchingTable([[7]]), np.random.default_rng(0))
        assert res.perm.tolist() == [1]
        assert res.matched_table.counts.tolist() == [[7]]


class TestHeuristic:
    def test_missed_outliers_same_two_outcomes(self):
        rng = np.random.default_rng(29)
        seen = Counter()
        for _ in range(2000):
            res = match_truematch_heuristic(MISSED, rng)
            assert res.perm.tolist() == [2, 1]
            seen[table_key(res)] += 1
        assert set(seen) == {ORIENT_A, ORIENT_B}
        assert abs(seen[ORIENT_A] / 2000 - 0.5) <= 0.05

    def test_matched_outliers_identity(self):
        res = match_truematch_heuristic(MATCHED, np.random.default_rng(2))
        assert res.perm.tolist() == [1, 2]

    def test_perfect_agreement_identity(self):
        table = MatchingTable(np.eye(5, dtype=int))
        res = match_truematch_heuristic(table, np.random.default_rng(6))
        assert res.perm.tolist() == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9])
    def test_residual_recomputation_count(self, k):
        rng = np.random.default_rng(k)
        counts = rng.integers(0, 12, (k, k)) + np.eye(k, dtype=int)
        res = match_truematch_heuristic(MatchingTable(counts), rng)
        expected = k * (k + 1) * (2 * k + 1) // 6 - 1
        assert res.seed_trace["residual_cells"] == expected


class TestResultShape:
    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_matched_table_is_joint_reorder(self, matcher):
        rng = np.random.default_rng(41)
        fn = resolve_matcher(matcher)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            counts = rng.integers(0, 25, (k, k))
            if counts.sum() == 0:
                continue
            table = MatchingTable(counts)
            res = fn(table, rng)
            rebuilt = counts[np.ix_(res.row_order - 1, res.col_order - 1)]
            assert np.array_equal(rebuilt, res.matched_table.counts)
            # presentation pairs sit on the diagonal, and the column
            # relabeling perm maps each matched column to its row
            for i in range(k):
                assert res.perm[res.col_order[i] - 1] == res.row_order[i]

    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_presentation_matches_reference(self, matcher):
        fn = resolve_matcher(matcher)
        heuristic = matcher == "truematch-heuristic"
        for i, table in enumerate(presentation_tables()):
            for seed in range(3):
                res = fn(table, np.random.default_rng([i, seed]))
                draws = np.asarray(res.seed_trace["pair_draws"])
                assert draws.size == table.k
                pairs, matched, row_order, col_order = reference_presentation(
                    table, res.perm, draws, matcher,
                    res.pair_order if heuristic else None, res.pair_signed if heuristic else None,
                )
                assert res.pairs == pairs
                assert isinstance(res.matched_table, MatchingTable)
                assert np.array_equal(res.matched_table.counts, matched)
                assert res.row_order.tolist() == row_order.tolist()
                assert res.col_order.tolist() == col_order.tolist()
                assert res.row_order.dtype == res.col_order.dtype == np.int64

    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_reading_presentation_leaves_generator_alone(self, matcher):
        fn = resolve_matcher(matcher)
        for i, table in enumerate(presentation_tables()):
            read_rng = np.random.default_rng(i)
            unread_rng = np.random.default_rng(i)
            read = fn(table, read_rng)
            assert len(read.pairs) == read.matched_table.k == read.row_order.size == read.col_order.size
            with pytest.raises(AttributeError):
                read.pairs = ()
            unread = fn(table, unread_rng)
            assert read_rng.bit_generator.state == unread_rng.bit_generator.state
            assert read.perm.tolist() == unread.perm.tolist()
            assert read.seed_trace == unread.seed_trace

    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_carries_full_table_residuals(self, matcher):
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            table = MatchingTable(rng.integers(0, 25, (k, k)) + np.eye(k, dtype=int))
            res = resolve_matcher(matcher)(table, rng)
            full = residuals(table)
            assert np.array_equal(res.residuals.signed, full.signed)
            assert res.residuals.chi2 == full.chi2
            for pair in res.pairs if matcher != "truematch-heuristic" else ():
                assert pair.signed_dev == full.signed[pair.row - 1, pair.column - 1]

    def test_aligned_table_matches_apply_permutation(self):
        rng = np.random.default_rng(55)
        a = rng.integers(1, 4, 60)
        b = rng.integers(1, 4, 60)
        table = crosstab(a, b, 3)
        res = match_truematch(table, rng)
        via_labels = crosstab(a, apply_permutation(LabelVector(b, 3), res.perm).labels, 3)
        assert np.array_equal(aligned_table(table, res.perm).counts, via_labels.counts)
        # column-aligned trace equals the matched trace (same matched cells)
        assert aligned_table(table, res.perm).counts.trace() == res.matched_table.counts.trace()


NON_PERMUTATION_CALLS = {
    "inverse_permutation-repeat": lambda: inverse_permutation([1, 1]),
    "inverse_permutation-zero": lambda: inverse_permutation([0, 1]),
    "aligned_table-repeat": lambda: aligned_table(MatchingTable([[3, 1], [0, 2]]), [1, 1]),
    "aligned_table-zero": lambda: aligned_table(MatchingTable([[3, 1], [0, 2]]), [0, 1]),
    "aligned_table-too-long": lambda: aligned_table(MatchingTable([[3, 1], [0, 2]]), [1, 2, 3]),
}


@pytest.mark.parametrize("call", sorted(NON_PERMUTATION_CALLS))
def test_non_permutation_rejected(call):
    # a repeated, zero or surplus entry does not relabel the table's columns
    with pytest.raises(ValueError):
        NON_PERMUTATION_CALLS[call]()


class TestDistributionalProperties:
    def test_equivariance_under_column_relabeling(self):
        # matching t(a, rho(b)) must distribute the same matched-pair count
        # multisets as matching t(a, b)
        rng = np.random.default_rng(67)
        counts = np.array([[30, 4, 1], [2, 20, 6], [5, 3, 12]])
        rho = np.array([3, 1, 2])
        base_table = MatchingTable(counts)
        moved_table = MatchingTable(counts[:, rho - 1])
        for fn in (match_truematch, match_tracemax, match_truematch_heuristic):
            base = Counter()
            moved = Counter()
            for _ in range(400):
                base[tuple(sorted(p.count for p in fn(base_table, rng).pairs))] += 1
                moved[tuple(sorted(p.count for p in fn(moved_table, rng).pairs))] += 1
            keys = set(base) | set(moved)
            tv = sum(abs(base[key] - moved[key]) for key in keys) / 2 / 400
            assert tv <= 0.15, f"{fn.__name__}: total variation {tv:.3f}"

    def test_randomized_neutrality_on_random_labelings(self):
        # Any trace-optimizing matcher aligns random K=2 labelings at the
        # chance-maximum level E[max(T, N-T)]/N, T ~ Binomial(N, 1/2) --
        # computed exactly here as the independent oracle.  Truematch must
        # sit at that level (no inflation beyond chance).
        from math import comb

        n = 100
        chance_level = sum(comb(n, t) * 0.5**n * max(t, n - t) for t in range(n + 1)) / n
        rng = np.random.default_rng(101)
        total = 0.0
        runs = 1500
        for _ in range(runs):
            a = rng.integers(1, 3, n)
            b = rng.integers(1, 3, n)
            table = crosstab(a, b, 2)
            total += match_truematch(table, rng).matched_table.counts.trace() / n
        assert abs(total / runs - chance_level) <= 0.02

    def test_determinism_per_seed(self):
        table = MatchingTable([[9, 3, 1], [2, 8, 2], [1, 1, 7]])
        for fn in (match_truematch, match_tracemax, match_truematch_heuristic):
            r1 = fn(table, np.random.default_rng(99))
            r2 = fn(table, np.random.default_rng(99))
            assert r1.perm.tolist() == r2.perm.tolist()
            assert table_key(r1) == table_key(r2)
            assert r1.pairs == r2.pairs
