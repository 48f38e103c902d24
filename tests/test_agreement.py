from fractions import Fraction

import numpy as np
import pytest

from truematch import (
    MatchingTable,
    adjusted_rand,
    cohen_kappa,
    crosstab,
    diagonal_fraction,
    rand_index,
)

MISSED = MatchingTable([[98, 1], [1, 0]])
MATCHED = MatchingTable([[99, 0], [0, 1]])
SWAPPED = MatchingTable([[1, 98], [0, 1]])


class TestDiagonalFraction:
    def test_missed(self):
        assert diagonal_fraction(MISSED) == pytest.approx(0.98)

    def test_swapped(self):
        assert diagonal_fraction(SWAPPED) == pytest.approx(0.02)

    def test_perfect(self):
        assert diagonal_fraction(MatchingTable(np.diag([50, 50]))) == 1.0


class TestCohenKappa:
    def test_missed(self):
        assert cohen_kappa(MISSED) == pytest.approx(-0.010101, abs=1e-5)

    def test_matched(self):
        assert cohen_kappa(MATCHED) == 1.0

    def test_swapped_near_zero(self):
        # p_o = 0.02, p_e = 0.0198 by hand
        assert cohen_kappa(SWAPPED) == pytest.approx(0.000204, abs=2e-6)

    def test_single_cluster_perfect(self):
        assert cohen_kappa(MatchingTable([[12]])) == 1.0


class TestRandIndex:
    def test_missed(self):
        assert rand_index(MISSED) == pytest.approx(0.9604, abs=1e-4)

    def test_matched(self):
        assert rand_index(MATCHED) == 1.0

    def test_permutation_invariance_of_relabeled_self(self):
        table = MatchingTable(np.diag([3, 3]))
        relabeled = MatchingTable(np.diag([3, 3])[:, ::-1].copy())
        assert rand_index(table) == rand_index(relabeled)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            rand_index(MatchingTable([[1]]))


class TestAdjustedRand:
    def test_missed(self):
        # exact pair-counting value; the published rounding is -0.01
        assert adjusted_rand(MISSED) == pytest.approx(-0.0101, abs=1e-4)

    def test_matched(self):
        assert adjusted_rand(MATCHED) == 1.0

    def test_chance_centered_on_random_labelings(self):
        rng = np.random.default_rng(31)
        values = []
        for _ in range(800):
            a = rng.integers(1, 3, 100)
            b = rng.integers(1, 3, 100)
            values.append(adjusted_rand(crosstab(a, b, 2)))
        assert abs(float(np.mean(values))) <= 0.02

    def test_degenerate_denominator_sentinel(self):
        assert adjusted_rand(MatchingTable([[30]])) == 0.0


class TestInvariances:
    def test_pair_indices_invariant_under_either_side_relabeling(self):
        rng = np.random.default_rng(17)
        a = rng.integers(1, 4, 80)
        b = rng.integers(1, 4, 80)
        base = crosstab(a, b, 3)
        for _ in range(10):
            pa = rng.permutation(3) + 1
            pb = rng.permutation(3) + 1
            moved = crosstab(pa[a - 1], pb[b - 1], 3)
            assert rand_index(moved) == pytest.approx(rand_index(base), abs=1e-12)
            assert adjusted_rand(moved) == pytest.approx(adjusted_rand(base), abs=1e-12)

    def test_diagonal_and_kappa_change_under_one_sided_relabeling(self):
        # the asymmetry that motivates residual-based matching: the raw
        # diagonal statistics on the missed-outlier table move a lot when
        # one side is relabeled, the pair-counting ones do not
        assert diagonal_fraction(MISSED) != diagonal_fraction(SWAPPED)
        assert cohen_kappa(MISSED) != cohen_kappa(SWAPPED)
        assert rand_index(MISSED) == rand_index(SWAPPED)
        assert adjusted_rand(MISSED) == pytest.approx(adjusted_rand(SWAPPED), abs=1e-12)

    def test_all_indices_one_for_identical_labelings(self):
        rng = np.random.default_rng(23)
        a = rng.integers(1, 4, 60)
        table = crosstab(a, a, 3)
        assert diagonal_fraction(table) == 1.0
        assert cohen_kappa(table) == 1.0
        assert rand_index(table) == 1.0
        assert adjusted_rand(table) == 1.0

    def test_kappa_bounded_by_diagonal(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            counts = rng.integers(0, 20, (k, k))
            if counts.sum() < 2:
                continue
            table = MatchingTable(counts)
            p_exp = float((table.row_sums * table.col_sums).sum()) / table.total**2
            if p_exp > 0 and p_exp < 1 and diagonal_fraction(table) < 1:
                assert cohen_kappa(table) <= diagonal_fraction(table) + 1e-12


class TestExactPairCounts:
    def test_million_total_against_fraction_oracle(self):
        counts = [[400_000, 50_000, 10_000], [30_000, 250_000, 20_000], [5_000, 35_000, 200_000]]
        table = MatchingTable(counts)
        assert table.total == 10**6

        def pairs(x):
            return Fraction(x * (x - 1), 2)

        both = sum(pairs(x) for row in counts for x in row)
        rows = sum(pairs(sum(row)) for row in counts)
        cols = sum(pairs(sum(col)) for col in zip(*counts))
        all_pairs = pairs(10**6)
        # the product the adjusted Rand index needs would wrap around in int64
        assert rows * cols > np.iinfo(np.int64).max
        expected = rows * cols / all_pairs
        rand = (all_pairs + 2 * both - rows - cols) / all_pairs
        crand = (both - expected) / ((rows + cols) / 2 - expected)
        assert rand_index(table) == pytest.approx(float(rand), rel=1e-12, abs=0)
        assert adjusted_rand(table) == pytest.approx(float(crand), rel=1e-12, abs=0)
