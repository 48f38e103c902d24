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
    residuals,
)
from truematch.crosstab import MAX_TOTAL

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
        with pytest.raises(ValueError, match="at least two observations"):
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

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="at least two observations"):
            adjusted_rand(MatchingTable([[1]]))


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


def _pairs(x):
    return Fraction(x * (x - 1), 2)


def _exact_rand(counts):
    """Rand and adjusted Rand indices of ``counts`` as Fractions, and the
    product of the row and column pair counts."""
    both = sum(_pairs(x) for row in counts for x in row)
    rows = sum(_pairs(sum(row)) for row in counts)
    cols = sum(_pairs(sum(col)) for col in zip(*counts))
    all_pairs = _pairs(sum(map(sum, counts)))
    expected = rows * cols / all_pairs
    rand = (all_pairs + 2 * both - rows - cols) / all_pairs
    crand = (both - expected) / ((rows + cols) / 2 - expected)
    return rand, crand, rows * cols


class TestExactPairCounts:
    def test_million_total_against_fraction_oracle(self):
        counts = [[400_000, 50_000, 10_000], [30_000, 250_000, 20_000], [5_000, 35_000, 200_000]]
        table = MatchingTable(counts)
        assert table.total == 10**6
        rand, crand, product = _exact_rand(counts)
        # the product the adjusted Rand index needs would wrap around in int64
        assert product > np.iinfo(np.int64).max
        assert rand_index(table) == pytest.approx(float(rand), rel=1e-12, abs=0)
        assert adjusted_rand(table) == pytest.approx(float(crand), rel=1e-12, abs=0)

    def test_total_at_the_bound_against_fraction_oracle(self):
        # margin products near 5e18, close to the int64 limit of 9.2e18
        counts = [[2_000_000_000, 100_000_000, 50_000_000], [200_000_000, 400_000_000, 0],
                  [50_000_000, 0, 200_000_000]]
        table = MatchingTable(counts)
        assert table.total == MAX_TOTAL
        n = Fraction(MAX_TOTAL)
        rows = [Fraction(sum(row)) for row in counts]
        cols = [Fraction(sum(col)) for col in zip(*counts)]
        p_obs = sum(Fraction(counts[i][i]) for i in range(3)) / n
        p_exp = sum(r * c for r, c in zip(rows, cols)) / n**2
        assert cohen_kappa(table) == pytest.approx(float((p_obs - p_exp) / (1 - p_exp)), rel=1e-12)
        expected = [[float(r * c / n) for c in cols] for r in rows]
        np.testing.assert_allclose(residuals(table).expected, expected, rtol=1e-15, atol=0)
        assert adjusted_rand(table) == pytest.approx(float(_exact_rand(counts)[1]), rel=1e-12, abs=0)
