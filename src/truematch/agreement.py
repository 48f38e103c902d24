"""Agreement indices between two labelings, computed from their count table.

``diagonal_fraction`` and ``cohen_kappa`` depend on how labels are aligned
(they read the diagonal), while ``rand_index`` and ``adjusted_rand`` are
invariant under any relabeling of either side.  A ``MatchingTable`` holds 1
to 3e9 observations (the Rand indices need 2).  Binomial terms stay exact
integers until the final ratio, so no product overflows within that bound.
"""

from __future__ import annotations

from .crosstab import MatchingTable

__all__ = ["diagonal_fraction", "cohen_kappa", "rand_index", "adjusted_rand"]


def _pair_counts(table: MatchingTable) -> tuple[int, int, int, int]:
    """Case pairs sharing a cell, a row, a column, and all case pairs.

    Cells, rows and columns each sum to the total n, so the pairs within
    them are (sum of squares - n) / 2.  The sums are Python ints, so
    products of them stay exact where int64 would overflow.
    """
    n = table.total
    if n < 2:
        raise ValueError("rand index needs at least two observations")
    within = [(int(x @ x) - n) // 2 for x in (table.counts.ravel(), table.row_sums, table.col_sums)]
    return (*within, n * (n - 1) // 2)


def diagonal_fraction(table: MatchingTable) -> float:
    """Fraction of observations on the main diagonal.

    Not chance-corrected: its value depends entirely on how the second
    labeling's clusters were matched to the first's.
    """
    return float(table.counts.trace() / table.total)


def cohen_kappa(table: MatchingTable) -> float:
    """Chance-corrected diagonal agreement (p_o - p_e) / (1 - p_e).

    p_o is the observed diagonal fraction and p_e the diagonal expected
    from the marginals alone.  Exact perfect agreement with p_e = 1
    returns 1.0.  (p_e = 1 with p_o < 1 cannot arise from a genuine
    count table; it is reported as NaN as a defensive signal.)
    """
    n = table.total
    p_obs = float(table.counts.trace()) / n
    p_exp = float((table.row_sums * table.col_sums).sum()) / (n * n)
    if p_exp == 1.0:
        return 1.0 if p_obs == 1.0 else float("nan")
    return (p_obs - p_exp) / (1.0 - p_exp)


def rand_index(table: MatchingTable) -> float:
    """Pair-counting agreement in [0, 1].

    The fraction of case pairs treated consistently by both labelings
    (together in both or separated in both).  Invariant under label
    permutations of either side.
    """
    together_both, together_rows, together_cols, all_pairs = _pair_counts(table)
    return float(all_pairs + 2 * together_both - together_rows - together_cols) / all_pairs


def adjusted_rand(table: MatchingTable) -> float:
    """Chance-corrected pair-counting agreement (Hubert-Arabie form).

    Zero-centered for independent labelings, 1 for identical ones.
    A zero denominator (both sides a single cluster, or both all
    singletons) returns 0.0 so Monte-Carlo sweeps never abort on
    degenerate draws.
    """
    together_both, together_rows, together_cols, all_pairs = _pair_counts(table)
    expected = together_rows * together_cols / all_pairs
    denom = 0.5 * (together_rows + together_cols) - expected
    if denom == 0.0:
        return 0.0
    return (together_both - expected) / denom
