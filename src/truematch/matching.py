"""Cluster-label matching over contingency tables.

Three matchers share one result shape:

* ``match_tracemax`` permutes labels to maximize the raw-count trace,
  the classic criterion (equivalent to minimizing euclidean distance
  between crisp membership matrices).
* ``match_truematch`` maximizes the trace of signed chi-squared
  residuals instead, so cells holding many *non-random* co-assignments
  beat cells that are merely large.
* ``match_truematch_heuristic`` greedily picks the strongest remaining
  cell by (residual, count, random), removes its row and column, and
  recomputes residuals on the shrinking subtable.

All matchers draw from a caller-owned generator.  An initial random
row/column shuffle of the table decides between co-optimal assignments,
and explicit uniform draws order tied matched pairs.  Given the same
table and generator state, results are reproducible bit for bit.

The reported ``matched_table`` renames matched pairs jointly: the pair
presented first occupies cell (1, 1), the second (2, 2), and so on, with
presentation order (count desc, signed residual desc, random draw).  For
a table of two 99:1 labelings with mismatched singletons this yields the
two off-diagonal orientations with equal probability, so averaging
matched tables over random data shows no systematic diagonal.  ``perm``
is the plain column relabeling that aligns the second labeling to the
first; use it (not the presentation) to compose matchings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .assignment import inverse_permutation, solve_assignment
from .crosstab import MatchingTable, ResidualMatrix, residuals

__all__ = [
    "MatchResult",
    "MatchedPair",
    "match_tracemax",
    "match_truematch",
    "match_truematch_heuristic",
    "MATCHERS",
    "resolve_matcher",
    "aligned_table",
]

TRACEMAX = "tracemax"
TRUEMATCH = "truematch"
TRUEMATCH_HEURISTIC = "truematch-heuristic"


class MatchedPair(NamedTuple):
    row: int
    column: int
    signed_dev: float
    count: int


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching the columns of a table to its rows.

    Attributes
    ----------
    method : str
        Which matcher produced the result.
    perm : ndarray
        Column relabeling aligning the second (column) labeling to the
        first: column label c is renamed to ``perm[c-1]``.
    pairs : tuple of MatchedPair
        Matched (row, column) pairs with the full-table signed residual
        and raw count of each matched cell.  For the residual-based
        matchers pairs are ordered by signed residual descending (the
        heuristic reports its selection sequence, which is exactly
        that order on the shrinking subtables); for tracemax by count
        descending.  Exact ties follow the recorded random draws.
    matched_table : MatchingTable
        The input table with rows and columns jointly renamed so that
        the i-th presented pair sits at cell (i, i); presentation order
        is (count desc, signed residual desc, random draw).
    row_order, col_order : ndarray
        1-based original row/column of each presented pair, so
        ``matched_table.counts[i, j] == counts[row_order[i]-1, col_order[j]-1]``.
    seed_trace : dict
        Random draws consumed while matching (shuffles, tie draws), for
        reproducibility audits.
    residuals : ResidualMatrix
        Signed chi-squared residuals of the full input table, as the
        matcher computed them.
    """

    method: str
    perm: np.ndarray
    pairs: tuple[MatchedPair, ...]
    matched_table: MatchingTable
    row_order: np.ndarray
    col_order: np.ndarray
    seed_trace: dict
    residuals: ResidualMatrix


def _finish(
    table: MatchingTable,
    row_to_col: np.ndarray,
    method: str,
    rng: np.random.Generator,
    seed_trace: dict,
    res: ResidualMatrix,
    pair_order: np.ndarray | None = None,
    pair_signed: np.ndarray | None = None,
) -> MatchResult:
    """Assemble a MatchResult from a 0-based row->column assignment and
    the residuals of the full table."""
    k = table.k
    rows = np.arange(k)
    cols = row_to_col
    s_vals = res.signed[rows, cols]
    n_vals = table.counts[rows, cols]

    draws = rng.uniform(size=k)
    seed_trace["pair_draws"] = draws.tolist()

    present = np.lexsort((draws, -s_vals, -n_vals))
    row_order = rows[present]
    col_order = cols[present]
    matched = MatchingTable(table.counts[np.ix_(row_order, col_order)])

    if pair_order is None:
        if method == TRACEMAX:
            pair_order = np.lexsort((draws, -n_vals))
        else:
            pair_order = np.lexsort((draws, -s_vals))
    reported_s = s_vals if pair_signed is None else pair_signed
    pairs = tuple(
        MatchedPair(int(rows[i]) + 1, int(cols[i]) + 1, float(reported_s[i]), int(n_vals[i]))
        for i in pair_order
    )

    perm = np.empty(k, dtype=np.int64)
    perm[cols] = rows + 1  # column label c -> its matched row
    return MatchResult(
        method=method,
        perm=perm,
        pairs=pairs,
        matched_table=matched,
        row_order=row_order + 1,
        col_order=col_order + 1,
        seed_trace=seed_trace,
        residuals=res,
    )


def _match_by_assignment(table: MatchingTable, rng: np.random.Generator, method: str) -> MatchResult:
    k = table.k
    row_shuffle = rng.permutation(k)
    col_shuffle = rng.permutation(k)
    res = residuals(table)
    score = res.signed if method == TRUEMATCH else table.counts.astype(float)
    shuffled_assign = solve_assignment(score[np.ix_(row_shuffle, col_shuffle)], "maximize") - 1
    # Shuffled row i is original row row_shuffle[i]; likewise for columns.
    row_to_col = np.empty(k, dtype=np.int64)
    row_to_col[row_shuffle] = col_shuffle[shuffled_assign]
    trace = {"row_shuffle": row_shuffle.tolist(), "col_shuffle": col_shuffle.tolist()}
    return _finish(table, row_to_col, method, rng, trace, res)


def match_tracemax(table: MatchingTable, rng: np.random.Generator) -> MatchResult:
    """Classic matching: maximize the trace of raw counts.

    Co-optimal permutations are selected uniformly through the initial
    random shuffle, so fully symmetric tables match each orientation
    with equal probability.
    """
    return _match_by_assignment(table, rng, TRACEMAX)


def match_truematch(table: MatchingTable, rng: np.random.Generator) -> MatchResult:
    """Residual matching: shuffle, transform counts to signed residuals,
    maximize the residual trace exactly, order pairs by residual with
    random tie-break."""
    return _match_by_assignment(table, rng, TRUEMATCH)


def match_truematch_heuristic(table: MatchingTable, rng: np.random.Generator) -> MatchResult:
    """Greedy residual matching without an assignment solver.

    While at least a 2x2 subtable remains: recompute signed residuals on
    the remaining cells, take the cell maximal by (residual, count,
    random) as the target, match its row to its column, and drop both.
    The final remaining row/column pair is matched directly.
    """
    k = table.k
    full = residuals(table)
    live_rows = np.arange(k)
    live_cols = np.arange(k)
    row_to_col = np.empty(k, dtype=np.int64)
    # pairs are reported in selection order with the selection-time residual
    pair_order = np.empty(k, dtype=np.int64)
    sel_signed = np.zeros(k)
    tie_draws: list[int] = []
    sub, signed = table.counts, full.signed
    for step in range(k - 1):
        if step:
            sub = table.counts[np.ix_(live_rows, live_cols)]
            if sub.sum() > 0:
                signed = residuals(MatchingTable(sub)).signed
            else:
                signed = np.zeros_like(sub, dtype=float)
        top = signed == signed.max()
        counts_top = sub[top].max()
        top &= sub == counts_top
        flat = np.flatnonzero(top)
        if flat.size == 1:
            pick = int(flat[0])
        else:
            pick = int(rng.choice(flat))
            tie_draws.append(pick)
        r, c = divmod(pick, live_cols.size)
        row = live_rows[r]
        row_to_col[row] = live_cols[c]
        sel_signed[row] = signed[r, c]
        pair_order[step] = row
        live_rows = np.delete(live_rows, r)
        live_cols = np.delete(live_cols, c)
    # a 1x1 subtable always has zero residual: its count equals its margins
    row_to_col[live_rows[0]] = live_cols[0]
    pair_order[k - 1] = live_rows[0]

    # residuals covered every subtable from k x k down to 2 x 2
    trace = {"tie_draws": tie_draws, "residual_cells": k * (k + 1) * (2 * k + 1) // 6 - 1}
    return _finish(
        table,
        row_to_col,
        TRUEMATCH_HEURISTIC,
        rng,
        trace,
        full,
        pair_order=pair_order,
        pair_signed=sel_signed,
    )


MATCHERS: dict[str, Callable[[MatchingTable, np.random.Generator], MatchResult]] = {
    TRACEMAX: match_tracemax,
    TRUEMATCH: match_truematch,
    TRUEMATCH_HEURISTIC: match_truematch_heuristic,
}


def resolve_matcher(matcher) -> Callable[[MatchingTable, np.random.Generator], MatchResult]:
    """Accept a matcher name or a matcher callable."""
    if callable(matcher):
        return matcher
    try:
        return MATCHERS[matcher]
    except KeyError:
        raise ValueError(f"unknown matcher {matcher!r}; expected one of {sorted(MATCHERS)}") from None


def aligned_table(table: MatchingTable, perm) -> MatchingTable:
    """Table with only the columns relabeled through ``perm``.

    This is the crosstab of the first labeling against the perm-renamed
    second labeling; rows keep their original identity.
    """
    colmap = inverse_permutation(perm) - 1
    return MatchingTable(table.counts[:, colmap])
