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

The ``matched_table`` (built on read) renames matched pairs jointly: the
pair presented first occupies cell (1, 1), the second (2, 2), and so on,
with presentation order (count desc, signed residual desc, random draw).
For a table of two 99:1 labelings with mismatched singletons this yields
the two off-diagonal orientations with equal probability, so averaging
matched tables over random data shows no systematic diagonal.  ``perm``
is the plain column relabeling that aligns the second labeling to the
first; use it (not the presentation) to compose matchings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    The fields hold what the matcher decided; the attributes marked
    "on read" present it and are computed when first read.

    Attributes
    ----------
    method : str
        Which matcher produced the result.
    perm : ndarray
        Column relabeling aligning the second (column) labeling to the
        first: column label c is renamed to ``perm[c-1]``.
    residuals : ResidualMatrix
        Signed chi-squared residuals of the full input table, as the
        matcher computed them.
    seed_trace : dict
        Random draws consumed while matching (shuffles, tie draws), for
        reproducibility audits.
    table, row_to_col : MatchingTable, ndarray
        The input table, and the 0-based column matched to each row.
    pair_draws : ndarray
        Uniform draw of each row's pair; it breaks exact ties in both orders.
    pair_order, pair_signed : ndarray
        0-based rows in the order ``pairs`` reports them, and the signed
        residual reported for each row's pair.
    pairs : tuple of MatchedPair, on read
        Matched (row, column) pairs with the signed residual and raw
        count of each matched cell.  For the residual-based matchers
        pairs are ordered by signed residual descending (the heuristic
        reports its selection sequence, which is exactly that order on
        the shrinking subtables, with the selection-time residual); for
        tracemax by count descending.  Exact ties follow the pair draws.
    matched_table : MatchingTable, on read
        The input table with rows and columns jointly renamed so that
        the i-th presented pair sits at cell (i, i); presentation order
        is (count desc, full-table signed residual desc, pair draw).
    row_order, col_order : ndarray, on read
        1-based original row/column of each presented pair, so
        ``matched_table.counts[i, j] == counts[row_order[i]-1, col_order[j]-1]``.
    """

    method: str
    perm: np.ndarray
    residuals: ResidualMatrix
    seed_trace: dict
    table: MatchingTable
    row_to_col: np.ndarray
    pair_draws: np.ndarray
    pair_order: np.ndarray
    pair_signed: np.ndarray

    @cached_property
    def row_order(self) -> np.ndarray:
        rows = np.arange(self.table.k)
        signed = self.residuals.signed[rows, self.row_to_col]
        counts = self.table.counts[rows, self.row_to_col]
        return np.lexsort((self.pair_draws, -signed, -counts)) + 1

    @cached_property
    def col_order(self) -> np.ndarray:
        return self.row_to_col[self.row_order - 1] + 1

    @cached_property
    def matched_table(self) -> MatchingTable:
        return MatchingTable(self.table.counts[np.ix_(self.row_order - 1, self.col_order - 1)])

    @cached_property
    def pairs(self) -> tuple[MatchedPair, ...]:
        return tuple(
            MatchedPair(int(r) + 1, int(c) + 1, float(self.pair_signed[r]), int(self.table.counts[r, c]))
            for r, c in zip(self.pair_order, self.row_to_col[self.pair_order])
        )


def _match_by_assignment(
    method: str, table: MatchingTable, res: ResidualMatrix, score: np.ndarray, rng: np.random.Generator
) -> MatchResult:
    k = table.k
    row_shuffle = rng.permutation(k)
    col_shuffle = rng.permutation(k)
    shuffled_assign = solve_assignment(score[np.ix_(row_shuffle, col_shuffle)], "maximize") - 1
    # Shuffled row i is original row row_shuffle[i]; likewise for columns.
    row_to_col = np.empty(k, dtype=np.int64)
    row_to_col[row_shuffle] = col_shuffle[shuffled_assign]
    perm = np.argsort(row_to_col) + 1  # inverse of the bijection: column label c -> its row
    draws = rng.uniform(size=k)
    trace = {"row_shuffle": row_shuffle.tolist(), "col_shuffle": col_shuffle.tolist()}
    trace["pair_draws"] = draws.tolist()
    # pairs are reported by the score the assignment maximized, ties by draw
    rows = np.arange(k)
    pair_order = np.lexsort((draws, -score[rows, row_to_col]))
    signed = res.signed[rows, row_to_col]
    return MatchResult(method, perm, res, trace, table, row_to_col, draws, pair_order, signed)


def match_tracemax(table: MatchingTable, rng: np.random.Generator) -> MatchResult:
    """Classic matching: maximize the trace of raw counts.

    Co-optimal permutations are selected uniformly through the initial
    random shuffle, so fully symmetric tables match each orientation
    with equal probability.
    """
    return _match_by_assignment(TRACEMAX, table, residuals(table), table.counts.astype(float), rng)


def match_truematch(table: MatchingTable, rng: np.random.Generator) -> MatchResult:
    """Residual matching: shuffle, transform counts to signed residuals,
    maximize the residual trace exactly, order pairs by residual with
    random tie-break."""
    res = residuals(table)
    return _match_by_assignment(TRUEMATCH, table, res, res.signed, rng)


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

    perm = np.argsort(row_to_col) + 1
    # residuals covered every subtable from k x k down to 2 x 2
    trace = {"tie_draws": tie_draws, "residual_cells": k * (k + 1) * (2 * k + 1) // 6 - 1}
    draws = rng.uniform(size=k)
    trace["pair_draws"] = draws.tolist()
    return MatchResult(TRUEMATCH_HEURISTIC, perm, full, trace, table, row_to_col, draws, pair_order, sel_signed)


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
    second labeling; rows keep their original identity.  ``perm`` must hold
    each of 1..table.k once, as ``MatchResult.perm`` does, else ``ValueError``.
    """
    colmap = inverse_permutation(perm) - 1
    if colmap.size != table.k:
        raise ValueError(f"perm must have {table.k} entries, got {colmap.size}")
    return MatchingTable(table.counts[:, colmap])
