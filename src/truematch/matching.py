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
table and generator state, results are reproducible bit for bit.  At
K >= 3 the solver minimizes the negated shuffled score.  At K=2 the
matchers make that solver's decision on the negated score, and order and
present the two pairs, on Python scalars with the same float operations:
no solver call, lexsort or fancy indexing.  The residual matchers' K=2
score is the table's signed residuals as Python floats, computed once per
table and bit for bit ``residuals(table).signed``, which is built on read.

The shuffle makes that choice equivariant: relabelling the table's rows
or columns relabels the distribution of assignments the same way, so
averages over random data show no systematic diagonal.  Every K=2 tie
splits evenly: both row orders make the same in-frame decision, so the
row shuffle alone swaps the two assignments.  At K >= 3 co-optimal
assignments are not always picked equally often.

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

from .assignment import solve_assignment
from .crosstab import MatchingTable, ResidualMatrix, residuals
from .labels import _perm_array, _trusted

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
    seed_trace : dict
        Random draws consumed while matching (shuffles, tie draws), for
        reproducibility audits.
    table, row_to_col : MatchingTable, ndarray
        The input table, and the 0-based column matched to each row.
    pair_draws : ndarray
        Uniform draw of each row's pair; it breaks exact ties in both orders.
    pair_order : ndarray
        0-based rows in the order ``pairs`` reports them.
    residuals : ResidualMatrix, on read
        Signed chi-squared residuals of the full input table, computed once per table.
    pair_signed : ndarray, on read
        Signed residual reported for each row's pair: the full table's, or the heuristic's selection-time value.
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
        Built together with ``matched_table``; at K=2 from one tuple comparison.
    """

    method: str
    perm: np.ndarray
    seed_trace: dict
    table: MatchingTable
    row_to_col: np.ndarray
    pair_draws: np.ndarray
    pair_order: np.ndarray

    @cached_property
    def residuals(self) -> ResidualMatrix:
        return residuals(self.table)

    @cached_property
    def pair_signed(self) -> np.ndarray:
        return self.residuals.signed[np.arange(self.table.k), self.row_to_col]

    @cached_property
    def _presentation(self) -> tuple[np.ndarray, np.ndarray, MatchingTable]:
        # row_order, col_order and matched_table, in order (count desc, signed desc, pair draw)
        if self.table.k == 2:  # one tuple comparison on Python scalars, no lexsort or fancy indexing
            # two matched cells of equal count have equal margin products, so equal signed residuals
            n, u, to_col = (x.tolist() for x in (self.table.counts, self.pair_draws, self.row_to_col))
            first, second = ((-n[r][to_col[r]], u[r]) for r in (0, 1))
            rows = [1, 0] if second < first else [0, 1]
            cols = [to_col[r] for r in rows]
            matched = _trusted(MatchingTable, counts=np.array([[n[r][c] for c in cols] for r in rows]))
            return np.array([r + 1 for r in rows]), np.array([c + 1 for c in cols]), matched
        rows = np.arange(self.table.k)
        signed = self.residuals.signed[rows, self.row_to_col]
        counts = self.table.counts[rows, self.row_to_col]
        present = np.lexsort((self.pair_draws, -signed, -counts))
        cols = self.row_to_col[present]
        return present + 1, cols + 1, _trusted(MatchingTable, counts=self.table.counts[present[:, None], cols])

    row_order = property(lambda self: self._presentation[0])
    col_order = property(lambda self: self._presentation[1])
    matched_table = property(lambda self: self._presentation[2])

    @cached_property
    def pairs(self) -> tuple[MatchedPair, ...]:
        return tuple(
            MatchedPair(int(r) + 1, int(c) + 1, float(self.pair_signed[r]), int(self.table.counts[r, c]))
            for r, c in zip(self.pair_order, self.row_to_col[self.pair_order])
        )


def _match_by_assignment(method: str, table: MatchingTable, score, rng: np.random.Generator) -> MatchResult:
    # score: a K x K float array, or at K=2 its rows as a list of Python scalars
    k = table.k
    row_shuffle, col_shuffle, draws = rng.permutation(k), rng.permutation(k), rng.uniform(size=k)
    trace = {"row_shuffle": row_shuffle.tolist(), "col_shuffle": col_shuffle.tolist(), "pair_draws": draws.tolist()}
    # pairs are reported by the score the assignment maximized, ties by draw
    if k == 2:
        # The compiled solver's own decision on the negated shuffled 2x2 score -a -b / -c -d,
        # in Python scalars: swap iff a + d < b + c, or on a tie iff a < b.
        (r0, r1), (c0, c1), u = trace.values()  # the two shuffles and the pair draws
        a, b, c, d = score[r0][c0], score[r0][c1], score[r1][c0], score[r1][c1]
        swap = a + d < b + c or (a + d == b + c and a < b)
        to_col = [1, 0] if (r0 != c0) != swap else [0, 1]  # row r0 takes c1 on a swap, else c0
        row_to_col, perm = np.array(to_col), np.array([c + 1 for c in to_col])  # a 2-permutation is its own inverse
        pair_order = np.array([1, 0] if (-score[1][to_col[1]], u[1]) < (-score[0][to_col[0]], u[0]) else [0, 1])
    else:
        shuffled = score[np.ix_(row_shuffle, col_shuffle)]  # a copy: the solver minimizes its negation
        shuffled_cols = col_shuffle[solve_assignment(np.negative(shuffled, out=shuffled)) - 1]
        # Shuffled row i is original row row_shuffle[i]; likewise for columns.
        row_to_col = np.empty(k, dtype=np.int64)
        row_to_col[row_shuffle] = shuffled_cols
        perm = np.argsort(row_to_col) + 1  # inverse of the bijection: column label c -> its row
        pair_order = np.lexsort((draws, -score[np.arange(k), row_to_col]))
    return MatchResult(method, perm, trace, table, row_to_col, draws, pair_order)


def match_tracemax(table: MatchingTable, rng: np.random.Generator) -> MatchResult:
    """Classic matching: maximize the trace of raw counts.

    The initial random shuffle decides between co-optimal permutations
    equivariantly, so fully symmetric tables, and every tied 2x2 table,
    match each orientation with equal probability.
    """
    if table.total < 1:
        raise ValueError("table must contain at least one observation")
    return _match_by_assignment(TRACEMAX, table, table.counts.tolist() if table.k == 2 else table.counts.astype(float), rng)


def match_truematch(table: MatchingTable, rng: np.random.Generator) -> MatchResult:
    """Residual matching: shuffle, transform counts to signed residuals,
    maximize the residual trace exactly, order pairs by residual with
    random tie-break."""
    return _match_by_assignment(TRUEMATCH, table, table._signed_k2 if table.k == 2 else residuals(table).signed, rng)


def match_truematch_heuristic(table: MatchingTable, rng: np.random.Generator) -> MatchResult:
    """Greedy residual matching without an assignment solver.

    While at least a 2x2 subtable remains: recompute signed residuals on
    the remaining cells, take the cell maximal by (residual, count,
    random) as the target, match its row to its column, and drop both.
    The final remaining row/column pair is matched directly.

    A zero cell scores -E < 0, or +0 in an empty row or column, so while a live nonzero cell
    scores above 0 the maximal cells are all nonzero.  At K >= 20 with at most half the cells
    nonzero, the steps score those cells alone, row-major (the dense tie order), with the same
    float operations and exactly updated margins; dropped cells score NaN until at most half
    are live, then leave.  The first step with no positive score hands over for good to the
    dense pass.  The passes cross near half the cells nonzero at K=100-400; below K=20 the
    nonzero cells gain little or lose.  ``seed_trace["residual_cells"]`` counts all subtables' cells.
    """
    k = table.k
    live_rows, live_cols = list(range(k)), list(range(k))
    row_to_col = np.empty(k, dtype=np.int64)
    # pairs are reported in selection order with the selection-time residual
    pair_order = np.empty(k, dtype=np.int64)
    sel_signed = np.zeros(k)
    tie_draws: list[int] = []
    sub, signed = table.counts, table._signed_k2 if k == 2 else residuals(table).signed
    cf, sparse = None, False
    if k > 2:
        # exact floats: integers below 2**53, so d * |d| / E is bit for bit residuals()' value
        rs, cs, total = table.row_sums.astype(float), table.col_sums.astype(float), float(table.total)
        if k >= 20 and 2 * np.count_nonzero(table.counts) <= k * k:  # the start rule: see the docstring
            nonzero = np.flatnonzero(table.counts)  # row-major
            sparse, m = True, nonzero.size
            # their row and column ids, and count (NaN once dropped); the first m in use
            ids, vals, live = np.stack(np.divmod(nonzero, k)), table.counts.ravel()[nonzero].astype(float), m
            d = signed.ravel()[nonzero]
        else:  # the dense pass from the start, on the whole table
            cf, (expected, diff, absdiff) = table.counts.astype(float), np.empty((3, (k - 1) ** 2))
    for step, n in enumerate(range(k, 1, -1)):
        if sparse:  # the nonzero cells
            if 2 * live < m:  # drop the dead cells, keeping the order of the rest
                keep, m = np.flatnonzero(~np.isnan(vals[:m])), live
                ids[:, :m], vals[:m] = ids.take(keep, 1), vals.take(keep)
            (rows, cols), counts = ids[:, :m], vals[:m]
            if step:  # the dense pass's float operations, on these cells only
                d = counts - (e := rs[rows] * cs[cols] / total)
                d *= np.abs(d)
                d /= e
            # zero cells score -E < 0, or +0 in an empty row or column; dead cells score NaN
            if (top := np.fmax.reduce(d, initial=0.0)) > 0:
                flat = np.flatnonzero(d == top)
                if flat.size > 1:  # ties on the residual go to the larger count, then to a draw
                    flat = flat[counts[flat] == counts[flat].max()]
            else:
                sparse = False  # hand over to the dense pass for good
        if not sparse:
            if cf is None and k > 2:  # handed over: the live subtable, and the dense pass's buffers
                rs, cs, cf = rs[live_rows], cs[live_cols], table.counts[np.ix_(live_rows, live_cols)].astype(float)
                expected, diff, absdiff = np.empty((3, n * n))  # reused, n * n cells a step
            if step:  # the live n x n subtable is cf[:n, :n] with margins rs[:n], cs[:n]
                sub, signed = cf[:n, :n], diff[: n * n].reshape(n, n)
                e = np.outer(rs[:n], cs[:n], out=expected[: n * n].reshape(n, n))
                np.subtract(sub, np.divide(e, max(rs[:n].sum(), 1.0), out=e), out=signed)
                e[rs[:n] == 0] = e[:, cs[:n] == 0] = 1.0  # d = 0 - 0 there (or everywhere): residual +0
                signed *= np.abs(signed, out=absdiff[: n * n].reshape(n, n))
                signed /= e
            if k == 2:  # the one step on Python scalars: the cells maximal by (residual, count)
                cells = list(zip(signed[0] + signed[1], sub.ravel().tolist()))
                flat = [i for i, cell in enumerate(cells) if cell == max(cells)]
            else:
                flat = np.flatnonzero(signed == signed.max())
                if flat.size > 1:
                    flat = flat[(count := sub[flat // n, flat % n]) == count.max()]
        pick = int(flat[0] if len(flat) == 1 else flat[rng.integers(len(flat))])
        if sparse:  # drop the picked cell's row and column from the margins, and their cells
            row, col = int(rows[pick]), int(cols[pick])
            r, c, sel_signed[row] = live_rows.index(row), live_cols.index(col), d[pick]
            in_row, in_col = rows == row, cols == col
            total -= rs[row] + cs[col] - counts[pick]
            rs[rows[in_col]] -= counts[in_col]  # NaN only in rows dropped before
            cs[cols[in_row]] -= counts[in_row]
            live -= np.count_nonzero(~np.isnan(counts[dropped := in_row | in_col]))
            counts[dropped] = np.nan
        else:
            r, c = divmod(pick, n)
            sel_signed[live_rows[r]] = signed[r][c]
            if n > 2:  # drop row r and column c, keeping the order of the rest
                rs[:n], cs[:n] = rs[:n] - cf[:n, c], cs[:n] - cf[r, :n]
                rs[r : n - 1], cs[c : n - 1] = rs[r + 1 : n], cs[c + 1 : n]
                cf[r : n - 1, :n] = cf[r + 1 : n, :n]
                cf[: n - 1, c : n - 1] = cf[: n - 1, c + 1 : n]
        if len(flat) > 1:
            tie_draws.append(r * n + c)
        row = live_rows.pop(r)
        row_to_col[row] = live_cols.pop(c)
        pair_order[step] = row
    # a 1x1 subtable always has zero residual: its count equals its margins
    row_to_col[live_rows[0]] = live_cols[0]
    pair_order[k - 1] = live_rows[0]

    perm = np.argsort(row_to_col) + 1
    # the residual cells of every subtable from k x k down to 2 x 2, computed or not
    trace = {"tie_draws": tie_draws, "residual_cells": k * (k + 1) * (2 * k + 1) // 6 - 1}
    draws = rng.uniform(size=k)
    trace["pair_draws"] = draws.tolist()
    result = MatchResult(TRUEMATCH_HEURISTIC, perm, trace, table, row_to_col, draws, pair_order)
    result.__dict__["pair_signed"] = sel_signed  # reported as selected, not read from the full table
    return result


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
    colmap = np.argsort(_perm_array(perm))
    if colmap.size != table.k:
        raise ValueError(f"perm must have {table.k} entries, got {colmap.size}")
    return _trusted(MatchingTable, counts=table.counts[:, colmap])
