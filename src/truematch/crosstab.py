"""Contingency tables between labelings and their signed chi-squared residuals.

The residual transform re-expresses each cell of a count table in units of
non-randomness: the squared deviation from the independence expectation,
normalized by that expectation, with the sign of the raw deviation restored.
Large cells that merely reflect large marginals score near zero; small cells
holding far more (or fewer) co-assignments than chance predicts dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .labels import _label_array, _readonly, _trusted, _whole

__all__ = ["MatchingTable", "ResidualMatrix", "crosstab", "residuals"]

MAX_TOTAL = 3 * 10**9  # the largest total: MAX_TOTAL**2 < 2**63, so int64 holds margin products


@dataclass(frozen=True)
class MatchingTable:
    """Square table of co-assignment counts between two labelings.

    Rows index the first labeling's clusters, columns the second's; counts total 1 to ``MAX_TOTAL``, checked when made.
    ``counts`` is a read-only copy.  Computed once per table: marginals, total, residuals (at K=2 also as
    Python floats) and, at K=2, the counts as Python ints and each of the at most four match presentations.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = _whole(self.counts, "counts", 2, 0)
        if counts.shape[0] != counts.shape[1] or counts.size == 0:
            raise ValueError(f"counts must be square and non-empty, got shape {counts.shape}")
        # each count within the bound first: their sum can then wrap only past 3e9 cells
        if counts.max() > MAX_TOTAL or (total := counts.sum()) > MAX_TOTAL:
            raise ValueError(f"counts must total at most {MAX_TOTAL}, so that int64 holds their products")
        if total < 1:
            raise ValueError("table must contain at least one observation")
        object.__setattr__(self, "counts", _readonly(counts.copy()))

    def __reduce__(self):
        return MatchingTable, (self.counts,)  # copies rebuild a read-only table, without the caches

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @cached_property
    def row_sums(self) -> np.ndarray:
        return _readonly(self.counts.sum(axis=1))

    @cached_property
    def col_sums(self) -> np.ndarray:
        return _readonly(self.counts.sum(axis=0))

    @cached_property
    def total(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def _residuals(self) -> ResidualMatrix:
        counts = self.counts.astype(float)
        expected = np.outer(self.row_sums, self.col_sums).astype(float) / self.total
        diff = counts - expected  # 0 wherever expected is 0 (an empty row or column): residual +0
        signed = diff * np.abs(diff) / np.where(expected > 0.0, expected, 1.0)
        return _trusted(ResidualMatrix, expected=expected, dev=np.abs(signed), signed=signed)

    @cached_property
    def _signed_k2(self) -> list[list[float]]:
        # a 2x2 table's residuals().signed as Python floats, by _residuals' float operations
        (a, b), (c, d) = self.counts.tolist()
        total = a + b + c + d
        e = [float(r * s) / total for r in (a + b, c + d) for s in (a + c, b + d)]
        return [[_signed(a, e[0]), _signed(b, e[1])], [_signed(c, e[2]), _signed(d, e[3])]]

    @cached_property
    def _k2(self) -> tuple[list[list[int]], dict]:
        # a 2x2 table's counts as Python ints, and its presentations by (first row, its column), built on first use
        return self.counts.tolist(), {}


def _signed(n: int, e: float) -> float:
    d = n - e  # 0 wherever e is 0 (an empty row or column): residual +0
    return d * abs(d) / (e if e > 0 else 1.0)


@dataclass(frozen=True)
class ResidualMatrix:
    """Independence expectations and signed residuals of a count table.

    Attributes
    ----------
    expected : ndarray
        Cell expectations row_sum * col_sum / total (in counts).
    dev : ndarray
        Normalized squared deviations (count - expected)^2 / expected,
        defined as 0 where the expectation is 0 (empty row or column).
    signed : ndarray
        ``dev`` with the sign of (count - expected) restored.
    """

    expected: np.ndarray
    dev: np.ndarray
    signed: np.ndarray

    @property
    def chi2(self) -> float:
        return float(self.dev.sum())


def crosstab(a, b, k: int | None = None) -> MatchingTable:
    """Cross-tabulate two equal-length labelings into a k x k count table.

    Parameters
    ----------
    a, b : LabelVector or 1-D int array
        Labelings with values in 1..k.
    k : int, optional
        Size of the label space.  Defaults to the larger of the two
        inputs' label spaces; rows/columns for unused labels stay zero.
    """
    if k is None:
        k = max(v.n_clusters if hasattr(v, "n_clusters") else _label_array(v).max() for v in (a, b))
    k = _whole(k, "k", 0, 1)
    la, lb = _label_array(a, k), _label_array(b, k)
    if la.size != lb.size:
        raise ValueError(f"labelings must be equal length, got {la.size} vs {lb.size}")
    counts = np.bincount((la - 1) * k + (lb - 1), minlength=k * k).reshape(k, k)
    return _trusted(MatchingTable, counts=counts)


def residuals(table: MatchingTable) -> ResidualMatrix:
    """Signed chi-squared residual transform of a count table.

    The sum of ``dev`` over all cells is the chi-squared statistic of the
    table.  Cells in an all-zero row or column have zero expectation and
    are defined to carry zero residual, which keeps zero-padded dummy
    clusters neutral during matching.  Computed once per table, read-only.
    """
    return table._residuals
