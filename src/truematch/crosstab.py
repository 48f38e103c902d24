"""Contingency tables between labelings and their signed chi-squared residuals.

The residual transform re-expresses each cell of a count table in units of
non-randomness: the squared deviation from the independence expectation,
normalized by that expectation, with the sign of the raw deviation restored.
Large cells that merely reflect large marginals score near zero; small cells
holding far more (or fewer) co-assignments than chance predicts dominate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import _label_array, _whole

__all__ = ["MatchingTable", "ResidualMatrix", "crosstab", "residuals"]


@dataclass(frozen=True)
class MatchingTable:
    """Square table of co-assignment counts between two labelings.

    Rows index the first labeling's clusters, columns the second's.
    Marginals and the grand total are derived views of ``counts``.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = _whole(self.counts, "counts", 2)
        if counts.shape[0] != counts.shape[1] or counts.size == 0:
            raise ValueError(f"counts must be square and non-empty, got shape {counts.shape}")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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
        k = max(getattr(v, "n_clusters", _label_array(v).max()) for v in (a, b))
    k = _whole(k, "k", 0)
    la, lb = _label_array(a, k), _label_array(b, k)
    if la.size != lb.size:
        raise ValueError(f"labelings must be equal length, got {la.size} vs {lb.size}")
    counts = np.bincount((la - 1) * k + (lb - 1), minlength=k * k).reshape(k, k)
    return MatchingTable(counts)


def residuals(table: MatchingTable) -> ResidualMatrix:
    """Signed chi-squared residual transform of a count table.

    The sum of ``dev`` over all cells is the chi-squared statistic of the
    table.  Cells in an all-zero row or column have zero expectation and
    are defined to carry zero residual, which keeps zero-padded dummy
    clusters neutral during matching.
    """
    if table.total < 1:
        raise ValueError("table must contain at least one observation")
    counts = table.counts.astype(float)
    expected = np.outer(table.row_sums, table.col_sums).astype(float) / table.total
    diff = counts - expected
    positive = expected > 0.0
    dev = np.where(positive, diff * diff / np.where(positive, expected, 1.0), 0.0)
    signed = np.sign(diff) * dev
    return ResidualMatrix(expected=expected, dev=dev, signed=signed)
