"""Multiple-match cluster counting: resample, align, vote, aggregate.

Each round draws a bootstrap resample, fits a base cluster model to it,
predicts a complete label vector for all cases, aligns that vector to
the running majority estimate with a label matcher, and adds one vote
per case to the aligned column of an N x K vote matrix.  Row-normalizing
the votes yields estimated membership probabilities, whose entropy
statistics summarize how well a K-cluster model is supported: justified
structure stays crisp, unjustified splits fuzz out under a chance-neutral
matcher instead of freezing onto arbitrary columns.

Base cluster algorithms are plugged in behaviorally: any object with

    fit(data, resample_indices, k, rng) -> model
    predict(model, data) -> labels in 1..k for every case

works.  All randomness a model needs must be consumed inside ``fit``
(``predict`` is deterministic given the model).  A ``fit`` that cannot
use its resample raises ``DegenerateResample`` before it draws from the
generator; the loop then draws a fresh resample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crosstab import crosstab
from .labels import LabelVector, _label_array, _trusted, _whole
from .matching import resolve_matcher

__all__ = [
    "ProbMatrix",
    "CicStats",
    "DegenerateResample",
    "majority_labels",
    "mmcc_run",
    "cic_stats",
    "LloydClusterer",
]


REDRAW_BUDGET = 1000
# the largest |coordinate| the Lloyd fit takes: a squared distance over d columns is then at
# most d * (2e150)**2 = d * 4e300, finite (< 1.8e308) for any d < 4e7, as are centroid sums
MAX_MAGNITUDE = 1e150


class DegenerateResample(ValueError):
    """A base clusterer cannot fit this resample, but a fresh one may do."""


@dataclass(frozen=True)
class ProbMatrix:
    """Row-stochastic N x K matrix of estimated membership probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.size == 0:
            raise ValueError(f"probs must be a non-empty 2-D matrix, got shape {probs.shape}")
        if not ((probs >= 0) & (probs <= 1)).all():
            raise ValueError("probabilities must be finite and lie in [0, 1]")
        if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("every probability row must sum to 1")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class CicStats:
    """Entropy summary of a probability matrix (all entropies in bits).

    uncertainty   mean per-case entropy of the membership rows
    complexity    relative model complexity, (2**entropy(column means) - 1) / N
    information   entropy(column means) minus uncertainty
    cic           information minus uncertainty
    """

    uncertainty: float
    complexity: float
    information: float
    cic: float


def _entropy_bits(p: np.ndarray, axis: int = -1) -> np.ndarray:
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=axis)


def majority_labels(votes, rng: np.random.Generator) -> LabelVector:
    """Row-wise majority vote, breaking ties uniformly at random.

    Every row must hold at least one vote.
    """
    v = _whole(votes, "votes", 2, 0)
    if v.size == 0:
        raise ValueError("votes must be a non-empty 2-D matrix")
    # numpy reduces along a short last axis one row at a time, so reduce
    # down the rows of the K x N transpose instead
    most = np.ascontiguousarray(v.T).max(axis=0)
    if not most.all():  # votes are >= 0, so only a row without votes has maximum 0
        raise ValueError("majority undefined: some rows hold no votes")
    top = v == most[:, None]
    draw = rng.random(v.shape)
    labels = np.where(top, draw, -1.0).argmax(axis=1) + 1
    return _trusted(LabelVector, labels=labels.astype(np.int64), n_clusters=v.shape[1])


def mmcc_run(
    data,
    k: int,
    base,
    matcher,
    rounds: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ProbMatrix]:
    """Aggregate cluster votes over bootstrap resamples.

    Each round's resample is redrawn, up to ``REDRAW_BUDGET`` times, while
    ``base.fit`` raises ``DegenerateResample``.  Round 1 votes the first
    predicted vector as-is (it seeds the label space).  Every later round
    estimates current memberships by row majority, aligns the fresh
    prediction to them via ``matcher`` on their crosstab, and votes the
    aligned labels.  ``k`` and ``rounds`` must be whole numbers of at
    least 1 and 2; anything else raises ``ValueError``.

    Returns the N x K int64 vote array, each row summing to ``rounds``,
    and its row-normalized probability matrix.
    """
    rounds = _whole(rounds, "rounds", 0, 2)
    k = _whole(k, "k", 0, 1)
    n = len(data)
    if n < k:
        raise ValueError(f"need at least k={k} cases, got {n}")
    match_fn = resolve_matcher(matcher)

    votes = np.zeros((n, k), dtype=np.int64)
    for round_idx in range(rounds):
        for _ in range(REDRAW_BUDGET):
            picks = rng.integers(0, n, size=n)
            try:
                model = base.fit(data, picks, k, rng)
            except DegenerateResample:
                continue
            break
        else:
            raise ValueError(f"no resample in {REDRAW_BUDGET} draws could be fitted with k={k}")
        predicted = _label_array(base.predict(model, data), k, "predicted labels")
        if predicted.size != n:
            raise ValueError(f"base clusterer must predict a label for each of {n} cases")
        if round_idx == 0:
            aligned = predicted
        else:
            reference = majority_labels(votes, rng)
            table = crosstab(reference.labels, predicted, k=k)
            aligned = match_fn(table, rng).perm[predicted - 1]
        votes[np.arange(n), aligned - 1] += 1

    probs = votes / votes.sum(axis=1, keepdims=True)
    return votes, ProbMatrix(probs)


def cic_stats(probs: ProbMatrix) -> CicStats:
    """Entropy statistics of a membership-probability matrix.

    ``uncertainty`` is the mean row entropy in bits, bounded by log2(K)
    and zero exactly when every row is one-hot.  ``complexity`` and
    ``information`` derive from the entropy of the column means (the
    average cluster shares); ``cic`` is information minus uncertainty.
    """
    p = probs.probs
    n = p.shape[0]
    uncertainty = float(_entropy_bits(p, axis=1).mean())
    share_entropy = float(_entropy_bits(p.mean(axis=0)))
    complexity = (2.0**share_entropy - 1.0) / n
    information = share_entropy - uncertainty
    return CicStats(
        uncertainty=uncertainty,
        complexity=complexity,
        information=information,
        cic=information - uncertainty,
    )


class LloydClusterer:
    """Minimal k-means base clusterer for the vote-aggregation loop.

    ``fit`` runs Lloyd iterations on the resampled rows, starting from k distinct points drawn
    from the resample; ``predict`` assigns every case to its nearest centroid.  Coordinates must
    lie within ±``MAX_MAGNITUDE``.  Each iteration measures distances for the distinct in-bag
    rows only, copies their owners to the resample's rows and sums those in resample order.  The
    fit ends only at a repeated assignment, whose update would reproduce the centroids exactly,
    or at the ``iterations`` cap.  No tolerance decides, so where the data sit does not either.
    The cap can come first, unreported: 2 of 400 fits on a 2,000-point mixture stopped there.
    """

    def __init__(self, iterations: int = 25):
        self.iterations = _whole(iterations, "iterations", 0, 1)

    @staticmethod
    def _as_points(data) -> np.ndarray:
        pts = np.asarray(data, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or 0 in pts.shape:
            raise ValueError("data must be an (N, d) array of numeric features")
        if not (np.abs(pts) <= MAX_MAGNITUDE).all():  # NaN fails the comparison too
            raise ValueError(f"data must be finite and within ±{MAX_MAGNITUDE:g}")
        return pts

    def fit(self, data, resample_indices, k: int, rng: np.random.Generator) -> np.ndarray:
        k = _whole(k, "k", 0, 1)
        pts = self._as_points(data)
        picks = _whole(resample_indices, "resample_indices", 1, 0)
        if (picks >= pts.shape[0]).any():
            raise ValueError(f"resample_indices must be < {pts.shape[0]}, got {picks.max()}")
        in_bag = np.zeros(pts.shape[0], dtype=bool)
        in_bag[picks] = True
        bag = pts[in_bag]
        distinct = _distinct_rows(bag)
        if distinct.shape[0] < k:
            available = _distinct_rows(pts).shape[0]
            if available < k:
                raise ValueError(f"data holds only {available} distinct points, need k={k}")
            raise DegenerateResample(
                f"resample holds only {distinct.shape[0]} distinct points, need k={k}"
            )
        centroids = distinct[rng.choice(distinct.shape[0], size=k, replace=False)]
        bag_t = np.ascontiguousarray(bag.T)
        sample_t = np.ascontiguousarray(pts[picks].T)
        slot = (np.cumsum(in_bag) - 1)[picks]  # each sample row's place in ``bag``
        bag_owner = None
        for _ in range(self.iterations):
            nearest = _nearest(bag, bag_t, centroids)
            if bag_owner is not None and (nearest == bag_owner).all():
                break
            bag_owner = nearest
            owner = nearest[slot]
            counts = np.bincount(owner, minlength=k)
            sums = _cluster_sums(sample_t, owner, k)
            filled = counts > 0
            centroids[filled] = sums[filled] / counts[filled, None]
        return centroids

    def predict(self, model: np.ndarray, data) -> LabelVector:
        pts = self._as_points(data)
        labels = _nearest(pts, np.ascontiguousarray(pts.T), model) + 1
        return _trusted(LabelVector, labels=labels, n_clusters=model.shape[0])


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, as ``np.unique(rows, axis=0)``
    lists them.  Rows are compared as whole rows only where first
    coordinates tie."""
    rows = rows[np.argsort(rows[:, 0])]
    tie = rows[1:, 0] == rows[:-1, 0]
    if not tie.any():
        return rows
    tied = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
    run = np.cumsum(np.r_[True, ~tie])[tied]
    block = rows[tied]
    rows[tied] = block[np.lexsort((*block.T[:0:-1], run))]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


def _nearest(points: np.ndarray, points_t: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """0-based index of each point's nearest centroid, the lowest on ties."""
    dist = _squared_distances(points, points_t, centroids)
    # argmin down the short centroid axis costs a call per point; scan the centroids instead
    owner = np.zeros(dist.shape[1], dtype=np.int64)
    best = dist[0]
    for j in range(1, dist.shape[0]):
        closer = dist[j] < best
        owner[closer] = j
        best = np.minimum(best, dist[j])
    return owner


def _squared_distances(points: np.ndarray, points_t: np.ndarray,
                       centroids: np.ndarray) -> np.ndarray:
    """(k, N) squared distances, bit-identical to
    ``((points[:, None] - centroids[None]) ** 2).sum(axis=2).T``.

    numpy sums fewer than 8 terms of a last axis left to right, which the
    coordinate-major layout reproduces with long inner loops; from 8 terms
    on it sums pairwise, so wider data keeps the point-major layout.
    """
    if points.shape[1] < 8:
        diff = points_t[None, :, :] - centroids[:, :, None]
        diff *= diff
        return diff.sum(axis=1)
    return ((points[None, :, :] - centroids[:, None, :]) ** 2).sum(axis=2)


def _cluster_sums(sample_t: np.ndarray, owner: np.ndarray, k: int) -> np.ndarray:
    """(k, d) coordinate sums per cluster over all sample rows, repeats included, added in
    the order ``sample[owner == j].mean(axis=0)`` adds them: row after row, as the d
    ``bincount``s into one array do, except that numpy sums a single column pairwise."""
    if sample_t.shape[0] == 1:
        return np.array([[sample_t[0, owner == j].sum()] for j in range(k)])
    sums = np.empty((sample_t.shape[0], k))
    for col, row in zip(sample_t, sums):
        row[:] = np.bincount(owner, weights=col, minlength=k)
    return sums.T
