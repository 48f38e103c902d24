"""Simulation machinery: fictitious clusterers, skew/reliability sweeps,
and the two-bootstrap outlier scenario.

The grid simulation assumes two true classes of relative size p and a
fictitious cluster algorithm of reliability kappa: with kappa = 1 it
reproduces the true class of every case, with kappa = 0 it assigns class
labels at random while preserving the marginal class rate.  Each round a
bootstrap resample votes its (matched) judgments into a vote matrix; no
predictions are made for out-of-bag cases, so vote rows grow unevenly.
Entropy statistics of the final membership matrix show how the choice of
matcher changes the apparent certainty of the 2-cluster model across the
(p, kappa) plane.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .agreement import adjusted_rand, cohen_kappa, diagonal_fraction, rand_index
from .crosstab import MatchingTable, crosstab
from .labels import LabelVector, _label_array, _whole
from .matching import resolve_matcher
from .mmcc import REDRAW_BUDGET, CicStats, ProbMatrix, VoteMatrix, cic_stats, majority_labels

__all__ = [
    "SimulationConfig",
    "CellResult",
    "OutlierScenarioResult",
    "FictitiousClusterer",
    "random_clusterer",
    "true_class_clusterer",
    "fictitious_cluster",
    "enforce_sizes",
    "build_truth",
    "simulate_cell",
    "grid_sweep",
    "derive_cell_seed",
    "outlier_scenario",
]


@dataclass(frozen=True)
class SimulationConfig:
    """One cell of the skew/reliability simulation plane."""

    p: float
    kappa: float
    n_cases: int = 100
    rounds: int = 1000
    fixed: bool = False
    matcher: str = "truematch"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_cases", "rounds", "seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, 0))
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly between 0 and 1, got {self.p}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if self.rounds < 2:
            raise ValueError(f"rounds must be >= 2, got {self.rounds}")
        if self.n_cases < 2:
            raise ValueError(f"n_cases must be >= 2, got {self.n_cases}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class CellResult:
    """Entropy statistics of one simulated cell (bits), plus provenance."""

    p: float
    kappa: float
    uncertainty: float
    information: float
    cic: float
    degenerate: bool
    fixed: bool
    matcher: str
    seed: int


@dataclass(frozen=True)
class OutlierScenarioResult:
    """Averages over repeated two-bootstrap 99:1 matchings."""

    matcher: str
    runs: int
    table_share: np.ndarray  # mean matched table as fractions of n_cases
    diagonal: float
    kappa: float
    rand: float
    crand: float
    random_match_rate: float


def build_truth(n_cases: int, p: float) -> np.ndarray:
    """True two-class vector: round(p * n) cases of class 2, rest class 1."""
    heavy = int(round(p * n_cases))
    if not 1 <= heavy <= n_cases - 1:
        raise ValueError(f"p={p} leaves no room for two classes among {n_cases} cases")
    truth = np.ones(n_cases, dtype=np.int64)
    truth[n_cases - heavy:] = 2
    return truth


def fictitious_cluster(truth, kappa: float, rng: np.random.Generator, p: float | None = None) -> LabelVector:
    """Judge binary true classes with reliability kappa.

    Each case keeps its true class with probability kappa + (1-kappa)
    times that class's marginal rate, else flips to the other class.  At
    kappa = 1 the output equals the truth; at kappa = 0 the assignment is
    random but marginal-preserving.  ``p`` is the class-2 rate of the
    full population; it defaults to the rate observed in ``truth`` and
    should be passed explicitly when judging a subset.
    """
    labels = _label_array(truth, 2, "truth")
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    if p is None:
        p = float((labels == 2).mean())
    keep = kappa + (1.0 - kappa) * np.where(labels == 1, 1.0 - p, p)
    stay = rng.uniform(size=labels.size) < keep
    return LabelVector(np.where(stay, labels, 3 - labels), 2)


def enforce_sizes(judged, target, rng: np.random.Generator) -> LabelVector:
    """Force exact class counts by flipping random members of the
    oversized class; a no-op when counts already match.

    ``target`` is (count of class 1, count of class 2) and must sum to
    the vector length.
    """
    labels = _label_array(judged, 2, "judged").copy()
    target = tuple(_whole(target, "target", 1).tolist())
    if len(target) != 2 or min(target) < 0 or sum(target) != labels.size:
        raise ValueError(f"target {target} is not a valid two-class split of {labels.size} cases")
    surplus_two = int((labels == 2).sum()) - target[1]
    if surplus_two > 0:
        movers = rng.choice(np.flatnonzero(labels == 2), size=surplus_two, replace=False)
        labels[movers] = 1
    elif surplus_two < 0:
        movers = rng.choice(np.flatnonzero(labels == 1), size=-surplus_two, replace=False)
        labels[movers] = 2
    return LabelVector(labels, 2)


def simulate_cell(cfg: SimulationConfig) -> CellResult:
    """Run one (p, kappa) cell: bootstrap, judge, match, vote, summarize.

    Per round: draw a bootstrap resample; judge the population with the
    fictitious clusterer (size-enforced in fixed mode, so the judged
    clustering always splits exactly round(p*N)/N); keep one judgment per
    distinct in-bag case.  A round is redrawn when the in-bag judgments,
    or the in-bag majority estimate over previously voting cases, hold
    fewer than two classes.  The first accepted round votes unmatched;
    later rounds align the judgments to the in-bag majority estimate via
    the configured matcher before voting.  Out-of-bag cases never vote.

    Exhausting the redraw budget marks the cell degenerate, as does a
    final majority assignment using fewer than two labels.
    """
    rng = np.random.default_rng(cfg.seed)
    truth = build_truth(cfg.n_cases, cfg.p)
    n = cfg.n_cases
    match_fn = resolve_matcher(cfg.matcher)
    heavy = int(round(cfg.p * n))
    size_target = (n - heavy, heavy)

    votes = np.zeros((n, 2), dtype=np.int64)
    accepted = 0
    while accepted < cfg.rounds:
        for _ in range(REDRAW_BUDGET):
            picks = rng.integers(0, n, size=n)
            in_bag = np.unique(picks)
            judged_all = fictitious_cluster(truth, cfg.kappa, rng, p=cfg.p).labels
            if cfg.fixed:
                judged_all = enforce_sizes(judged_all, size_target, rng).labels
            judged_bag = judged_all[in_bag]
            if judged_bag.min() == judged_bag.max():
                continue
            if accepted == 0:
                aligned = judged_all
                break
            has_votes = votes[in_bag].sum(axis=1) > 0
            if not has_votes.any():
                continue
            ref_cases = in_bag[has_votes]
            ref_labels = majority_labels(votes[ref_cases], rng).labels
            if ref_labels.min() == ref_labels.max():
                continue
            table = crosstab(ref_labels, judged_all[ref_cases], k=2)
            aligned = match_fn(table, rng).perm[judged_all - 1]
            break
        else:
            break  # redraw budget exhausted: the cell is starved
        votes[in_bag, aligned[in_bag] - 1] += 1
        accepted += 1

    voted = votes.sum(axis=1) > 0
    if voted.any():
        active = votes[voted]
        stats = cic_stats(ProbMatrix(active / active.sum(axis=1, keepdims=True)))
        final = majority_labels(VoteMatrix(active, accepted), rng)
        degenerate = accepted < cfg.rounds or np.unique(final.labels).size < 2
    else:
        stats = CicStats(*[float("nan")] * 4)
        degenerate = True
    return CellResult(
        p=cfg.p, kappa=cfg.kappa,
        uncertainty=stats.uncertainty, information=stats.information, cic=stats.cic,
        degenerate=degenerate, fixed=cfg.fixed, matcher=cfg.matcher, seed=cfg.seed,
    )


def derive_cell_seed(base_seed: int, p_index: int, kappa_index: int) -> int:
    """Deterministic per-cell seed mixing the base seed with grid indices."""
    parts = [_whole(v, "seed and grid indices", 0) for v in (base_seed, p_index, kappa_index)]
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])


def grid_sweep(p_values, kappa_values, base: SimulationConfig) -> list[CellResult]:
    """One cell per (p, kappa) pair, in row-major order over p then kappa.

    Every cell owns a seed derived from the base seed and its grid
    indices, so the sweep is reproducible cell by cell and insensitive
    to execution order.
    """
    p_values = list(p_values)
    kappa_values = list(kappa_values)
    if not p_values or not kappa_values:
        raise ValueError("p and kappa grids must be non-empty")
    results = []
    for i, p in enumerate(p_values):
        for j, kappa in enumerate(kappa_values):
            cell_cfg = replace(
                base, p=float(p), kappa=float(kappa),
                seed=derive_cell_seed(base.seed, i, j),
            )
            results.append(simulate_cell(cell_cfg))
    return results


def outlier_scenario(
    runs: int,
    matcher,
    rng: np.random.Generator,
    n_cases: int = 100,
) -> OutlierScenarioResult:
    """Average matched tables of repeated random 99:1-vs-99:1 matchings.

    Each run picks one 'outlier' case uniformly in each of two labelings
    of the same ``n_cases`` cases, cross-tabulates them, matches with the
    given matcher, and accumulates the matched table (as fractions) plus
    the agreement indices computed on it.  Runs where both picks coincide
    are counted as random matches.
    """
    runs = _whole(runs, "runs", 0)
    n_cases = _whole(n_cases, "n_cases", 0)
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if n_cases < 2:
        raise ValueError(f"n_cases must be >= 2, got {n_cases}")
    match_fn = resolve_matcher(matcher)
    method = matcher if isinstance(matcher, str) else getattr(matcher, "__name__", "custom")

    table_acc = np.zeros((2, 2), dtype=float)
    diag_acc = kappa_acc = rand_acc = crand_acc = 0.0
    coincide = 0
    for _ in range(runs):
        # crosstab of two labelings that each give label 2 to one picked case
        same = int(rng.integers(n_cases) == rng.integers(n_cases))
        table = MatchingTable([[n_cases - 2 + same, 1 - same], [1 - same, same]])
        matched = match_fn(table, rng).matched_table
        table_acc += matched.counts
        diag_acc += diagonal_fraction(matched)
        kappa_acc += cohen_kappa(matched)
        rand_acc += rand_index(matched)
        crand_acc += adjusted_rand(matched)
        coincide += same

    return OutlierScenarioResult(
        matcher=method,
        runs=runs,
        table_share=table_acc / (runs * n_cases),
        diagonal=diag_acc / runs,
        kappa=kappa_acc / runs,
        rand=rand_acc / runs,
        crand=crand_acc / runs,
        random_match_rate=coincide / runs,
    )


class FictitiousClusterer:
    """Data-free base clusterer with known per-class behavior.

    Each fit draws one complete label vector: a case of true class t
    receives cluster c with probability ``class_probs[t-1][c-1]``.  With
    ``shuffle_labels`` the cluster names are randomly permuted per fit,
    mimicking the arbitrary label order a real cluster algorithm returns.
    Useful as a controlled stand-in when studying the aggregation loop
    itself.
    """

    def __init__(self, k: int, class_probs, true_classes=None, shuffle_labels: bool = True):
        probs = ProbMatrix(np.atleast_2d(class_probs)).probs
        if probs.shape[1] != k:
            raise ValueError(f"class_probs must have {k} columns, got {probs.shape[1]}")
        self.k = k
        self.class_probs = probs
        if true_classes is not None:
            true_classes = _label_array(true_classes, len(probs), "true_classes")
        self.true_classes = true_classes
        self.shuffle_labels = shuffle_labels

    def fit(self, data, resample_indices, k: int, rng: np.random.Generator) -> np.ndarray:
        if k != self.k:
            raise ValueError(f"clusterer is configured for k={self.k}, asked for k={k}")
        n = len(data)
        if self.true_classes is None:
            classes = np.zeros(n, dtype=np.int64)
        else:
            if self.true_classes.size != n:
                raise ValueError("true_classes length must match the data")
            classes = self.true_classes - 1
        cdf = np.cumsum(self.class_probs[classes], axis=1)
        draw = rng.uniform(size=n)
        labels = np.minimum((cdf < draw[:, None]).sum(axis=1), self.k - 1) + 1
        if self.shuffle_labels and self.k > 1:
            renaming = rng.permutation(self.k) + 1
            labels = renaming[labels - 1]
        return labels.astype(np.int64)

    def predict(self, model: np.ndarray, data) -> LabelVector:
        return LabelVector(model, self.k)


def random_clusterer(proportions, shuffle_labels: bool = True) -> FictitiousClusterer:
    """Clusterer that ignores the data: every case draws its cluster
    independently from ``proportions``."""
    proportions = np.asarray(proportions, dtype=float)
    return FictitiousClusterer(proportions.size, proportions[None, :], shuffle_labels=shuffle_labels)


def true_class_clusterer(true_classes, class_probs, shuffle_labels: bool = True) -> FictitiousClusterer:
    """Clusterer whose per-case behavior depends on a known true class."""
    probs = np.atleast_2d(np.asarray(class_probs, dtype=float))
    return FictitiousClusterer(
        probs.shape[1], probs, true_classes=true_classes, shuffle_labels=shuffle_labels
    )
