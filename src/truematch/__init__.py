"""Chance-neutral cluster-label matching and vote-aggregation diagnostics.

The package turns pairs of crisp clusterings into square contingency
tables, matches their labels either by raw-count trace maximization or
by maximizing signed chi-squared residuals (which stays neutral on
random data even with very unequal cluster sizes), scores agreement,
and aggregates bootstrap cluster votes into membership-probability
matrices with entropy-based model diagnostics.
"""

from .agreement import adjusted_rand, cohen_kappa, diagonal_fraction, rand_index
from .assignment import (
    assignment_value,
    brute_force_assignment,
    identity_permutation,
    inverse_permutation,
    is_permutation,
    solve_assignment,
)
from .crosstab import MatchingTable, ResidualMatrix, crosstab, residuals
from .labels import (
    LabelParseError,
    LabelVector,
    apply_permutation,
    canonical_pair,
    mapping_csv,
    parse_labels,
    serialize_labels,
)
from .matching import (
    MATCHERS,
    MatchedPair,
    MatchResult,
    aligned_table,
    match_tracemax,
    match_truematch,
    match_truematch_heuristic,
    resolve_matcher,
)
from .mmcc import (
    CicStats,
    DegenerateResample,
    LloydClusterer,
    ProbMatrix,
    VoteMatrix,
    cic_stats,
    lloyd_base_clusterer,
    majority_labels,
    mmcc_run,
)
from .simulate import (
    CellResult,
    FictitiousClusterer,
    OutlierScenarioResult,
    SimulationConfig,
    build_truth,
    derive_cell_seed,
    enforce_sizes,
    fictitious_cluster,
    grid_sweep,
    outlier_scenario,
    random_clusterer,
    simulate_cell,
    true_class_clusterer,
)

__version__ = "0.1.0"

__all__ = [
    "LabelVector",
    "LabelParseError",
    "parse_labels",
    "serialize_labels",
    "mapping_csv",
    "canonical_pair",
    "apply_permutation",
    "MatchingTable",
    "ResidualMatrix",
    "crosstab",
    "residuals",
    "solve_assignment",
    "brute_force_assignment",
    "assignment_value",
    "identity_permutation",
    "inverse_permutation",
    "is_permutation",
    "MatchResult",
    "MatchedPair",
    "match_tracemax",
    "match_truematch",
    "match_truematch_heuristic",
    "MATCHERS",
    "resolve_matcher",
    "aligned_table",
    "diagonal_fraction",
    "cohen_kappa",
    "rand_index",
    "adjusted_rand",
    "VoteMatrix",
    "ProbMatrix",
    "CicStats",
    "DegenerateResample",
    "majority_labels",
    "mmcc_run",
    "cic_stats",
    "LloydClusterer",
    "lloyd_base_clusterer",
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
