"""The package's public names: which, in what order, and where each comes from."""

import importlib
import inspect

import pytest

import truematch

# module -> its public names, in the order truematch.__all__ lists them
PUBLIC = {
    "labels": [
        "LabelVector", "LabelParseError", "parse_labels", "canonical_pair", "apply_permutation",
    ],
    "crosstab": ["MatchingTable", "ResidualMatrix", "crosstab", "residuals"],
    "assignment": ["solve_assignment", "brute_force_assignment"],
    "matching": [
        "MatchResult", "MatchedPair", "match_tracemax", "match_truematch",
        "match_truematch_heuristic", "MATCHERS", "resolve_matcher", "aligned_table",
    ],
    "agreement": ["diagonal_fraction", "cohen_kappa", "rand_index", "adjusted_rand"],
    "mmcc": [
        "ProbMatrix", "CicStats", "DegenerateResample", "majority_labels",
        "mmcc_run", "cic_stats", "LloydClusterer",
    ],
    "simulate": [
        "SimulationConfig", "CellResult", "OutlierScenarioResult", "FictitiousClusterer",
        "fictitious_cluster", "enforce_sizes", "build_truth", "simulate_cell", "grid_sweep", "derive_cell_seed", "outlier_scenario",
    ],
}
OWNER = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_public_names_in_order():
    assert truematch.__all__ == [name for _, name in OWNER]
    assert len(truematch.__all__) == 41


def test_no_public_name_repeats():
    assert len(set(truematch.__all__)) == len(truematch.__all__)


@pytest.mark.parametrize("module,name", OWNER, ids=[name for _, name in OWNER])
def test_name_is_the_object_its_module_defines(module, name):
    source = importlib.import_module(f"truematch.{module}")
    obj = getattr(truematch, name)
    assert obj is getattr(source, name)
    if callable(obj):
        assert obj.__module__ == source.__name__


def test_crosstab_is_the_function_not_the_module():
    assert not inspect.ismodule(truematch.crosstab)
    assert truematch.crosstab.__name__ == "crosstab"
    assert truematch.crosstab.__module__ == "truematch.crosstab"


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from truematch import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(truematch.__all__)
