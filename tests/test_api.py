"""The package's public names: which, in what order, and where each comes from;
no module-level import that its module never uses; and no standard uniform
drawn by ``uniform`` where ``random`` draws the same values for less."""

import ast
import importlib
import inspect
import pathlib

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


def unused_imports(source: str) -> list[str]:
    """Names that a module-level import binds and the module never reads.

    ``import a.b`` counts as used only where ``a.b`` (or ``a.b.x``) is
    read.  ``from __future__`` and star imports bind no name to check.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {ast.unparse(n) for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    return [name for name in bound if not any(r == name or r.startswith(name + ".") for r in read)]


SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "truematch").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    # the check itself: a dotted import counts only where its full path is read
    source = "import os\nimport importlib.util\nimport importlib.machinery\nfrom sys import argv\nimportlib.util.find_spec\n"
    assert unused_imports(source) == ["os", "importlib.machinery", "argv"]


def bare_uniform_calls(source: str) -> list[str]:
    """Calls ``x.uniform(...)`` that pass neither ``low`` nor ``high``, by position
    or keyword: each draws what ``x.random(...)`` draws, at about twice the cost."""
    return [
        ast.unparse(node) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "uniform"
        and not node.args and not {kw.arg for kw in node.keywords} & {"low", "high"}
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_standard_uniforms_drawn_by_random(path):
    assert bare_uniform_calls(path.read_text()) == []


def test_bare_uniform_call_is_caught():
    source = "rng.uniform(size=3)\nrng.uniform()\nrng.uniform(0.5, 2.0)\nrng.uniform(high=2.0, size=4)\nrng.random(3)\n"
    assert bare_uniform_calls(source) == ["rng.uniform(size=3)", "rng.uniform()"]
