"""The package's declared Python floor, checked on its grammar.

``pyproject.toml`` declares ``requires-python >= 3.10`` while the suite runs
on a newer interpreter, so syntax added after 3.10 (``except*``, PEP 695
type parameters, ...) would pass every other test.  ``ast.parse`` with
``feature_version`` rejects such syntax; it checks grammar only, not the
standard-library or numpy calls a module makes.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "truematch").glob("*.py"))


def declared_floor():
    match = re.search(r'requires-python\s*=\s*">=\s*3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    return 3, int(match.group(1))


def test_floor_is_declared_and_sources_found():
    assert declared_floor() == (3, 10)
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())


def test_newer_grammar_is_caught():
    # the check itself: exception groups arrived in 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
