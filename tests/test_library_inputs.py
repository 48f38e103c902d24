"""Property tests at the library boundary: odd arrays return or raise ValueError.

Each public function that takes labels, permutations, counts, votes or
probabilities is fed small arrays that mix ints, whole and fractional
floats, NaN and infinities, in 0-d, 1-D, 2-D and empty shapes.  None may
fail any other way, ``is_permutation`` always answers with a bool, and a
function that accepts float input must give what it gives for the same
values as ints, so a fraction is never silently truncated.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truematch import (
    LabelVector,
    MatchingTable,
    ProbMatrix,
    VoteMatrix,
    aligned_table,
    apply_permutation,
    canonical_pair,
    crosstab,
    inverse_permutation,
    is_permutation,
    majority_labels,
)

ELEMENTS = st.one_of(
    st.integers(-2, 5),
    st.integers(-2, 5).map(float),
    st.sampled_from([0.5, 1.5, 2.7, -0.5, math.nan, math.inf, -math.inf]),
)
SHAPES = st.sampled_from([(), (0,), (1,), (2,), (3,), (5,), (0, 0), (0, 2), (1, 2), (2, 2), (3, 3)])

# each takes the drawn value as the input it checks; ids name that input
CALLS = {
    "crosstab": lambda x: crosstab(x, x),
    "crosstab-k4": lambda x: crosstab(x, x, 4),
    "canonical_pair": lambda x: canonical_pair(x, x),
    "LabelVector": lambda x: LabelVector(x, 5),
    "apply_permutation-vector": lambda x: apply_permutation(x, [2, 1, 3, 5, 4]),
    "apply_permutation-perm": lambda x: apply_permutation([1, 2, 1], x),
    "inverse_permutation": inverse_permutation,
    "aligned_table": lambda x: aligned_table(MatchingTable([[3, 1], [0, 2]]), x),
    "MatchingTable": MatchingTable,
    "VoteMatrix": lambda x: VoteMatrix(x, 1),
    "majority_labels": lambda x: majority_labels(x, np.random.default_rng(0)),
    "ProbMatrix": ProbMatrix,
}
# probabilities are fractions, so only the whole-number inputs compare with their int cast
WHOLE_NUMBER_CALLS = sorted(set(CALLS) - {"ProbMatrix"})


@st.composite
def odd_arrays(draw):
    shape = draw(SHAPES)
    values = draw(st.lists(ELEMENTS, min_size=math.prod(shape), max_size=math.prod(shape)))
    arr = np.array(values).reshape(shape)
    return arr if draw(st.booleans()) else arr.tolist()


def _plain(result):
    """A result as nested tuples and lists, so results compare with ==."""
    if isinstance(result, tuple):
        return tuple(_plain(r) for r in result)
    if dataclasses.is_dataclass(result):
        return tuple(_plain(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.tolist()
    return result


def _call(name, x):
    try:
        return _plain(CALLS[name](x))
    except ValueError:
        return ValueError


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=150, deadline=None)
@given(x=odd_arrays())
def test_returns_or_raises_value_error(name, x):
    result = _call(name, x)
    arr = np.asarray(x)
    if result is not ValueError and arr.dtype.kind == "f" and name in WHOLE_NUMBER_CALLS:
        assert result == _call(name, arr.astype(np.int64))


@settings(max_examples=300, deadline=None)
@given(x=odd_arrays())
def test_is_permutation_answers_with_a_bool(x):
    assert isinstance(is_permutation(x), bool)
