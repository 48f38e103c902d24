"""Property tests at the library boundary: odd arrays return or raise ValueError.

Each public function that takes labels, permutations, counts, votes or
probabilities is fed small arrays that mix ints, whole and fractional
floats, NaN and infinities, in 0-d, 1-D, 2-D and empty shapes.  None may
fail any other way, and a function that accepts float input must give
what it gives for the same values as ints, so a fraction is never
silently truncated.  Scalar
integer arguments (sizes, round counts, seeds) and resample indices are
checked the same way, each against its lower bound.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truematch import (
    LabelVector,
    LloydClusterer,
    MatchingTable,
    ProbMatrix,
    SimulationConfig,
    aligned_table,
    apply_permutation,
    build_truth,
    canonical_pair,
    crosstab,
    fictitious_cluster,
    majority_labels,
    mmcc_run,
    outlier_scenario,
    simulate_cell,
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
    "aligned_table": lambda x: aligned_table(MatchingTable([[3, 1], [0, 2]]), x),
    "MatchingTable": MatchingTable,
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


POINTS = np.array([[0.0, 0.0], [0.1, 0.2], [0.2, 0.1], [5.0, 5.0], [5.1, 4.9], [4.8, 5.2]])


def _rng():
    return np.random.default_rng(0)


def _mmcc(k=2, rounds=4):
    return mmcc_run(POINTS, k, LloydClusterer(), "truematch", rounds, _rng())


def _cell(**fields):
    return simulate_cell(SimulationConfig(**{"p": 0.5, "kappa": 0.5, "n_cases": 6, "rounds": 3, **fields}))


# id: (argument, lower bound, a valid value, call taking the argument's value)
SCALAR_INTEGER_CALLS = {
    "mmcc_run-k": ("k", 1, 2, lambda x: _mmcc(k=x)),
    "mmcc_run-rounds": ("rounds", 2, 3, lambda x: _mmcc(rounds=x)),
    "build_truth": ("n_cases", 2, 4, lambda x: build_truth(x, 0.5)),
    "LloydClusterer-iterations": ("iterations", 1, 2,
                                  lambda x: LloydClusterer(x).fit(POINTS, range(6), 2, _rng())),
    "LloydClusterer.fit-k": ("k", 1, 2, lambda x: LloydClusterer().fit(POINTS, range(6), x, _rng())),
    "outlier_scenario-runs": ("runs", 1, 3, lambda x: outlier_scenario(x, "tracemax", _rng())),
    "outlier_scenario-n_cases": ("n_cases", 2, 5, lambda x: outlier_scenario(3, "tracemax", _rng(), n_cases=x)),
    "SimulationConfig-n_cases": ("n_cases", 2, 6, lambda x: _cell(n_cases=x)),
    "SimulationConfig-rounds": ("rounds", 2, 3, lambda x: _cell(rounds=x)),
    "SimulationConfig-seed": ("seed", 0, 4, lambda x: _cell(seed=x)),
    "crosstab-k": ("k", 1, 2, lambda x: crosstab([1, 1], [1, 1], x)),
}


@pytest.mark.parametrize("call", sorted(SCALAR_INTEGER_CALLS))
@pytest.mark.parametrize("bad", ["2.5", "nan", "inf", "bound-1"])
def test_scalar_integer_argument_rejected(call, bad):
    name, low, _, fn = SCALAR_INTEGER_CALLS[call]
    value = low - 1 if bad == "bound-1" else float(bad)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        fn(value)


@pytest.mark.parametrize("call", sorted(SCALAR_INTEGER_CALLS))
def test_whole_float_integer_argument_acts_as_int(call):
    _, low, valid, fn = SCALAR_INTEGER_CALLS[call]
    for value in (low, valid):
        # repr tells 2.0 from 2, so a stored float argument would show
        assert repr(_plain(fn(float(value)))) == repr(_plain(fn(value)))


@pytest.mark.parametrize(
    "call",
    [lambda v: majority_labels(v, _rng())],
    ids=["majority_labels"],
)
def test_negative_votes_rejected(call):
    # a majority over negative votes would pick the least negative column
    with pytest.raises(ValueError, match="votes must be >= 0, got -2"):
        call([[-1, -2]])


@pytest.mark.parametrize(
    "picks, message",
    [([-1, 0, 1, 3, 4, 5], ">= 0, got -1"), ([0, 1, 2, 3, 4, 9], "< 6, got 9")],
    ids=["negative", "past-the-end"],
)
def test_resample_indices_outside_the_data_rejected(picks, message):
    # a negative index would read a row from the end, one past the end would fail unlocated
    with pytest.raises(ValueError, match=f"resample_indices must be {message}"):
        LloydClusterer().fit(POINTS, picks, 2, _rng())


@pytest.mark.parametrize(
    "call",
    [lambda: mmcc_run(np.zeros((5, 0)), 2, LloydClusterer(), "truematch", 3, _rng()),
     lambda: LloydClusterer().predict(np.zeros((2, 0)), np.zeros((5, 0)))],
    ids=["mmcc_run", "LloydClusterer.predict"],
)
def test_points_without_feature_columns_rejected(call):
    # zero columns: every point is the same empty point, and every distance is 0
    with pytest.raises(ValueError, match=r"^data must be an \(N, d\) array of numeric features$"):
        call()


@pytest.mark.parametrize("p", [math.nan, -0.5, 1.5, math.inf], ids=["nan", "-0.5", "1.5", "inf"])
def test_class_rate_outside_the_unit_interval_rejected(p):
    # a rate outside [0, 1] gives keep probabilities outside it: NaN flips every case
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got "):
        fictitious_cluster([1, 1, 2, 2, 1, 2], 0.5, _rng(), p=p)
