"""The CLI's JSON emitter against the encoding it replaced.

``reference`` is the old output path: round every float to 6 significant
digits in a rebuilt copy of the payload, then ``json.dumps`` with
``indent=2, sort_keys=True``.  ``_json_text`` must print the same text for
every payload, numpy arrays included, which the old path saw as lists.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from truematch import crosstab, resolve_matcher
from truematch.cli import _csv_text, _json_text, main


def _round6(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


def reference(value) -> str:
    return json.dumps(_round6(_as_lists(value)), indent=2, sort_keys=True)


# floats where the two notations part: %g turns to exponent form at 1e6,
# repr only at 1e16, and both near the subnormal and overflow ends
SPECIAL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-300, 1e300, -1e300, 1.7976931348623157e308, 999999.4, 999999.5, 1e6, 1234567.0,
    9999995.0, 1e15, 999999999999999.9, 1e16, 1.2345675e16, 0.1, 1e-5, 0.0001, 123456.5,
]
floats = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e5, max_value=1e17).flatmap(lambda x: st.sampled_from([x, -x])),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**70), 2**70), floats, st.text(),
)
float_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.float16]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
int_arrays = hnp.arrays(
    st.sampled_from([np.int64, np.int32, np.uint8, np.uint64, np.int8]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
# counts in 0..20 on 1-D and 2-D shapes of 0-36 cells: both sides of the digit-table
# switch (every count at most the cell count)
count_arrays = hnp.arrays(
    st.sampled_from([np.int64, np.uint8, np.int32]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
    elements=st.integers(0, 20),
)
other_arrays = hnp.arrays(np.bool_, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
payloads = st.recursive(
    st.one_of(scalars, float_arrays, int_arrays, count_arrays, other_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


class TestOracle:
    @settings(max_examples=400, deadline=None)
    @given(payloads)
    def test_equals_reference(self, payload):
        assert _json_text(payload) == reference(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=30))
    def test_float_rows_equal_reference(self, values):
        # the all-finite fast path and the non-finite scalar path of one array
        arr = np.array(values)
        payload = {"rows": np.stack([arr, arr[::-1]]), "row": arr}
        assert _json_text(payload) == reference(payload)

    def test_special_floats_one_array(self):
        arr = np.array(SPECIAL)
        assert _json_text({"x": arr, "y": SPECIAL}) == reference({"x": arr, "y": SPECIAL})

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_integral_text_of_non_integers(self, dtype):
        # "{:.6g}" prints each of these without a point or exponent although it
        # is no integer (or prints an exponent of 6-15), so each needs its repr
        edge = [12345.04, 0.9999996, 99999.49, 99999.5, -4e-07, -0.0]
        rows = [edge, [1234567.8, 0.25, -99999.96, 1e15 + 0.5, 3.0, 2.5e-05], edge[::-1]]
        with np.errstate(over="ignore"):  # float16 holds no value above 65504
            arr = np.array(rows, dtype=dtype)
        payload = {"m": arr, "row": arr[0], "cube": np.stack([arr, -arr])}
        assert _json_text(payload) == reference(payload)

    @pytest.mark.parametrize("arr", [
        np.array([[98, 1], [1, 0]]),  # counts above the cell count: the "%d" path
        np.array([2**64 - 1, 2**64 - 2, 0], dtype=np.uint64),
        np.array([[-128, 5], [3, 127]], dtype=np.int8),
        np.zeros((3, 0), dtype=np.int64),
        np.random.default_rng(400).poisson(0.3, (400, 400)),  # a sparse K=400 table: digit texts
    ], ids=["2x2-98", "uint64-top", "int8-negative", "3x0", "400x400-poisson"])
    def test_int_arrays_on_both_sides_of_the_digit_table(self, arr):
        payload = {"m": arr, "head": arr[:1]}
        assert _json_text(payload) == reference(payload)

    def test_non_ascii_strings_and_keys(self):
        payload = {"ä": "snow ☃ \U0001f600", "b\n": ["é", "\x00"], "": {}}
        assert _json_text(payload) == reference(payload)

    @pytest.mark.parametrize("value", [np.int64(3), {1j}, object()])
    def test_unserialisable_raises(self, value):
        with pytest.raises(TypeError):
            reference(value)
        with pytest.raises(TypeError):
            _json_text(value)


def test_k400_match_payload(tmp_path):
    rng = np.random.default_rng(400)
    k, n = 400, 20_000
    a, b = rng.integers(0, k, n), rng.integers(0, k, n)
    a[:k], b[:k] = np.arange(k), np.arange(k)  # every label occurs in both files
    for name, labels in (("a", a), ("b", b)):
        (tmp_path / f"{name}.txt").write_text("\n".join(f"c{x}" for x in labels) + "\n")
    # the labels are first-appearance ranks already, so canonical = raw + 1
    table = crosstab(a + 1, b + 1, k)
    for method in ("truematch", "truematch-heuristic"):
        out = tmp_path / f"{method}.json"
        result = CliRunner().invoke(
            main, ["match", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                   "--method", method, "--seed", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        res = resolve_matcher(method)(table, np.random.default_rng(3))
        payload = {
            "method": method,
            "seed": 3,
            "perm": res.perm.tolist(),
            "pairs": [[p.row, p.column, p.signed_dev, p.count] for p in res.pairs],
            "table_before": table.counts.tolist(),
            "table_after": res.matched_table.counts.tolist(),
            "signed_residuals": res.residuals.signed.tolist(),
            "chi2": res.residuals.chi2,
        }
        assert out.read_text(encoding="utf-8") == reference(payload) + "\n", method


def csv_reference(matrix) -> str:
    """The probs CSV as the ``mmcc`` command wrote it before: one
    ``"{:.6g}".format`` call per value."""
    lines = [",".join(map("{:.6g}".format, row)) for row in np.asarray(matrix).tolist()]
    return "\n".join(lines) + "\n"


class TestProbsCsv:
    EDGE = [0.0, 1.0, 1 / 3, 2 / 3, 1e-5, 1.5e-7, 0.9999995, 1 - 1e-12]

    @pytest.mark.parametrize("shape", [(8, 1), (1, 8), (2, 4), (4, 2)])
    def test_edge_values_equal_reference(self, shape):
        # K=1 writes no comma, N=1 one line
        matrix = np.reshape(self.EDGE, shape)
        assert _csv_text(matrix) == csv_reference(matrix)
        assert _csv_text(matrix[::-1]) == csv_reference(matrix[::-1])

    def test_single_cell(self):
        for value in self.EDGE:
            assert _csv_text(np.array([[value]])) == csv_reference([[value]])

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=st.floats(0.0, 1.0)))
    def test_probabilities_equal_reference(self, matrix):
        assert _csv_text(matrix) == csv_reference(matrix)
