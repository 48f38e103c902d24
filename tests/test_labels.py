import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truematch import (
    LabelParseError,
    LabelVector,
    LloydClusterer,
    MatchingTable,
    aligned_table,
    apply_permutation,
    canonical_pair,
    crosstab,
    enforce_sizes,
    fictitious_cluster,
    majority_labels,
    parse_labels,
)


def reference_parse_labels(source: str):
    """The parser that stripped every line in a list: (labels, mapping), or
    (message, line) of the error it raised.  Kept as an oracle."""
    tokens = [raw.strip() for raw in source.split("\n")]
    while tokens and tokens[-1] == "":
        tokens.pop()
    if not tokens:
        return "empty label stream", None
    if "" in tokens:
        lineno = tokens.index("") + 1
        return f"blank line {lineno} inside label stream", lineno
    if tokens[0] == "label":
        tokens = tokens[1:]
    if not tokens:
        return "label stream holds a header but no labels", None
    mapping = {tok: i for i, tok in enumerate(dict.fromkeys(tokens), start=1)}
    return [mapping[tok] for tok in tokens], mapping


_SPACE = st.sampled_from(["", " ", "\t", "\r", "  ", "\u3000"])
_LINE = st.builds("".join, st.tuples(_SPACE, st.sampled_from(["a", "b", "label", "x y", "1", ""]), _SPACE))


class TestParseLabels:
    @settings(max_examples=400, deadline=None)
    @given(st.booleans(), st.lists(_LINE, max_size=12), st.lists(_SPACE, max_size=3))
    def test_matches_the_list_parser(self, header, lines, trailing):
        source = "\n".join(([" label\t"] if header else []) + lines + trailing)
        expected = reference_parse_labels(source)
        try:
            vec, mapping = parse_labels(source)
        except LabelParseError as err:
            assert (str(err), err.line) == expected
        else:
            assert (vec.labels.tolist(), mapping) == expected
            assert list(mapping) == list(expected[1]) and vec.n_clusters == len(mapping)

    def test_later_label_token_keeps_its_rank(self):
        vec, mapping = parse_labels("label\nb\n label\nb \nlabel")
        assert vec.labels.tolist() == [1, 2, 1, 2]
        assert mapping == {"b": 1, "label": 2}

    def test_first_appearance_mapping(self):
        vec, mapping = parse_labels("a\nb\na")
        assert vec.labels.tolist() == [1, 2, 1]
        assert vec.n_clusters == 2
        assert mapping == {"a": 1, "b": 2}

    def test_single_cluster(self):
        vec, _ = parse_labels("1\n1\n1")
        assert vec.labels.tolist() == [1, 1, 1]
        assert vec.n_clusters == 1

    def test_outlier_stream(self):
        text = "\n".join(["n"] * 99 + ["o"])
        vec, mapping = parse_labels(text)
        assert len(vec) == 100
        assert vec.n_clusters == 2
        counts = np.bincount(vec.labels, minlength=3)
        assert counts[1] == 99 and counts[2] == 1
        assert mapping == {"n": 1, "o": 2}

    def test_header_skipped(self):
        vec, _ = parse_labels("label\nx\ny\n")
        assert vec.labels.tolist() == [1, 2]

    def test_numeric_tokens_map_by_first_appearance(self):
        vec, mapping = parse_labels("2\n1\n2")
        assert vec.labels.tolist() == [1, 2, 1]
        assert mapping == {"2": 1, "1": 2}

    def test_empty_input_rejected(self):
        with pytest.raises(LabelParseError):
            parse_labels("")
        with pytest.raises(LabelParseError):
            parse_labels("\n\n")

    def test_header_only_rejected(self):
        with pytest.raises(LabelParseError):
            parse_labels("label\n")

    def test_blank_line_mid_stream_rejected(self):
        with pytest.raises(LabelParseError) as err:
            parse_labels("a\n\nb")
        assert err.value.line == 2

    def test_trailing_blank_lines_tolerated(self):
        vec, _ = parse_labels("a\nb\n\n")
        assert len(vec) == 2

    def test_reads_a_text_stream(self):
        text = "label\nb\na\nb\n"
        (vec, mapping), (want, want_mapping) = parse_labels(io.StringIO(text)), parse_labels(text)
        assert vec.labels.tolist() == want.labels.tolist() == [1, 2, 1]
        assert vec.n_clusters == want.n_clusters and mapping == want_mapping == {"b": 1, "a": 2}

    def test_roundtrip_on_canonical_form(self):
        vec, _ = parse_labels("a\nb\na\nc")
        again, _ = parse_labels("label\n1\n2\n1\n3\n")  # vec in the one-label-per-line format
        assert again.labels.tolist() == vec.labels.tolist()
        assert again.n_clusters == vec.n_clusters


class TestCanonicalPair:
    def test_relabel_only(self):
        a, b, k = canonical_pair([1, 1, 2], [3, 3, 3])
        assert k == 2
        assert b.labels.tolist() == [1, 1, 1]
        assert a.labels.tolist() == [1, 1, 2]

    def test_already_canonical_unchanged(self):
        a, b, k = canonical_pair([1, 2], [2, 1])
        assert k == 2
        assert a.labels.tolist() == [1, 2]
        assert b.labels.tolist() == [2, 1]

    def test_mismatched_sizes_pad_downstream(self):
        # 3-cluster vs 2-cluster pair: the shared space is K=3 and any
        # crosstab built from it has an all-zero third column.
        from truematch import crosstab

        a, b, k = canonical_pair([1, 2, 3, 1], [1, 2, 2, 1])
        assert k == 3
        table = crosstab(a, b, k)
        assert table.counts[:, 2].sum() == 0
        assert table.counts.sum() == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            canonical_pair([1, 2], [1, 2, 3])

    def test_partition_preserved(self):
        rng = np.random.default_rng(3)
        raw_a = rng.integers(5, 11, size=40)
        raw_b = rng.integers(2, 5, size=40)
        a, b, _ = canonical_pair(raw_a, raw_b)
        for raw, canon in ((raw_a, a.labels), (raw_b, b.labels)):
            same_raw = raw[:, None] == raw[None, :]
            same_canon = canon[:, None] == canon[None, :]
            assert np.array_equal(same_raw, same_canon)


@st.composite
def label_vectors(draw, n):
    """n labels as a list or an int64 array: each of 1..K at least once, or any ints."""
    if draw(st.booleans()):  # compact, as parse_labels makes them
        k = draw(st.integers(1, n))
        values = draw(st.permutations(list(range(1, k + 1)) + draw(
            st.lists(st.integers(1, k), min_size=n - k, max_size=n - k))))
    else:  # gaps, min > 1, max > n, negatives, magnitudes up to 2**62
        elements = draw(st.sampled_from([
            st.integers(1, 2 * n + 1), st.integers(2, n + 1), st.integers(-3, 3),
            st.integers(2**62 - 4, 2**62), st.integers(-(2**62), 2**62),
        ]))
        values = draw(st.lists(elements, min_size=n, max_size=n))
    return np.array(values, dtype=np.int64) if draw(st.booleans()) else values


class TestCanonicalPairOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(label_vectors(n), label_vectors(n))))
    def test_equals_unique_inverse(self, pair):
        before = [np.array(raw) for raw in pair]
        va, vb, k = canonical_pair(*pair)
        # the definition: distinct values onto 1..K in numeric order, K the larger count
        (ua, ia), (ub, ib) = (np.unique(raw, return_inverse=True) for raw in before)
        assert va.labels.tolist() == (ia + 1).tolist() and vb.labels.tolist() == (ib + 1).tolist()
        assert k == va.n_clusters == vb.n_clusters == max(ua.size, ub.size)
        for raw, old, made in zip(pair, before, (va, vb)):
            assert made.labels.dtype == np.int64 and not made.labels.flags.writeable
            if isinstance(raw, np.ndarray):  # the caller's array: untouched and not shared
                assert raw.flags.writeable and np.array_equal(raw, old)
                assert not np.shares_memory(raw, made.labels)


class TestApplyPermutation:
    def test_identity(self):
        v = LabelVector(np.array([1, 2, 1]), 2)
        assert apply_permutation(v, [1, 2]).labels.tolist() == [1, 2, 1]

    def test_swap(self):
        v = LabelVector(np.array([1, 2, 1]), 2)
        assert apply_permutation(v, [2, 1]).labels.tolist() == [2, 1, 2]

    def test_three_cycle(self):
        v = LabelVector(np.array([1, 1, 2, 3]), 3)
        assert apply_permutation(v, [3, 1, 2]).labels.tolist() == [3, 3, 1, 2]

    def test_non_bijection_rejected(self):
        v = LabelVector(np.array([1, 2]), 2)
        with pytest.raises(ValueError):
            apply_permutation(v, [1, 1])

    def test_label_out_of_range_rejected(self):
        v = LabelVector(np.array([1, 3]), 3)
        with pytest.raises(ValueError):
            apply_permutation(v, [2, 1])

    def test_inverse_restores(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            v = LabelVector(rng.integers(1, k + 1, size=30), k)
            perm = rng.permutation(k) + 1
            back = apply_permutation(apply_permutation(v, perm), np.argsort(perm) + 1)
            assert back.labels.tolist() == v.labels.tolist()


class TestLabelVector:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabelVector(np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            LabelVector(np.array([1, 3]), 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LabelVector(np.array([], dtype=np.int64), 1)

    def test_keeps_a_read_only_copy(self):
        arr = np.array([1, 2, 1])
        v = LabelVector(arr, 2)
        arr[0] = 9
        assert v.labels.tolist() == [1, 2, 1]
        assert not v.labels.flags.writeable
        with pytest.raises(ValueError):
            v.labels[0] = 9
        assert crosstab(v, v).counts.tolist() == [[2, 0], [0, 1]]

    def test_library_made_vectors_read_only(self):
        rng = np.random.default_rng(0)
        source = np.array([3, 1, 3, 2])
        va, vb, _ = canonical_pair(source, source)
        source[0] = 1
        truth = np.array([1, 1, 2, 2])
        made = [
            parse_labels("x\ny\nx\n")[0], va, vb,
            apply_permutation(va, [2, 3, 1]),
            fictitious_cluster(truth, 0.5, rng),
            enforce_sizes(truth, (2, 2), rng),
            majority_labels(np.array([[2, 1], [0, 3]]), rng),
            LloydClusterer().predict(np.array([[0.0], [4.0]]), np.array([1.0, 3.0, 5.0])),
        ]
        assert va.labels.tolist() == [3, 1, 3, 2]
        for v in made:
            assert not v.labels.flags.writeable


@pytest.mark.parametrize(
    "name, call",
    [("n_clusters", lambda: LabelVector([1, 2], 2.5)), ("k", lambda: crosstab([1, 2], [1, 2], k=2.5))],
    ids=["LabelVector-n_clusters", "crosstab-k"],
)
def test_fractional_label_space_rejected(name, call):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        call()


NON_INTEGRAL_LABEL_CALLS = {
    "crosstab": lambda labels: crosstab(labels, [1, 2], 2),
    "LabelVector": lambda labels: LabelVector(labels, 2),
    "fictitious_cluster": lambda labels: fictitious_cluster(labels, 1.0, np.random.default_rng(0)),
    "canonical_pair": lambda labels: canonical_pair(labels, [1, 2]),
    # permutations, votes and size targets are whole numbers too
    "apply_permutation-perm": lambda perm: apply_permutation([1, 2], perm),
    "aligned_table": lambda perm: aligned_table(MatchingTable([[3, 1], [0, 2]]), perm),
    "majority_labels": lambda votes: majority_labels([votes], np.random.default_rng(0)),
    "enforce_sizes-target": lambda target: enforce_sizes([1, 2, 2], target, np.random.default_rng(0)),
}


@pytest.mark.parametrize("call", sorted(NON_INTEGRAL_LABEL_CALLS))
@pytest.mark.parametrize("labels", [[1.5, 2.0], [1.9, 2.2], [1.0, np.nan]], ids=["1.5", "1.9", "nan"])
def test_non_integral_labels_rejected(call, labels):
    # truncation would read 1.5 as label 1 and 1.9 as label 1
    with pytest.raises(ValueError, match="whole numbers"):
        NON_INTEGRAL_LABEL_CALLS[call](labels)


@pytest.mark.parametrize("call", sorted(NON_INTEGRAL_LABEL_CALLS))
def test_whole_float_labels_accepted(call):
    NON_INTEGRAL_LABEL_CALLS[call]([1.0, 2.0])
