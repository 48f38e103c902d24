import numpy as np
import pytest

from truematch import (
    LabelParseError,
    LabelVector,
    MatchingTable,
    VoteMatrix,
    aligned_table,
    apply_permutation,
    canonical_pair,
    crosstab,
    enforce_sizes,
    fictitious_cluster,
    inverse_permutation,
    majority_labels,
    mapping_csv,
    parse_labels,
    serialize_labels,
)


class TestParseLabels:
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

    def test_roundtrip_on_canonical_form(self):
        vec, _ = parse_labels("a\nb\na\nc")
        again, _ = parse_labels(serialize_labels(vec))
        assert again.labels.tolist() == vec.labels.tolist()
        assert again.n_clusters == vec.n_clusters

    def test_mapping_csv_format(self):
        _, mapping = parse_labels("x\ny")
        assert mapping_csv(mapping) == "original,canonical\nx,1\ny,2\n"


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
        from truematch import inverse_permutation

        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            v = LabelVector(rng.integers(1, k + 1, size=30), k)
            perm = rng.permutation(k) + 1
            back = apply_permutation(apply_permutation(v, perm), inverse_permutation(perm))
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
    "inverse_permutation": inverse_permutation,
    "aligned_table": lambda perm: aligned_table(MatchingTable([[3, 1], [0, 2]]), perm),
    "VoteMatrix": lambda votes: VoteMatrix([votes], 2),
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
