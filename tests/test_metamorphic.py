"""Relations the paper's arithmetic makes exact, checked on generated inputs.

Swapping the two labelings transposes their table, which no agreement index
can see.  Repeating every case m times multiplies the table by m; for m a
power of two every count, expectation and residual scales exactly, so each
matcher makes the same decisions from the same generator state.  Scaling
``mmcc`` data by a power of two scales every distance and centroid exactly,
so every fit, match and vote is the same.  Label names reach the table only
through their order of first appearance, so prefixing every token of both
label files leaves the ``match`` output as it was, byte for byte.
"""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from truematch import (
    MATCHERS,
    LloydClusterer,
    adjusted_rand,
    cohen_kappa,
    crosstab,
    diagonal_fraction,
    mmcc_run,
    rand_index,
)
from truematch.cli import main

INDICES = (diagonal_fraction, cohen_kappa, rand_index, adjusted_rand)


@st.composite
def labelings(draw, min_k=2, max_k=6, min_n=2):
    """Two equal-length labelings with values in 1..k, and k."""
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(min_n, 40))
    labels = st.lists(st.integers(1, k), min_size=n, max_size=n)
    return np.array(draw(labels)), np.array(draw(labels)), k


@settings(max_examples=200, deadline=None)
@given(labelings(min_k=1))
def test_swapping_the_labelings_keeps_every_agreement_index(pair):
    a, b, _ = pair
    forward, backward = crosstab(a, b), crosstab(b, a)
    assert [index(forward).hex() for index in INDICES] == [index(backward).hex() for index in INDICES]


@pytest.mark.parametrize("min_k, max_k", [(2, 2), (3, 6)], ids=["k2", "k3-6"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_repeating_every_case_keeps_the_match(min_k, max_k, data):
    a, b, k = data.draw(labelings(min_k, max_k, min_n=1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    table = crosstab(a, b, k)
    for times in (2, 4):
        repeated = crosstab(np.repeat(a, times), np.repeat(b, times), k)
        if k == 2:  # the matchers' Python-float residuals scale exactly
            assert repeated._signed_k2 == [[times * s for s in row] for row in table._signed_k2]
        for name, matcher in MATCHERS.items():
            once, again = matcher(table, np.random.default_rng(seed)), matcher(repeated, np.random.default_rng(seed))
            assert once.perm.tolist() == again.perm.tolist(), name
            assert once.pair_order.tolist() == again.pair_order.tolist(), name


@st.composite
def points(draw):
    """N x d data with at least k distinct rows, and k; magnitudes 0 or 1e-6..1e3, so that
    every scaled coordinate, distance and centroid stays normal."""
    k, d = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(k + 2, 30))
    coordinate = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
    data = np.array(draw(st.lists(coordinate, min_size=n * d, max_size=n * d))).reshape(n, d)
    assume(len(np.unique(data, axis=0)) >= k)
    return data, k


@settings(max_examples=40, deadline=None)
@given(points(), st.integers(0, 2**32 - 1))
def test_scaling_mmcc_data_by_a_power_of_two_keeps_votes_and_probs(case, seed):
    data, k = case
    for name in MATCHERS:
        votes, probs = mmcc_run(data, k, LloydClusterer(), name, 6, np.random.default_rng(seed))
        for scale in (2.0**-30, 2.0**10, 2.0**100):
            scaled = mmcc_run(data * scale, k, LloydClusterer(), name, 6, np.random.default_rng(seed))
            assert votes.tobytes() == scaled[0].tobytes(), (name, scale)
            assert probs.probs.tobytes() == scaled[1].probs.tobytes(), (name, scale)


# names that read as equal numbers, or that differ in case, among free ones; never the header "label"
TOKENS = st.sampled_from(["0", "00", "1", "01", "1.0", "-1", "x", "X"]) | st.text("axz019_-.", min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefixing_every_label_token_keeps_the_match_json(data, tmp_path_factory):
    a, b, k = data.draw(labelings(min_k=1))
    names = data.draw(st.lists(TOKENS, min_size=k, max_size=k, unique=True))
    prefix, seed = data.draw(TOKENS), data.draw(st.integers(0, 2**32 - 1))
    folder = tmp_path_factory.mktemp("prefix")
    runs = {}
    for tag, head in (("plain", ""), ("prefixed", prefix)):
        for side, labels in (("a", a), ("b", b)):
            text = "".join(f"{head}{names[v - 1]}\n" for v in labels)  # first appearances keep their order
            (folder / f"{tag}_{side}.txt").write_text(text, encoding="utf-8")
        for name in MATCHERS:
            files = [str(folder / f"{tag}_{side}.txt") for side in "ab"]
            result = CliRunner().invoke(main, ["match", *files, "--method", name, "--seed", str(seed)])
            assert result.exit_code == 0, result.output
            runs[tag, name] = result.stdout_bytes
    for name in MATCHERS:
        assert runs["plain", name] == runs["prefixed", name], name
