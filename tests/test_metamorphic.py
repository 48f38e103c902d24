"""Relations the paper's arithmetic makes exact, checked on generated labelings.

Swapping the two labelings transposes their table, which no agreement index
can see.  Repeating every case m times multiplies the table by m; for m a
power of two every count, expectation and residual scales exactly, so each
matcher makes the same decisions from the same generator state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truematch import MATCHERS, adjusted_rand, cohen_kappa, crosstab, diagonal_fraction, rand_index

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
