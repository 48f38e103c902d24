"""The library draws its standard uniforms with ``Generator.random``, which
costs about half of ``Generator.uniform`` on the small shapes of the K=2
loops.  Seeded outputs stay what they were only while the two calls give the
same values and leave the generator in the same state; this pins that, so a
numpy release that broke it would fail here first."""

import numpy as np
import pytest

# every shape the library draws uniforms in: K=2 pair draws, K=3 and K=12 pair
# draws, a 100-case judgment, a 63-row K=2 majority and a 2,000-point K=4 one
SHAPES = [(2,), (3,), (12,), (100,), (63, 2), (2000, 4)]


@pytest.mark.parametrize("seed", [0, 1, 11, 2**40 + 7])
def test_random_is_uniform_on_the_unit_interval(seed):
    fast, plain = np.random.default_rng(seed), np.random.default_rng(seed)
    for step, shape in enumerate(SHAPES * 3):
        got, want = fast.random(shape), plain.uniform(size=shape)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes(), (seed, shape)
        assert fast.bit_generator.state == plain.bit_generator.state
        # the library's other draws, in between: shuffles, bootstrap picks and tie draws
        for rng in (fast, plain):
            rng.permutation(2 + step % 5)
            rng.integers(0, 100, size=100 if step % 2 else 1)
        assert fast.bit_generator.state == plain.bit_generator.state
