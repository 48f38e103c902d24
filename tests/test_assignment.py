import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import truematch
from truematch import (
    assignment_value,
    brute_force_assignment,
    inverse_permutation,
    solve_assignment,
)


class TestSolveAssignment:
    def test_two_by_two_minimize(self):
        perm = solve_assignment([[4, 1], [2, 3]], "minimize")
        assert perm.tolist() == [2, 1]
        assert assignment_value([[4, 1], [2, 3]], perm) == 3

    def test_dominant_diagonal_maximize(self):
        k = 6
        perm = solve_assignment(np.eye(k), "maximize")
        assert perm.tolist() == list(range(1, k + 1))
        assert assignment_value(np.eye(k), perm) == k

    def test_single_element(self):
        assert solve_assignment([[5.0]], "maximize").tolist() == [1]

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(71)
        scores = []
        for _ in range(120):
            k = int(rng.integers(2, 8))
            scores.append(rng.integers(-100, 101, size=(k, k)).astype(float))
        # tie-heavy inputs have many co-optimal permutations, and the solver
        # may pick another one than the oracle: only the objectives must agree
        for k in range(2, 9):
            scores.append(np.full((k, k), 2.0))
            for _ in range(10):
                ternary = rng.integers(-1, 2, size=(k, k)).astype(float)
                scores += [ternary, ternary[rng.integers(k, size=k)]]  # the second repeats rows
        for score in scores:
            for sense in ("minimize", "maximize"):
                fast = solve_assignment(score, sense)
                slow = brute_force_assignment(score, sense)
                assert sorted(fast.tolist()) == list(range(1, len(score) + 1))
                assert assignment_value(score, fast) == assignment_value(score, slow)

    def test_float_scores(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            score = rng.normal(size=(k, k))
            fast = solve_assignment(score, "minimize")
            slow = brute_force_assignment(score, "minimize")
            assert assignment_value(score, fast) == pytest.approx(
                assignment_value(score, slow), rel=0, abs=1e-12
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_assignment([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            solve_assignment([[np.inf, 1], [1, 2]])
        with pytest.raises(ValueError):
            solve_assignment([[1, 2], [3, 4]], sense="upward")
        with pytest.raises(ValueError, match="perm must have 2 entries, got 3"):
            assignment_value(np.eye(2), [1, 2, 3])
        with pytest.raises(ValueError, match="square"):
            assignment_value([[1, 2, 3]], [1])

    def test_max_equals_min_of_negated(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            score = rng.uniform(-50, 50, (k, k))
            hi = assignment_value(score, solve_assignment(score, "maximize"))
            lo = assignment_value(-score, solve_assignment(-score, "minimize"))
            assert hi == pytest.approx(-lo, abs=1e-9)

    def test_row_and_column_shift_invariance(self):
        # adding a constant to a full row or column shifts the objective by
        # that constant and leaves the optimal set unchanged
        rng = np.random.default_rng(21)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            score = rng.integers(-20, 21, (k, k)).astype(float)
            shifted = score.copy()
            row, col = int(rng.integers(k)), int(rng.integers(k))
            shifted[row, :] += 7.0
            shifted[:, col] -= 3.0
            base_opt = assignment_value(score, brute_force_assignment(score, "minimize"))
            new_opt = assignment_value(shifted, solve_assignment(shifted, "minimize"))
            assert new_opt == pytest.approx(base_opt + 7.0 - 3.0, abs=1e-9)
            # the returned optimum of the shifted problem is optimal for the
            # original too
            back = assignment_value(score, solve_assignment(shifted, "minimize"))
            assert back == pytest.approx(base_opt, abs=1e-9)


class TestBruteForce:
    def test_single(self):
        assert brute_force_assignment([[3.0]], "minimize").tolist() == [1]

    def test_both_permutations_considered(self):
        assert assignment_value([[4, 1], [2, 3]], brute_force_assignment([[4, 1], [2, 3]])) == 3

    def test_total_tie_returns_lexicographically_smallest(self):
        score = np.zeros((4, 4))
        assert brute_force_assignment(score, "maximize").tolist() == [1, 2, 3, 4]
        assert brute_force_assignment(score, "minimize").tolist() == [1, 2, 3, 4]

    def test_k_guard(self):
        with pytest.raises(ValueError):
            brute_force_assignment(np.zeros((9, 9)))


class TestPermutationHelpers:
    def test_inverse(self):
        perm = np.array([3, 1, 2])
        inv = inverse_permutation(perm)
        assert inv.tolist() == [2, 3, 1]
        assert inverse_permutation(inv).tolist() == perm.tolist()

    def test_is_permutation(self):
        # the permutation check lives in inverse_permutation: it accepts each
        # of 1..K once and raises ValueError on anything else
        assert inverse_permutation([2, 1, 3]).tolist() == [2, 1, 3]
        for bad in ([1, 1, 3], [[1, 2]]):
            with pytest.raises(ValueError):
                inverse_permutation(bad)


def test_compiled_solver_loads_without_scipy_optimize():
    # importing scipy.optimize would add ~0.5 s and ~48 MB to every CLI run;
    # if scipy's file layout changes, this fails instead of silently paying that
    code = """
import sys
import numpy as np
import truematch
from truematch.assignment import _linear_sum_assignment
truematch.match_truematch(truematch.MatchingTable([[3, 1], [1, 3]]), np.random.default_rng(0))
assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
import scipy.optimize
assert scipy.optimize.linear_sum_assignment is _linear_sum_assignment, "another solver object"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(truematch.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_polynomial_runtime_scaling():
    # doubling K from 64 to 128 must stay far under the 16x a quartic-or-worse
    # solver would show; warm once then take the best of three
    rng = np.random.default_rng(5)

    def best_time(k):
        times = []
        for _ in range(3):
            score = rng.uniform(-100.0, 100.0, (k, k))
            start = time.perf_counter()
            solve_assignment(score, "maximize")
            times.append(time.perf_counter() - start)
        return min(times)

    best_time(64)  # warm-up
    ratio = best_time(128) / best_time(64)
    assert ratio < 16.0, f"scaling ratio {ratio:.1f}"
