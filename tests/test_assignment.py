import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import truematch
from truematch import brute_force_assignment, solve_assignment
from truematch.assignment import _linear_sum_assignment


def objective(score, perm):
    """sum(score[k, perm[k]]) for a 1-based permutation."""
    score = np.asarray(score, dtype=float)
    return float(score[np.arange(len(score)), np.asarray(perm) - 1].sum())


class TestSolveAssignment:
    def test_two_by_two_minimize(self):
        perm = solve_assignment([[4, 1], [2, 3]])
        assert perm.tolist() == [2, 1]
        assert objective([[4, 1], [2, 3]], perm) == 3

    def test_dominant_diagonal_maximize(self):
        k = 6
        perm = solve_assignment(-np.eye(k))
        assert perm.tolist() == list(range(1, k + 1))
        assert objective(np.eye(k), perm) == k

    def test_single_element(self):
        assert solve_assignment([[5.0]]).tolist() == [1]

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
            for signed in (score, -score):  # minimum and maximum
                fast = solve_assignment(signed)
                slow = brute_force_assignment(signed)
                assert sorted(fast.tolist()) == list(range(1, len(score) + 1))
                assert objective(signed, fast) == objective(signed, slow)

    def test_float_scores(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            score = rng.normal(size=(k, k))
            fast = solve_assignment(score)
            slow = brute_force_assignment(score)
            assert objective(score, fast) == pytest.approx(objective(score, slow), rel=0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_assignment([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            solve_assignment([[np.inf, 1], [1, 2]])
        with pytest.raises(ValueError, match="square"):
            brute_force_assignment([[1, 2, 3]])

    def test_max_equals_min_of_negated(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            score = rng.uniform(-50, 50, (k, k))
            hi = max(objective(score, np.array(p) + 1) for p in itertools.permutations(range(k)))
            lo = objective(-score, solve_assignment(-score))
            assert hi == pytest.approx(-lo, abs=1e-9)

    def test_negated_score_picks_what_maximize_picked(self):
        # the matchers solve the negated score where they once passed maximize=True;
        # tie-heavy and all-zero scores (negated: -0) must pick the same columns too
        rng = np.random.default_rng(33)
        for k in range(2, 9):
            scores = [np.zeros((k, k))]
            for _ in range(40):
                ternary = rng.integers(-1, 2, size=(k, k)).astype(float)
                scores += [ternary, ternary[rng.integers(k, size=k)], rng.integers(0, 3, size=(k, k)).astype(float)]
            for score in scores:
                expected = _linear_sum_assignment(score, maximize=True)[1] + 1
                assert solve_assignment(-score).tolist() == expected.tolist(), score
        with pytest.raises(TypeError):
            solve_assignment([[1.0, 2.0], [3.0, 4.0]], "maximize")
        with pytest.raises(TypeError):
            brute_force_assignment([[1.0]], sense="maximize")

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
            base_opt = objective(score, brute_force_assignment(score))
            new_opt = objective(shifted, solve_assignment(shifted))
            assert new_opt == pytest.approx(base_opt + 7.0 - 3.0, abs=1e-9)
            # the returned optimum of the shifted problem is optimal for the
            # original too
            back = objective(score, solve_assignment(shifted))
            assert back == pytest.approx(base_opt, abs=1e-9)


class TestBruteForce:
    def test_single(self):
        assert brute_force_assignment([[3.0]]).tolist() == [1]

    def test_both_permutations_considered(self):
        assert objective([[4, 1], [2, 3]], brute_force_assignment([[4, 1], [2, 3]])) == 3

    def test_total_tie_returns_lexicographically_smallest(self):
        score = np.zeros((4, 4))
        assert brute_force_assignment(-score).tolist() == [1, 2, 3, 4]
        assert brute_force_assignment(score).tolist() == [1, 2, 3, 4]

    def test_k_guard(self):
        with pytest.raises(ValueError):
            brute_force_assignment(np.zeros((9, 9)))


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
            solve_assignment(-score)
            times.append(time.perf_counter() - start)
        return min(times)

    best_time(64)  # warm-up
    ratio = best_time(128) / best_time(64)
    assert ratio < 16.0, f"scaling ratio {ratio:.1f}"
