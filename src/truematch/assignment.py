"""Exact solvers for the square linear sum assignment problem.

``solve_assignment`` calls scipy's compiled Jonker-Volgenant solver (Crouse
2016, "On implementing 2D rectangular assignment algorithms", IEEE TAES).
``brute_force_assignment`` enumerates all K! permutations and serves as
the testing oracle for small K.

Both solvers are deterministic; randomized tie handling between
co-optimal permutations belongs to callers (the matching layer shuffles
its input before solving).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import os
import sys

import numpy as np

from .labels import _perm_array

__all__ = [
    "solve_assignment",
    "brute_force_assignment",
    "assignment_value",
    "identity_permutation",
    "inverse_permutation",
    "is_permutation",
]

_SENSES = ("minimize", "maximize")
_BRUTE_FORCE_MAX_K = 8


def _load_linear_sum_assignment():
    """scipy's compiled solver, without ``import scipy.optimize`` (~0.5 s, ~48 MB).

    Its extension file loads by itself in ~1 ms.  Unless already imported, it
    is registered under its module name, which a later ``scipy.optimize`` reuses."""
    name = "scipy.optimize._lsap"
    root = os.path.dirname(importlib.util.find_spec("scipy").origin)
    path = os.path.join(root, "optimize", "_lsap" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):  # another file layout: the same function, slower to import
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return sys.modules.setdefault(name, module).linear_sum_assignment


_linear_sum_assignment = _load_linear_sum_assignment()


def _as_square_matrix(score) -> np.ndarray:
    score = np.asarray(score, dtype=float)
    if score.ndim != 2 or score.shape[0] != score.shape[1] or score.shape[0] == 0:
        raise ValueError(f"score must be a non-empty square matrix, got shape {score.shape}")
    if not np.all(np.isfinite(score)):
        raise ValueError("score matrix contains non-finite entries")
    return score


def _check_sense(sense: str) -> None:
    if sense not in _SENSES:
        raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")


def solve_assignment(score, sense: str = "minimize") -> np.ndarray:
    """Permutation optimizing sum(score[k, perm[k]]) in the given sense.

    Returns a 1-based int array: row k is matched to column perm[k-1].
    The achieved objective equals the exhaustive optimum; when several
    permutations tie, which one is returned depends only on the input
    (no internal randomness).
    """
    score = _as_square_matrix(score)
    _check_sense(sense)
    _, cols = _linear_sum_assignment(score, maximize=sense == "maximize")
    return cols + 1


def brute_force_assignment(score, sense: str = "minimize") -> np.ndarray:
    """Exhaustive assignment oracle for K <= 8.

    Ties break deterministically: permutations are enumerated in
    lexicographic order and the first optimum wins.
    """
    score = _as_square_matrix(score)
    _check_sense(sense)
    k = score.shape[0]
    if k > _BRUTE_FORCE_MAX_K:
        raise ValueError(f"brute force is limited to K <= {_BRUTE_FORCE_MAX_K}, got K={k}")
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    values = score[np.arange(k), perms].sum(axis=1)
    best = values.min() if sense == "minimize" else values.max()
    first = int(np.flatnonzero(values == best)[0])
    return perms[first] + 1


def assignment_value(score, perm) -> float:
    """Objective sum(score[k, perm[k]]) for a 1-based permutation."""
    score = np.asarray(score, dtype=float)
    perm = _perm_array(perm)
    return float(score[np.arange(score.shape[0]), perm - 1].sum())


def identity_permutation(k: int) -> np.ndarray:
    return np.arange(1, k + 1, dtype=np.int64)


def inverse_permutation(perm) -> np.ndarray:
    """Inverse of a 1-based permutation; ``ValueError`` unless it holds each of 1..K once."""
    return np.argsort(_perm_array(perm)) + 1


def is_permutation(perm) -> bool:
    try:
        _perm_array(perm)
    except ValueError:
        return False
    return True
