"""The four benchmark workloads: seeded inputs, op argv lists, output checks.

A workload owns a work directory.  Its constructor writes every input file
the ops read, generated from the workload seed alone.  ``argv(i)`` is the
CLI invocation list of op ``i`` (one op may be several invocations),
``outputs(i)`` the files that op writes, and ``check(i, blobs)`` raises
``CheckFailed`` when the bytes of those files are wrong.  ``finish()``
runs checks that need many ops pooled and returns the ops it condemns,
each with its error.

Ops cycle through a fixed mix, so every run of a workload sees the same
mix whatever its seed; the seed changes the input files and each op's
``--seed``.  ``block`` is the number of ops after which the running mix
repeats; the runner stops measuring only at a block boundary.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MATCHERS = ("truematch", "tracemax", "truematch-heuristic")

# Acceptance criteria 3 and 4: expected matched tables (percent of cases)
# of the two-bootstrap 99:1 outlier scenario.
CRIT3_TABLE = np.array([[98.01, 0.99], [0.99, 0.01]])
CRIT4_TABLE = np.array([[1.98, 48.51], [48.51, 1.00]])
POOL_MIN_RUNS = 10_000


class CheckFailed(Exception):
    """An op's output violates a property the benchmark checks."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def op_seed(seed: int, i: int) -> int:
    """CLI --seed of op i: a fixed function of the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] & 0x7FFFFFFF)


def adjusted_rand(x: np.ndarray, y: np.ndarray) -> float:
    """Adjusted Rand index of two label vectors (independent of truematch)."""
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    table = np.zeros((xi.max() + 1, yi.max() + 1), dtype=np.int64)
    np.add.at(table, (xi, yi), 1)

    def pairs(v):
        return float((v * (v - 1) // 2).sum())

    both, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    total = len(x) * (len(x) - 1) / 2
    expected = rows * cols / total
    denom = 0.5 * (rows + cols) - expected
    return 1.0 if denom == 0 else (both - expected) / denom


def _write_labels(path: Path, names: np.ndarray, idx: np.ndarray) -> None:
    path.write_text("\n".join(names[idx]) + "\n", encoding="utf-8")


def _first_appearance_rank(idx: np.ndarray, k: int) -> np.ndarray:
    """Canonical label (1-based, order of first appearance) of each of k names."""
    _, first = np.unique(idx, return_index=True)
    rank = np.empty(k, dtype=np.int64)
    rank[idx[np.sort(first)]] = np.arange(1, k + 1)
    return rank


class Workload:
    name = ""
    block = 1

    def __init__(self, workdir: Path, seed: int):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed

    def argv(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, i: int) -> list[Path]:
        raise NotImplementedError

    def check(self, i: int, blobs: list[bytes]) -> None:
        raise NotImplementedError

    def finish(self) -> dict[int, str]:
        return {}

    def _out(self, suffix: str) -> Path:
        return self.dir / f"out{suffix}"


class SimGrid(Workload):
    """simulate --scenario grid, one (p, kappa) cell per op."""

    name = "sim_grid"
    block = 36
    CELLS = [
        (p, kappa, matcher, fixed)
        for fixed in (False, True)
        for matcher in ("truematch", "tracemax")
        for p in ("0.5", "0.7", "0.9")
        for kappa in ("0", "0.5", "1")
    ]

    def argv(self, i):
        p, kappa, matcher, fixed = self.CELLS[i % len(self.CELLS)]
        return [[
            "simulate", "--scenario", "grid", "--p-grid", p, "--kappa-grid", kappa,
            "--rounds", "300", "--n-cases", "100", "--matcher", matcher,
            "--fixed" if fixed else "--non-fixed", "--seed", str(op_seed(self.seed, i)),
            "--out", str(self._out(".csv")),
        ]]

    def outputs(self, i):
        return [self._out(".csv")]

    def check(self, i, blobs):
        p, kappa, matcher, fixed = self.CELLS[i % len(self.CELLS)]
        lines = blobs[0].decode().splitlines()
        _require(lines[0] == "p,kappa,H,I,CIC,degenerate,fixed,matcher,seed", "bad header")
        _require(len(lines) == 2, f"expected one cell, got {len(lines) - 1}")
        f = lines[1].split(",")
        _require(float(f[0]) == float(p) and float(f[1]) == float(kappa), "cell mismatch")
        _require(f[6] == str(fixed).lower() and f[7] == matcher, "config not echoed")
        _require(int(f[8]) >= 0, "cell seed missing")
        degenerate, h = f[5] == "true", float(f[2])
        if not degenerate:
            _require(0.0 <= h <= 1.0 + 1e-9, f"H={h} outside [0, 1]")
        if kappa == "1":  # criterion 7: reliable clusterers give crisp cells
            _require(not degenerate and h <= 0.05, f"kappa=1 cell H={h} degenerate={degenerate}")


class OutlierK2(Workload):
    """simulate --scenario outlier --runs 1000, cycling the three matchers."""

    name = "outlier_k2"
    block = 3
    RUNS = 1000

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        # criterion 3 holds for tracemax; criterion 4 for the residual
        # matchers, which on 2x2 tables pick the same assignment.
        self.pools = {
            "crit3": {"ops": set(), "runs": 0, "table": np.zeros((2, 2)), "diag": 0.0, "rate": 0.0},
            "crit4": {"ops": set(), "runs": 0, "table": np.zeros((2, 2)), "diag": 0.0, "rate": 0.0},
        }

    def _matcher(self, i):
        return MATCHERS[i % 3]

    def argv(self, i):
        return [[
            "simulate", "--scenario", "outlier", "--runs", str(self.RUNS),
            "--matcher", self._matcher(i), "--seed", str(op_seed(self.seed, i)),
            "--out", str(self._out(".json")),
        ]]

    def outputs(self, i):
        return [self._out(".json")]

    def check(self, i, blobs):
        out = json.loads(blobs[0])
        matcher = self._matcher(i)
        _require(out["matcher"] == matcher and out["runs"] == self.RUNS, "config not echoed")
        _require(out["seed"] == op_seed(self.seed, i), "seed not echoed")
        table = np.array(out["expected_table_percent"], dtype=float)
        _require(table.shape == (2, 2) and abs(table.sum() - 100.0) < 1e-3, "table not 100%")
        _require(0.0 <= out["diagonal"] <= 1.0, "diagonal out of range")
        _require(0.0 <= out["random_match_rate"] <= 1.0, "match rate out of range")
        pool = self.pools["crit3" if matcher == "tracemax" else "crit4"]
        if i not in pool["ops"]:
            pool["ops"].add(i)
            pool["runs"] += self.RUNS
            pool["table"] += table * self.RUNS
            pool["diag"] += out["diagonal"] * self.RUNS
            pool["rate"] += out["random_match_rate"] * self.RUNS

    def finish(self):
        """Criterion 3/4 check of every pool with enough runs; a failing pool condemns its ops."""
        failed = {}
        for name, pool in self.pools.items():
            n = pool["runs"]
            if n < POOL_MIN_RUNS:
                continue
            table, diag, rate = pool["table"] / n, pool["diag"] / n, pool["rate"] / n
            if name == "crit3":
                ok = np.abs(table - CRIT3_TABLE).max() <= 0.3 and abs(diag - 0.9802) <= 0.005
            else:
                ok = (np.abs(table - CRIT4_TABLE).max() <= 1.0 and abs(diag - 0.0298) <= 0.01
                      and abs(rate - 0.01) <= 0.003)
            if not ok:
                error = f"{name} pool of {n} runs: table {table.round(3).tolist()}, diagonal {diag:.4f}, rate {rate:.4f}"
                failed.update(dict.fromkeys(pool["ops"], error))
        return failed


class MatchLargeK(Workload):
    """match then agree on pairs of N=50,000 string-label files, K in {50, 200, 400}."""

    name = "match_large_k"
    block = 18
    N = 50_000
    REDRAWN = 0.7
    # Any six consecutive ops hold one op of each pair.  Both K=200 pairs are
    # independent, so the median op falls among ops of one kind, not on the
    # edge between planted and independent K=200 ops.
    PAIRS = [(50, True), (400, False), (200, False), (50, False), (400, True), (200, False)]

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        rng = np.random.default_rng(seed)
        self.pairs = []
        for j, (k, planted) in enumerate(self.PAIRS):
            names = np.array([f"cluster-{c:03d}" for c in range(k)])
            a = rng.integers(0, k, self.N)
            if planted:
                relabel = rng.permutation(k)
                b = relabel[a]
                redraw = rng.uniform(size=self.N) < self.REDRAWN
                b[redraw] = rng.integers(0, k, int(redraw.sum()))
                # name a of the first file became name relabel[a] of the second
                rank_a, rank_b = _first_appearance_rank(a, k), _first_appearance_rank(b, k)
                expected = np.empty(k, dtype=np.int64)
                expected[rank_b[relabel] - 1] = rank_a
            else:
                b = rng.integers(0, k, self.N)
                expected = None
            path_a, path_b = self.dir / f"pair{j}_a.txt", self.dir / f"pair{j}_b.txt"
            _write_labels(path_a, names, a)
            _write_labels(path_b, names, b)
            self.pairs.append((k, path_a, path_b, expected))

    def _op(self, i):
        j = i % len(self.pairs)
        return j, MATCHERS[(i // len(self.pairs) + j) % 3]

    def argv(self, i):
        j, matcher = self._op(i)
        _, path_a, path_b, _ = self.pairs[j]
        match_out, agree_out = self.outputs(i)
        return [
            ["match", str(path_a), str(path_b), "--method", matcher,
             "--seed", str(op_seed(self.seed, i)), "--out", str(match_out)],
            ["agree", str(path_a), str(path_b), "--out", str(agree_out)],
        ]

    def outputs(self, i):
        return [self._out("_match.json"), self._out("_agree.json")]

    def check(self, i, blobs):
        j, matcher = self._op(i)
        k, _, _, expected = self.pairs[j]
        out = json.loads(blobs[0])
        _require(out["method"] == matcher and out["seed"] == op_seed(self.seed, i), "config not echoed")
        perm = np.array(out["perm"])
        _require(np.array_equal(np.sort(perm), np.arange(1, k + 1)), f"perm is not a permutation of 1..{k}")
        if expected is not None:
            _require(np.array_equal(perm, expected), "planted relabelling not recovered")
        before = np.array(out["table_before"])
        _require(before.shape == (k, k) and before.sum() == self.N, "table_before wrong")
        agree = json.loads(blobs[1])
        _require(agree["N"] == self.N and agree["K"] == k, "agree N/K wrong")
        _require(0.0 <= agree["diagonal"] <= 1.0 and 0.0 <= agree["rand"] <= 1.0, "index out of range")
        _require(-1.0 <= agree["kappa"] <= 1.0 and -1.0 <= agree["crand"] <= 1.0, "index out of range")


class MmccLloyd(Workload):
    """mmcc --k 4 --rounds 50 on N=2,000 points of a 4-component mixture in d=4."""

    name = "mmcc_lloyd"
    block = 2
    N, D, K = 2000, 4, 4

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        rng = np.random.default_rng(seed)
        centers = 6.0 * np.eye(self.K, self.D)
        self.truth = rng.integers(0, self.K, self.N)
        points = centers[self.truth] + rng.normal(0.0, 1.0, (self.N, self.D))
        self.csv = self.dir / "points.csv"
        self.csv.write_text(
            "\n".join(",".join(f"{x:.6f}" for x in row) for row in points) + "\n",
            encoding="utf-8",
        )

    def _matcher(self, i):
        return MATCHERS[i % 2]

    def argv(self, i):
        probs, stats = self.outputs(i)
        return [[
            "mmcc", str(self.csv), "--k", str(self.K), "--rounds", "50",
            "--matcher", self._matcher(i), "--seed", str(op_seed(self.seed, i)),
            "--probs-out", str(probs), "--stats-out", str(stats),
        ]]

    def outputs(self, i):
        return [self._out("_probs.csv"), self._out("_stats.json")]

    def check(self, i, blobs):
        probs = np.array([[float(x) for x in line.split(",")] for line in blobs[0].decode().splitlines()])
        _require(probs.shape == (len(self.truth), self.K), f"probs shape {probs.shape}")
        _require(np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-5 * self.K, "probability rows do not sum to 1")
        stats = json.loads(blobs[1])
        _require(stats["k"] == self.K and stats["rounds"] == 50, "config not echoed")
        _require(stats["matcher"] == self._matcher(i) and stats["seed"] == op_seed(self.seed, i), "config not echoed")
        _require(0.0 <= stats["H"] <= math.log2(self.K) + 1e-9, f"H={stats['H']} outside [0, log2 k]")
        ari = adjusted_rand(probs.argmax(axis=1), self.truth)
        _require(ari >= 0.9, f"majority labelling adjusted Rand {ari:.3f} < 0.9")


WORKLOADS = {w.name: w for w in (SimGrid, OutlierK2, MatchLargeK, MmccLloyd)}
