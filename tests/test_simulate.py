import dataclasses
import itertools
import math

import numpy as np
import pytest

import truematch.simulate

from truematch import (
    CellResult,
    CicStats,
    LabelVector,
    MatchingTable,
    OutlierScenarioResult,
    ProbMatrix,
    SimulationConfig,
    adjusted_rand,
    build_truth,
    cic_stats,
    cohen_kappa,
    crosstab,
    derive_cell_seed,
    diagonal_fraction,
    enforce_sizes,
    fictitious_cluster,
    grid_sweep,
    majority_labels,
    match_tracemax,
    match_truematch,
    match_truematch_heuristic,
    outlier_scenario,
    rand_index,
    resolve_matcher,
    simulate_cell,
)


class TestFictitiousCluster:
    def test_kappa_one_reproduces_truth(self):
        truth = build_truth(100, 0.3)
        out = fictitious_cluster(truth, 1.0, np.random.default_rng(0))
        assert out.labels.tolist() == truth.tolist()

    def test_kappa_zero_balanced_agreement(self):
        truth = build_truth(100, 0.5)
        rng = np.random.default_rng(1)
        agree = [
            float(np.mean(fictitious_cluster(truth, 0.0, rng).labels == truth))
            for _ in range(400)
        ]
        assert abs(float(np.mean(agree)) - 0.5) <= 0.02

    def test_kappa_zero_marginal_preserving(self):
        # at zero reliability the class-2 rate stays p regardless of the truth
        truth = build_truth(100, 0.9)
        rng = np.random.default_rng(2)
        rates = [
            float(np.mean(fictitious_cluster(truth, 0.0, rng, p=0.9).labels == 2))
            for _ in range(400)
        ]
        assert abs(float(np.mean(rates)) - 0.9) <= 0.02

    def test_explicit_population_rate_used_for_subsets(self):
        subset = np.ones(50, dtype=np.int64)  # all class 1
        rng = np.random.default_rng(3)
        rates = [
            float(np.mean(fictitious_cluster(subset, 0.0, rng, p=0.9).labels == 2))
            for _ in range(200)
        ]
        assert abs(float(np.mean(rates)) - 0.9) <= 0.03

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            fictitious_cluster(np.array([1, 2, 3]), 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("p", [0.001, 0.999])
def test_build_truth_needs_both_classes(p):
    with pytest.raises(ValueError, match="leaves no room for two classes among 100 cases"):
        build_truth(100, p)


class TestEnforceSizes:
    def test_moves_from_big_to_small(self):
        labels = np.r_[np.ones(60, dtype=np.int64), np.full(40, 2, dtype=np.int64)]
        fixed = enforce_sizes(labels, (50, 50), np.random.default_rng(4))
        assert int((fixed.labels == 1).sum()) == 50
        assert int((fixed.labels == 2).sum()) == 50
        # only class-1 members were touched
        assert np.all(fixed.labels[60:] == 2)

    def test_noop_when_already_matching(self):
        labels = np.r_[np.ones(99, dtype=np.int64), np.int64(2)]
        fixed = enforce_sizes(labels, (99, 1), np.random.default_rng(5))
        assert fixed.labels.tolist() == labels.tolist()

    def test_seeded_determinism(self):
        labels = np.r_[np.ones(70, dtype=np.int64), np.full(30, 2, dtype=np.int64)]
        a = enforce_sizes(labels, (55, 45), np.random.default_rng(6))
        b = enforce_sizes(labels, (55, 45), np.random.default_rng(6))
        assert a.labels.tolist() == b.labels.tolist()

    def test_bad_target_rejected(self):
        labels = np.array([1, 2, 1])
        with pytest.raises(ValueError):
            enforce_sizes(labels, (1, 1), np.random.default_rng(0))
        # sums to the length, so only the bound rejects it, for a tuple of plain ints too
        for target in ((-1, 4), [-1, 4], np.array([-1, 4])):
            with pytest.raises(ValueError, match="target must be >= 0, got -1"):
                enforce_sizes(labels, target, np.random.default_rng(0))


def reference_enforce_sizes(judged, target, rng):
    """``enforce_sizes`` as it was written before its class mask was built once."""
    labels = judged.labels.copy()
    surplus_two = int((labels == 2).sum()) - target[1]
    if surplus_two > 0:
        labels[rng.choice(np.flatnonzero(labels == 2), size=surplus_two, replace=False)] = 1
    elif surplus_two < 0:
        labels[rng.choice(np.flatnonzero(labels == 1), size=-surplus_two, replace=False)] = 2
    return LabelVector(labels, 2)


def reference_simulate_cell(cfg):
    """``simulate_cell`` as it was written before its rounds worked on the in-bag
    vectors alone: whole-population alignment, min == max class tests and 2-D
    fancy-index voting."""
    rng = np.random.default_rng(cfg.seed)
    truth = LabelVector(build_truth(cfg.n_cases, cfg.p), 2)
    n = cfg.n_cases
    match_fn = resolve_matcher(cfg.matcher)
    heavy = int(round(cfg.p * n))
    votes = np.zeros((n, 2), dtype=np.int64)
    voted = np.zeros(n, dtype=bool)
    accepted = 0
    while accepted < cfg.rounds:
        for _ in range(truematch.simulate.REDRAW_BUDGET):
            picks = rng.integers(0, n, size=n)
            in_bag = np.bincount(picks, minlength=n).nonzero()[0]
            judged = fictitious_cluster(truth, cfg.kappa, rng, p=cfg.p)
            if cfg.fixed:
                judged = reference_enforce_sizes(judged, (n - heavy, heavy), rng)
            judged_bag = judged.labels[in_bag]
            if judged_bag.min() == judged_bag.max():
                continue
            if accepted == 0:
                aligned = judged.labels
                break
            has_votes = voted[in_bag]
            if not has_votes.any():
                continue
            ref_cases = in_bag[has_votes]
            ref = majority_labels(votes[ref_cases], rng)
            if ref.labels.min() == ref.labels.max():
                continue
            table = crosstab(ref, LabelVector(judged.labels[ref_cases], 2), k=2)
            aligned = match_fn(table, rng).perm[judged.labels - 1]
            break
        else:
            break
        votes[in_bag, aligned[in_bag] - 1] += 1
        voted[in_bag] = True
        accepted += 1
    if voted.any():
        active = votes[voted]
        stats = cic_stats(ProbMatrix(active / active.sum(axis=1, keepdims=True)))
        final = majority_labels(active, rng)
        degenerate = accepted < cfg.rounds or bool(final.labels.min() == final.labels.max())
    else:
        stats = CicStats(*[float("nan")] * 4)
        degenerate = True
    return CellResult(
        p=cfg.p, kappa=cfg.kappa, uncertainty=stats.uncertainty, information=stats.information, cic=stats.cic,
        degenerate=degenerate, fixed=cfg.fixed, matcher=cfg.matcher, seed=cfg.seed,
    )


def assert_same_cell(got, want):
    for field in dataclasses.fields(CellResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)), (field.name, a, b, want)


class TestSimulateCellOracle:
    """The round loop against its earlier whole-population form, draw for draw."""

    @pytest.mark.parametrize("seed", [5, 2**33 + 1])
    def test_sim_grid_cells(self, seed):
        for p, kappa, matcher, fixed in itertools.product(
            (0.5, 0.7, 0.9), (0.0, 0.5, 1.0), ("truematch", "tracemax"), (False, True)
        ):
            cfg = SimulationConfig(p=p, kappa=kappa, rounds=60, matcher=matcher, fixed=fixed, seed=seed)
            assert_same_cell(simulate_cell(cfg), reference_simulate_cell(cfg))

    def test_starved_cell(self):
        # one class-1 case in 100: most bootstraps miss it, and the cell runs out of redraws
        cfg = SimulationConfig(p=0.99, kappa=0.0, rounds=60, matcher="tracemax", seed=3)
        cell = simulate_cell(cfg)
        assert cell.degenerate
        assert_same_cell(cell, reference_simulate_cell(cfg))

    def test_callable_matcher(self):
        for fixed in (False, True):
            cfg = SimulationConfig(p=0.7, kappa=0.5, rounds=60, matcher=match_truematch_heuristic, fixed=fixed, seed=6)
            assert_same_cell(simulate_cell(cfg), reference_simulate_cell(cfg))


class TestSimulateCell:
    def test_bit_identical_under_same_config(self):
        cfg = SimulationConfig(p=0.7, kappa=0.5, rounds=150, seed=77)
        assert simulate_cell(cfg) == simulate_cell(cfg)

    def test_perfect_clusterer_crisp(self):
        cfg = SimulationConfig(p=0.5, kappa=1.0, rounds=200, seed=8)
        cell = simulate_cell(cfg)
        assert cell.uncertainty <= 0.05
        assert cell.cic >= 0.9
        assert not cell.degenerate

    def test_fixed_mode_keeps_exact_split(self):
        cfg = SimulationConfig(p=0.9, kappa=1.0, rounds=150, fixed=True, seed=9)
        cell = simulate_cell(cfg)
        assert cell.uncertainty <= 0.05
        assert not cell.degenerate

    def test_starved_cell_is_degenerate_with_nan_statistics(self, monkeypatch):
        # no redraw budget: no round is accepted and no case votes
        monkeypatch.setattr(truematch.simulate, "REDRAW_BUDGET", 0)
        cfg = SimulationConfig(p=0.7, kappa=0.5, rounds=5, fixed=True, matcher="tracemax", seed=4)
        cell = simulate_cell(cfg)
        assert np.isnan([cell.uncertainty, cell.information, cell.cic]).all()
        assert cell.degenerate is True
        assert (cell.p, cell.kappa, cell.fixed, cell.matcher, cell.seed) == (0.7, 0.5, True, "tracemax", 4)

    @pytest.mark.parametrize("fixed", [False, True], ids=["non-fixed", "fixed"])
    def test_rounds_reach_the_traced_module_names(self, monkeypatch, fixed):
        # perfbench's per-layer tracer wraps these names of truematch.simulate
        calls = {name: [] for name in ("fictitious_cluster", "enforce_sizes", "crosstab", "majority_labels")}
        for name, record in calls.items():
            def counted(*args, _fn=getattr(truematch.simulate, name), _record=record, **kwargs):
                _record.append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(truematch.simulate, name, counted)
        rounds = 40
        cell = simulate_cell(SimulationConfig(p=0.7, kappa=0.5, rounds=rounds, fixed=fixed, seed=3))
        assert not cell.degenerate
        judged = len(calls["fictitious_cluster"])
        assert judged >= rounds
        assert len(calls["enforce_sizes"]) == (judged if fixed else 0)
        assert len(calls["crosstab"]) == rounds - 1  # every accepted round after the first
        # a reference for each accepted round after the first, the final majority, and redrawn rounds
        assert rounds <= len(calls["majority_labels"]) <= judged + 1
        # the loop hands them checked vectors, which they take as they are
        handed = [args[0] for args in calls["fictitious_cluster"] + calls["enforce_sizes"]]
        handed += [vector for args in calls["crosstab"] for vector in args]
        assert handed and all(type(vector) is LabelVector for vector in handed)

    def test_random_clusterer_uncertain_both_matchers(self):
        cells = {
            matcher: simulate_cell(
                SimulationConfig(p=0.5, kappa=0.0, rounds=300, matcher=matcher, seed=10)
            )
            for matcher in ("truematch", "tracemax")
        }
        assert abs(cells["truematch"].uncertainty - cells["tracemax"].uncertainty) <= 0.1
        for cell in cells.values():
            assert cell.uncertainty >= 0.9

    def test_skewed_random_contrast(self):
        tm = simulate_cell(SimulationConfig(p=0.9, kappa=0.0, rounds=300, matcher="truematch", seed=11))
        trace = simulate_cell(SimulationConfig(p=0.9, kappa=0.0, rounds=300, matcher="tracemax", seed=11))
        assert tm.uncertainty - trace.uncertainty >= 0.3

    def test_heuristic_behaves_like_exact_matcher_on_grid(self):
        # the drop rule keeps tables 2-class, where the greedy and exact
        # residual matchers act identically in distribution
        exact = simulate_cell(SimulationConfig(p=0.9, kappa=0.0, rounds=300, seed=12))
        greedy = simulate_cell(
            SimulationConfig(p=0.9, kappa=0.0, rounds=300, matcher="truematch-heuristic", seed=12)
        )
        assert abs(exact.uncertainty - greedy.uncertainty) <= 0.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(p=0.0, kappa=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(p=0.5, kappa=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(p=0.5, kappa=0.5, rounds=1)
        for name in ("n_cases", "rounds", "seed"):
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                SimulationConfig(p=0.5, kappa=0.5, **{name: 10.5})


class TestGridSweep:
    def test_singleton_grid_equals_single_cell(self):
        base = SimulationConfig(p=0.5, kappa=0.5, rounds=100, seed=13)
        (cell,) = grid_sweep([0.6], [0.4], base)
        direct = simulate_cell(
            SimulationConfig(p=0.6, kappa=0.4, rounds=100, seed=derive_cell_seed(13, 0, 0))
        )
        assert cell == direct

    def test_row_major_order_and_shape(self):
        base = SimulationConfig(p=0.5, kappa=0.5, rounds=60, seed=14)
        cells = grid_sweep([0.4, 0.6], [0.1, 0.9], base)
        assert [(c.p, c.kappa) for c in cells] == [(0.4, 0.1), (0.4, 0.9), (0.6, 0.1), (0.6, 0.9)]

    def test_cell_seeds_differ(self):
        seeds = {derive_cell_seed(5, i, j) for i in range(5) for j in range(5)}
        assert len(seeds) == 25

    def test_empty_grid_rejected(self):
        base = SimulationConfig(p=0.5, kappa=0.5, rounds=60, seed=15)
        with pytest.raises(ValueError):
            grid_sweep([], [0.5], base)


def reference_outlier_scenario(runs, matcher, rng, n_cases):
    """Oracle for ``outlier_scenario``: a fresh table and all four
    agreement indices on every run, accumulated in the same order."""
    match_fn = resolve_matcher(matcher)
    table_acc = np.zeros((2, 2), dtype=float)
    diag_acc = kappa_acc = rand_acc = crand_acc = 0.0
    coincide = 0
    for _ in range(runs):
        same = int(rng.integers(n_cases) == rng.integers(n_cases))
        table = MatchingTable([[n_cases - 2 + same, 1 - same], [1 - same, same]])
        matched = match_fn(table, rng).matched_table
        table_acc += matched.counts
        diag_acc += diagonal_fraction(matched)
        kappa_acc += cohen_kappa(matched)
        rand_acc += rand_index(matched)
        crand_acc += adjusted_rand(matched)
        coincide += same
    return OutlierScenarioResult(
        matcher=matcher if isinstance(matcher, str) else matcher.__name__,
        runs=runs,
        table_share=table_acc / (runs * n_cases),
        diagonal=diag_acc / runs,
        kappa=kappa_acc / runs,
        rand=rand_acc / runs,
        crand=crand_acc / runs,
        random_match_rate=coincide / runs,
    )


def coin_flip_matcher(table, rng):
    """A custom matcher: tracemax or truematch, by a fair draw."""
    return (match_tracemax if rng.random() < 0.5 else match_truematch)(table, rng)


class TestOutlierScenario:
    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic", coin_flip_matcher],
                             ids=lambda m: getattr(m, "__name__", m))
    @pytest.mark.parametrize("n_cases", [2, 3, 100])
    def test_bit_identical_to_scoring_every_run(self, matcher, n_cases):
        for seed in range(3):
            for runs in (1, 7, 200):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = outlier_scenario(runs, matcher, got_rng, n_cases=n_cases)
                want = reference_outlier_scenario(runs, matcher, want_rng, n_cases)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                assert got.table_share.tolist() == want.table_share.tolist()
                for field in ("matcher", "runs", "diagonal", "kappa", "rand", "crand", "random_match_rate"):
                    assert getattr(got, field) == getattr(want, field), (field, seed, runs)

    def test_tracemax_quick(self):
        res = outlier_scenario(2000, "tracemax", np.random.default_rng(16))
        np.testing.assert_allclose(
            res.table_share * 100, [[98.01, 0.99], [0.99, 0.01]], atol=0.75
        )
        assert res.diagonal == pytest.approx(0.9802, abs=0.01)

    def test_truematch_quick(self):
        res = outlier_scenario(2000, "truematch", np.random.default_rng(17))
        assert res.diagonal == pytest.approx(0.0298, abs=0.02)
        assert res.rand == pytest.approx(0.961, abs=0.01)
        assert abs(res.crand) <= 0.01
        assert res.random_match_rate == pytest.approx(0.01, abs=0.006)

    def test_runs_validated(self):
        with pytest.raises(ValueError):
            outlier_scenario(0, "truematch", np.random.default_rng(0))
        with pytest.raises(ValueError, match="runs must be a whole number"):
            outlier_scenario(2.5, "truematch", np.random.default_rng(0))

    def test_n_cases_validated(self):
        with pytest.raises(ValueError, match="n_cases must be >= 2"):
            outlier_scenario(3, "truematch", np.random.default_rng(0), n_cases=1)
        with pytest.raises(ValueError, match="n_cases must be a whole number"):
            outlier_scenario(3, "truematch", np.random.default_rng(0), n_cases=10.5)
