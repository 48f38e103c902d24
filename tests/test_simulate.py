import numpy as np
import pytest

import truematch.simulate

from truematch import (
    SimulationConfig,
    build_truth,
    derive_cell_seed,
    enforce_sizes,
    fictitious_cluster,
    grid_sweep,
    outlier_scenario,
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
        with pytest.raises(ValueError):
            enforce_sizes(labels, (-1, 4), np.random.default_rng(0))


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


class TestOutlierScenario:
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
