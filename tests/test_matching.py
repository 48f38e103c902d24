import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from truematch import (
    MatchedPair,
    MatchingTable,
    aligned_table,
    apply_permutation,
    brute_force_assignment,
    crosstab,
    match_tracemax,
    match_truematch,
    match_truematch_heuristic,
    resolve_matcher,
    residuals,
    solve_assignment,
)
from truematch.labels import LabelVector

MISSED = MatchingTable([[98, 1], [1, 0]])
MATCHED = MatchingTable([[99, 0], [0, 1]])

ORIENT_A = ((1, 98), (0, 1))
ORIENT_B = ((1, 0), (98, 1))


def table_key(result):
    return tuple(map(tuple, result.matched_table.counts))


def reference_presentation(table, perm, draws, method, pair_order=None, pair_signed=None):
    """Oracle for the presentation attributes of a match: the pairs,
    matched table and row/column orders built eagerly in one function
    from the assignment ``perm`` and the per-row pair draws.  The
    heuristic passes its own selection order and residuals."""
    k = table.k
    rows = np.arange(k)
    cols = np.argsort(perm)  # perm[c] is the row of column c, so row r holds column cols[r]
    s_vals = residuals(table).signed[rows, cols]
    n_vals = table.counts[rows, cols]
    present = np.lexsort((draws, -s_vals, -n_vals))
    row_order = rows[present]
    col_order = cols[present]
    matched = table.counts[np.ix_(row_order, col_order)]
    if pair_order is None:
        if method == "tracemax":
            pair_order = np.lexsort((draws, -n_vals))
        else:
            pair_order = np.lexsort((draws, -s_vals))
    reported_s = s_vals if pair_signed is None else pair_signed
    pairs = tuple(
        MatchedPair(int(rows[i]) + 1, int(cols[i]) + 1, float(reported_s[i]), int(n_vals[i]))
        for i in pair_order
    )
    return pairs, matched, row_order + 1, col_order + 1


def presentation_tables():
    """Random tables with K from 1 to 6, many of them tie-heavy."""
    rng = np.random.default_rng(2024)
    tables = []
    for k in range(1, 7):
        tables.append(np.full((k, k), 4))  # all-equal counts
        tables.append(3 * np.eye(k, dtype=np.int64))
        tables += [rng.integers(0, 2, (k, k)) for _ in range(8)]  # {0, 1} counts
        tables += [rng.integers(0, 30, (k, k)) for _ in range(8)]
        padded = rng.integers(0, 9, (k, k))
        padded[:, -1] = 0  # an unused column label, as canonical_pair pads
        tables.append(padded)
    return [MatchingTable(t) for t in tables if t.sum() > 0]


def shuffle_pair_seeds(k=2):
    """One generator seed for each of the K!^2 (row, column) shuffle pairs
    that the assignment matchers draw first."""
    seeds = {}
    for seed in itertools.count():
        rng = np.random.default_rng(seed)
        seeds.setdefault((tuple(rng.permutation(k)), tuple(rng.permutation(k))), seed)
        if len(seeds) == math.factorial(k) ** 2:
            return [seeds[key] for key in sorted(seeds)]


SHUFFLE_PAIR_SEEDS = shuffle_pair_seeds()

# the score each assignment matcher maximizes
ASSIGNMENT_SCORES = {
    match_tracemax: lambda table: table.counts.astype(float),
    match_truematch: lambda table: residuals(table).signed,
}


def exact_score(counts, matcher):
    """The score ``matcher`` maximizes, in rationals."""
    if matcher is match_tracemax:
        return [[Fraction(x) for x in row] for row in counts]
    n = sum(map(sum, counts))
    rows, cols = [sum(r) for r in counts], [sum(c) for c in zip(*counts)]

    def signed(i, j):
        expected = Fraction(rows[i] * cols[j], n)
        return 0 if expected == 0 else (counts[i][j] - expected) * abs(counts[i][j] - expected) / expected

    return [[signed(i, j) for j in range(len(cols))] for i in range(len(rows))]


def two_by_two_tables(top):
    """Every 2x2 count table with entries 0..top, except the all-zero one."""
    return [MatchingTable(np.reshape(cells, (2, 2))) for cells in itertools.product(range(top + 1), repeat=4)
            if any(cells)]


def solver_row_to_col(result, score):
    """The assignment the compiled solver picks on the shuffled score that
    ``result`` recorded, mapped back to the original rows and columns."""
    row_shuffle = np.array(result.seed_trace["row_shuffle"])
    col_shuffle = np.array(result.seed_trace["col_shuffle"])
    shuffled = solve_assignment(-score[np.ix_(row_shuffle, col_shuffle)]) - 1
    row_to_col = np.empty(2, dtype=np.int64)
    row_to_col[row_shuffle] = col_shuffle[shuffled]
    return row_to_col


class TestTwoByTwoDecision:
    """At K=2 the assignment matchers decide without calling the solver;
    they must still return exactly the solver's assignment."""

    @pytest.mark.parametrize("matcher", list(ASSIGNMENT_SCORES), ids=lambda f: f.__name__)
    def test_every_small_table_matches_the_solver(self, matcher):
        score_of = ASSIGNMENT_SCORES[matcher]
        shuffles = set()
        for table in two_by_two_tables(6):
            score = score_of(table)
            for seed in SHUFFLE_PAIR_SEEDS:
                result = matcher(table, np.random.default_rng(seed))
                shuffles.add((tuple(result.seed_trace["row_shuffle"]), tuple(result.seed_trace["col_shuffle"])))
                assert result.row_to_col.tolist() == solver_row_to_col(result, score).tolist(), table.counts
        assert len(shuffles) == 4

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 10**6), min_size=4, max_size=4).filter(any),
        st.integers(0, 2**32 - 1),
    )
    def test_large_counts_match_the_solver(self, cells, seed):
        table = MatchingTable(np.reshape(cells, (2, 2)))
        for matcher, score_of in ASSIGNMENT_SCORES.items():
            result = matcher(table, np.random.default_rng(seed))
            assert result.row_to_col.tolist() == solver_row_to_col(result, score_of(table)).tolist()

    def test_tie_the_solver_swaps(self):
        # a + d == b + c and a < b: the solver swaps, where the lexicographic
        # brute force keeps the identity, so the rule follows the solver
        score = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert solve_assignment(-score).tolist() == [2, 1]
        assert brute_force_assignment(-score).tolist() == [1, 2]
        identity_shuffles = SHUFFLE_PAIR_SEEDS[0]
        result = match_tracemax(MatchingTable([[0, 1], [0, 1]]), np.random.default_rng(identity_shuffles))
        assert result.seed_trace["row_shuffle"] == result.seed_trace["col_shuffle"] == [0, 1]
        assert result.row_to_col.tolist() == [1, 0]

    @pytest.mark.parametrize("matcher", list(ASSIGNMENT_SCORES), ids=lambda f: f.__name__)
    def test_every_tie_splits_evenly_over_the_shuffles(self, matcher):
        # exact traces of the identity and the swap, in rationals
        def traces(counts):
            score = exact_score(counts, matcher)
            return score[0][0] + score[1][1], score[0][1] + score[1][0]

        tied = 0
        for table in two_by_two_tables(4):
            identity, swap = traces(table.counts.tolist())
            if identity != swap:
                continue
            tied += 1
            results = [matcher(table, np.random.default_rng(seed)) for seed in SHUFFLE_PAIR_SEEDS]
            assert Counter(tuple(r.perm) for r in results) == {(1, 2): 2, (2, 1): 2}, table.counts
            # under either column shuffle, the row shuffle alone decides
            by_cols = {}
            for r in results:
                by_cols.setdefault(tuple(r.seed_trace["col_shuffle"]), set()).add(tuple(r.perm))
            assert all(len(picked) == 2 for picked in by_cols.values()), table.counts
        # a + d == b + c for tracemax; ad == bc for truematch
        assert tied == {match_tracemax: 84, match_truematch: 112}[matcher]


class TestTwoByTwoStream:
    """A K=2 match draws exactly its documented values from the generator
    and returns int64 fields, on every small table, empty rows included."""

    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_draws_fields_and_pair_order(self, matcher):
        fn = resolve_matcher(matcher)
        ties = 0
        for table in two_by_two_tables(4):
            for seed in SHUFFLE_PAIR_SEEDS + [101, 202]:
                rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
                res = fn(table, rng)
                if matcher == "truematch-heuristic":
                    # a draw among the cells tied on (residual, count), only when there are several
                    signed = residuals(table).signed
                    top = signed == signed.max()
                    flat = np.flatnonzero(top & (table.counts == table.counts[top].max()))
                    assert res.seed_trace["tie_draws"] == ([int(expected.choice(flat))] if flat.size > 1 else [])
                    ties += flat.size > 1
                    assert_heuristic_matches_reference(table.counts, seed)
                    pair_order = reference_heuristic(table, np.random.default_rng(seed))[3]
                else:
                    assert res.seed_trace["row_shuffle"] == expected.permutation(2).tolist()
                    assert res.seed_trace["col_shuffle"] == expected.permutation(2).tolist()
                    score = ASSIGNMENT_SCORES[fn](table)
                    pair_order = np.lexsort((res.pair_draws, -score[np.arange(2), res.row_to_col]))
                assert res.pair_draws.tolist() == res.seed_trace["pair_draws"] == expected.uniform(size=2).tolist()
                assert rng.bit_generator.state == expected.bit_generator.state, (table.counts, seed)
                for field in (res.perm, res.row_to_col, res.pair_order):
                    assert field.dtype == np.int64 and field.shape == (2,)
                assert res.perm.tolist() == (np.argsort(res.row_to_col) + 1).tolist()
                assert res.pair_order.tolist() == pair_order.tolist(), (table.counts, seed)
        assert ties > 0 or matcher != "truematch-heuristic"


# Tied 3x3 tables and how often each assignment matcher picks their
# co-optimal assignments over all 36 shuffle pairs, most picked first.  The
# unequal splits are facts of shuffle-then-solve, not a target; each zero is
# a co-optimal assignment that float rounding puts below another.
TIED_3X3 = {
    match_tracemax: {
        ((1, 1, 2), (3, 0, 3), (2, 1, 2)): [18, 12, 6],
        ((2, 0, 3), (0, 3, 2), (0, 0, 1)): [21, 15],
        ((2, 1, 3), (2, 1, 0), (2, 1, 2)): [24, 12],
        ((1, 1, 2), (2, 2, 2), (3, 3, 3)): [18, 18],
        ((3, 3, 3), (2, 1, 2), (1, 1, 1)): [9, 9, 9, 9],
        ((1, 1, 1), (1, 1, 1), (1, 1, 1)): [6] * 6,
        ((1, 1, 0), (1, 1, 0), (0, 0, 2)): [18, 18],
        ((1, 0, 1), (0, 1, 1), (1, 1, 0)): [18, 18],
    },
    match_truematch: {
        ((1, 0, 2), (1, 1, 3), (3, 2, 0)): [24, 12],
        ((1, 2, 3), (0, 1, 1), (1, 3, 1)): [24, 12],
        ((0, 1, 1), (1, 0, 3), (1, 3, 2)): [36, 0, 0],
        ((2, 3, 1), (2, 3, 3), (1, 2, 2)): [36, 0],
        ((2, 0, 3), (3, 2, 1), (3, 2, 1)): [18, 18],
        ((1, 1, 1), (1, 1, 1), (1, 1, 1)): [6] * 6,
        ((1, 1, 0), (1, 1, 0), (0, 0, 2)): [18, 18],
        ((1, 0, 1), (0, 1, 1), (1, 1, 0)): [18, 18],
    },
}
PERMS_3 = list(itertools.permutations(range(3)))
# (sigma, tau): the relabelled table's cell (i, j) is the original's (sigma[i], tau[j])
RELABELLINGS_3 = [((1, 2, 0), (0, 1, 2)), ((0, 1, 2), (2, 0, 1)), ((2, 1, 0), (1, 0, 2)), ((1, 0, 2), (1, 0, 2))]


def picks_over_shuffles(matcher, counts):
    """How often ``matcher`` picks each assignment (row -> column, 0-based)
    over one seed per 3x3 shuffle pair."""
    table = MatchingTable(counts)
    return Counter(tuple(matcher(table, np.random.default_rng(s)).row_to_col.tolist()) for s in K3_SEEDS)


def relabel(picks, sigma, tau):
    """``picks`` of a table as assignments of its (sigma, tau) relabelling."""
    tau_inv = np.argsort(tau)
    return Counter({tuple(int(tau_inv[a[r]]) for r in sigma): n for a, n in picks.items()})


K3_SEEDS = shuffle_pair_seeds(3)


class TestThreeByThreeTies:
    """The choice among tied K=3 assignments, exhaustively over the 36
    shuffle pairs: co-optimal, equivariant and even on symmetric orbits,
    but not uniform."""

    @pytest.mark.parametrize("matcher", list(TIED_3X3), ids=lambda f: f.__name__)
    def test_every_pick_is_co_optimal(self, matcher):
        assert len(K3_SEEDS) == 36
        for counts, pinned in TIED_3X3[matcher].items():
            score = exact_score(counts, matcher)
            traces = {a: sum(score[r][c] for r, c in enumerate(a)) for a in PERMS_3}
            co_optimal = {a for a, trace in traces.items() if trace == max(traces.values())}
            picks = picks_over_shuffles(matcher, counts)
            assert set(picks) <= co_optimal, counts
            assert sorted((picks[a] for a in co_optimal), reverse=True) == pinned, counts

    @pytest.mark.parametrize("matcher", list(TIED_3X3), ids=lambda f: f.__name__)
    def test_relabelling_relabels_the_picks(self, matcher):
        for counts in TIED_3X3[matcher]:
            picks = picks_over_shuffles(matcher, counts)
            for sigma, tau in RELABELLINGS_3:
                moved = np.asarray(counts)[np.ix_(sigma, tau)]
                assert picks_over_shuffles(matcher, moved) == relabel(picks, sigma, tau), (counts, sigma, tau)

    @pytest.mark.parametrize("matcher", list(TIED_3X3), ids=lambda f: f.__name__)
    def test_symmetric_assignments_picked_equally(self, matcher):
        moving = 0
        for counts in TIED_3X3[matcher]:
            arr = np.asarray(counts)
            picks = picks_over_shuffles(matcher, counts)
            for sigma, tau in itertools.product(PERMS_3, PERMS_3):
                if np.array_equal(arr[np.ix_(sigma, tau)], arr):
                    assert relabel(picks, sigma, tau) == picks, (counts, sigma, tau)
                    moving += any(relabel(Counter([a]), sigma, tau) != Counter([a]) for a in picks)
        # the corpus holds symmetries that map a picked assignment onto another
        assert moving > 0


class TestTracemax:
    def test_missed_outliers_identity(self):
        res = match_tracemax(MISSED, np.random.default_rng(0))
        assert res.perm.tolist() == [1, 2]
        assert res.matched_table.counts.trace() == 98
        assert table_key(res) == ((98, 1), (1, 0))

    def test_matched_outliers_identity(self):
        res = match_tracemax(MATCHED, np.random.default_rng(0))
        assert res.perm.tolist() == [1, 2]
        assert res.matched_table.counts.trace() == 100

    def test_symmetric_tie_uniform(self):
        rng = np.random.default_rng(77)
        table = MatchingTable([[5, 5], [5, 5]])
        rate = np.mean([match_tracemax(table, rng).perm.tolist() == [1, 2] for _ in range(2000)])
        assert abs(rate - 0.5) <= 0.05


class TestTruematch:
    def test_missed_outliers_always_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(64):
            assert match_truematch(MISSED, rng).perm.tolist() == [2, 1]

    def test_missed_outliers_two_orientations(self):
        rng = np.random.default_rng(13)
        seen = Counter(table_key(match_truematch(MISSED, rng)) for _ in range(2000))
        assert set(seen) == {ORIENT_A, ORIENT_B}
        assert abs(seen[ORIENT_A] / 2000 - 0.5) <= 0.05

    def test_matched_outliers_identity(self):
        # residual diagonal 0.01 + 98.01 dominates the off-diagonal option
        res = match_truematch(MATCHED, np.random.default_rng(3))
        assert res.perm.tolist() == [1, 2]
        assert table_key(res) == ((99, 0), (0, 1))

    def test_perfect_agreement_identity(self):
        table = MatchingTable(np.diag([10, 10, 10]))
        res = match_truematch(table, np.random.default_rng(4))
        assert res.perm.tolist() == [1, 2, 3]

    def test_swap_has_higher_residual_trace(self):
        signed = residuals(MISSED).signed
        identity_trace = signed[0, 0] + signed[1, 1]
        swap_trace = signed[0, 1] + signed[1, 0]
        assert swap_trace == pytest.approx(2.0202e-4, rel=1e-3)
        assert identity_trace == pytest.approx(-0.0100, abs=1e-4)
        assert swap_trace > identity_trace

    def test_pairs_sorted_by_signed_dev(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            counts = rng.integers(0, 30, (k, k))
            if counts.sum() == 0:
                continue
            res = match_truematch(MatchingTable(counts), rng)
            devs = [p.signed_dev for p in res.pairs]
            assert devs == sorted(devs, reverse=True)

    def test_k1_trivial(self):
        res = match_truematch(MatchingTable([[7]]), np.random.default_rng(0))
        assert res.perm.tolist() == [1]
        assert res.matched_table.counts.tolist() == [[7]]


def reference_heuristic(table, rng):
    """The greedy loop as a validated table per subtable: gather the live rows
    and columns, build a ``MatchingTable`` and compute its ``residuals``."""
    k = table.k
    live_rows, live_cols = np.arange(k), np.arange(k)
    row_to_col, pair_order = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    pair_signed = np.zeros(k)
    tie_draws = []
    for step in range(k - 1):
        sub = table.counts[np.ix_(live_rows, live_cols)]
        signed = residuals(MatchingTable(sub)).signed if sub.sum() else np.zeros(sub.shape)
        top = signed == signed.max()
        top &= sub == sub[top].max()
        flat = np.flatnonzero(top)
        if flat.size == 1:
            pick = int(flat[0])
        else:
            pick = int(rng.choice(flat))
            tie_draws.append(pick)
        r, c = divmod(pick, live_cols.size)
        row_to_col[live_rows[r]] = live_cols[c]
        pair_signed[live_rows[r]] = signed[r, c]
        pair_order[step] = live_rows[r]
        live_rows, live_cols = np.delete(live_rows, r), np.delete(live_cols, c)
    row_to_col[live_rows[0]] = live_cols[0]
    pair_order[k - 1] = live_rows[0]
    return np.argsort(row_to_col) + 1, tie_draws, rng.uniform(size=k), pair_order, pair_signed


def assert_heuristic_matches_reference(counts, seed):
    table = MatchingTable(counts)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    res = match_truematch_heuristic(table, rng)
    perm, tie_draws, draws, pair_order, pair_signed = reference_heuristic(table, reference_rng)
    assert res.perm.tolist() == perm.tolist()
    k = table.k
    cells = k * (k + 1) * (2 * k + 1) // 6 - 1
    assert res.seed_trace == {"tie_draws": tie_draws, "residual_cells": cells, "pair_draws": draws.tolist()}
    assert res.pair_order.tobytes() == pair_order.tobytes()
    assert res.pair_signed.tobytes() == pair_signed.tobytes()  # signed zeros included
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@st.composite
def heuristic_tables(draw):
    """K=2-9 tables from a few values (ties), with zeroed rows, columns and blocks."""
    k = draw(st.integers(2, 9))
    values = draw(st.sampled_from([(0, 1), (0, 1, 2), (0, 3, 7), (0, 1, 2, 50), (1, 4)]))
    counts = np.array(draw(st.lists(st.sampled_from(values), min_size=k * k, max_size=k * k)))
    counts = counts.reshape(k, k)
    counts[draw(st.lists(st.integers(0, k - 1), max_size=k // 2))] = 0
    counts[:, draw(st.lists(st.integers(0, k - 1), max_size=k // 2))] = 0
    if draw(st.booleans()):  # a zero block: the subtables left once its complement is used up
        cut = draw(st.integers(1, k - 1))
        counts[cut:, cut:] = 0
    assume(counts.sum() > 0)
    return counts


@st.composite
def mostly_zero_tables(draw):
    """K=3-40 tables, from dense to mostly zero, so that the heuristic starts on either
    pass: few values (ties), zero-padded rows and columns, and a zero block, whose
    subtables run out of positive residuals mid-run and hand over to the dense pass."""
    k = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nonzero = rng.uniform(size=(k, k)) < draw(st.sampled_from([0.05, 0.15, 0.3, 0.45, 0.55, 0.8]))
    counts = nonzero * rng.choice(draw(st.sampled_from([(1,), (1, 2), (1, 3, 7), (1, 2, 50)])), (k, k))
    counts[k - draw(st.integers(0, k // 3)) :] = 0  # zero-padded last rows
    counts[:, k - draw(st.integers(0, k // 3)) :] = 0  # and columns
    if draw(st.booleans()):
        cut = draw(st.integers(1, k - 1))
        counts[cut:, cut:] = 0
    assume(counts.sum() > 0)
    return counts


def large_k_table(k, planted, seed, n=50_000):
    """An N=50,000 table of two labelings drawn as in perfbench's match_large_k."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, k, n)
    b = rng.permutation(k)[a] if planted else rng.integers(0, k, n)
    if planted:
        redraw = rng.uniform(size=n) < 0.7
        b[redraw] = rng.integers(0, k, int(redraw.sum()))
    return crosstab(a + 1, b + 1, k).counts


class TestHeuristic:
    def test_missed_outliers_same_two_outcomes(self):
        rng = np.random.default_rng(29)
        seen = Counter()
        for _ in range(2000):
            res = match_truematch_heuristic(MISSED, rng)
            assert res.perm.tolist() == [2, 1]
            seen[table_key(res)] += 1
        assert set(seen) == {ORIENT_A, ORIENT_B}
        assert abs(seen[ORIENT_A] / 2000 - 0.5) <= 0.05

    def test_matched_outliers_identity(self):
        res = match_truematch_heuristic(MATCHED, np.random.default_rng(2))
        assert res.perm.tolist() == [1, 2]

    def test_perfect_agreement_identity(self):
        table = MatchingTable(np.eye(5, dtype=int))
        res = match_truematch_heuristic(table, np.random.default_rng(6))
        assert res.perm.tolist() == [1, 2, 3, 4, 5]

    @settings(max_examples=400, deadline=None)
    @given(heuristic_tables(), st.integers(0, 2**32 - 1))
    def test_equals_per_subtable_reference(self, counts, seed):
        assert_heuristic_matches_reference(counts, seed)

    @settings(max_examples=300, deadline=None)
    @given(mostly_zero_tables(), st.integers(0, 2**32 - 1))
    def test_mostly_zero_tables_equal_per_subtable_reference(self, counts, seed):
        assert_heuristic_matches_reference(counts, seed)

    @pytest.mark.parametrize("extra", [0, 1], ids=["half-nonzero", "one-more"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_start_rule_boundary_equals_per_subtable_reference(self, extra, seed):
        # at K=20, exactly half the cells nonzero starts on the nonzero cells; one more starts dense
        rng = np.random.default_rng(seed)
        counts = np.zeros(400, dtype=np.int64)
        counts[rng.permutation(400)[: 200 + extra]] = rng.integers(1, 4, 200 + extra)
        assert_heuristic_matches_reference(counts.reshape(20, 20), seed)

    @pytest.mark.parametrize("k, planted", [(200, False), (400, False), (400, True)])
    def test_large_k_equals_per_subtable_reference(self, k, planted):
        assert_heuristic_matches_reference(large_k_table(k, planted, seed=k + planted), seed=11)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_k120_equals_per_subtable_reference(self, seed):
        # 700 cases on 120 labels, rows 111-120 empty: ties, empty rows and columns
        rng = np.random.default_rng(120)
        a, b = rng.integers(1, 111, 700), rng.integers(1, 121, 700)
        assert_heuristic_matches_reference(crosstab(a, b, 120).counts, seed)

    @pytest.mark.parametrize("size", [2, 3, 4, 7, 64])
    def test_tie_draw_consumes_the_generator_as_choice(self, size):
        # the heuristic draws flat[rng.integers(len(flat))]; the reference above keeps
        # rng.choice(flat): the same element and the same generator state after it,
        # also with a 32-bit half left buffered by the draw before
        for flat in (list(range(5, 5 + 3 * size, 3)), np.arange(5, 5 + 3 * size, 3)):
            for seed in range(2000):
                by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(2):
                    assert by_choice.choice(flat) == flat[by_index.integers(len(flat))]
                    assert by_choice.bit_generator.state == by_index.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9])
    def test_residual_recomputation_count(self, k):
        rng = np.random.default_rng(k)
        counts = rng.integers(0, 12, (k, k)) + np.eye(k, dtype=int)
        res = match_truematch_heuristic(MatchingTable(counts), rng)
        expected = k * (k + 1) * (2 * k + 1) // 6 - 1
        assert res.seed_trace["residual_cells"] == expected


class TestResultShape:
    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_matched_table_is_joint_reorder(self, matcher):
        rng = np.random.default_rng(41)
        fn = resolve_matcher(matcher)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            counts = rng.integers(0, 25, (k, k))
            if counts.sum() == 0:
                continue
            table = MatchingTable(counts)
            res = fn(table, rng)
            rebuilt = counts[np.ix_(res.row_order - 1, res.col_order - 1)]
            assert np.array_equal(rebuilt, res.matched_table.counts)
            # presentation pairs sit on the diagonal, and the column
            # relabeling perm maps each matched column to its row
            for i in range(k):
                assert res.perm[res.col_order[i] - 1] == res.row_order[i]

    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_presentation_matches_reference(self, matcher):
        fn = resolve_matcher(matcher)
        heuristic = matcher == "truematch-heuristic"
        # every small 2x2 table too: ties in counts and in scores, empty rows and columns
        for i, table in enumerate(presentation_tables() + two_by_two_tables(4)):
            for seed in range(3):
                res = fn(table, np.random.default_rng([i, seed]))
                draws = np.asarray(res.seed_trace["pair_draws"])
                assert draws.size == table.k
                pairs, matched, row_order, col_order = reference_presentation(
                    table, res.perm, draws, matcher,
                    res.pair_order if heuristic else None, res.pair_signed if heuristic else None,
                )
                assert res.pairs == pairs
                assert isinstance(res.matched_table, MatchingTable)
                assert np.array_equal(res.matched_table.counts, matched)
                assert res.row_order.tolist() == row_order.tolist()
                assert res.col_order.tolist() == col_order.tolist()
                assert res.row_order.dtype == res.col_order.dtype == np.int64

    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_reading_presentation_leaves_generator_alone(self, matcher):
        fn = resolve_matcher(matcher)
        for i, table in enumerate(presentation_tables()):
            read_rng = np.random.default_rng(i)
            unread_rng = np.random.default_rng(i)
            read = fn(table, read_rng)
            assert len(read.pairs) == read.matched_table.k == read.row_order.size == read.col_order.size
            with pytest.raises(AttributeError):
                read.pairs = ()
            unread = fn(table, unread_rng)
            assert read_rng.bit_generator.state == unread_rng.bit_generator.state
            assert read.perm.tolist() == unread.perm.tolist()
            assert read.seed_trace == unread.seed_trace

    @pytest.mark.parametrize("matcher", ["tracemax", "truematch", "truematch-heuristic"])
    def test_carries_full_table_residuals(self, matcher):
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            table = MatchingTable(rng.integers(0, 25, (k, k)) + np.eye(k, dtype=int))
            res = resolve_matcher(matcher)(table, rng)
            full = residuals(table)
            assert np.array_equal(res.residuals.signed, full.signed)
            assert res.residuals.chi2 == full.chi2
            for pair in res.pairs if matcher != "truematch-heuristic" else ():
                assert pair.signed_dev == full.signed[pair.row - 1, pair.column - 1]

    def test_aligned_table_matches_apply_permutation(self):
        rng = np.random.default_rng(55)
        a = rng.integers(1, 4, 60)
        b = rng.integers(1, 4, 60)
        table = crosstab(a, b, 3)
        res = match_truematch(table, rng)
        via_labels = crosstab(a, apply_permutation(LabelVector(b, 3), res.perm).labels, 3)
        assert np.array_equal(aligned_table(table, res.perm).counts, via_labels.counts)
        # column-aligned trace equals the matched trace (same matched cells)
        assert aligned_table(table, res.perm).counts.trace() == res.matched_table.counts.trace()


NON_PERMUTATION_CALLS = {
    "aligned_table-repeat": lambda: aligned_table(MatchingTable([[3, 1], [0, 2]]), [1, 1]),
    "aligned_table-zero": lambda: aligned_table(MatchingTable([[3, 1], [0, 2]]), [0, 1]),
    "aligned_table-too-long": lambda: aligned_table(MatchingTable([[3, 1], [0, 2]]), [1, 2, 3]),
    "aligned_table-nested": lambda: aligned_table(MatchingTable([[3, 1], [0, 2]]), [[1, 2]]),
}


@pytest.mark.parametrize("call", sorted(NON_PERMUTATION_CALLS))
def test_non_permutation_rejected(call):
    # a repeated, zero or surplus entry does not relabel the table's columns
    with pytest.raises(ValueError):
        NON_PERMUTATION_CALLS[call]()


@pytest.mark.parametrize("matcher", [match_truematch, match_truematch_heuristic])
def test_k2_zero_table_rejected_before_any_draw(matcher):
    table = MatchingTable([[0, 0], [0, 0]])
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for _ in range(2):  # a failed first call caches nothing
        with pytest.raises(ValueError, match="at least one observation"):
            matcher(table, rng)
    assert rng.bit_generator.state == state


class TestDistributionalProperties:
    def test_equivariance_under_column_relabeling(self):
        # matching t(a, rho(b)) must distribute the same matched-pair count
        # multisets as matching t(a, b)
        rng = np.random.default_rng(67)
        counts = np.array([[30, 4, 1], [2, 20, 6], [5, 3, 12]])
        rho = np.array([3, 1, 2])
        base_table = MatchingTable(counts)
        moved_table = MatchingTable(counts[:, rho - 1])
        for fn in (match_truematch, match_tracemax, match_truematch_heuristic):
            base = Counter()
            moved = Counter()
            for _ in range(400):
                base[tuple(sorted(p.count for p in fn(base_table, rng).pairs))] += 1
                moved[tuple(sorted(p.count for p in fn(moved_table, rng).pairs))] += 1
            keys = set(base) | set(moved)
            tv = sum(abs(base[key] - moved[key]) for key in keys) / 2 / 400
            assert tv <= 0.15, f"{fn.__name__}: total variation {tv:.3f}"

    def test_randomized_neutrality_on_random_labelings(self):
        # Any trace-optimizing matcher aligns random K=2 labelings at the
        # chance-maximum level E[max(T, N-T)]/N, T ~ Binomial(N, 1/2) --
        # computed exactly here as the independent oracle.  Truematch must
        # sit at that level (no inflation beyond chance).
        from math import comb

        n = 100
        chance_level = sum(comb(n, t) * 0.5**n * max(t, n - t) for t in range(n + 1)) / n
        rng = np.random.default_rng(101)
        total = 0.0
        runs = 1500
        for _ in range(runs):
            a = rng.integers(1, 3, n)
            b = rng.integers(1, 3, n)
            table = crosstab(a, b, 2)
            total += match_truematch(table, rng).matched_table.counts.trace() / n
        assert abs(total / runs - chance_level) <= 0.02

    def test_determinism_per_seed(self):
        table = MatchingTable([[9, 3, 1], [2, 8, 2], [1, 1, 7]])
        for fn in (match_truematch, match_tracemax, match_truematch_heuristic):
            r1 = fn(table, np.random.default_rng(99))
            r2 = fn(table, np.random.default_rng(99))
            assert r1.perm.tolist() == r2.perm.tolist()
            assert table_key(r1) == table_key(r2)
            assert r1.pairs == r2.pairs
