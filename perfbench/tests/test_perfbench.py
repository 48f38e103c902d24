"""Tests of the benchmark's own code: span arithmetic, wrapper install and
restore, failure counting, and seeded input generation."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from truematch import matching, mmcc  # noqa: E402
from truematch import cli as tm_cli  # noqa: E402
from truematch import simulate as tm_simulate  # noqa: E402


class SmallMatch(workloads.MatchLargeK):
    N = 400
    PAIRS = [(5, True), (5, False)]
    block = 6


class SmallMmcc(workloads.MmccLloyd):
    N = 200


def small_match(tmp_path, seed=3):
    return SmallMatch(tmp_path / "match", seed)


def test_self_times_on_synthetic_tree():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
    tree = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["c", 15, 25, 1, 0],
        ["b", 50, 90, 0, 0],
    ]
    assert spans.self_times(tree) == [100 - 30 - 40, 30 - 10, 10, 40]


def test_layer_metrics_from_synthetic_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli.invoke", 0, 10_000_000, -1, 0],
        ["matching.match", 1_000_000, 5_000_000, 0, 0],
        ["crosstab.residuals", 1_000_000, 2_000_000, 1, 0],
        ["assignment.solve", 2_000_000, 3_000_000, 1, 0],
        ["crosstab.residuals", 3_000_000, 4_000_000, 1, 0],
    ]
    tracer.counts["matching.tie_draws"] = 2
    m = spans.layer_metrics(tracer, ops=2)
    assert m["cli.invoke_ms"] == pytest.approx(5.0)
    assert m["cli.self_ms"] == pytest.approx(3.0)
    assert m["matching.match_us"] == pytest.approx(2000.0)
    assert m["matching.self_us"] == pytest.approx(500.0)
    assert m["crosstab.residuals_per_match"] == 2.0
    assert m["assignment.solve_share"] == pytest.approx(0.25)
    assert m["matching.tie_draws_per_match"] == 2.0
    assert m["labels.parse_calls"] == 0.0


def test_times_scale_by_calibration_around_each_op():
    client = run.Client(tm_cli.main, None)
    ref = run.REF_CAL_S
    # op i has calibration samples i-1 and i before it, i+1 and i+2 after it
    client.cal_s = [ref, ref, 2 * ref, 2 * ref, 4 * ref]
    assert client.scales() == pytest.approx([1.0, 2 / 3, 0.5, 0.5, 1 / 3])
    assert client.scaled([30.0] * 5) == pytest.approx([30.0, 20.0, 15.0, 15.0, 10.0])
    assert client.scaled([30.0] * 5, 1, 3) == pytest.approx([20.0, 15.0])


def test_wrappers_installed_then_fully_restored():
    owners = spans._owners()
    originals = [spans._get(owner, attr) for owner, attr, _, _ in owners]
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    patch = spans.install(tracer)
    try:
        assert len(spans.installed_wrappers()) == len(owners)
        for name in ("crosstab", "majority_labels", "fictitious_cluster"):
            assert hasattr(getattr(tm_simulate, name), "__wrapped_by_perfbench__")
        assert hasattr(matching.residuals, "__wrapped_by_perfbench__")
        assert hasattr(mmcc.LloydClusterer.fit, "__wrapped_by_perfbench__")
        assert all(hasattr(fn, "__wrapped_by_perfbench__") for fn in matching.MATCHERS.values())
        tm_cli.crosstab([1, 2, 2], [2, 1, 1], 2)
        assert [s[0] for s in tracer.spans] == ["crosstab.table"]
    finally:
        patch.restore()
    assert spans.installed_wrappers() == []
    assert all(spans._get(o, a) is f for (o, a, _, _), f in zip(owners, originals))


def test_untraced_loop_refuses_installed_wrappers(tmp_path):
    client = run.Client(tm_cli.main, small_match(tmp_path))
    patch = spans.install(spans.Tracer())
    try:
        with pytest.raises(RuntimeError, match="wrappers installed"):
            client.loop(0, 0.001)
    finally:
        patch.restore()
    assert client.loop(0, 0.001) == client.wl.block and not client.failed


def test_corrupted_output_counts_as_failed(tmp_path):
    wl = small_match(tmp_path)
    client = run.Client(tm_cli.main, wl)

    def corrupting_invoke(argv):
        code = client.invoke(argv)
        match_out = wl.outputs(0)[0]
        if match_out.exists():
            match_out.write_text(match_out.read_text().replace('"perm": [', '"perm": [1, '))
        return code

    client.op(0)
    assert not client.failed
    client.op(0, corrupting_invoke)
    client.op(1, lambda argv: 2)
    assert client.failed == {0, 1}
    assert "CheckFailed" in client.errors[0] and "exit codes" in client.errors[1]


def test_pooled_outlier_check_condemns_pool(tmp_path):
    wl = workloads.OutlierK2(tmp_path, 1)
    pool = wl.pools["crit4"]
    pool.update(ops={1, 2}, runs=workloads.POOL_MIN_RUNS)
    pool["table"] += workloads.CRIT3_TABLE * pool["runs"]  # tracemax-like tables
    failed = wl.finish()
    assert set(failed) == {1, 2} and "crit4 pool" in failed[1]


@pytest.mark.parametrize("make", [SmallMatch, SmallMmcc], ids=["match_large_k", "mmcc_lloyd"])
def test_seeded_inputs_are_reproducible(tmp_path, make):
    first, again, other = make(tmp_path / "1", 3), make(tmp_path / "2", 3), make(tmp_path / "3", 4)
    files = sorted(p.name for p in first.dir.iterdir())
    assert files and files == sorted(p.name for p in again.dir.iterdir())

    def contents(wl):
        return [(wl.dir / name).read_bytes() for name in files]

    def argv(wl, i):
        return [[arg.replace(str(wl.dir), "") for arg in inv] for inv in wl.argv(i)]

    assert contents(first) == contents(again)
    assert contents(first) != contents(other)
    assert argv(first, 5) == argv(again, 5) != argv(other, 5)


def test_workloads_match_benchmark_json():
    listed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in listed] == list(workloads.WORKLOADS)
