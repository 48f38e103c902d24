"""Benchmark of the truematch CLI: one closed-loop client, in process.

    python3 perfbench/run.py --workload sim_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  Each op is one or more invocations of the ``truematch`` click
entry point; the client sends the next op when the previous one ends.
Importing, generating inputs and a warm-up op count toward ``setup_s``,
which is the median of SETUP_REPEATS such set-ups.
Every op's output files are checked between ops, with the clock stopped.

The machine's speed drifts (on a shared 2-vCPU guest, by up to 1.5x
within a minute), so a fixed calibration task independent of truematch
runs before every op, with the clock stopped.  Every reported time is
scaled by REF_CAL_S divided by the calibration time around the work it
times: it reads as the time on a machine whose calibration takes
REF_CAL_S.  A run measures whole blocks of ops and stops at the block
boundary nearest to ``--seconds`` of such scaled op time.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` measures ops untraced for half of ``--seconds``, then as many
further ops of the same mix traced, and reports the per-layer metrics of
the traced ops plus the tracing overhead.  The last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
# The unit of scaled times: they read as on a machine whose calibrate() takes
# this long.  Between ops on a 2-vCPU KVM guest of an Intel Xeon host it took
# 10 to 17 ms, as the machine's speed drifted.
REF_CAL_S = 0.015
TAIL_BEYOND = 10  # op_ms_tail: the slowest op with exactly this many slower ones

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith("_us"):
        return "us/op"
    if name.endswith("calls"):
        return "calls/op"
    if name == "cli.out_bytes":
        return "B/op"
    if name == "trace.overhead_frac":
        return "fraction"
    return "ratio"


def _import_program():
    if not (SRC / "truematch" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'truematch'} not found; run from a truematch source checkout")
    sys.path.insert(0, str(SRC))
    import truematch.cli

    if Path(truematch.cli.__file__).resolve().parent != SRC / "truematch":
        raise SystemExit(f"error: imported truematch from {truematch.cli.__file__}, not {SRC}")
    return truematch.cli.main


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small numpy work."""
    import numpy as np  # after main() has pinned BLAS threads

    matrix = np.random.default_rng(0).normal(size=(48, 48))
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    names = {}
    for i in range(20_000):
        names[f"k{i % 500}"] = i
    x = matrix
    for _ in range(150):
        x = np.tanh(x @ matrix * 0.02)
        np.sort(x, axis=1)
    return time.perf_counter() - t0


class Client:
    """Sends one workload's ops to the CLI and keeps their timings and outcomes."""

    def __init__(self, main, workload):
        self.main = main
        self.wl = workload
        self.latency_ms: list[float] = []
        self.cpu_ms: list[float] = []
        self.cal_s: list[float] = []  # calibration time just before each op
        self.out_bytes = 0
        self.failed: set[int] = set()
        self.errors: dict[int, str] = {}
        self.first_blobs: list[bytes] | None = None

    def invoke(self, argv: list[str]) -> int:
        try:
            self.main.main(argv, prog_name="truematch", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        return 0

    def op(self, i: int, invoke=None) -> float:
        """Run op i, check its output, return its wall time in seconds."""
        invoke = invoke or self.invoke
        for path in self.wl.outputs(i):
            path.unlink(missing_ok=True)
        self.cal_s.append(calibrate())
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            codes = [invoke(argv) for argv in self.wl.argv(i)]
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            codes, error = None, f"raised {exc!r}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if error is None and any(codes):
            error = f"exit codes {codes}"
        if error is None:
            blobs = [path.read_bytes() for path in self.wl.outputs(i)]
            self.out_bytes += sum(len(b) for b in blobs)
            if i == 0:
                self.first_blobs = blobs
            try:
                self.wl.check(i, blobs)
            except Exception as exc:  # noqa: BLE001 - malformed output of any kind fails the op
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.fail(i, error)
        # Start every op on a collected heap, as a fresh CLI process would.
        gc.collect()
        self.latency_ms.append(wall * 1e3)
        self.cpu_ms.append(cpu * 1e3)
        return wall

    def scales(self) -> list[float]:
        """Per op: REF_CAL_S over the median calibration time of the two
        samples before the op and the two after it."""
        cal = self.cal_s
        return [REF_CAL_S / statistics.median(cal[max(0, i - 1): i + 3]) for i in range(len(cal))]

    def scaled(self, values: list[float], start: int = 0, stop: int | None = None) -> list[float]:
        """Op times of ops start..stop, scaled to the reference machine."""
        return [v * s for v, s in zip(values[start:stop], self.scales()[start:stop])]

    def fail(self, i: int, error: str) -> None:
        self.failed.add(i)
        self.errors.setdefault(i, error)

    def loop(self, start: int, seconds: float) -> int:
        """Untraced closed loop of whole blocks from op ``start``, ending at the
        block boundary nearest to ``seconds`` of scaled op time (taking the
        next block to last as long as the one before), as estimated from the
        calibration before each op.  Returns the number of ops run."""
        installed = spans.installed_wrappers()
        if installed:
            raise RuntimeError(f"tracing wrappers installed during an untraced loop: {installed}")
        i, busy = start, 0.0
        while True:
            block = 0.0
            for j in range(i, i + self.wl.block):
                block += self.op(j) * REF_CAL_S / self.cal_s[-1]
            busy += block
            i += self.wl.block
            if busy + block / 2 >= seconds:
                return i - start

    def finish(self) -> None:
        """Pooled checks, then op 0 once more: it must give identical bytes."""
        for i, error in self.wl.finish().items():
            self.fail(i, error)
        if self.first_blobs is None:
            return
        first = self.first_blobs
        for path in self.wl.outputs(0):
            path.unlink(missing_ok=True)
        codes = [self.invoke(argv) for argv in self.wl.argv(0)]
        again = [path.read_bytes() if path.exists() else b"" for path in self.wl.outputs(0)]
        if any(codes) or again != first:
            self.fail(0, "op 0 repeated with the same seed gave different bytes")


def setup(main, workload_cls, seed: int):
    """Set up SETUP_REPEATS times: import truematch.cli in a fresh interpreter
    (as each CLI invocation would), generate the inputs, run op 0 as warm-up.

    Returns the last workload and the median scaled seconds of one set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import truematch.cli"], env=env, check=True, cwd=ROOT)
        wl = workload_cls(WORK / workload_cls.name, seed)
        prepare = time.perf_counter() - t0
        client = Client(main, wl)
        warm = client.op(0)  # calibrates first, with the clock stopped
        if client.failed:
            raise SystemExit(f"error: warm-up op failed: {client.errors}")
        cal = statistics.median([before, client.cal_s[0], calibrate()])
        times.append((prepare + warm) * REF_CAL_S / cal)
    return wl, statistics.median(times)


def tail(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[-1 - TAIL_BEYOND] if len(ordered) > TAIL_BEYOND else ordered[-1]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    main = _import_program()
    import workloads  # noqa: E402 - needs numpy, imported with the program

    wl, setup_s = setup(main, workloads.WORKLOADS[workload_name], seed)
    client = Client(main, wl)

    lines = [f"workload {workload_name} seed {seed} env {json.dumps(environment(), sort_keys=True)}"]
    if not trace:
        ops = client.loop(0, seconds)
        client.finish()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latency_ms = client.scaled(client.latency_ms)
        metrics = {
            "setup_s": setup_s,
            "op_ms_p50": statistics.median(latency_ms),
            "op_ms_tail": tail(latency_ms),
            "ops_per_s": ops / (sum(latency_ms) / 1e3),
            "cpu_ms_per_op": sum(client.scaled(client.cpu_ms)) / ops,
            "peak_rss_mb": rss_mb,
            "ok_frac": (ops - len(client.failed)) / ops,
        }
        units = END_TO_END
        where = (f"the p{100.0 * (ops - TAIL_BEYOND) / ops:.1f} op ({TAIL_BEYOND} slower ops)"
                 if ops > TAIL_BEYOND else "the slowest op (too few ops for a tail)")
        lines.append(f"ops {ops}; op_ms_tail is {where}; fail_frac {len(client.failed) / ops:.4f}")
        lines.append(f"unscaled: op_ms_p50 {statistics.median(client.latency_ms):.6g}, "
                     f"op_ms_tail {tail(client.latency_ms):.6g}, ops_per_s {ops / (sum(client.latency_ms) / 1e3):.6g}; "
                     f"calibration median {statistics.median(client.cal_s) * 1e3:.4g} ms "
                     f"(reference {REF_CAL_S * 1e3:.4g} ms)")
    else:
        half = seconds / 2.0
        ops_a = client.loop(0, half)
        tracer = spans.Tracer()
        patch = spans.install(tracer)
        try:
            root = tracer.wrap(client.invoke, spans.ROOT_SPAN)
            bytes_before = client.out_bytes
            for i in range(ops_a, 2 * ops_a):
                tracer.op = i
                client.op(i, root)
        finally:
            patch.restore()
        ops = 2 * ops_a
        client.finish()
        metrics = spans.layer_metrics(tracer, ops_a)
        metrics["cli.out_bytes"] = (client.out_bytes - bytes_before) / ops_a
        busy_a = sum(client.scaled(client.latency_ms, 0, ops_a))
        busy_b = sum(client.scaled(client.latency_ms, ops_a, ops))
        metrics["trace.overhead_frac"] = busy_a / busy_b - 1.0
        units = {name: layer_unit(name) for name in metrics}
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{workload_name}.csv")
        lines.append(f"traced ops {ops_a} (after {ops_a} untraced); spans {len(tracer.spans)} "
                     f"written to {WORK.name}/spans-{workload_name}.csv")

    for i, error in sorted(client.errors.items()):
        lines.append(f"FAILED op {i}: {error}")
    for name, value in metrics.items():
        lines.append(f"{workload_name:14s} {name:30s} {value:14.6g} {units[name]}")
    print("\n".join(lines), flush=True)
    return {
        "correct": not client.failed,
        "attempted": ops,
        "failed": len(client.failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process so peak RSS stays its own."""
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sim_grid", "outlier_k2", "match_large_k", "mmcc_lloyd", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One BLAS/OpenMP thread, set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
