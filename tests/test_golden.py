"""Seed-pinned golden outputs of the CLI.

Each case reruns one ``truematch`` invocation on the committed inputs in
``tests/golden/inputs/`` and compares every output file byte for byte
with the committed copy in ``tests/golden/outputs/``.  Run-to-run
determinism alone would let a refactor silently change seeded results;
these files pin the results themselves.  A change that must alter
seeded output replaces the affected files and says why.
"""

from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from truematch.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
OUTPUTS = GOLDEN / "outputs"

MATCHERS = ("tracemax", "truematch", "truematch-heuristic")


def _out(name):
    return [("--out", f"{name}.out")]


def _mmcc_out(name):
    return [("--probs-out", f"{name}.probs.csv"), ("--stats-out", f"{name}.stats.json")]


# name -> (arguments with input file names, [(output option, golden file)])
CASES = {
    # the five invocations of acceptance criterion 8
    "match-outlier-truematch": (
        ["match", "outlier_a.txt", "outlier_b.txt", "--method", "truematch", "--seed", "7"],
        _out("match-outlier-truematch"),
    ),
    "agree-outlier": (["agree", "outlier_a.txt", "outlier_b.txt"], _out("agree-outlier")),
    "mmcc-1d-truematch": (
        ["mmcc", "mix_1d.csv", "--k", "2", "--rounds", "30", "--seed", "7"],
        _mmcc_out("mmcc-1d-truematch"),
    ),
    "simulate-outlier-truematch": (
        ["simulate", "--scenario", "outlier", "--runs", "500", "--seed", "7"],
        _out("simulate-outlier-truematch"),
    ),
    "simulate-grid-truematch": (
        ["simulate", "--scenario", "grid", "--p-grid", "0.5,0.9", "--kappa-grid", "0,1",
         "--rounds", "60", "--seed", "7"],
        _out("simulate-grid-truematch"),
    ),
    # d=4, values rounded to 1 decimal so that resamples hold duplicate rows:
    # pins the order in which the Lloyd clusterer draws its starting points
    "mmcc-4d-truematch": (
        ["mmcc", "grid_4d.csv", "--k", "4", "--rounds", "30", "--seed", "7"],
        _mmcc_out("mmcc-4d-truematch"),
    ),
}
for _m in MATCHERS:
    CASES[f"match-k12-{_m}"] = (
        ["match", "k12_a.txt", "k12_b.txt", "--method", _m, "--seed", "7"],
        _out(f"match-k12-{_m}"),
    )
    CASES[f"mmcc-2d-{_m}"] = (
        ["mmcc", "blobs_2d.csv", "--k", "3", "--rounds", "30", "--matcher", _m, "--seed", "7"],
        _mmcc_out(f"mmcc-2d-{_m}"),
    )
for _m in ("tracemax", "truematch-heuristic"):
    CASES[f"simulate-outlier-{_m}"] = (
        ["simulate", "--scenario", "outlier", "--runs", "500", "--matcher", _m, "--seed", "7"],
        _out(f"simulate-outlier-{_m}"),
    )
    CASES[f"simulate-grid-{_m}"] = (
        ["simulate", "--scenario", "grid", "--p-grid", "0.5,0.9", "--kappa-grid", "0,0.5",
         "--rounds", "60", "--fixed", "--matcher", _m, "--seed", "7"],
        _out(f"simulate-grid-{_m}"),
    )

# the grid combinations above leave out, in the benchmark's shape (300 rounds, 100 cases)
for _m, _mode in (("tracemax", "--non-fixed"), ("truematch", "--fixed")):
    CASES[f"simulate-grid-{_m}{_mode[1:]}"] = (
        ["simulate", "--scenario", "grid", "--p-grid", "0.7,0.9", "--kappa-grid", "0.5",
         "--rounds", "300", "--n-cases", "100", _mode, "--matcher", _m, "--seed", "11"],
        _out(f"simulate-grid-{_m}{_mode[1:]}"),
    )


def run_case(name, out_dir: Path) -> list[tuple[str, bytes]]:
    """Invoke case ``name`` with its outputs written under ``out_dir``;
    returns (golden file name, bytes written) per output."""
    args, outputs = CASES[name]
    argv = [str(INPUTS / a) if (INPUTS / a).is_file() else a for a in args]
    for option, fname in outputs:
        argv += [option, str(out_dir / fname)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, f"{name}: {result.output}"
    return [(fname, (out_dir / fname).read_bytes()) for _, fname in outputs]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    for fname, produced in run_case(name, tmp_path):
        assert produced == (OUTPUTS / fname).read_bytes(), f"{name}: {fname} differs from its golden"


def test_mmcc_output_does_not_depend_on_where_the_data_sit(tmp_path):
    # the 2-D golden's rows shifted by 2**20: a stop tolerance scaled by the coordinates
    # would end these fits early (H 1.017 against 0.383); a repeated assignment does not
    rows = np.loadtxt(INPUTS / "blobs_2d.csv", delimiter=",", skiprows=1) + 2.0**20
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows.tolist()))
    outputs = []
    for csv in (INPUTS / "blobs_2d.csv", shifted):
        probs, stats = tmp_path / f"{csv.stem}.probs.csv", tmp_path / f"{csv.stem}.stats.json"
        result = CliRunner().invoke(main, [
            "mmcc", str(csv), "--k", "3", "--rounds", "30", "--seed", "7",
            "--probs-out", str(probs), "--stats-out", str(stats),
        ])
        assert result.exit_code == 0, result.output
        outputs.append((probs.read_bytes(), stats.read_bytes()))
    assert outputs[1][0] == outputs[0][0]
    assert outputs[1][1] == outputs[0][1]  # H and CIC included
