"""The narrative demos run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(demo: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_vote_aggregation_demo_runs():
    assert "two separated blobs" in _run("03_vote_aggregation.py")


@pytest.mark.parametrize("demo, line", [
    ("01_residual_matching.py", "truematch (random-match rate"),
    ("02_agreement_indices.py", "expected indices over 5000 repeated two-run draws"),
    ("04_skew_reliability_sweep.py", "Reading the kappa=0 column"),
])
def test_demo_runs(demo, line):
    assert line in _run(demo)
