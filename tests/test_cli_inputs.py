"""Property tests at the CLI boundary: odd input files exit 0 or 2, never 3.

Label files vary line endings (LF, CRLF), the ``label`` header, blank
lines inside and at the end, padding, unicode tokens and undecodable
bytes; mmcc CSVs vary header rows, comments, blank lines, ragged rows
and emptiness.  A run that exits 0 must also write well-formed output.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from truematch.cli import main

TOKENS = st.one_of(
    st.sampled_from(["a", "b", "c", "label", "1", "2", "ä", "☃", "Σ-1", "\U0001f600", "x y", "#"]),
    st.text(alphabet=st.characters(blacklist_categories=["Cs", "Cc", "Zs", "Zl", "Zp"]), min_size=1, max_size=5),
)


def _label_file(draw, n):
    """Bytes of a file of n labels, perhaps malformed."""
    tokens = draw(st.lists(TOKENS, min_size=n, max_size=n))
    lines = [draw(st.sampled_from(["", " ", "\t"])) + tok + draw(st.sampled_from(["", " "])) for tok in tokens]
    if draw(st.booleans()):
        lines.insert(0, "label")
    if lines and draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "")
    lines += [""] * draw(st.integers(0, 2))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    data = eol.join(lines).encode("utf-8") + draw(st.sampled_from([b"", eol.encode()]))
    if draw(st.integers(0, 9)) == 0:
        data += b"\xff\xfe"  # not UTF-8
    return data


@st.composite
def label_pairs(draw):
    """Two label files, mostly of equal length."""
    n = draw(st.integers(0, 12))
    return _label_file(draw, n), _label_file(draw, draw(st.sampled_from([n, n, n, n + 1])))


BAD_CELLS = ["nan", "inf", "-inf", "", " ", "x", "1e400", "1_0", "０"]
# one cell in 16 is not a finite number
NUMBER = st.integers(0, 15).flatmap(
    lambda i: st.sampled_from(BAD_CELLS) if i == 0
    else st.integers(-5, 5).map(str) if i % 2
    else st.floats(-10, 10).map(lambda x: f"{x:.3g}")
)


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        ragged = draw(st.integers(0, 6)) == 0
        cells = draw(st.lists(NUMBER, min_size=1, max_size=4)) if ragged else [
            draw(NUMBER) for _ in range(width)
        ]
        rows.append(",".join(cells))
    if draw(st.booleans()):
        rows.insert(0, ",".join(draw(st.sampled_from(["x", "y", "ü", "1"])) for _ in range(width)))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", "# note", "  "])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return (eol.join(rows) + draw(st.sampled_from(["", eol]))).encode("utf-8")


def _invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2), (result.exit_code, result.output, result.exception)
    return result


@settings(max_examples=150, deadline=None)
@given(label_pairs())
def test_match_and_agree_exit_0_or_2(files):
    data_a, data_b = files
    with tempfile.TemporaryDirectory() as tmp:
        path_a, path_b = Path(tmp, "a.txt"), Path(tmp, "b.txt")
        path_a.write_bytes(data_a)
        path_b.write_bytes(data_b)
        match = _invoke(["match", str(path_a), str(path_b), "--seed", "1"])
        agree = _invoke(["agree", str(path_a), str(path_b)])
    for result in (match, agree):
        assert result.exit_code == 0 or result.output.startswith("error: ")
    if match.exit_code == 0:
        out = json.loads(match.output)
        k = len(out["perm"])
        assert sorted(out["perm"]) == list(range(1, k + 1))
        assert np.array(out["table_before"]).shape == (k, k)
    if agree.exit_code == 0:
        # agree needs two cases, so its files also parse for match
        assert match.exit_code == 0
        assert np.array(out["table_before"]).sum() == json.loads(agree.output)["N"]


@settings(max_examples=150, deadline=None)
@given(csv_files(), st.integers(1, 3))
def test_mmcc_exit_0_or_2(data, k):
    with tempfile.TemporaryDirectory() as tmp:
        path, probs = Path(tmp, "data.csv"), Path(tmp, "probs.csv")
        path.write_bytes(data)
        result = _invoke(["mmcc", str(path), "--k", str(k), "--rounds", "2", "--probs-out", str(probs)])
        if result.exit_code == 0:
            rows = probs.read_text(encoding="utf-8").splitlines()
            assert len(rows) >= k and all(len(row.split(",")) == k for row in rows)
            assert json.loads(result.output)["k"] == k
    assert result.exit_code == 0 or result.output.startswith("error: ")
    # numpy's "at row R" counts neither blank nor comment lines; errors name FILE:LINE
    assert "at row" not in result.output
