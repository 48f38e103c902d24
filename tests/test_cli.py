import json
import warnings
from functools import cached_property

import numpy as np
import pytest
from click.testing import CliRunner

from truematch import MatchingTable, residuals
from truematch.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def outlier_files(tmp_path):
    # outliers at different positions, neither in the leading slot, so both
    # files canonicalize with the normal category as label 1
    a = write(tmp_path / "a.txt", "\n".join(["n"] * 99 + ["o"]) + "\n")
    b = write(tmp_path / "b.txt", "\n".join(["n", "o"] + ["n"] * 98) + "\n")
    return a, b


class TestMatch:
    def test_identical_files_identity_perm(self, runner, tmp_path):
        path = write(tmp_path / "x.txt", "a\nb\nc\n")
        result = runner.invoke(main, ["match", path, path, "--seed", "3"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["perm"] == [1, 2, 3]
        assert payload["chi2"] > 0
        assert payload["seed"] == 3

    def test_missed_outlier_truematch_swaps(self, runner, outlier_files):
        a, b = outlier_files
        result = runner.invoke(main, ["match", a, b, "--method", "truematch", "--seed", "1"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["table_before"] == [[98, 1], [1, 0]]
        assert payload["perm"] == [2, 1]
        assert payload["method"] == "truematch"

    def test_mismatched_lengths_exit_2(self, runner, tmp_path):
        a = write(tmp_path / "a.txt", "x\ny\n")
        b = write(tmp_path / "b.txt", "x\ny\nz\n")
        result = runner.invoke(main, ["match", a, b])
        assert result.exit_code == 2

    def test_parse_error_names_file_and_line(self, runner, tmp_path):
        a = write(tmp_path / "a.txt", "x\n\ny\n")
        b = write(tmp_path / "b.txt", "x\ny\nz\n")
        result = runner.invoke(main, ["match", a, b])
        assert result.exit_code == 2
        assert "a.txt:2" in result.output

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
    def test_undecodable_byte_names_file_and_line(self, runner, tmp_path, bom):
        a = tmp_path / "a.txt"
        a.write_bytes(bom + b"x\ny\n\xff\n")
        b = write(tmp_path / "b.txt", "x\ny\nz\n")
        result = runner.invoke(main, ["match", str(a), b])
        assert result.exit_code == 2
        assert f"error: {a}:3: byte 0xff is not UTF-8" in result.output

    @pytest.mark.parametrize("method", ["truematch", "tracemax"])
    def test_residuals_computed_once(self, runner, outlier_files, monkeypatch, method):
        # counts computations of the matrix; the accessor may be read more often
        calls = []
        compute = MatchingTable._residuals.func

        def counted(table):
            calls.append(table.k)
            return compute(table)

        counted_property = cached_property(counted)
        counted_property.__set_name__(MatchingTable, "_residuals")
        monkeypatch.setattr(MatchingTable, "_residuals", counted_property)
        result = runner.invoke(main, ["match", *outlier_files, "--method", method])
        assert result.exit_code == 0, result.output
        assert calls == [2]
        out = json.loads(result.output)
        assert out["chi2"] == pytest.approx(residuals(MatchingTable(out["table_before"])).chi2, rel=1e-5)


class TestAgree:
    def test_outlier_agreement(self, runner, outlier_files):
        a, b = outlier_files
        result = runner.invoke(main, ["agree", a, b])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["diagonal"] == pytest.approx(0.98)
        assert payload["kappa"] == pytest.approx(-0.0101, abs=1e-3)
        assert payload["rand"] == pytest.approx(0.9604, abs=1e-3)
        assert payload["N"] == 100 and payload["K"] == 2

    def test_identical_files_all_ones(self, runner, tmp_path):
        path = write(tmp_path / "x.txt", "a\nb\na\nb\n")
        result = runner.invoke(main, ["agree", path, path])
        payload = json.loads(result.output)
        assert payload["diagonal"] == payload["kappa"] == payload["rand"] == payload["crand"] == 1.0

    @pytest.mark.parametrize("header", [b"", b"label\n"], ids=["no-header", "label-header"])
    def test_bom_is_not_part_of_the_first_label(self, runner, tmp_path, header):
        plain = write(tmp_path / "plain.txt", "a\nb\na\n")
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + header + b"a\nb\na\n")
        result = runner.invoke(main, ["agree", str(bom), plain])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert (payload["K"], payload["N"], payload["rand"]) == (2, 3, 1.0)

    def test_single_cluster_pair(self, runner, tmp_path):
        path = write(tmp_path / "x.txt", "a\na\na\n")
        result = runner.invoke(main, ["agree", path, path])
        payload = json.loads(result.output)
        assert payload["rand"] == 1.0


class TestMmcc:
    def test_blobs_crisp(self, runner, tmp_path):
        rng = np.random.default_rng(5)
        data = np.r_[rng.normal(0, 0.2, 30), rng.normal(8, 0.2, 30)]
        csv = write(tmp_path / "d.csv", "\n".join(f"{x:.6f}" for x in data) + "\n")
        probs = tmp_path / "p.csv"
        stats = tmp_path / "s.json"
        result = runner.invoke(main, [
            "mmcc", csv, "--k", "2", "--rounds", "40", "--seed", "2",
            "--probs-out", str(probs), "--stats-out", str(stats),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(stats.read_text())
        assert payload["H"] <= 0.05
        matrix = np.loadtxt(probs, delimiter=",", ndmin=2)
        assert matrix.shape == (60, 2)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-6)

    def test_header_rows_tolerated(self, runner, tmp_path):
        csv = write(tmp_path / "d.csv", "x,y\n" + "\n".join(
            f"{i%7},{(i*3)%5}" for i in range(30)) + "\n")
        probs = tmp_path / "p.csv"
        result = runner.invoke(main, [
            "mmcc", csv, "--k", "2", "--rounds", "10", "--probs-out", str(probs),
        ])
        assert result.exit_code == 0, result.output

    def test_bad_k_exit_2(self, runner, tmp_path):
        csv = write(tmp_path / "d.csv", "1.0\n1.0\n1.0\n")
        probs = tmp_path / "p.csv"
        result = runner.invoke(main, [
            "mmcc", csv, "--k", "2", "--rounds", "10", "--probs-out", str(probs),
        ])
        assert result.exit_code == 2

    def test_short_resamples_redrawn(self, runner, tmp_path):
        # six distinct points and k=4: some bootstrap resamples hold fewer than
        # four of them and must be redrawn instead of ending the run
        csv = write(tmp_path / "d.csv", "0\n1\n2\n3\n4\n5\n")
        probs = tmp_path / "p.csv"
        result = runner.invoke(main, [
            "mmcc", csv, "--k", "4", "--rounds", "20", "--probs-out", str(probs),
        ])
        assert result.exit_code == 0, result.output
        assert np.loadtxt(probs, delimiter=",", ndmin=2).shape == (6, 4)

    def test_too_few_distinct_points_exit_2(self, runner, tmp_path):
        csv = write(tmp_path / "d.csv", "1\n1\n1\n2\n")
        probs = tmp_path / "p.csv"
        result = runner.invoke(main, [
            "mmcc", csv, "--k", "4", "--rounds", "10", "--probs-out", str(probs),
        ])
        assert result.exit_code == 2
        assert "data holds only 2 distinct points, need k=4" in result.output
        assert not probs.exists()

    @pytest.mark.parametrize("text,reason", [
        ("1,2\n3\n", "1 values where the first row has 2"),
        ("1;2\n3;4\n", "cannot read '3;4' as comma-separated numbers"),
        ("1,2\n  \n3,4\n", "cannot read '  ' as comma-separated numbers"),
        ("1,2\n\uff10,4\n", "cannot read '\uff10,4' as comma-separated numbers"),
        ("1,2\n\t\n3,4\n", "cannot read '\\t' as comma-separated numbers"),
    ], ids=["ragged", "first-line-read-as-header", "spaces-only", "fullwidth-digit", "tab-only"])
    def test_parse_error_names_file_and_line(self, runner, tmp_path, text, reason):
        csv = write(tmp_path / "d.csv", text)
        result = runner.invoke(main, [
            "mmcc", csv, "--k", "1", "--rounds", "2", "--probs-out", str(tmp_path / "p.csv"),
        ])
        assert result.exit_code == 2
        assert f"d.csv:2: {reason}" in result.output

    @pytest.mark.parametrize("text", ["", "x,y\n", "\n# note\n\n"], ids=["empty", "header-only", "comment-only"])
    def test_no_rows_exit_2_without_warning(self, runner, tmp_path, text):
        csv = write(tmp_path / "d.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [
                "mmcc", csv, "--k", "1", "--rounds", "2", "--probs-out", str(tmp_path / "p.csv"),
            ])
        assert result.exit_code == 2
        assert result.output == f"error: {csv}: no numeric rows\n"

    @pytest.mark.parametrize(
        "head", [b"\xef\xbb\xbf1,2", b"x\xe9,y\n1,2", b"# caf\xe9\n1,2", b"1,2 # first"],
        ids=["bom", "undecodable-header", "undecodable-comment", "commented-first-row"])
    def test_head_keeps_every_data_row(self, runner, tmp_path, head):
        # neither a BOM nor a trailing comment may turn the first row into a
        # header; a bad byte outside the data rows must not reject the file
        csv = tmp_path / "d.csv"
        csv.write_bytes(head + b"\n3,4\n5,6\n")
        probs = tmp_path / "p.csv"
        result = runner.invoke(main, [
            "mmcc", str(csv), "--k", "2", "--rounds", "4", "--probs-out", str(probs),
        ])
        assert result.exit_code == 0, result.output
        assert len(probs.read_text(encoding="utf-8").splitlines()) == 3

    def test_undecodable_byte_in_data_row_names_its_line(self, runner, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_bytes(b"x,y\n1,2\n3,\xe9\n5,6\n")
        result = runner.invoke(main, [
            "mmcc", str(csv), "--k", "2", "--rounds", "4", "--probs-out", str(tmp_path / "p.csv"),
        ])
        assert result.exit_code == 2
        assert f"{csv}:3: cannot read" in result.output

    # 1e200 is finite, but its squared distances overflow in the Lloyd fit
    @pytest.mark.parametrize("cell", ["nan", "inf", "1e200"])
    def test_non_finite_cell_exit_2(self, runner, tmp_path, cell):
        # the header, the blank line and the comment line all count toward the line number
        csv = write(tmp_path / "d.csv", f"x,y\n1,2\n3,4\n\n# note\n5,{cell}\n7,8\n9,10\n")
        probs = tmp_path / "p.csv"
        result = runner.invoke(main, [
            "mmcc", csv, "--k", "2", "--rounds", "10", "--probs-out", str(probs),
        ])
        assert result.exit_code == 2
        assert "d.csv:6:" in result.output
        assert not probs.exists()


class TestSimulate:
    def test_outlier_json(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--scenario", "outlier", "--matcher", "tracemax",
            "--runs", "800", "--seed", "4",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["diagonal"] == pytest.approx(0.9802, abs=0.02)
        assert payload["runs"] == 800

    def test_grid_csv(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, [
            "simulate", "--scenario", "grid", "--p-grid", "0.5",
            "--kappa-grid", "1,-0.0", "--rounds", "60", "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "p,kappa,H,I,CIC,degenerate,fixed,matcher,seed"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "0.5" and fields[5] == "false" and fields[7] == "truematch"
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "0"]  # -0.0 prints as 0

    def test_bad_grid_exit_2(self, runner):
        for raw, message in [("abc", "bad --p-grid 'abc'"), ("", "must list at least one value"),
                             (",", "must list at least one value")]:
            result = runner.invoke(main, ["simulate", "--scenario", "grid", "--p-grid", raw])
            assert result.exit_code == 2 and message in result.output, raw


class TestDeterminism:
    def test_match_byte_identical(self, runner, tmp_path, outlier_files):
        a, b = outlier_files
        outs = []
        for name in ("o1.json", "o2.json"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "match", a, b, "--method", "truematch", "--seed", "9", "--out", str(out),
            ])
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_outlier_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "simulate", "--scenario", "outlier", "--runs", "300",
                "--seed", "11", "--out", str(out),
            ])
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
