"""Command-line front end: match, agree, mmcc, simulate.

Every stochastic subcommand takes a seed (default 0) and echoes it in
the output; identical invocations produce byte-identical files.  Numeric
JSON output is rounded to 6 significant digits to keep diffs stable.

Exit codes: 0 success, 2 input/validation error, 3 internal failure.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from .agreement import adjusted_rand, cohen_kappa, diagonal_fraction, rand_index
from .crosstab import crosstab, residuals
from .labels import LabelParseError, canonical_pair, parse_labels
from .matching import MATCHERS, resolve_matcher
from .mmcc import MAX_MAGNITUDE, LloydClusterer, cic_stats, mmcc_run
from .simulate import SimulationConfig, grid_sweep, outlier_scenario

DEFAULT_SEED = 0
_MATCHER_NAMES = sorted(MATCHERS)


def _json_text(value, nl: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` prints it
    once every float, numpy arrays included, is rounded to 6 significant
    digits.  Keys must be strings; ``nl`` is the newline and indent of the
    enclosing level.

    A numeric numpy array is printed from the texts of its distinct values,
    each formatted once (``_distinct_texts``), and each row is joined from
    its cells' texts instead of one Python call per number.
    """
    if isinstance(value, (str, bool)) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):  # NaN and infinities as json.dumps prints them
        return float.__repr__(float(f"{value:.6g}")) if math.isfinite(value) else json.dumps(value)
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(value, np.ndarray):
        if value.ndim and value.dtype.kind in "fiu":
            return _indexed_text(*_distinct_texts(value), nl)
        if value.ndim > 1:
            return _bracket([_json_text(row, inner) for row in value], nl)
        return _json_text(value.tolist(), nl)
    if isinstance(value, (list, tuple)):
        return _bracket([_json_text(item, inner) for item in value], nl)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _distinct_texts(arr: np.ndarray, json_floats: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The texts of ``arr``'s distinct values (an object array) and each cell's index into them.

    Floats are grouped by their float64 bits (``-0.0`` apart from ``0.0``) and printed by
    ``"%.6g"``.  For JSON only NaN, inf and all within 1e-5 * max(1, |x|) of an integer go back
    through ``float``: these include every text that is integral (``3``, ``-0``) or has an
    exponent of 6 to 15.  A count table (ints in 0..size) indexes the texts of 0..max, unsorted."""
    if arr.dtype.kind == "f":
        bits, index = np.unique(np.asarray(arr, dtype=np.float64).view(np.int64), return_inverse=True)
        values = bits.view(np.float64)
        texts = ["%.6g" % v for v in values.tolist()]
        if json_floats:
            mag = np.abs(values)
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, marked as no comparison holds
                mask = ~(np.abs(mag - np.rint(mag)) > np.maximum(mag, 1.0) * 1e-5)
            for i in np.flatnonzero(mask).tolist():
                texts[i] = float.__repr__(float(texts[i])) if math.isfinite(values[i]) else json.dumps(values[i])
    elif arr.size and arr.min() >= 0 and (top := int(arr.max())) <= arr.size:
        return np.array(list(map(str, range(top + 1))), dtype=object), arr
    else:
        distinct, index = np.unique(arr, return_inverse=True)
        texts = list(map(str, distinct.tolist()))
    return np.array(texts, dtype=object), index.reshape(arr.shape)


def _indexed_text(texts: np.ndarray, index: np.ndarray, nl: str) -> str:
    """JSON list text of the array whose cells are ``texts[index]``, gathered one row at a time."""
    if index.ndim > 1:
        return _bracket([_indexed_text(texts, row, nl + "  ") for row in index], nl)
    return _bracket(texts[index].tolist(), nl)


def _bracket(items: list[str], nl: str) -> str:
    """JSON list text of the item texts ``items``."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"


def _csv_text(matrix: np.ndarray) -> str:
    """A float matrix as CSV lines of ``"%.6g"`` values, from the texts of its distinct values."""
    texts, index = _distinct_texts(matrix, json_floats=False)
    return "\n".join(map(",".join, texts[index].tolist())) + "\n"


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit_text(_json_text(payload) + "\n", out_path)


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_labels(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if b"\r" in raw:  # universal newlines as in text mode; CR never occurs inside a UTF-8 character
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            text = raw.decode("utf-8-sig")
        except UnicodeDecodeError as err:
            # err.object is the input after any BOM, so count lines in it
            line = err.object.count(b"\n", 0, err.start) + 1
            raise LabelParseError(f"byte {err.object[err.start]:#04x} is not UTF-8", line=line) from err
        return parse_labels(text)
    except LabelParseError as err:
        where = f"{path}:{err.line}" if err.line is not None else path
        raise click.ClickException(f"{where}: {err}") from err
    except OSError as err:
        raise click.ClickException(f"{path}: {err}") from err


def _load_table(labels_a: str, labels_b: str):
    """Crosstab of two label files on their shared canonical label space."""
    vec_a, _ = _load_labels(labels_a)
    vec_b, _ = _load_labels(labels_b)
    if len(vec_a) != len(vec_b):
        raise click.ClickException(
            f"{labels_a} has {len(vec_a)} cases but {labels_b} has {len(vec_b)}"
        )
    a, b, k = canonical_pair(vec_a, vec_b)
    return crosstab(a, b, k)


def _load_matrix_csv(path: str) -> np.ndarray:
    try:
        # undecodable bytes are replaced: in a header or comment they are
        # dropped with it, in a data row they make that row unreadable
        with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
            lines = fh.read().split("\n")
    except OSError as err:
        raise click.ClickException(f"{path}: {err}") from err
    try:
        [float(tok) for tok in lines[0].partition("#")[0].replace(",", " ").split()]
        skip = 0
    except ValueError:
        skip = 1  # a header
    # (1-based line number, text) of each data row: past the header, with
    # comments cut and empty lines dropped (a line of spaces is a row)
    rows = [(i, text) for i, line in enumerate(lines[skip:], start=skip + 1)
            if (text := line.partition("#")[0])]
    if not rows:
        raise click.ClickException(f"{path}: no numeric rows")
    try:
        data = np.loadtxt([text for _, text in rows], delimiter=",", ndmin=2)
    except ValueError as err:
        # numpy's row numbers count from the first data row, not the top of the file
        located = _first_bad_line(rows)
        raise click.ClickException(f"{path}:{located}" if located else f"{path}: {err}") from err
    bad_rows = np.flatnonzero(~(np.abs(data) <= MAX_MAGNITUDE).all(axis=1))  # NaN compares false
    if bad_rows.size:
        line, _ = rows[bad_rows[0]]
        raise click.ClickException(f"{path}:{line}: value not finite or beyond ±{MAX_MAGNITUDE:g}")
    return data


def _first_bad_line(rows: list[tuple[int, str]]) -> str | None:
    """'LINE: reason' for the first row that is not as many numbers as the first row."""
    width = None
    for line, text in rows:
        try:
            # numpy's own parser: Python's float() also takes '1_0' and non-ASCII digits
            values = np.loadtxt([text], delimiter=",", ndmin=1).size
        except ValueError:
            return f"{line}: cannot read {text!r} as comma-separated numbers"
        width = width or values
        if values != width:
            return f"{line}: {values} values where the first row has {width}"
    return None


class _Guard:
    """Map validation errors to exit 2 and anything else to exit 3."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            return False
        if isinstance(exc, click.exceptions.Exit):
            return False
        if isinstance(exc, click.ClickException):
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(2)
        if isinstance(exc, (ValueError, OSError)):
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        click.echo(f"internal error: {exc!r}", err=True)
        sys.exit(3)


@click.group()
def main():
    """Cluster-label matching, agreement indices, and vote aggregation."""


@main.command()
@click.argument("labels_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("labels_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(_MATCHER_NAMES), default="truematch",
              show_default=True, help="Matching algorithm.")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write JSON here instead of stdout.")
def match(labels_a, labels_b, method, seed, out):
    """Match the clusters of LABELS_B to those of LABELS_A."""
    with _Guard():
        table = _load_table(labels_a, labels_b)
        rng = np.random.default_rng(seed)
        result = resolve_matcher(method)(table, rng)
        res = residuals(table)
        payload = {
            "method": method,
            "seed": seed,
            "perm": result.perm,
            "pairs": [[p.row, p.column, p.signed_dev, p.count] for p in result.pairs],
            "table_before": table.counts,
            "table_after": result.matched_table.counts,
            "signed_residuals": res.signed,
            "chi2": res.chi2,
        }
        _emit_json(payload, out)


@main.command()
@click.argument("labels_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("labels_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write JSON here instead of stdout.")
def agree(labels_a, labels_b, out):
    """Agreement indices between LABELS_A and LABELS_B (as given)."""
    with _Guard():
        table = _load_table(labels_a, labels_b)
        payload = {
            "diagonal": diagonal_fraction(table),
            "kappa": cohen_kappa(table),
            "rand": rand_index(table),
            "crand": adjusted_rand(table),
            "N": table.total,
            "K": table.k,
        }
        _emit_json(payload, out)


@main.command()
@click.argument("data_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=click.IntRange(min=1), required=True, help="Number of clusters.")
@click.option("--rounds", type=click.IntRange(min=2), default=100, show_default=True)
@click.option("--matcher", type=click.Choice(_MATCHER_NAMES), default="truematch",
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True)
@click.option("--probs-out", type=click.Path(dir_okay=False), required=True,
              help="Membership-probability CSV (N rows, K columns).")
@click.option("--stats-out", type=click.Path(dir_okay=False), default=None,
              help="Write the stats JSON here instead of stdout.")
def mmcc(data_csv, k, rounds, matcher, seed, probs_out, stats_out):
    """Vote-aggregation clustering of numeric DATA_CSV rows."""
    with _Guard():
        data = _load_matrix_csv(data_csv)
        rng = np.random.default_rng(seed)
        _, probs = mmcc_run(data, k, LloydClusterer(), matcher, rounds, rng)
        stats = cic_stats(probs)
        _emit_text(_csv_text(probs.probs), probs_out)
        payload = {
            "H": stats.uncertainty,
            "RMC": stats.complexity,
            "I": stats.information,
            "CIC": stats.cic,
            "k": k,
            "rounds": rounds,
            "matcher": matcher,
            "seed": seed,
        }
        _emit_json(payload, stats_out)


@main.command()
@click.option("--scenario", type=click.Choice(["outlier", "grid"]), required=True)
@click.option("--matcher", type=click.Choice(_MATCHER_NAMES), default="truematch",
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=10000, show_default=True,
              help="Outlier scenario repetitions.")
@click.option("--p-grid", default="0.5,0.7,0.9", show_default=True,
              help="Comma-separated class-share grid.")
@click.option("--kappa-grid", default="0,0.5,1", show_default=True,
              help="Comma-separated reliability grid.")
@click.option("--rounds", type=click.IntRange(min=2), default=300, show_default=True,
              help="Bootstrap rounds per grid cell.")
@click.option("--fixed/--non-fixed", default=False, show_default=True,
              help="Enforce exact class sizes in the fictitious clusterer.")
@click.option("--n-cases", type=click.IntRange(min=2), default=100, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write output (JSON for outlier, CSV for grid) here instead of stdout.")
def simulate(scenario, matcher, seed, runs, p_grid, kappa_grid, rounds, fixed, n_cases, out):
    """Run the outlier scenario or a (p, kappa) grid sweep."""
    with _Guard():
        if scenario == "outlier":
            rng = np.random.default_rng(seed)
            res = outlier_scenario(runs, matcher, rng, n_cases=n_cases)
            payload = {
                "matcher": res.matcher,
                "runs": res.runs,
                "seed": seed,
                "expected_table_percent": res.table_share * 100.0,
                "diagonal": res.diagonal,
                "kappa": res.kappa,
                "rand": res.rand,
                "crand": res.crand,
                "random_match_rate": res.random_match_rate,
            }
            _emit_json(payload, out)
            return
        p_values = _parse_grid(p_grid, "p")
        kappa_values = _parse_grid(kappa_grid, "kappa")
        base = SimulationConfig(
            p=p_values[0], kappa=kappa_values[0], n_cases=n_cases,
            rounds=rounds, fixed=fixed, matcher=matcher, seed=seed,
        )
        cells = grid_sweep(p_values, kappa_values, base)
        lines = ["p,kappa,H,I,CIC,degenerate,fixed,matcher,seed"]
        for c in cells:
            lines.append(
                f"{c.p:.6g},{c.kappa:.6g},{c.uncertainty:.6g},{c.information:.6g},"
                f"{c.cic:.6g},{str(c.degenerate).lower()},{str(c.fixed).lower()},"
                f"{c.matcher},{c.seed}"
            )
        _emit_text("\n".join(lines) + "\n", out)


def _parse_grid(raw: str, name: str) -> list[float]:
    try:
        values = [float(tok) + 0.0 for tok in raw.split(",") if tok.strip() != ""]  # -0 becomes 0
    except ValueError as err:
        raise click.ClickException(f"bad --{name}-grid {raw!r}: {err}") from err
    if not values:
        raise click.ClickException(f"--{name}-grid must list at least one value")
    return values


if __name__ == "__main__":
    main()
