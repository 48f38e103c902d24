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
# residuals is not called here but stays a module attribute: the span
# tracer in perfbench/spans.py wraps truematch.cli.residuals
from .crosstab import crosstab, residuals  # noqa: F401
from .labels import LabelParseError, canonical_pair, parse_labels
from .matching import MATCHERS, resolve_matcher
from .mmcc import cic_stats, lloyd_base_clusterer, mmcc_run
from .simulate import SimulationConfig, grid_sweep, outlier_scenario

DEFAULT_SEED = 0
_MATCHER_NAMES = sorted(MATCHERS)


def _json_text(value, nl: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` prints it
    once every float, numpy arrays included, is rounded to 6 significant
    digits.  Keys must be strings; ``nl`` is the newline and indent of the
    enclosing level.

    Each numpy array is rendered row by row through C-level ``map``s
    instead of one Python call per number.
    """
    if isinstance(value, (str, bool)) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(value, np.ndarray):
        if value.ndim and value.dtype.kind in "iuf":
            return _nest(_array_items(value), value.shape, nl)
        return _json_text(value.tolist(), nl)
    if isinstance(value, (list, tuple)):
        return _bracket([_json_text(item, inner) for item in value], nl)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(float(f"{x:.6g}"))
    return json.dumps(x)  # NaN, Infinity, -Infinity


def _array_items(arr: np.ndarray) -> list[str]:
    """The JSON text of each element of an integer or float array, row-major."""
    values = arr.ravel().tolist()
    if arr.dtype.kind in "iu":
        return list(map(int.__repr__, values))
    if np.isfinite(arr).all():
        return list(map(float.__repr__, map(float, map("{:.6g}".format, values))))
    return list(map(_float_text, values))


def _nest(items: list[str], shape: tuple[int, ...], nl: str) -> str:
    """Bracket the row-major element texts of an array of ``shape``."""
    if len(shape) > 1:
        step = math.prod(shape[1:])
        inner = nl + "  "
        items = [_nest(items[i * step:(i + 1) * step], shape[1:], inner) for i in range(shape[0])]
    return _bracket(items, nl)


def _bracket(items: list[str], nl: str) -> str:
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


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
        with open(path, "r", encoding="utf-8") as fh:
            return parse_labels(fh)
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
    skip = 0
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            first = fh.readline()
        try:
            [float(tok) for tok in first.replace(",", " ").split()]
        except ValueError:
            skip = 1
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except OSError as err:
        raise click.ClickException(f"{path}: {err}") from err
    except ValueError as err:
        # numpy's row numbers count neither alike nor from the top of the file
        located = _first_bad_line(path, skip)
        raise click.ClickException(f"{path}:{located}" if located else f"{path}: {err}") from err
    if data.size == 0:
        raise click.ClickException(f"{path}: no numeric rows")
    bad_rows = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad_rows.size:
        line, _ = _data_lines(path, skip)[bad_rows[0]]
        raise click.ClickException(f"{path}:{line}: non-finite value (nan or inf)")
    return data


def _data_lines(path: str, skip: int) -> list[tuple[int, str]]:
    """(1-based line number, text) of each line np.loadtxt reads as a row:
    past the header, with comments cut and empty lines dropped (a line of
    spaces is a row to numpy)."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        cut = [(i, raw.split("#")[0].rstrip("\n")) for i, raw in enumerate(fh, start=1) if i > skip]
    return [(i, text) for i, text in cut if text]


def _first_bad_line(path: str, skip: int) -> str | None:
    """'LINE: reason' for the first row that is not as many numbers as the first row."""
    width = None
    for line, text in _data_lines(path, skip):
        try:
            # numpy's own parser: Python's float() also takes '1_0' and non-ASCII digits
            values = np.loadtxt([text], delimiter=",", ndmin=1).size
        except ValueError:
            return f"{line}: cannot read {text.strip()!r} as comma-separated numbers"
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
        payload = {
            "method": method,
            "seed": seed,
            "perm": result.perm,
            "pairs": [[p.row, p.column, p.signed_dev, p.count] for p in result.pairs],
            "table_before": table.counts,
            "table_after": result.matched_table.counts,
            "signed_residuals": result.residuals.signed,
            "chi2": result.residuals.chi2,
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
        votes, probs = mmcc_run(data, k, lloyd_base_clusterer(), matcher, rounds, rng)
        stats = cic_stats(probs)
        lines = [",".join(map("{:.6g}".format, row)) for row in probs.probs.tolist()]
        _emit_text("\n".join(lines) + "\n", probs_out)
        payload = {
            "H": stats.uncertainty,
            "RMC": stats.complexity,
            "I": stats.information,
            "CIC": stats.cic,
            "k": k,
            "rounds": votes.rounds,
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
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise click.ClickException(f"bad --{name}-grid {raw!r}: {err}") from err
    if not values:
        raise click.ClickException(f"--{name}-grid must list at least one value")
    return values


if __name__ == "__main__":
    main()
