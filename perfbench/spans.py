"""Span tracing from outside the program: wrappers on truematch's layer boundaries.

``install(tracer)`` replaces every module attribute (and ``MATCHERS``
entry, and ``LloydClusterer`` method) through which one layer calls
another with a wrapper that records a span; the returned ``Patch``
puts every original back.  No file of the program is changed.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``op`` the id of the
benchmark op that caused it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name): every attribute through which one layer's
# public function is reached from another layer or from the CLI.
TARGETS = [
    ("truematch.cli", "parse_labels", "labels.parse"),
    ("truematch.cli", "canonical_pair", "labels.canonical"),
    ("truematch.cli", "crosstab", "crosstab.table"),
    ("truematch.cli", "residuals", "crosstab.residuals"),
    ("truematch.cli", "mmcc_run", "mmcc.run"),
    ("truematch.cli", "cic_stats", "mmcc.cic"),
    ("truematch.cli", "outlier_scenario", "simulate.outlier"),
    ("truematch.cli", "grid_sweep", "simulate.grid"),
    ("truematch.simulate", "simulate_cell", "simulate.cell"),
    ("truematch.simulate", "fictitious_cluster", "simulate.judge"),
    ("truematch.simulate", "enforce_sizes", "simulate.enforce"),
    ("truematch.simulate", "crosstab", "crosstab.table"),
    ("truematch.simulate", "majority_labels", "mmcc.majority"),
    ("truematch.simulate", "cic_stats", "mmcc.cic"),
    ("truematch.mmcc", "crosstab", "crosstab.table"),
    ("truematch.mmcc", "majority_labels", "mmcc.majority"),
    ("truematch.mmcc", "LloydClusterer.fit", "mmcc.fit"),
    ("truematch.mmcc", "LloydClusterer.predict", "mmcc.predict"),
    ("truematch.matching", "residuals", "crosstab.residuals"),
    ("truematch.matching", "solve_assignment", "assignment.solve"),
] + [
    (module, index, "agreement.index")
    for module in ("truematch.cli", "truematch.simulate")
    for index in ("diagonal_fraction", "cohen_kappa", "rand_index", "adjusted_rand")
]
MATCH_SPAN = "matching.match"
ROOT_SPAN = "cli.invoke"


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, fn, name: str, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")


def _count_tie_draws(tracer: Tracer, result) -> None:
    trace = result.seed_trace
    tracer.counts["matching.tie_draws"] += len(trace.get("pair_draws", ())) + len(trace.get("tie_draws", ()))


def _owners():
    """(owner object, attribute name, span name, post-call hook) for every target."""
    out = []
    for module_name, attr, name in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        out.append((owner, attr, name, None))
    matchers = importlib.import_module("truematch.matching").MATCHERS
    out += [(matchers, key, MATCH_SPAN, _count_tie_draws) for key in sorted(matchers)]
    return out


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Patch:
    """Installed wrappers; ``restore()`` puts every original back."""

    def __init__(self, saved):
        self.saved = saved

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            _set(owner, attr, original)
        self.saved = []


def install(tracer: Tracer) -> Patch:
    saved = []
    for owner, attr, name, after in _owners():
        original = _get(owner, attr)
        saved.append((owner, attr, original))
        _set(owner, attr, tracer.wrap(original, name, after))
    return Patch(saved)


def installed_wrappers() -> list[str]:
    """Targets that currently hold a tracing wrapper (empty when untraced)."""
    return [
        f"{getattr(owner, '__name__', 'MATCHERS')}.{attr}"
        for owner, attr, _, _ in _owners()
        if getattr(_get(owner, attr), "__wrapped_by_perfbench__", False)
    ]


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run; times and counts are per op."""
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(int)   # ns inside spans of each name
    selft = defaultdict(int)   # ns of self time
    calls = defaultdict(int)
    child_calls = defaultdict(int)  # (parent name, child name) -> calls
    cell_children = defaultdict(lambda: defaultdict(int))  # cell index -> child name -> calls
    for idx, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        selft[name] += own[idx]
        calls[name] += 1
        if parent >= 0:
            parent_name = spans[parent][0]
            child_calls[parent_name, name] += 1
            if parent_name == "simulate.cell":
                cell_children[parent][name] += 1

    # A cell's first accepted round votes unmatched; every later accepted
    # round cross-tabulates once.  Each judged draw is one fictitious_cluster.
    accepted = sum(c["crosstab.table"] + 1 for c in cell_children.values() if c["simulate.judge"])
    judged = sum(c["simulate.judge"] for c in cell_children.values())

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(value, scale=1.0):
        return value / scale / ops

    us, ms = 1e3, 1e6
    return {
        "labels.parse_ms": per_op(total["labels.parse"], ms),
        "labels.parse_calls": per_op(calls["labels.parse"]),
        "labels.canonical_ms": per_op(total["labels.canonical"], ms),
        "crosstab.table_us": per_op(total["crosstab.table"], us),
        "crosstab.table_calls": per_op(calls["crosstab.table"]),
        "crosstab.residuals_us": per_op(total["crosstab.residuals"], us),
        "crosstab.residuals_calls": per_op(calls["crosstab.residuals"]),
        "crosstab.residuals_per_match": ratio(child_calls[MATCH_SPAN, "crosstab.residuals"], calls[MATCH_SPAN]),
        "assignment.solve_us": per_op(total["assignment.solve"], us),
        "assignment.solve_calls": per_op(calls["assignment.solve"]),
        "assignment.solve_share": ratio(total["assignment.solve"], total[MATCH_SPAN]),
        "matching.match_us": per_op(total[MATCH_SPAN], us),
        "matching.self_us": per_op(selft[MATCH_SPAN], us),
        "matching.calls": per_op(calls[MATCH_SPAN]),
        "matching.tie_draws_per_match": ratio(tracer.counts["matching.tie_draws"], calls[MATCH_SPAN]),
        "agreement.index_us": per_op(total["agreement.index"], us),
        "agreement.calls": per_op(calls["agreement.index"]),
        "mmcc.fit_ms": per_op(total["mmcc.fit"], ms),
        "mmcc.predict_ms": per_op(total["mmcc.predict"], ms),
        "mmcc.majority_us": per_op(total["mmcc.majority"], us),
        "mmcc.majority_calls": per_op(calls["mmcc.majority"]),
        "mmcc.cic_us": per_op(total["mmcc.cic"], us),
        "mmcc.run_self_ms": per_op(selft["mmcc.run"], ms),
        "simulate.cell_self_ms": per_op(selft["simulate.cell"], ms),
        "simulate.judge_us": per_op(total["simulate.judge"], us),
        "simulate.judge_calls": per_op(calls["simulate.judge"]),
        "simulate.enforce_us": per_op(total["simulate.enforce"], us),
        "simulate.accept_ratio": ratio(accepted, judged),
        "simulate.outlier_self_us": per_op(selft["simulate.outlier"], us),
        "cli.invoke_ms": per_op(total[ROOT_SPAN], ms),
        "cli.self_ms": per_op(selft[ROOT_SPAN], ms),
    }
