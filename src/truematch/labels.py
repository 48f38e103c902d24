"""Parsing, validation, and relabeling of crisp cluster-label vectors.

Label files are UTF-8 text with one label per line and an optional single
header line ``label``.  Tokens may be arbitrary category strings; they are
mapped onto the integers 1..K in order of first appearance, and the mapping
is returned so callers can round-trip back to the original names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabelVector",
    "LabelParseError",
    "parse_labels",
    "serialize_labels",
    "mapping_csv",
    "canonical_pair",
    "apply_permutation",
]

HEADER_TOKEN = "label"


class LabelParseError(ValueError):
    """Malformed label stream; ``line`` is the offending 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class LabelVector:
    """Crisp assignment of cases to clusters labeled 1..n_clusters.

    ``n_clusters`` may exceed the number of labels actually present: a
    vector canonicalized against a partner with more clusters keeps the
    larger label space so that downstream tables stay square.
    """

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        labels = _label_array(self.labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if labels.min() < 1 or labels.max() > self.n_clusters:
            raise ValueError(
                f"labels must lie in 1..{self.n_clusters}, "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.labels.size)


def _label_array(v) -> np.ndarray:
    """Labels of a LabelVector or sequence as int64; float labels must be
    whole numbers, so 1.5 is rejected instead of truncated to 1."""
    labels = np.asarray(getattr(v, "labels", v))
    if labels.dtype.kind == "f" and not np.array_equal(labels, np.rint(labels)):
        raise ValueError("labels must be whole numbers")
    return np.asarray(labels, dtype=np.int64)


def parse_labels(source) -> tuple[LabelVector, dict[str, int]]:
    """Parse a label stream into a canonical vector plus its name mapping.

    ``source`` is a string or a readable text object.  Categories map to
    1..K by first appearance.  Blank lines are only tolerated at the very
    end of the stream; a blank line followed by more tokens is an error.
    """
    if hasattr(source, "read"):
        source = source.read()
    tokens = [raw.strip() for raw in source.split("\n")]
    while tokens and tokens[-1] == "":
        tokens.pop()
    if not tokens:
        raise LabelParseError("empty label stream")
    if "" in tokens:
        lineno = tokens.index("") + 1
        raise LabelParseError(f"blank line {lineno} inside label stream", line=lineno)

    if tokens[0] == HEADER_TOKEN:
        tokens = tokens[1:]
    if not tokens:
        raise LabelParseError("label stream holds a header but no labels")

    mapping = {tok: i for i, tok in enumerate(dict.fromkeys(tokens), start=1)}
    out = np.fromiter(map(mapping.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    return LabelVector(out, len(mapping)), mapping


def serialize_labels(vector: LabelVector, header: bool = True) -> str:
    """Render a vector in the one-label-per-line file format."""
    body = "\n".join(str(x) for x in vector.labels)
    if header:
        return f"{HEADER_TOKEN}\n{body}\n"
    return body + "\n"


def mapping_csv(mapping: dict[str, int]) -> str:
    """Two-column CSV (original,canonical) for a parse_labels mapping."""
    rows = ["original,canonical"]
    rows += [f"{name},{canon}" for name, canon in mapping.items()]
    return "\n".join(rows) + "\n"


def _compact(labels: np.ndarray) -> tuple[np.ndarray, int]:
    # Distinct values map onto 1..K preserving numeric order, so vectors
    # already on 1..K pass through unchanged.
    values, inverse = np.unique(labels, return_inverse=True)
    return inverse.astype(np.int64) + 1, int(values.size)


def canonical_pair(a, b) -> tuple[LabelVector, LabelVector, int]:
    """Relabel two equal-length vectors onto a shared 1..K label space.

    K is the larger side's distinct-label count; the smaller side simply
    never uses the top labels, which zero-pads tables built downstream.
    """
    la, lb = _label_array(a), _label_array(b)
    if la.ndim != 1 or lb.ndim != 1:
        raise ValueError("label vectors must be 1-D")
    if la.size != lb.size:
        raise ValueError(f"length mismatch: {la.size} vs {lb.size}")
    if la.size == 0:
        raise ValueError("label vectors must be non-empty")
    ca, ka = _compact(la)
    cb, kb = _compact(lb)
    k = max(ka, kb)
    return LabelVector(ca, k), LabelVector(cb, k), k


def apply_permutation(vector, perm) -> LabelVector:
    """Relabel ``vector`` through ``perm``: label x becomes perm[x-1].

    ``perm`` must be a bijection on 1..K covering every label in the
    vector; applying the inverse permutation afterwards restores it.
    """
    perm = np.asarray(perm, dtype=np.int64)
    k = perm.size
    if not np.array_equal(np.sort(perm), np.arange(1, k + 1)):
        raise ValueError(f"perm is not a bijection on 1..{k}: {perm.tolist()}")
    labels = _label_array(vector)
    if labels.size == 0:
        raise ValueError("label vector must be non-empty")
    if labels.min() < 1 or labels.max() > k:
        raise ValueError(f"labels outside 1..{k} cannot be permuted")
    return LabelVector(perm[labels - 1], k)
