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
        n_clusters = _whole(self.n_clusters, "n_clusters", 0)
        object.__setattr__(self, "labels", _label_array(self.labels, n_clusters))
        object.__setattr__(self, "n_clusters", n_clusters)

    def __len__(self) -> int:
        return int(self.labels.size)


def _whole(value, name: str, ndim: int):
    """``value`` as int64 (an int when ``ndim`` is 0).  Floats must be whole
    numbers within int64: 1.5, NaN and inf are rejected, not truncated."""
    arr = np.asarray(value)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got shape {arr.shape}")
    if arr.dtype.kind == "f" and not ((arr == np.rint(arr)) & (np.abs(arr) < 2.0**63)).all():
        raise ValueError(f"{name} must be {'a whole number' if ndim == 0 else 'whole numbers'}")
    # a 0-d value converts directly, so seeds above the int64 range stay exact
    return int(arr) if ndim == 0 else arr.astype(np.int64, copy=False)


def _label_array(v, k: int | None = None, name: str = "labels") -> np.ndarray:
    """Labels of ``v`` as a non-empty 1-D int64 array, in 1..k if ``k`` is given."""
    labels = _whole(getattr(v, "labels", v), name, 1)
    if labels.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if k is not None and (labels.min() < 1 or labels.max() > k):
        raise ValueError(f"{name} must lie in 1..{k}, got range [{labels.min()}, {labels.max()}]")
    return labels


def _perm_array(perm) -> np.ndarray:
    """``perm`` as int64 if it holds each of 1..K once, K its length."""
    perm = _label_array(perm, name="perm")
    if not np.array_equal(np.sort(perm), np.arange(1, perm.size + 1)):
        raise ValueError(f"perm is not a bijection on 1..{perm.size}: {perm.tolist()}")
    return perm


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
    if la.size != lb.size:
        raise ValueError(f"length mismatch: {la.size} vs {lb.size}")
    ca, ka = _compact(la)
    cb, kb = _compact(lb)
    k = max(ka, kb)
    return LabelVector(ca, k), LabelVector(cb, k), k


def apply_permutation(vector, perm) -> LabelVector:
    """Relabel ``vector`` through ``perm``: label x becomes perm[x-1].

    ``perm`` must hold each of 1..K once, as whole numbers, and every label
    must lie in 1..K; anything else raises ``ValueError``.  Applying the
    inverse permutation afterwards restores the vector.
    """
    perm = _perm_array(perm)
    labels = _label_array(vector, perm.size)
    return LabelVector(perm[labels - 1], perm.size)
