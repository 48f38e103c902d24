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
    larger label space so that downstream tables stay square.  ``labels`` is a read-only copy, checked once.
    """

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        n_clusters = _whole(self.n_clusters, "n_clusters", 0)
        object.__setattr__(self, "labels", _readonly(_label_array(self.labels, n_clusters).copy()))
        object.__setattr__(self, "n_clusters", n_clusters)

    def __len__(self) -> int:
        return int(self.labels.size)

    def __reduce__(self):
        return LabelVector, (self.labels, self.n_clusters)  # copies rebuild through the checks


def _whole(value, name: str, ndim: int, low: int | None = None):
    """``value`` as int64 (an int when ``ndim`` is 0), each entry at least
    ``low`` if given.  Floats must be whole numbers within int64: 1.5, NaN
    and inf are rejected, not truncated."""
    if ndim == 0 and type(value) is int and (low is None or value >= low):
        return value  # a plain int in range: nothing to convert or check
    arr = np.asarray(value)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got shape {arr.shape}")
    if arr.dtype.kind == "f" and not ((arr == np.rint(arr)) & (np.abs(arr) < 2.0**63)).all():
        raise ValueError(f"{name} must be {'a whole number' if ndim == 0 else 'whole numbers'}")
    # a 0-d value converts directly, so seeds above the int64 range stay exact
    out = int(arr) if ndim == 0 else arr.astype(np.int64, copy=False)
    if low is not None and np.asarray(out).min(initial=low) < low:
        raise ValueError(f"{name} must be >= {low}, got {np.min(out)}")
    return out


def _trusted(cls, **fields):
    """``cls(**fields)`` without its checks, for values the library has just built valid.
    Each array field is a fresh array no caller holds; it is made read-only."""
    for field in fields.values():
        if isinstance(field, np.ndarray):
            field.flags.writeable = False
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr``, a fresh array no caller holds, made read-only."""
    arr.flags.writeable = False
    return arr


def _label_array(v, k: int | None = None, name: str = "labels") -> np.ndarray:
    """Labels of ``v`` as a non-empty 1-D int64 array, in 1..k if ``k`` is given.
    A ``LabelVector`` within 1..k was checked when it was made; its labels come back as they are."""
    if type(v) is LabelVector and (k is None or v.n_clusters <= k):
        return v.labels
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


class _Codes(dict):
    """Raw line -> label code.  A line met for the first time is stripped once, and its
    token is coded 1, 2, ... in order of first appearance in ``tokens``."""

    def __init__(self):
        self.tokens: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        return self.setdefault(raw, self.tokens.setdefault(raw.strip(), len(self.tokens) + 1))


def parse_labels(source) -> tuple[LabelVector, dict[str, int]]:
    """Parse a label stream into a canonical vector plus its name mapping.

    ``source`` is a string or a readable text object.  Categories map to
    1..K by first appearance.  Blank lines are only tolerated at the very
    end of the stream; a blank line followed by more tokens is an error.
    """
    if hasattr(source, "read"):
        source = source.read()
    lines = source.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise LabelParseError("empty label stream")
    body = lines[1:] if lines[0].strip() == HEADER_TOKEN else lines
    if not body:
        raise LabelParseError("label stream holds a header but no labels")
    codes = _Codes()  # one lookup a line
    out = np.fromiter(map(codes.__getitem__, body), dtype=np.int64, count=len(body))
    if "" in codes.tokens:
        lineno = next(i for i, raw in enumerate(lines, start=1) if not raw.strip())
        raise LabelParseError(f"blank line {lineno} inside label stream", line=lineno)
    return _trusted(LabelVector, labels=out, n_clusters=len(codes.tokens)), codes.tokens


def _compact(labels: np.ndarray) -> tuple[np.ndarray, int]:
    # Distinct values map onto 1..K preserving numeric order, so vectors
    # already on 1..K pass through unchanged, copied (the caller may hold them) and unsorted.
    top = int(labels.max())
    if labels.min() == 1 and top <= labels.size and np.bincount(labels, minlength=top + 1)[1:].all():
        return labels.copy(), top
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
    (ca, ka), (cb, kb) = _compact(la), _compact(lb)
    va, vb = (_trusted(LabelVector, labels=c, n_clusters=max(ka, kb)) for c in (ca, cb))
    return va, vb, va.n_clusters


def apply_permutation(vector, perm) -> LabelVector:
    """Relabel ``vector`` through ``perm``: label x becomes perm[x-1].

    ``perm`` must hold each of 1..K once, as whole numbers, and every label
    must lie in 1..K; anything else raises ``ValueError``.  Applying the
    inverse permutation afterwards restores the vector.
    """
    perm = _perm_array(perm)
    labels = _label_array(vector, perm.size)
    return LabelVector(perm[labels - 1], perm.size)
