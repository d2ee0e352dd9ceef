"""Basis index universes: integers, dyadic cubes, dyadic rectangles, paired streams.

Every index kind carries a canonical total order used for deterministic
tie-breaking: integers numerically, cubes by (level, offset lexicographic),
rectangles by the concatenated interval keys, pairs by (component, index).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True, order=True)
class Cube:
    """Dyadic cube 2^-j ([0,1)^d + k). Measure 2^(-j*d)."""

    j: int
    k: tuple

    @property
    def d(self):
        return len(self.k)

    @property
    def measure(self):
        return 2.0 ** (-self.j * self.d)

    @property
    def log2_measure(self):
        return float(-self.j * self.d)

    def ancestor(self, level):
        """Ancestor cube at a coarser level (level <= self.j)."""
        if level > self.j:
            raise ValueError("ancestor level must be <= cube level")
        shift = self.j - level
        return Cube(level, tuple(c >> shift for c in self.k))

    def contains(self, other: "Cube"):
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        return other.j >= self.j and other.ancestor(self.j) == self

    def support(self):
        """Per-coordinate half-open bounds [lo, hi)."""
        w = 2.0 ** (-self.j)
        return tuple((c * w, (c + 1) * w) for c in self.k)


@dataclass(frozen=True, order=True)
class Rect:
    """Dyadic rectangle I_1 x ... x I_d with one-dimensional dyadic intervals."""

    intervals: tuple  # of Cube with d == 1

    @property
    def d(self):
        return len(self.intervals)

    @property
    def measure(self):
        m = 1.0
        for iv in self.intervals:
            m *= iv.measure
        return m

    @property
    def log2_measure(self):
        return float(-sum(iv.j for iv in self.intervals))

    def support(self):
        return tuple(iv.support()[0] for iv in self.intervals)


@dataclass(frozen=True, order=True)
class Pair:
    """Index of one of two coupled integer streams (component 0 or 1)."""

    component: int
    k: int


def interval(j, k):
    """One-dimensional dyadic interval as a Cube."""
    return Cube(j, (k,))


def canonical_key(idx):
    """Sort key defining the deterministic canonical order within a universe."""
    if isinstance(idx, int):
        return idx
    if isinstance(idx, Cube):
        return (idx.j, idx.k)
    if isinstance(idx, Rect):
        return tuple((iv.j, iv.k[0]) for iv in idx.intervals)
    if isinstance(idx, Pair):
        return (idx.component, idx.k)
    raise TypeError(f"unknown index type: {type(idx)!r}")


# ---------------------------------------------------------------------------
# text form: integers "5", cubes "j:k1,...,kd", rectangles "j1:k1|j2:k2|...",
# pairs "a:k" / "b:k"
# ---------------------------------------------------------------------------

_PAIR_NAMES = {"a": 0, "b": 1}
_PAIR_LETTER = {0: "a", 1: "b"}


def format_index(idx):
    if isinstance(idx, int):
        return str(idx)
    if isinstance(idx, Cube):
        return f"{idx.j}:{','.join(str(c) for c in idx.k)}"
    if isinstance(idx, Rect):
        return "|".join(f"{iv.j}:{iv.k[0]}" for iv in idx.intervals)
    if isinstance(idx, Pair):
        return f"{_PAIR_LETTER[idx.component]}:{idx.k}"
    raise TypeError(f"unknown index type: {type(idx)!r}")


def parse_index(text, kind):
    """Parse an index of the given universe kind from its text form."""
    text = text.strip()
    try:
        if kind == "integer":
            return int(text)
        if kind in ("cube", "interval"):
            j, ks = text.split(":")
            k = tuple(int(c) for c in ks.split(","))
            if kind == "interval" and len(k) != 1:
                raise ValueError("an interval has one coordinate")
            return Cube(int(j), k)
        if kind == "rect":
            ivs = []
            for part in text.split("|"):
                j, k = part.split(":")
                ivs.append(interval(int(j), int(k)))
            return Rect(tuple(ivs))
        if kind == "pair":
            comp, k = text.split(":")
            return Pair(_PAIR_NAMES[comp], int(k))
    except (ValueError, KeyError) as exc:
        raise ParseError(f"cannot parse {kind} index from {text!r}") from exc
    raise ParseError(f"unknown universe kind {kind!r}")
