"""Finitely supported coefficient sequences and decreasing rearrangements."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, finite
from .indices import canonical_key, format_index, parse_index


class Sequence:
    """Finitely supported map from basis indices to real coefficients.

    kind names the index universe: integer | cube | interval | rect | pair.
    Duplicate indices are rejected; stored zeros are kept but stripped by
    rearrangement and norm evaluation.
    """

    __slots__ = ("entries", "kind")

    def __init__(self, entries, kind="integer"):
        if isinstance(entries, dict):
            # a dict copies with the keys' stored hashes; dict(entries.items())
            # would hash every index again
            self.entries = dict(entries)
        else:
            items = list(entries)
            if len({i for i, _ in items}) != len(items):
                raise ValueError("duplicate index in sequence")
            self.entries = dict(items)
        self.kind = kind

    @classmethod
    def from_values(cls, values):
        """Attach a list of coefficients to the integer indices 1, 2, ..."""
        return cls(dict(zip(range(1, len(values) + 1), values)))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.items())

    def support(self):
        return sorted((i for i, v in self.entries.items() if v != 0.0), key=canonical_key)

    def scale(self, factor):
        return Sequence({i: factor * v for i, v in self.entries.items()}, self.kind)

    def __add__(self, other):
        if other.kind != self.kind:
            raise ValueError("universe mismatch")
        out = dict(self.entries)
        for i, v in other.entries.items():
            out[i] = out.get(i, 0.0) + v
        return Sequence(out, self.kind)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "coefficient"])
            for i in sorted(self.entries, key=canonical_key):
                v = self.entries[i]
                if isinstance(v, np.generic):  # repr would be "np.float64(...)"
                    v = v.item()
                w.writerow([format_index(i), repr(v)])

    @classmethod
    def from_csv(cls, path, kind="integer"):
        """Read an index,coefficient CSV; malformed content, including a
        coefficient that is not a finite number, raises ParseError."""
        entries = {}
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, [])
            if [h.strip().lower() for h in header[:2]] != ["index", "coefficient"]:
                raise ParseError(f"bad sequence CSV header: {header!r}")
            for row in rd:
                if not row:
                    continue
                idx = parse_index(row[0], kind)
                if idx in entries:
                    raise ParseError(f"duplicate index {row[0]!r}")
                if len(row) < 2:
                    raise ParseError(f"index {row[0]!r} has no coefficient")
                entries[idx] = finite(row[1], f"coefficient at {row[0]!r}")
        if len({getattr(i, "d", 1) for i in entries}) > 1:
            raise ParseError("indices of mixed dimensions")
        return cls(entries, kind)


@dataclass
class Rearranged:
    """Nonincreasing magnitudes with the index order that produced them."""

    values: np.ndarray
    order: list = field(repr=False)

    def __len__(self):
        return len(self.values)


def rearrange(seq: Sequence) -> Rearranged:
    """Decreasing rearrangement of |coefficients|; ties in canonical index order."""
    items = [(i, abs(v)) for i, v in seq.entries.items() if v != 0.0]
    items.sort(key=lambda t: (-t[1], canonical_key(t[0])))
    return Rearranged(np.array([m for _, m in items]), [i for i, _ in items])


def indicator(indices, kind="integer"):
    return Sequence(dict.fromkeys(indices, 1.0), kind)
