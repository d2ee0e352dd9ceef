"""Finitely supported coefficient sequences and decreasing rearrangements."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

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
            items = entries.items()
        else:
            items = list(entries)
            if len({i for i, _ in items}) != len(items):
                raise ValueError("duplicate index in sequence")
        self.entries = dict(items)
        self.kind = kind

    @classmethod
    def from_values(cls, values, kind="integer", indices=None):
        """Attach a list of coefficients to explicit or 1-based integer indices."""
        if indices is None:
            indices = range(1, len(values) + 1)
        return cls(dict(zip(indices, values, strict=True)), kind)

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
        entries = {}
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            if [h.strip().lower() for h in header[:2]] != ["index", "coefficient"]:
                raise ValueError(f"bad sequence CSV header: {header!r}")
            for row in rd:
                if not row:
                    continue
                idx = parse_index(row[0], kind)
                if idx in entries:
                    raise ValueError(f"duplicate index {row[0]!r}")
                entries[idx] = float(row[1])
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


def indicator(indices, kind="integer", value=1.0):
    return Sequence({i: value for i in indices}, kind)
