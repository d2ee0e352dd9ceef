import numpy as np
import pytest

from nterm.indices import Cube
from nterm.sequences import Sequence, indicator, rearrange


class _CountedKey:
    """An index whose __hash__ calls are counted."""

    calls = 0

    def __init__(self, k):
        self.k = k

    def __hash__(self):
        _CountedKey.calls += 1
        return hash(self.k)

    def __eq__(self, other):
        return self.k == other.k


def test_dict_argument_is_copied_without_rehashing():
    entries = {_CountedKey(k): float(k) for k in range(64)}
    _CountedKey.calls = 0
    seq = Sequence(entries)
    assert _CountedKey.calls == 0
    assert seq.entries == entries and seq.entries is not entries


def test_rearrangement_examples():
    s = Sequence({1: 3.0, 2: -1.0, 3: 2.0})
    r = rearrange(s)
    assert list(r.values) == [3.0, 2.0, 1.0]
    assert r.order == [1, 3, 2]

    assert list(rearrange(Sequence({1: 5.0})).values) == [5.0]

    tied = Sequence({1: 2.0, 2: -2.0, 3: 2.0})
    r = rearrange(tied)
    assert list(r.values) == [2.0, 2.0, 2.0]
    assert r.order == [1, 2, 3]  # canonical order breaks ties


def test_zeros_stripped():
    s = Sequence({1: 0.0, 2: 1.0})
    assert len(rearrange(s)) == 1
    assert s.support() == [2]


def test_duplicate_index_rejected():
    with pytest.raises(ValueError):
        Sequence([(1, 2.0), (1, 3.0)])


def test_restrict_drop_add():
    s = Sequence({1: 1.0, 2: 2.0, 3: 3.0})
    t = s + Sequence({3: 1.0, 4: 4.0})
    assert t.entries == {1: 1.0, 2: 2.0, 3: 4.0, 4: 4.0}
    assert s.scale(2.0).entries[2] == 4.0


def test_csv_round_trip(tmp_path, rng):
    path = tmp_path / "seq.csv"
    s = Sequence({Cube(j, (k,)): float(v) for (j, k), v in
                  zip([(0, 0), (1, 1), (2, 3)], rng.standard_normal(3))}, "cube")
    s.to_csv(path)
    t = Sequence.from_csv(path, "cube")
    assert t.entries == s.entries and t.kind == "cube"


def test_csv_round_trip_numpy_values(tmp_path):
    path = tmp_path / "seq.csv"
    s = Sequence.from_values(np.array([1.0, -0.55, 0.1, 3e-300]))
    s.to_csv(path)
    assert "np." not in path.read_text()
    t = Sequence.from_csv(path)
    assert t.entries == s.entries
    Sequence.from_values(np.array([2, -1])).to_csv(path)
    assert Sequence.from_csv(path).entries == {1: 2.0, 2: -1.0}


def test_csv_plain_floats_unchanged(tmp_path):
    path = tmp_path / "seq.csv"
    Sequence.from_values([0.1, -2.5]).to_csv(path)
    assert path.read_bytes() == b"index,coefficient\r\n1,0.1\r\n2,-2.5\r\n"


def test_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        Sequence.from_csv(path)


def test_indicator():
    s = indicator([1, 2, 3])
    assert all(v == 1.0 for v in s.entries.values())
