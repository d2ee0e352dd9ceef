"""The Z-order sweep against direct per-level ancestor probing, and its three
users (square-function atoms, the batch cube incidence, bmo) against the
level-by-level loops they replaced, kept here as oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm.batch import _incidence, batch_evaluator
from nterm.democracy import h_structured
from nterm.errors import NumericError
from nterm.geometry import cube_sweep, rect_grid, virtual_tree
from nterm.indices import Cube, Rect, canonical_key, interval
from nterm.sequences import Sequence
from nterm.spaces import LN2, bmo_norm, parse_orlicz, parse_space, square_function

BMO = parse_space("bmo:2")


# ---------------------------------------------------------------------------
# oracles: the per-level probing loops
# ---------------------------------------------------------------------------

def probe_parents(cubes):
    pos = {c: i for i, c in enumerate(cubes)}
    levels = sorted({c.j for c in cubes})
    out = []
    for c in cubes:
        p = -1
        for lev in reversed([lv for lv in levels if lv < c.j]):
            i = pos.get(c.ancestor(lev))
            if i is not None:
                p = i
                break
        out.append(p)
    return out


def probe_bmo_norm(seq, r):
    items = [(iv, abs(v)) for iv, v in seq.entries.items() if v != 0.0]
    root_level = min(iv.j for iv, _ in items)
    while len({iv.ancestor(root_level) for iv, _ in items}) > 1:
        root_level -= 1
        if root_level < -1100:
            raise NumericError("support too spread out for a common dyadic root")
    sums = {}
    for iv, mag in items:
        contrib = mag**r * iv.measure
        for lev in range(iv.j, root_level - 1, -1):
            anc = iv.ancestor(lev)
            sums[anc] = sums.get(anc, 0.0) + contrib
    return max((s / iv.measure) ** (1.0 / r) for iv, s in sums.items())


def probe_bmo_cmat(indices, values, r):
    cands, rows = {}, []
    root_level = min(iv.j for iv in indices)
    while len({iv.ancestor(root_level) for iv in indices}) > 1:
        root_level -= 1
    for i, iv in enumerate(indices):
        contrib = values[i] ** r * iv.measure
        for lev in range(iv.j, root_level - 1, -1):
            anc = iv.ancestor(lev)
            if anc not in cands:
                cands[anc] = len(cands)
                rows.append(np.zeros(len(indices)))
            rows[cands[anc]][i] = contrib / anc.measure
    return np.array(rows)


def probe_cube_incidence(indices, values, inner_r, scale_exp):
    """ln measures of the square-function atoms of canonically ordered cubes,
    and the (atom x index) matrix of r-th power weights, both found by per-level
    ancestor probing: the atoms are the cubes their children leave untiled."""
    parent = probe_parents(indices)
    child_frac = np.zeros(len(indices))
    for i, cube in enumerate(indices):
        if parent[i] >= 0:
            child_frac[parent[i]] += 2.0 ** (-(cube.j - indices[parent[i]].j) * cube.d)
    atoms = [i for i in range(len(indices)) if child_frac[i] < 1.0]
    ln_meas = np.array([indices[i].log2_measure * LN2 + math.log1p(-child_frac[i])
                        for i in atoms])
    pos = {idx: i for i, idx in enumerate(indices)}
    ln_w = np.array([scale_exp * idx.log2_measure * LN2 + math.log(abs(values[i]))
                     for i, idx in enumerate(indices)])
    wr = np.exp(inner_r * ln_w)
    im = np.zeros((len(atoms), len(indices)))
    levels = sorted({idx.j for idx in indices})
    for a, i in enumerate(atoms):
        cube = indices[i]
        im[a, i] = wr[i]
        for lev in (lv for lv in levels if lv < cube.j):
            k = pos.get(cube.ancestor(lev))
            if k is not None:
                im[a, k] = wr[k]
    return ln_meas, im


# ---------------------------------------------------------------------------
# random deep families
# ---------------------------------------------------------------------------

@st.composite
def cube_families(draw, d, max_level=1000, max_size=30, signed=True):
    """Distinct cubes: random roots, with negative offsets when signed, plus
    chains of descendants at random gaps, so levels repeat and nest deeply."""
    cubes = []
    for _ in range(draw(st.integers(1, max_size))):
        if cubes and draw(st.booleans()):
            base = draw(st.sampled_from(cubes))
            if base.j >= max_level:
                continue
            gap = draw(st.integers(1, min(max_level - base.j, 300)))
            bits = [draw(st.integers(0, (1 << gap) - 1)) for _ in range(d)]
            cube = Cube(base.j + gap, tuple((k << gap) | b for k, b in zip(base.k, bits)))
        else:
            j = draw(st.integers(0, max_level))
            lo, hi = (-(1 << (j + 1)), 1 << (j + 1)) if signed else (0, (1 << j) - 1)
            cube = Cube(j, tuple(draw(st.integers(lo, hi)) for _ in range(d)))
        if cube not in cubes:
            cubes.append(cube)
    return cubes


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(cube_families))
def test_cube_parents_match_level_probing(cubes):
    assert cube_sweep(cubes)[0] == probe_parents(cubes)


@settings(max_examples=60, deadline=None)
@given(cube_families(2, max_level=6, max_size=40))
def test_cube_parents_shallow_dense(cubes):
    # shallow sets give many equal levels and many siblings
    assert cube_sweep(cubes)[0] == probe_parents(cubes)


def test_cube_parents_edge_cases():
    assert cube_sweep([]) == ([], [], [])
    assert cube_sweep([Cube(3, (-5, 2))])[0] == [-1]
    with pytest.raises(ValueError, match="duplicate"):
        cube_sweep([interval(2, 1), interval(0, 0), interval(2, 1)])[0]
    with pytest.raises(ValueError, match="mixed"):
        cube_sweep([Cube(1, (0,)), Cube(1, (0, 0))])[0]


def test_cube_parents_counts_few_ancestor_calls(monkeypatch):
    calls = []
    ancestor = Cube.ancestor

    def counted(cube, level):
        calls.append(level)
        return ancestor(cube, level)

    monkeypatch.setattr(Cube, "ancestor", counted)
    tower = [interval(j, 0) for j in range(0, 1000, 10)]
    assert cube_sweep(tower)[0] == [-1] + list(range(99))
    # one containment test per push and per pop, not one probe per level
    assert 0 < len(calls) <= 2 * len(tower)


def _lca_level(a, b):
    lev = min(a.j, b.j)
    ka, kb = a.k[0] >> (a.j - lev), b.k[0] >> (b.j - lev)
    while ka != kb:
        ka, kb, lev = ka >> 1, kb >> 1, lev - 1
    return lev


@settings(max_examples=40, deadline=None)
@given(cube_families(1, max_level=900, max_size=20, signed=False))
def test_virtual_tree_holds_every_pairwise_lca(ivs):
    nodes, start, end = virtual_tree(ivs)
    assert nodes[: len(ivs)] == ivs
    assert len(set(nodes)) == len(nodes) <= 2 * len(ivs) - 1
    for v, node in enumerate(nodes):
        for u, other in enumerate(nodes):
            assert (start[v] <= start[u] < end[v]) == node.contains(other)
    node_set = set(nodes)
    for x, a in enumerate(ivs):
        for b in ivs[x + 1:]:
            assert a.ancestor(_lca_level(a, b)) in node_set


# ---------------------------------------------------------------------------
# square-function atoms and the batch cube incidence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", ["lpq:2,4", "fpr:0.3,2,1.5,2", "fpr:0,2,2,3"])
def test_cube_incidence_matches_level_probing(label, rng):
    spec = parse_space(label)
    for trial in range(20):
        pool = [Cube(j, tuple(int(x) for x in rng.integers(0, 2**j, spec.d)))
                for j in map(int, rng.integers(0, 6, 40))]
        indices = sorted(set(pool), key=canonical_key)
        values = rng.uniform(0.1, 3.0, len(indices))
        r, scale_exp = spec.square_exponents
        f = square_function(Sequence(dict(zip(indices, values)), "cube"), r, scale_exp)
        want_ln_meas, want_im = probe_cube_incidence(indices, values, r, scale_exp)
        assert np.array_equal(f.ln_measures, want_ln_meas)
        assert np.array_equal(_incidence(f, len(indices)), want_im)


# ---------------------------------------------------------------------------
# bmo
# ---------------------------------------------------------------------------

def _deep_intervals(rng, n, max_level):
    chain = sorted(int(j) for j in rng.choice(max_level, size=n // 2, replace=False))
    out = {}
    k = 0
    prev = 0
    for j in chain:
        k = (k << (j - prev)) | int(rng.integers(0, 2)) if j > prev else k
        prev = j
        out[interval(int(j), k)] = None
    while len(out) < n:
        base = list(out)[int(rng.integers(0, len(out)))]
        gap = int(rng.integers(1, 9))
        if base.j + gap <= max_level:
            out[interval(base.j + gap, (base.k[0] << gap) | int(rng.integers(0, 2**gap)))] = None
    return list(out)


@pytest.mark.parametrize("r", [2.0, 0.5, 3.0])
def test_bmo_norm_matches_all_ancestors(r, rng):
    for trial in range(15):
        ivs = _deep_intervals(rng, 24, 900)
        seq = Sequence(dict(zip(ivs, rng.uniform(0.05, 4.0, len(ivs)))), "interval")
        assert bmo_norm(seq, r) == probe_bmo_norm(seq, r)
    tree = Sequence({interval(j, k): 1.0 for j in range(7) for k in range(2**j)}, "interval")
    assert bmo_norm(tree, r) == probe_bmo_norm(tree, r)


def test_batch_bmo_matches_all_ancestors(rng):
    for trial in range(15):
        ivs = _deep_intervals(rng, 16, 900)
        vals = rng.uniform(0.05, 4.0, len(ivs))
        ev = batch_evaluator(BMO, ivs, vals)
        cmat = probe_bmo_cmat(ivs, vals, BMO.r)
        for rows in (1, 7, 300):
            masks = rng.integers(0, 2, size=(rows, len(ivs))).astype(float)
            want = np.max(masks @ cmat.T, axis=1) ** (1.0 / BMO.r)
            assert np.array_equal(ev.norms(masks), want)


def test_bmo_root_spread_limit():
    far = Sequence({interval(0, 0): 1.0, interval(0, 2**1101): 1.0}, "interval")
    across = Sequence({interval(0, -1): 1.0, interval(3, 0): 1.0}, "interval")
    for seq in (far, across):
        with pytest.raises(NumericError, match="spread"):
            probe_bmo_norm(seq, 2.0)
        with pytest.raises(NumericError, match="spread"):
            bmo_norm(seq, 2.0)
        with pytest.raises(NumericError, match="spread"):
            batch_evaluator(BMO, list(seq.entries), [1.0, 1.0])
    # a common root at level -1000 matches; at -1100 exactly it is still accepted
    wide = Sequence({interval(0, 0): 1.0, interval(2, 2**1001): 1.0}, "interval")
    assert bmo_norm(wide, 2.0) == probe_bmo_norm(wide, 2.0) == 1.0
    edge = Sequence({interval(0, 0): 1.0, interval(0, 2**1099): 1.0}, "interval")
    assert bmo_norm(edge, 2.0) == 1.0


def test_bmo_beyond_float_measures():
    # 2^-1100 is 0.0 as a float: the relative weights keep these families exact
    tower = h_structured(BMO, 1000, "nested-tower")
    assert tower == pytest.approx(math.sqrt(2), abs=1e-15)
    assert h_structured(BMO, 1100, "nested-tower") == pytest.approx(tower, abs=1e-15)
    assert h_structured(BMO, 1100, "different-sizes") == 1.0


# ---------------------------------------------------------------------------
# rectangle grid and the Orlicz inverse
# ---------------------------------------------------------------------------

def test_rect_grid_cells_tile_each_rectangle():
    rects = [Rect((interval(1, 1), interval(0, 0))),
             Rect((interval(3, 2), interval(2, 3))),
             Rect((interval(0, -1), interval(5, 7)))]
    breaks, bounds = rect_grid(rects)
    meas = np.multiply.outer(np.diff(breaks[0]), np.diff(breaks[1]))
    for i, rect in enumerate(rects):
        sl = tuple(slice(lo[i], hi[i]) for lo, hi in bounds)
        assert meas[sl].sum() == pytest.approx(rect.measure, rel=1e-15)
        for axis, s in enumerate(sl):
            lo, hi = rect.intervals[axis].support()[0]
            assert (breaks[axis][s.start], breaks[axis][s.stop]) == (lo, hi)


def test_orlicz_inverse_shared_and_unchanged():
    from nterm.spaces import _powlog_inverse

    a, b = parse_orlicz("ulogu"), parse_orlicz("ulogu")
    y = 0.7311
    first = a.inverse(y)
    hits = _powlog_inverse.cache_info().hits
    assert b.inverse(y) == first
    assert _powlog_inverse.cache_info().hits == hits + 1
    assert first == _powlog_inverse.__wrapped__(a.p, a.g, y)
