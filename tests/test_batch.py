import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from nterm import batch
from nterm.batch import KEPT_FLOATS, KERNEL_ROWS, MASK_CHUNK, batch_evaluator
from nterm.democracy import (default_universe, democracy_profile, h_exhaustive,
                             normalized_indicator_norm)
from nterm.errors import FeasibilityError, NumericError, ParseError
from nterm.experiments import canonical_indices
from nterm.geometry import virtual_tree
from nterm.greedy import sigma_n_exact
from nterm.indices import Cube, Rect, interval
from nterm.sequences import Sequence, indicator
from nterm.spaces import (BMO_BLOCK_FLOATS, ambient_norm, bmo_norm, element_norm, parse_space,
                          space_norm, square_function)

# small default universes: 8 integers, 4+4 pairs, 15 cubes or intervals, 17 rectangles
SCAN_SIZE = {"integer": 8, "pair": 4, "cube": 16, "interval": 3, "rect": 2}


def test_batch_matches_scalar_on_random_subsets(any_space, rng):
    spec = any_space
    n = 9
    idx = canonical_indices(spec, n)
    vals = rng.uniform(0.05, 4.0, n)
    ev = batch_evaluator(spec, idx, vals)
    vmap = dict(zip(idx, vals))
    masks = rng.integers(0, 2, size=(40, n)).astype(float)
    got = ev.norms(masks)
    for row, g in zip(masks, got):
        sub = Sequence({idx[i]: vmap[idx[i]] for i in range(n) if row[i]}, spec.universe)
        want = space_norm(spec, sub)
        assert g == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_batch_column_order_follows_the_given_indices():
    spec = parse_space("lp:2")
    ev = batch_evaluator(spec, [3, 1, 2], [1.0, 2.0, 3.0])
    # column 0 is index 3, with value 1; column 1 is index 1, with value 2
    assert ev.norms(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])).tolist() == [1.0, 2.0]


@pytest.mark.parametrize("label", ["lp:2", "lpq:2,4", "bmo:2", "hyp:4,2"])
def test_batch_permuted_indices_match_canonical_order(label, rng):
    # an evaluator over a permuted index list agrees with the one over the
    # canonical order on the column-permuted masks; only the order in which the
    # columns are summed differs, so the floats agree to rel 1e-15
    spec = parse_space(label)
    n = 9
    idx = canonical_indices(spec, n)
    vals = rng.uniform(0.05, 4.0, n)
    perm = rng.permutation(n)
    canon = batch_evaluator(spec, idx, vals)
    ev = batch_evaluator(spec, [idx[i] for i in perm], vals[perm])
    masks = rng.integers(0, 2, size=(200, n)).astype(bool)
    want = canon.norms(masks[:, np.argsort(perm)])
    np.testing.assert_allclose(ev.norms(masks), want, rtol=1e-15, atol=0.0)
    # subset_extrema's arg tuples are positions in the given list
    for N in (2, 3):
        lo, hi, arg_lo, arg_hi = ev.subset_extrema(N)
        assert ev.subset_norms([arg_lo])[0] == pytest.approx(lo, rel=1e-15)
        assert ev.subset_norms([arg_hi])[0] == pytest.approx(hi, rel=1e-15)
        by_set = {frozenset(c): v for c, v in zip(
            itertools.combinations(idx, N),
            canon.subset_norms(list(itertools.combinations(range(n), N))))}
        assert by_set[frozenset(idx[perm[i]] for i in arg_lo)] == pytest.approx(lo, rel=1e-15)
        assert by_set[frozenset(idx[perm[i]] for i in arg_hi)] == pytest.approx(hi, rel=1e-15)


def test_kept_index_rows_match_dense_masks(any_space, rng):
    # subset_norms sums gathered rows of the column weights, in the order of
    # each kept row; the dense masks sum the same columns in the matmul's (or
    # the pairwise sum's) order, so the norms agree to rel 1e-14
    spec = any_space
    n = 9
    idx = canonical_indices(spec, n)
    perm = rng.permutation(n)
    ev = batch_evaluator(spec, [idx[i] for i in perm], rng.uniform(0.05, 4.0, n))
    for N in range(n + 1):
        kept = np.array([rng.permutation(n)[:N] for _ in range(30)], dtype=np.intp)
        want = ev.norms(ev.subset_masks(kept))
        np.testing.assert_allclose(ev.subset_norms(kept), want, rtol=1e-14, atol=0.0)


def test_hyp_refuses_rectangles_of_another_axis_count():
    rect3 = Rect((interval(1, 0),) * 3)
    for label in ("hyp:2,2", "hyp:4,2"):
        spec = parse_space(label)
        with pytest.raises(ParseError, match="rectangles of 2 axes, got 3"):
            space_norm(spec, Sequence({rect3: 1.0}, "rect"))
        with pytest.raises(ParseError, match="rectangles of 2 axes, got 3"):
            batch_evaluator(spec, [rect3], [1.0])
    spec = parse_space("hyp:4,3")
    assert batch_evaluator(spec, [rect3], [1.0]).norms(np.ones((1, 1)))[0] == pytest.approx(
        space_norm(spec, Sequence({rect3: 1.0}, "rect")), rel=1e-14)


def test_batch_rejects_zero_values(rng):
    with pytest.raises(ValueError):
        batch_evaluator(parse_space("lp:2"), [1, 2], [1.0, 0.0])


def test_batch_out_of_range_raises():
    spec = parse_space("lpq:2,4")
    idx = [Cube(i, (1,)) for i in range(1, 1200, 80)]
    with pytest.raises(NumericError):
        batch_evaluator(spec, idx, [1.0] * len(idx))


def test_batch_incidence_size_cap_is_feasibility():
    # 512 x 512 grid cells times 1024 rectangles, and 8192 cubes times 8192:
    # both past the incidence cap, refused before the matrix is allocated
    rects = [Rect((interval(9, k), interval(0, 0))) for k in range(512)]
    rects += [Rect((interval(0, 0), interval(9, k))) for k in range(512)]
    cubes = [Cube(13, (k,)) for k in range(8192)]
    for label, idx in (("hyp:4,2", rects), ("lpq:2,4", cubes)):
        with pytest.raises(FeasibilityError, match="incidence"):
            batch_evaluator(parse_space(label), idx, [1.0] * len(idx))


def test_batch_empty_subset_is_zero(any_space, rng):
    spec = any_space
    idx = canonical_indices(spec, 4)
    ev = batch_evaluator(spec, idx, [1.0, 2.0, 0.5, 1.5])
    assert ev.norms(np.zeros((1, 4)))[0] == 0.0


def test_batch_norms_are_lattice_monotone(any_space, rng):
    # every catalog norm is a lattice norm: ||x 1_R|| <= ||x 1_S|| for R in S.
    # The exact sigma sweep prunes on this, so the batch layer must keep it to
    # rounding on random nested rows over a random support
    spec = any_space
    n = 12
    ev = batch_evaluator(spec, canonical_indices(spec, n), rng.uniform(0.05, 4.0, n))
    big = rng.random((600, n)) < rng.uniform(0.2, 1.0, (600, 1))
    small = big & (rng.random((600, n)) < rng.uniform(0.0, 1.0, (600, 1)))
    norms = ev.norms(np.concatenate((small, big)))
    assert np.all(norms[:600] <= norms[600:] * (1 + 1e-12))


def test_norms_selector_matches_the_full_rows_bitwise(any_space, rng):
    # every outer transform is row-independent, so the selected rows of each
    # KERNEL_ROWS slice come out bitwise as in the unselected call. A BLAS
    # outer (a gemv moves a row by an ulp with the rows around it) fails here
    spec = any_space
    n = 11
    ev = batch_evaluator(spec, canonical_indices(spec, n), rng.uniform(0.05, 4.0, n))
    masks = rng.random((KERNEL_ROWS + 700, n)) < 0.5
    full = ev.norms(masks)
    for density in (0.002, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99):
        keep = rng.random(len(masks)) < density
        assert np.array_equal(ev.norms(masks, keep), full[keep]), density
    keep = np.zeros(len(masks), dtype=bool)
    keep[KERNEL_ROWS + 5] = True  # a slice with no selected row is skipped
    assert np.array_equal(ev.norms(masks, keep), full[keep])
    with pytest.raises(ValueError, match="selector"):
        ev.norms(masks, keep[:-1])


@pytest.mark.parametrize("N", [2, 3])
def test_exhaustive_scan_matches_scalar_democracy(any_space, N):
    spec = any_space
    rtol = 1e-12
    uni = default_universe(spec, SCAN_SIZE[spec.universe])
    h_ell, h_r, arg_min, arg_max = h_exhaustive(spec, uni, N)
    assert len(arg_min) == len(arg_max) == N
    assert normalized_indicator_norm(spec, arg_min) == pytest.approx(h_ell, rel=rtol)
    assert normalized_indicator_norm(spec, arg_max) == pytest.approx(h_r, rel=rtol)
    brute = [ambient_norm(spec, indicator(c, spec.universe))
             for c in itertools.combinations(uni.indices, N)]
    assert min(brute) == pytest.approx(h_ell, rel=rtol)
    assert max(brute) == pytest.approx(h_r, rel=rtol)


def test_exhaustive_scan_matches_scalar_sigma(any_space, rng):
    spec = any_space
    n = 8
    idx = canonical_indices(spec, n)
    vals = rng.uniform(0.05, 4.0, n) * rng.choice([-1.0, 1.0], n)
    seq = Sequence(dict(zip(idx, vals)), spec.universe)
    for N in range(n):
        brute = min(ambient_norm(spec, Sequence(
                        {i: v for i, v in seq.entries.items() if i not in kept},
                        spec.universe))
                    for kept in itertools.combinations(idx, N))
        assert sigma_n_exact(seq, N, spec) == pytest.approx(
            brute, rel=1e-12)


def test_exhaustive_scan_reports_first_extremizers():
    # every 4-subset of l^2 has norm 2, so both extremizers are the first subset
    # in combination order; the C(40, 4) subsets span two scan blocks
    spec = parse_space("lp:2")
    h_ell, h_r, arg_min, arg_max = h_exhaustive(spec, default_universe(spec, 40), 4)
    assert h_ell == h_r == 2.0
    assert arg_min == arg_max == [1, 2, 3, 4]


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("label", ["lp:2", "lpq:2,4", "hyp:4,2"])
def test_subset_extrema_edge_sizes(label, complement):
    # N = 0 and N = n each have one subset: the scan must still evaluate it, and
    # its arg tuples are Python ints in combination order, as itertools gives them
    spec = parse_space(label)
    n = 5
    idx = canonical_indices(spec, n)
    ev = batch_evaluator(spec, idx, np.linspace(0.5, 2.0, n))
    for N in range(n + 1):
        combos = list(itertools.combinations(range(n), N))
        out = ev.subset_norms(np.array(combos, dtype=np.intp).reshape(len(combos), N),
                              complement)
        lo, hi, arg_lo, arg_hi = ev.subset_extrema(N, complement)
        assert (lo, hi) == (out.min(), out.max())
        assert arg_lo == combos[int(np.argmin(out))]
        assert arg_hi == combos[int(np.argmax(out))]
        for arg in (arg_lo, arg_hi):
            assert type(arg) is tuple and all(type(c) is int for c in arg)
        if N in (0, n):
            assert arg_lo == arg_hi == tuple(range(N))
            assert (lo == 0.0) == ((N == 0) != complement)
    assert ev.subset_extrema(n + 1, complement) == (math.inf, -math.inf, None, None)


def test_exhaustive_scan_memory_is_bounded_by_the_kernel_slice():
    # an exhaustive scan holds one boolean block of at most MASK_CHUNK subsets
    # and, per KERNEL_ROWS slice, the float mask slice and the (rows x atoms)
    # inner sums, with room for one transformed copy of them
    spec = parse_space("hyp:4,2")
    uni = default_universe(spec, 4)
    n, N = len(uni.indices), 2
    h_exhaustive(spec, uni, N)  # fills the element-norm cache
    vals = [1.0 / element_norm(spec, i) for i in uni.indices]
    r, scale_exp = spec.square_exponents
    atoms = len(square_function(Sequence(dict(zip(uni.indices, vals)), spec.universe),
                                r, scale_exp).ln_measures)
    rows = min(MASK_CHUNK, math.comb(n, N))
    bound = KERNEL_ROWS * (n + 2 * atoms) * 8 + rows * n
    tracemalloc.start()
    try:
        h_exhaustive(spec, uni, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_exhaustive_scan_builds_no_mask_block():
    # an exhaustive scan of N-subsets holds one index block of MASK_CHUNK x N
    # positions at a time (the previous one is freed before the next is
    # built) and that block's norms; per
    # kept-index slice, the (rows x atoms) inner sums and one gathered block,
    # about KEPT_FLOATS floats each; and the evaluator's (atoms x n) incidence
    # with its column permutation. A boolean (MASK_CHUNK x n) mask block would
    # add 8 MB here.
    spec = parse_space("hyp:4,2")
    uni = default_universe(spec, 4)
    n, N = len(uni.indices), 3
    h_exhaustive(spec, uni, N)  # fills the element-norm cache
    vals = [1.0 / element_norm(spec, i) for i in uni.indices]
    r, scale_exp = spec.square_exponents
    atoms = len(square_function(Sequence(dict(zip(uni.indices, vals)), spec.universe),
                                r, scale_exp).ln_measures)
    bound = MASK_CHUNK * (N + 1) * 8 + 2 * KEPT_FLOATS * 8 + 2 * atoms * n * 8
    assert MASK_CHUNK * n > bound
    tracemalloc.start()
    try:
        h_exhaustive(spec, uni, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_oversized_rect_incidence_is_refused_before_the_square_function(monkeypatch):
    # hyp:4,2's default universe: 20,481 rectangles over a 1,024 x 1,024 grid
    def fail(*args):
        raise AssertionError("square_function ran")

    monkeypatch.setattr(batch, "square_function", fail)
    idx = default_universe(parse_space("hyp:4,2")).indices
    with pytest.raises(FeasibilityError, match="incidence too large"):
        batch_evaluator(parse_space("hyp:4,2"), idx, [1.0] * len(idx))


def test_oversized_bmo_weight_matrix_is_refused_before_it_is_built(monkeypatch):
    # bmo:2's default universe: 8,191 intervals, and as many virtual-tree
    # nodes, past INCIDENCE_CAP; the exhaustive N = 1 scan raises, and auto
    # falls back to the structured families
    def fail(*args):
        raise AssertionError("bmo_weights ran")

    monkeypatch.setattr(batch, "bmo_weights", fail)
    spec = parse_space("bmo:2")
    uni = default_universe(spec)
    assert len(uni) ** 2 > batch.INCIDENCE_CAP
    with pytest.raises(FeasibilityError, match="bmo weight matrix"):
        h_exhaustive(spec, uni, 1)
    row, = democracy_profile(spec, [1], strategy="auto").rows
    assert row.method == "structured"


def _bmo_rows_one_by_one(intervals, pows):
    """The bmo weight rows built one interval at a time, as a test oracle."""
    nodes, start, end = virtual_tree(intervals)
    levels = np.array([iv.j for iv in nodes])
    return [np.where((start <= start[i]) & (start[i] < end),
                     np.ldexp(w, np.minimum(levels - iv.j, 0)), 0.0)
            for i, (iv, w) in enumerate(zip(intervals, pows))]


@pytest.mark.parametrize("seed", range(4))
def test_bmo_block_sums_are_the_row_fold(seed):
    # a few hundred random intervals give several BMO_BLOCK_FLOATS blocks; the
    # block sums must be bitwise the left fold of the rows in item order, and
    # the batch evaluator must hold the same rows
    rng = np.random.default_rng(seed)
    found = {}
    while len(found) < 300:
        j = int(rng.integers(0, 40))
        found[interval(j, int(rng.integers(0, 2**j)))] = float(rng.uniform(0.1, 3.0))
    ivs, vals = list(found), np.array(list(found.values()))
    pows = [v**2.0 for v in vals]
    rows = _bmo_rows_one_by_one(ivs, pows)
    assert len(ivs) * len(rows[0]) > 3 * BMO_BLOCK_FLOATS
    fold = functools.reduce(np.add, rows)
    assert bmo_norm(Sequence(found, "interval"), 2.0) == float(fold.max()) ** 0.5
    ev = batch_evaluator(parse_space("bmo:2"), ivs, vals)
    assert np.array_equal(ev._cols, np.array(rows))
