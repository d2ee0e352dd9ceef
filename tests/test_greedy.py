import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import ALL_SPACE_LABELS
from nterm import greedy
from nterm.batch import KERNEL_ROWS, MASK_CHUNK
from nterm.errors import FeasibilityError, NumericError, ParseError
from nterm.experiments import attach, canonical_indices
from nterm.greedy import (
    _Context,
    aspace_norm,
    gamma_profile,
    sigma_n_exact,
    sigma_profile,
)
from nterm.indices import Cube
from nterm.sequences import Sequence, indicator
from nterm.spaces import ambient_norm, element_norm, parse_space, square_function

L1 = parse_space("lp:1")
L2 = parse_space("lp:2")


# -- oracle: the greedy families as tuples, enumerated one step at a time -----


def _oracle_kept(ctx, N, rng):
    """Kept position-sets of size N as tuples, listed in combination order, or
    past TIE_FAMILY_CAP sampled from the tie list with list-population draws,
    distinct picks in first-draw order, the two corners first."""
    if N <= 0:
        return [()], True
    if N >= ctx.n:
        return [tuple(range(ctx.n))], True
    thr = ctx.mags[N - 1]
    strict = [i for i in range(ctx.n) if ctx.mags[i] > thr]
    ties = [i for i in range(ctx.n) if ctx.mags[i] == thr]
    m = N - len(strict)
    if math.comb(len(ties), m) <= greedy.TIE_FAMILY_CAP:
        return [tuple(strict) + c for c in itertools.combinations(ties, m)], True
    picks = dict.fromkeys((tuple(ties[:m]), tuple(ties[-m:])))
    for _ in range(greedy.TIE_FAMILY_CAP):
        picks.setdefault(tuple(sorted(rng.choice(ties, size=m, replace=False))))
        if len(picks) >= greedy.TIE_FAMILY_CAP:
            break
    return [tuple(strict) + c for c in picks], False


def _oracle_representatives(ctx, N, rng):
    if N <= 0 or N >= ctx.n:
        return _oracle_kept(ctx, N, rng)
    if ctx.spec.tag == "lp":
        return [tuple(range(N))], True
    if ctx.spec.tag == "lplq":
        thr = ctx.mags[N - 1]
        strict = [i for i in range(ctx.n) if ctx.mags[i] > thr]
        ties = [i for i in range(ctx.n) if ctx.mags[i] == thr]
        ties_a = [i for i in ties if ctx.indices[i].component == 0]
        ties_b = [i for i in ties if ctx.indices[i].component == 1]
        m = N - len(strict)
        fam = [tuple(strict) + tuple(ties_a[:j]) + tuple(ties_b[: m - j])
               for j in range(max(0, m - len(ties_b)), min(m, len(ties_a)) + 1)]
        return fam, True
    return _oracle_kept(ctx, N, rng)


def _oracle_profile(seq, spec):
    """Per step: max and min residual norm over the oracle's family, one
    norms call per family, and the family's exactness flag."""
    ctx = _Context(seq, spec)
    rng = np.random.default_rng(0)
    out = []
    for N in range(ctx.n):
        fam, exact = _oracle_representatives(ctx, N, rng)
        vals = ctx.evaluator.subset_norms(fam, complement=True)
        out.append((vals.max(), vals.min(), exact))
    return out


def _engine_kept(ctx, N):
    """The engine's kept position-sets of step N as the rows of an int array,
    and the exactness flag: greedy_kept for a listed family, the complements
    of sampled_masks' rows for a sampled one."""
    if 0 < N < ctx.n:
        a, b = ctx._tie_class(N)
        if math.comb(b - a, N - a) > greedy.TIE_FAMILY_CAP:
            return np.nonzero(~ctx.sampled_masks(N))[1].reshape(-1, N), False
    return ctx.greedy_kept(N), True


def greedy_sets(seq, N):
    """Oracle greedy sets as index sets, plus the exactness flag."""
    ctx = _Context(seq, L1)
    fam, exact = _oracle_kept(ctx, N, np.random.default_rng(0))
    return [frozenset(ctx.indices[i] for i in kept) for kept in fam], exact


def engine_sets(seq, N):
    """The engine's greedy sets at step N (fresh context), as index sets."""
    ctx = _Context(seq, L1)
    kept, exact = _engine_kept(ctx, N)
    return [frozenset(ctx.indices[i] for i in row) for row in kept.tolist()], exact


def _tie_heavy(spec, sizes, rng, magnitudes=(1.0, 0.55, 0.3, 0.2)):
    vals = rng.permutation(np.repeat(magnitudes[: len(sizes)], sizes))
    return attach(spec, (vals * rng.choice([-1.0, 1.0], len(vals))).tolist())


def test_greedy_sets_examples():
    for sets_of in (greedy_sets, engine_sets):
        s = Sequence({1: 3.0, 2: 2.0, 3: 1.0})
        sets, exact = sets_of(s, 2)
        assert sets == [frozenset({1, 2})] and exact

        tied = Sequence({1: 2.0, 2: 2.0, 3: 2.0})
        sets, exact = sets_of(tied, 1)
        assert sorted(map(sorted, sets)) == [[1], [2], [3]] and exact

        s = Sequence({1: 3.0, 2: 2.0, 3: 2.0, 4: 1.0})
        sets, _ = sets_of(s, 2)
        assert sorted(map(sorted, sets)) == [[1, 2], [1, 3]]


def test_greedy_sets_match_ordering_enumeration(rng):
    # first-N prefixes over all magnitude-nonincreasing orderings, against the
    # oracle and the engine
    for _ in range(20):
        n = int(rng.integers(1, 7))
        vals = rng.choice([1.0, 2.0, 3.0], size=n)
        s = Sequence(dict(enumerate(vals, start=1)))
        for N in range(n + 1):
            want = set()
            for perm in itertools.permutations(range(1, n + 1)):
                mags = [abs(s.entries[i]) for i in perm]
                if all(mags[i] >= mags[i + 1] for i in range(n - 1)):
                    want.add(frozenset(perm[:N]))
            for sets_of in (greedy_sets, engine_sets):
                got, exact = sets_of(s, N)
                assert exact and len(got) == len(want) and set(got) == want


def test_greedy_sets_sampled_beyond_cap():
    s = Sequence({k: 1.0 for k in range(1, 40)})
    sets, exact = engine_sets(s, 19)
    assert not exact
    assert len(sets) <= 10_000
    assert all(len(x) == 19 for x in sets)
    assert (sets, exact) == greedy_sets(s, 19)


def test_families_match_oracle(rng):
    # every step's family is the oracle's as a set of kept sets; listed families
    # come in combination order, so they match row for row as well
    for _ in range(30):
        sizes = rng.integers(1, 7, size=int(rng.integers(1, 4)))
        seq = _tie_heavy(L2, sizes, rng)
        ctx = _Context(seq, L2)
        for N in range(ctx.n + 1):
            kept, exact = _engine_kept(ctx, N)
            want, want_exact = _oracle_kept(ctx, N, None)
            assert exact == want_exact
            assert kept.shape == (len(want), N)
            assert [tuple(row) for row in kept.tolist()] == want


def _sampler_against_oracle(seq, Ns):
    """Each step's picks and their row order, and the rng state after the step,
    against the oracle drawing on its own default_rng(0) in the same step order.
    Returns (N, m, rows) for each sampled step."""
    ctx = _Context(seq, L1)
    rng = np.random.default_rng(0)
    sampled = []
    for N in Ns:
        kept, exact = _engine_kept(ctx, N)
        want, want_exact = _oracle_kept(ctx, N, rng)
        assert exact == want_exact
        assert [tuple(row) for row in kept.tolist()] == want, N
        assert ctx.rng.bit_generator.state == rng.bit_generator.state, N
        if not exact:
            sampled.append((N, N - ctx._tie_class(N)[0], len(kept)))
    return sampled


def test_sampled_picks_match_oracle_one_for_one():
    # a class of 16 after a strict prefix of 3: C(16, m) > TIE_FAMILY_CAP at
    # m = 7..9, so those steps sample; with the same default_rng(0) stream,
    # drawn in the same step order, the picks and their order are the oracle's.
    # With at most C(16, 8) = 12,870 sets the dedupe set never fills, so every
    # step uses all TIE_FAMILY_CAP draws
    seq = Sequence({k: 2.0 if k <= 3 else 1.0 for k in range(1, 20)})
    sampled = _sampler_against_oracle(seq, range(20))
    assert [m for _, m, _ in sampled] == [7, 8, 9]
    assert all(rows < greedy.TIE_FAMILY_CAP for _, _, rows in sampled)


def test_sampler_rewinds_where_the_set_fills():
    # C(30, m) >= 1.4e8 at m = 14..16: the corner-seeded set fills after 9,998
    # draws, before TIE_FAMILY_CAP rows are drawn, so the stream must stop at
    # the row that fills it; the next step must continue from there
    seq = Sequence({k: 1.0 for k in range(1, 31)})
    sampled = _sampler_against_oracle(seq, (14, 15, 16))
    assert sampled == [(N, N, greedy.TIE_FAMILY_CAP) for N in (14, 15, 16)]


def test_sampler_on_an_all_ones_class_of_63():
    # the shape of the 63-interval Jackson tree: one class of 63 at offset 0
    seq = Sequence({k: 1.0 for k in range(1, 64)})
    sampled = _sampler_against_oracle(seq, (2, 3, 31, 60, 61))
    assert [m for _, m, _ in sampled] == [3, 31, 60]


def test_sampler_streams_across_two_classes():
    # two sampled classes of 16, the second at offset 16, and a listed tail:
    # one context draws both classes from one stream
    seq = Sequence({k: 2.0 if k <= 16 else 1.0 if k <= 32 else 0.5 for k in range(1, 37)})
    sampled = _sampler_against_oracle(seq, range(37))
    assert [(N, m) for N, m, _ in sampled] == [(7, 7), (8, 8), (9, 9), (23, 7), (24, 8), (25, 9)]


@pytest.mark.parametrize("t,m", [(16, 7), (63, 31), (63, 62), (10_000, 3), (10_000, 5_000),
                                 (20_000, 400)])
def test_floyd_picks_replay_choice(t, m):
    # numpy draws by Floyd's algorithm for t <= 10,000, and beyond while
    # m <= t // 50; start half-way through a 64-bit output of the generator
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    rng.integers(0, 7, dtype=np.int32)
    ref.integers(0, 7, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 1
    got = np.nonzero(greedy._floyd_picks(rng, t, m, 5))[1].reshape(5, m)
    want = [sorted(ref.choice(t, m, replace=False).tolist()) for _ in range(5)]
    assert got.tolist() == want
    assert rng.bit_generator.state == ref.bit_generator.state


def _sampled_step_bound(n, t):
    """Bytes a sampled step of a class of t in a support of n may hold: its
    residual masks (TIE_FAMILY_CAP x n bools), the membership rows with their
    concatenation and deduplicated copy (3 x TIE_FAMILY_CAP x t bools), and one
    Floyd batch (PICK_FLOATS bools, and fewer than 2 PICK_FLOATS int32 draws).
    On the supports below it is under the bound of a listed family's kept
    rows, 9 x TIE_FAMILY_CAP x n (n intp and n bools per set)."""
    return greedy.TIE_FAMILY_CAP * (n + 3 * t) + 9 * greedy.PICK_FLOATS


def _sampled_step_peaks(seq, Ns):
    """tracemalloc peak of each sampled step N in Ns: the sampler's picks and
    the residual masks built from them, as a profile builds them."""
    ctx = _Context(seq, L1)
    peaks = []
    for N in Ns:
        tracemalloc.start()
        try:
            ctx.sampled_masks(N)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_sampled_step_memory_is_bounded_by_its_rows():
    # one sampled step (class of 16 after a prefix of 3, m = 7..9): the Floyd
    # draws live one batch at a time and the membership rows take t bools per pick
    seq = Sequence({k: 2.0 if k <= 3 else 1.0 for k in range(1, 20)})
    bound = _sampled_step_bound(19, 16)
    assert bound < greedy.TIE_FAMILY_CAP * 19 * 9
    peaks = _sampled_step_peaks(seq, (10, 11, 12))
    assert max(peaks) < bound, ([p / 2**20 for p in peaks], bound / 2**20)


def test_sampled_step_memory_on_an_all_ones_class_of_63():
    # m = 50 of a class of 63 at offset 0, where a set of pick tuples took
    # 1.28x the kept-row bound: the membership rows and the dedupe keys must
    # stay within a few copies of the masks
    seq = Sequence({k: 1.0 for k in range(1, 64)})
    bound = _sampled_step_bound(63, 63)
    assert bound < greedy.TIE_FAMILY_CAP * 63 * 9
    peak, = _sampled_step_peaks(seq, (50,))
    assert peak < bound, (peak / 2**20, bound / 2**20)


@pytest.mark.parametrize("sizes,Ns", [((3, 16), (10, 11, 12)), ((30,), (14, 15, 16)),
                                      ((63,), (3, 60))])
def test_sampled_picks_do_not_depend_on_the_row_budget(monkeypatch, sizes, Ns):
    # a batch of Floyd rows never holds more rows than the picks can still
    # grow by, so the picks, their first-draw order and the rng state after
    # each step are the per-call loop's for any batch size; the class of 30
    # fills its picks before TIE_FAMILY_CAP draws
    vals = np.repeat([2.0, 1.0][2 - len(sizes):], sizes)
    seq = Sequence(dict(enumerate(vals.tolist(), start=1)))
    runs = []
    for floats in (1 << 12, 1 << 20):
        monkeypatch.setattr(greedy, "PICK_FLOATS", floats)
        ctx = _Context(seq, L1)
        steps = []
        for N in Ns:
            steps.append((ctx.sampled_masks(N).tolist(), ctx.rng.bit_generator.state))
        runs.append(steps)
    assert runs[0] == runs[1]


def _per_step_extrema(ctx):
    """Reference of greedy._greedy_extrema one step at a time: each step's
    oracle family (the sampler's picks for a sampled step) goes through
    subset_masks, and the runs are stacked into MASK_CHUNK blocks without
    splitting a step, one norms call per block."""
    ev, runs, hi, lo = ctx.evaluator, [], [], []

    def reduce():
        vals = ev.norms(np.concatenate(runs))
        starts = np.cumsum([0] + [len(run) for run in runs[:-1]])
        hi.extend(np.maximum.reduceat(vals, starts).tolist())
        lo.extend(np.minimum.reduceat(vals, starts).tolist())
        runs.clear()

    for N in range(ctx.n):
        a, b = ctx._tie_class(N) if N else (0, 0)
        if math.comb(b - a, N - a) > greedy.TIE_FAMILY_CAP and ctx.spec.tag != "lp":
            fam = _engine_kept(ctx, N)[0]
        else:
            fam = _oracle_representatives(ctx, N, None)[0]
        masks = ev.subset_masks(fam, complement=True)
        if runs and sum(map(len, runs)) + len(masks) > MASK_CHUNK:
            reduce()
        runs.append(masks)
    reduce()
    return hi, lo


# tie layouts: a singleton run, classes of 1 to 15 in runs, a class of 15
# between singletons (the codes of a class and the staircase share a block)
EXTREMA_LAYOUTS = [(1,) * 12, (1, 5, 1, 1, 3, 2, 1), (2, 15, 1), (4, 1, 1, 7, 6)]


@pytest.mark.parametrize("label", ALL_SPACE_LABELS)
def test_greedy_extrema_equal_the_per_step_reference(label):
    # the same rows in the same blocks: bitwise in every space
    spec = parse_space(label)
    rng = np.random.default_rng(11)
    for sizes in EXTREMA_LAYOUTS:
        mags = np.repeat(np.geomspace(1.0, 0.1, len(sizes)), sizes)
        seq = attach(spec, (rng.permutation(mags) * rng.choice([-1.0, 1.0], len(mags))).tolist())
        ctx = _Context(seq, spec)
        hi, lo, exact = greedy._greedy_extrema(ctx)
        assert exact.all()
        assert (hi.tolist(), lo.tolist()) == _per_step_extrema(_Context(seq, spec)), sizes


@pytest.mark.parametrize("label,sizes", [
    # classes of 15, 15 and 14 stack 81,920 residual rows: the second class
    # starts a new MASK_CHUNK block and the third joins it
    ("fpr:0,2,2,1", (15, 15, 14, 1)), ("bmo:2", (15, 15, 14, 1)),
    ("lplq:2,1", (15, 15, 14, 1)),
    # a class of 16: its listed steps from codes, m = 7..9 sampled in between
    ("bmo:2", (3, 16, 2)), ("lpq:2,4", (3, 16, 2)),
])
def test_greedy_extrema_equal_the_per_step_reference_across_blocks(label, sizes):
    spec = parse_space(label)
    seq = attach(spec, np.repeat([1.0, 0.6, 0.3, 0.1][: len(sizes)], sizes).tolist())
    hi, lo, exact = greedy._greedy_extrema(_Context(seq, spec))
    assert exact.sum() == len(exact) - (3 if 16 in sizes else 0)
    assert (hi.tolist(), lo.tolist()) == _per_step_extrema(_Context(seq, spec))


# tie classes per space: small supports, every class listed in full, plus one
# class of 16 in bmo:2 whose steps m = 7..9 are sampled
PROFILE_CLASSES = [(label, (4, 5, 3)) for label in ALL_SPACE_LABELS] + [
    ("lp:2", (6, 6)), ("lplq:2,1", (7, 5)), ("bmo:2", (3, 16)),
]


@pytest.mark.parametrize("label,sizes", PROFILE_CLASSES)
def test_greedy_profiles_match_oracle(label, sizes):
    # stacking every step's rows into MASK_CHUNK blocks changes the matmul
    # shapes of the square-function and bmo evaluators (rel 1e-15); the additive
    # l^p and l^p(+)l^q rows do not depend on the batch shape (bitwise)
    spec = parse_space(label)
    seq = _tie_heavy(spec, sizes, np.random.default_rng(7))
    want = _oracle_profile(seq, spec)
    gp = gamma_profile(seq, spec)
    sp = sigma_profile(seq, spec, method="greedy")
    hi = [w[0] for w in want] + [0.0]
    lo = [w[1] for w in want] + [0.0]
    assert gp.flags == ["exact" if w[2] else "sampled" for w in want] + ["exact"]
    assert sp.flags == ["greedy" if w[2] else "sampled" for w in want] + ["exact"]
    # sampled steps too: both profiles reduce the same picks
    assert np.all(sp.values <= gp.values)
    if spec.tag in ("lp", "lplq"):
        assert gp.values.tolist() == hi and sp.values.tolist() == lo
    else:
        np.testing.assert_allclose(gp.values, hi, rtol=1e-15, atol=0)
        np.testing.assert_allclose(sp.values, lo, rtol=1e-15, atol=0)


def test_profile_memory_is_bounded_by_the_mask_block():
    # 6 tie classes of 15, every family listed (at most C(15, 7) = 6,435 kept
    # sets), stack 196,602 residual rows, three MASK_CHUNK blocks. A profile
    # holds one block's residual masks and their concatenation, the block's
    # norms, one family's kept positions and a KERNEL_ROWS slice of the
    # evaluator (mask slice and inner sums, with room for one transformed copy)
    spec = parse_space("fpr:0,2,2,1")
    seq = attach(spec, np.repeat(np.linspace(1.0, 0.2, 6), 15).tolist())
    ctx = _Context(seq, spec)
    n = ctx.n
    rows = sum(len(ctx.greedy_kept(N)) for N in range(n))
    assert rows > 2 * MASK_CHUNK
    gamma_profile(seq, spec)  # fills the element-norm cache
    r, scale_exp = spec.square_exponents
    vals = [ctx.mags[c] / element_norm(spec, i) for c, i in enumerate(ctx.indices)]
    atoms = len(square_function(Sequence(dict(zip(ctx.indices, vals)), spec.universe),
                                r, scale_exp).ln_measures)
    bound = (2 * MASK_CHUNK * n + MASK_CHUNK * 8 + greedy.TIE_FAMILY_CAP * n * 8
             + KERNEL_ROWS * (n + 2 * atoms) * 8)
    tracemalloc.start()
    try:
        gamma_profile(seq, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak / 2**20, bound / 2**20)


@pytest.mark.parametrize("label", ["fpr:0,2,2,1", "bmo:2", "lplq:2,1"])
def test_exact_sweep_memory_keeps_no_table_of_norms(label):
    # n = 20: the sweep holds the 2^n residual codes with their popcounts and
    # the popcount test of one group (6 bytes per mask), two popcount groups,
    # one MASK_CHUNK block's bit test (uint32 and bool) and a KERNEL_ROWS
    # slice of the evaluator. A sweep that kept a 2^n float table of the norms
    # would hold the codes, the table and the bit test at once, past the bound
    spec = parse_space(label)
    n = 20
    seq = attach(spec, np.random.default_rng(n).uniform(0.05, 4.0, n).tolist())
    atoms = _Context(seq, spec).evaluator._cols.shape[1]  # fills the element-norm cache
    bound = (6 * 2**n + 8 * math.comb(n, n // 2) + 5 * MASK_CHUNK * n
             + KERNEL_ROWS * (n + 2 * atoms) * 8)
    assert bound < 13 * 2**n + 5 * MASK_CHUNK * n
    tracemalloc.start()
    try:
        sigma_profile(seq, spec, method="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_gamma_examples():
    assert gamma_profile(Sequence({1: 1.0}), L2).values[1] == 0.0
    s = Sequence({1: 3.0, 2: 2.0, 3: 1.0})
    assert gamma_profile(s, L2).values[1] == pytest.approx(math.sqrt(5))


def test_gamma_two_block_witness(any_space):
    # doubled-coefficient construction: the greedy error at the block size is
    # exactly the norm of the unit-coefficient block
    from nterm.experiments import canonical_indices

    spec = any_space
    N = 3
    idx = canonical_indices(spec, 2 * N)
    ones, twos = idx[:N], idx[N:]
    x = Sequence(
        {**{i: 1.0 for i in ones}, **{i: 2.0 for i in twos}}, spec.universe
    )
    from nterm.spaces import ambient_norm

    want = ambient_norm(spec, Sequence({i: 1.0 for i in ones}, spec.universe))
    assert gamma_profile(x, spec).values[N] == pytest.approx(want, rel=1e-10)


def test_sigma_examples():
    e1 = Sequence({1: 1.0})
    assert sigma_n_exact(e1, 0, L2) == 1.0  # sigma_0 = ||x||
    s = Sequence({1: 3.0, 2: 2.0, 3: 1.0})
    assert sigma_n_exact(s, 1, L2) == pytest.approx(math.sqrt(5))
    assert sigma_n_exact(Sequence({1: 1.0, 2: 1.0}), 1, L1) == 1.0
    assert sigma_profile(e1, L2, method="greedy").values[1] == 0.0
    s = Sequence({1: 3.0, 2: 2.0, 3: 2.0, 4: 1.0})
    assert sigma_profile(s, L1, method="greedy").values[2] == 3.0


def test_sigma_cap_error():
    s = Sequence({k: float(k) for k in range(1, 40)})
    with pytest.raises(FeasibilityError, match=r'sigma_profile\(method="greedy"\)'):
        sigma_n_exact(s, 19, L2)


def test_greedy_optimality_in_lp(rng):
    for _ in range(60):
        n = int(rng.integers(1, 13))
        seq = Sequence(dict(zip(range(1, n + 1), rng.standard_normal(n) * 3)))
        for p in (1.0, 1.5, 2.0):
            spec = parse_space(f"lp:{p}")
            bound = sigma_profile(seq, spec, method="greedy").values
            for N in range(n + 1):
                assert sigma_n_exact(seq, N, spec) == bound[N]


def test_sigma_le_gamma_all_spaces(any_space, rng):
    # sigma_N <= greedy sigma bound <= gamma_N, each profile nonincreasing in N,
    # on spread inputs and on tie-heavy ones whose families are all listed
    spec = any_space
    seqs = []
    for _ in range(5):
        n = int(rng.integers(1, 10))
        seqs.append(Sequence(
            dict(zip(canonical_indices(spec, n), rng.standard_normal(n) * 2)),
            spec.universe,
        ))
    seqs += [_tie_heavy(spec, sizes, rng) for sizes in ((3, 4, 2), (6, 5), (2, 2, 2, 3))]
    for seq in seqs:
        sp = sigma_profile(seq, spec)
        bound = sigma_profile(seq, spec, method="greedy")
        gp = gamma_profile(seq, spec)
        assert "sampled" not in gp.flags + bound.flags
        assert np.all(sp.values <= bound.values * (1 + 1e-12) + 1e-15)
        assert np.all(bound.values <= gp.values * (1 + 1e-12) + 1e-15)
        for prof in (sp, bound, gp):
            assert np.all(np.diff(prof.values) <= 1e-12)
            assert prof.values[-1] == 0.0


def _spread_sequence(spec, n, rng):
    idx = canonical_indices(spec, n)
    vals = rng.uniform(0.05, 4.0, n) * rng.choice([-1.0, 1.0], n)
    return Sequence(dict(zip(idx, vals)), spec.universe)


def test_kernel_profile_matches_enumeration(rng):
    # the one-sweep profile against the per-N exhaustive scan in every space:
    # bitwise, except l^p, whose kernel adds the p-th powers in magnitude order
    # where the scan adds them in canonical index order
    for label in ALL_SPACE_LABELS:
        spec = parse_space(label)
        for n in range(1, 12):
            seq = _spread_sequence(spec, n, rng)
            prof = sigma_profile(seq, spec, method="exact")
            want = [sigma_n_exact(seq, N, spec) for N in range(n)] + [0.0]
            if spec.tag == "lp":
                assert prof.values == pytest.approx(want, rel=1e-12)
            else:
                assert prof.values.tolist() == want, (label, n)


def test_sweep_matches_scan_across_mask_blocks():
    # C(19, 9) = 92,378 kept sets span two MASK_CHUNK blocks, and a matmul row
    # can move by an ulp with its offset in the block, so each popcount class
    # must be cut into the per-N scan's blocks. With OpenBLAS, a sweep that
    # reorders the masks of a class fails on the first input, and one that
    # mixes popcounts in a block fails on the second
    for label, seed in (("fpr:0,2,2,1", 3), ("fpr:0.3,2,1.5,1", 1)):
        spec = parse_space(label)
        seq = _spread_sequence(spec, 19, np.random.default_rng(seed))
        prof = sigma_profile(seq, spec, method="exact")
        want = [sigma_n_exact(seq, N, spec) for N in range(19)] + [0.0]
        assert prof.values.tolist() == want, label


@pytest.mark.parametrize("label,n", [("hyp:4,2", 12), ("fpr:0,2,2,1", 14)])
def test_sweep_bit_order_matches_scan(label, n):
    # position c at bit n-1-c puts each popcount class in the scan's
    # combination order; with the bits reversed, N = 2 and 4 move by an ulp
    spec = parse_space(label)
    seq = attach(spec, np.random.default_rng(n).permutation(np.exp(np.linspace(-2, 2, n))))
    prof = sigma_profile(seq, spec, method="exact")
    assert prof.values.tolist() == [sigma_n_exact(seq, N, spec) for N in range(n)] + [0.0]


def _sweep_inputs(spec, n, kind):
    rng = np.random.default_rng(n)
    if kind == "spread":
        vals = rng.permutation(np.exp(np.linspace(-2, 2, n)))
    elif kind == "uniform":
        vals = rng.uniform(0.05, 4.0, n)
    else:  # all-equal magnitudes, where the lattice bound prunes least
        vals = np.ones(n)
    return attach(spec, vals.tolist())


@pytest.mark.parametrize("kind", ["spread", "uniform", "equal"])
@pytest.mark.parametrize("label", ["lpq:2,4", "orlicz:ulogu", "bmo:2", "hyp:4,2", "lplq:1,2"])
def test_pruned_sweep_matches_scan(label, kind):
    # n = 16: the middle popcount groups span up to four KERNEL_ROWS slices, so
    # the pruned sweep skips whole slices and selects rows inside the others;
    # its least norms must still be bitwise those of the unpruned per-N scan
    spec = parse_space(label)
    n = 16
    assert math.comb(n, n // 2) > 3 * KERNEL_ROWS
    seq = _sweep_inputs(spec, n, kind)
    prof = sigma_profile(seq, spec, method="exact")
    assert prof.values.tolist() == [sigma_n_exact(seq, N, spec) for N in range(n)] + [0.0]


def test_pruned_sweep_runs_the_outer_kernel_on_few_rows():
    # lpq:2,4 on spread magnitudes at n = 18: the lattice bound leaves the
    # outer kernel fewer than 1% of the 2^18 residuals (the greedy residuals
    # that set the thresholds included)
    spec = parse_space("lpq:2,4")
    n = 18
    ctx = _Context(_sweep_inputs(spec, n, "spread"), spec)
    ev = ctx.evaluator
    rows, outer = [], ev._outer

    def counted(inner):
        rows.append(len(inner))
        return outer(inner)

    ev._outer = counted
    sigma = greedy._sigma_all(ctx)
    assert 0 < sum(rows) < 0.01 * 2**n, sum(rows)
    assert np.all(np.diff(sigma) <= 0) and sigma[-1] > 0


@pytest.mark.parametrize("label", ["lp:2", "lplq:2,1"])
def test_sigma_profile_feasibility_rule(monkeypatch, rng, label):
    # exact refuses when some C(n, N) exceeds the cap; auto sweeps while
    # 2^n <= 2 * cap, in l^p as in every other space
    spec = parse_space(label)
    cap = 20
    monkeypatch.setattr(greedy, "SUBSET_CAP", cap)
    for n in range(1, 10):
        seq = _spread_sequence(spec, n, rng)
        if max(math.comb(n, N) for N in range(n)) > cap:
            with pytest.raises(FeasibilityError, match="method='greedy'"):
                sigma_profile(seq, spec, method="exact")
        else:
            assert sigma_profile(seq, spec, method="exact").flags == ["exact"] * (n + 1)
        auto = sigma_profile(seq, spec).flags[:n]
        assert set(auto) == ({"exact"} if 2**n <= 2 * cap else {"greedy"}), n


def _tower(gap):
    return Sequence({Cube(gap * i, (0,)): 1.0 + 0.1 * i for i in range(6)}, "cube")


def test_gap120_tower_is_finite_in_every_engine():
    # levels 0..600: the batch inner sums stay in linear float range and the
    # L^{p,q} outer norm runs in log scale, so every engine agrees with the
    # scalar path
    spec = parse_space("lpq:2,4")
    seq = _tower(120)
    sigma = sigma_profile(seq, spec, method="exact").values
    gamma = gamma_profile(seq, spec).values
    assert np.all(np.isfinite(sigma)) and np.all(np.isfinite(gamma))
    assert np.isfinite(float(sigma_n_exact(seq, 2, spec)))
    ambient = ambient_norm(spec, seq)
    assert gamma[0] == pytest.approx(ambient, rel=1e-12)
    assert sigma[0] == pytest.approx(ambient, rel=1e-12)


def test_deep_tower_raises_in_every_engine():
    # levels 0..1250: the r-th power weights 2^j of batch._incidence overflow, so
    # every batch engine raises a typed error while the log-scale scalar path
    # stays finite
    spec = parse_space("lpq:2,4")
    seq = _tower(250)
    assert math.isfinite(ambient_norm(spec, seq))
    for run in (
        lambda: sigma_profile(seq, spec, method="exact"),
        lambda: gamma_profile(seq, spec),
        lambda: sigma_n_exact(seq, 2, spec),
    ):
        with pytest.raises(NumericError, match="non-finite"):
            run()


def test_profile_flags_greedy_on_large_support(rng):
    seq = Sequence(dict(zip(range(1, 40), rng.standard_normal(39))))
    prof = sigma_profile(seq, parse_space("lp:1.3"))
    assert "greedy" in prof.flags


def test_aspace_examples():
    e1 = Sequence({1: 1.0})
    for spec in (L1, L2):
        assert aspace_norm(e1, 1.0, math.inf, spec) == 1.0
        assert aspace_norm(e1, 0.5, 2.0, spec) == 1.0
    s = Sequence({1: 1.0, 2: 1.0})
    assert aspace_norm(s, 1.0, math.inf, L1) == pytest.approx(3.0)


def test_aspace_parameter_validation():
    with pytest.raises(ValueError):
        aspace_norm(Sequence({1: 1.0}), -1.0, 2.0, L2)
    with pytest.raises(ValueError):
        aspace_norm(Sequence({1: 1.0}), 1.0, 0.0, L2)
    # misspelt options and q = nan used to return a number (nan, the greedy
    # bound or the gamma norm), on empty sequences too
    for seq in (Sequence({1: 1.0, 2: 0.5}), Sequence({})):
        with pytest.raises(ParseError, match="q must be positive"):
            aspace_norm(seq, 1.0, math.nan, L2)
        for option in ({"error_kind": "gamm"}, {"form": "dyadc"}, {"method": "exatc"}):
            with pytest.raises(ParseError, match=next(iter(option))):
                aspace_norm(seq, 1.0, 2.0, L2, **option)
        with pytest.raises(ParseError, match="method"):
            sigma_profile(seq, L2, method="exatc")
        with pytest.raises(ParseError, match="method"):
            aspace_norm(seq, 1.0, 2.0, L2, error_kind="gamma", method="exatc")
        assert aspace_norm(seq, 1.0, math.inf, L2, error_kind="gamma", form="dyadic") >= 0


@pytest.mark.parametrize("label", ["lp:2", "lplq:1,2", "lpq:2,4", "bmo:2"])
def test_aspace_norm_is_ambient_norm_plus_lorentz_norm_of_sigma(label, rng):
    # ||x||_A = ||x|| + ||(sigma_k)_k||_{l^q(k^alpha)} straight from the
    # definitions, bitwise; the dyadic form uses the dyadic Lorentz sum
    from nterm.lorentz import lorentz_norm, lorentz_norm_dyadic
    from nterm.weights import Weight

    spec = parse_space(label)
    for _ in range(10):
        n = int(rng.integers(2, 11))
        x = attach(spec, np.abs(rng.standard_normal(n)) * np.exp(rng.uniform(-3, 3, n)))
        sigma = Sequence.from_values(sigma_profile(x, spec).values[1:])
        base = ambient_norm(spec, x)
        for alpha in (0.3, 1.0, 2.5):
            w = Weight.power_log(alpha)
            for q in (0.5, 1.0, 2.0, math.inf):
                assert aspace_norm(x, alpha, q, spec) == base + lorentz_norm(sigma, w, q)
                assert aspace_norm(x, alpha, q, spec, form="dyadic") == (
                    base + lorentz_norm_dyadic(sigma, w, q, 2))


def test_aspace_dyadic_full_band(rng):
    ratios = []
    for _ in range(30):
        n = int(rng.integers(2, 20))
        seq = Sequence(dict(zip(range(1, n + 1), rng.standard_normal(n))))
        full = aspace_norm(seq, 0.5, 1.0, L2, form="full")
        dyad = aspace_norm(seq, 0.5, 1.0, L2, form="dyadic")
        ratios.append(dyad / full)
    assert max(ratios) / min(ratios) < 4.0


def test_trivial_bernstein_stability(rng):
    # ||x||_{G} <= C N^alpha ||x|| on N-sparse x with stable measured C
    alpha, q = 0.7, 2.0
    worst = {}
    for N in (4, 8, 16, 32):
        best = 0.0
        for _ in range(10):
            vals = np.abs(rng.standard_normal(N)) + 0.05
            x = Sequence(dict(enumerate(vals, start=1)))
            ratio = aspace_norm(x, alpha, q, L2, error_kind="gamma") / (
                N**alpha * math.sqrt((vals**2).sum())
            )
            best = max(best, ratio)
        worst[N] = best
    vals = list(worst.values())
    assert max(vals) / min(vals) < 3.0


def test_stechkin_identity_band(rng):
    # A-norm comparable to the classical Lorentz norm with 1/tau = alpha + 1/2
    from nterm.lorentz import lorentz_norm
    from nterm.weights import Weight

    alpha, q = 0.5, 1.0
    w = Weight.power_log(alpha + 0.5)
    ratios = []
    for _ in range(40):
        n = int(rng.integers(2, 30))
        vals = np.abs(rng.standard_normal(n)) + 1e-6
        x = Sequence(dict(enumerate(vals, start=1)))
        ratios.append(aspace_norm(x, alpha, q, L2) / lorentz_norm(x, w, q))
    assert max(ratios) / min(ratios) < 10.0


def test_gamma_profile_indicator_cube_space():
    # gamma of a normalized indicator of nested cubes is exact and decreasing
    spec = parse_space("fpr:0,2,2,1")
    seq = indicator([Cube(j, (0,)) for j in range(6)], "cube")
    prof = gamma_profile(seq, spec)
    assert prof.values[-1] == 0.0
    assert all(f in ("exact", "sampled") for f in prof.flags)
