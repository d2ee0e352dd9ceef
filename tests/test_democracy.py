import math

import numpy as np
import pytest

from nterm.democracy import (
    Universe,
    default_universe,
    democracy_profile,
    family_catalog,
    h_exhaustive,
    h_structured,
    induced_h,
    default_stable_family,
    property_h_check,
    structured_family,
)
from nterm.errors import FeasibilityError, NumericError, ParseError
from nterm.indices import Cube, format_index
from nterm.spaces import parse_space

L2 = parse_space("lp:2")
BMO = parse_space("bmo:2")


def test_h_exhaustive_lp_counting():
    uni = default_universe(L2, 10)
    for p in (1.0, 2.0, 3.0):
        spec = parse_space(f"lp:{p}")
        for N in (1, 2, 3):
            he, hr, _, _ = h_exhaustive(spec, uni, N)
            assert he == pytest.approx(N ** (1 / p), rel=1e-13)
            assert hr == pytest.approx(N ** (1 / p), rel=1e-13)


def test_h_exhaustive_n1_is_one(any_space):
    size = {"integer": 8, "pair": 4, "cube": 16, "interval": 3, "rect": 2}
    uni = default_universe(any_space, size[any_space.universe])
    he, hr, _, _ = h_exhaustive(any_space, uni, 1)
    assert he == pytest.approx(1.0, rel=1e-9)
    assert hr == pytest.approx(1.0, rel=1e-9)


def test_h_exhaustive_bmo_pairs():
    uni = default_universe(BMO, 4)
    he, hr, arg_min, arg_max = h_exhaustive(BMO, uni, 2)
    assert he == pytest.approx(1.0, rel=1e-12)  # disjoint same-level pair
    # nested pair at adjacent levels: (1 + 1/2)^{1/2}
    assert hr == pytest.approx(math.sqrt(1.5), rel=1e-12)
    assert arg_max[0].contains(arg_max[1]) or arg_max[1].contains(arg_max[0])


def test_subset_engines_refuse_n_beyond_the_universe():
    uni = default_universe(L2, 3)
    with pytest.raises(FeasibilityError, match=r"N = 4 exceeds the universe size \|U\| = 3"):
        h_exhaustive(L2, uni, 4)
    for mode in ("aspace", "gclass"):
        with pytest.raises(FeasibilityError, match=r"N = 4 exceeds .* = 3"):
            induced_h(L2, 0.5, 1.0, mode, uni, 4)


def test_h_exhaustive_cap():
    uni = default_universe(L2, 64)
    with pytest.raises(FeasibilityError, match="structured"):
        h_exhaustive(L2, uni, 10)


def test_h_exhaustive_nonfinite_raises():
    # a level-gap-250 tower (levels to 1250) overflows the batch evaluator's
    # linear weights 2^j
    spec = parse_space("lpq:2,4")
    uni = Universe("cube", [Cube(250 * i, (0,)) for i in range(6)])
    with pytest.raises(NumericError, match="non-finite"):
        h_exhaustive(spec, uni, 2)


# every catalog family at N = 1, 5 and 8, order included (bmo sums its
# columns in item order), for one space per universe; cube families count
# the first coordinate fastest, rectangle slices run in (j1, k1, k2) order
FAMILY_LISTS = {
    ("lp:2", "same-size-disjoint"): ("1", "1 2 3 4 5", "1 2 3 4 5 6 7 8"),
    ("lplq:1,2", "stream-a"): ("a:1", "a:1 a:2 a:3 a:4 a:5", "a:1 a:2 a:3 a:4 a:5 a:6 a:7 a:8"),
    ("lplq:1,2", "stream-b"): ("b:1", "b:1 b:2 b:3 b:4 b:5", "b:1 b:2 b:3 b:4 b:5 b:6 b:7 b:8"),
    ("lplq:1,2", "balanced"): ("a:1", "a:1 a:2 a:3 b:1 b:2", "a:1 a:2 a:3 a:4 b:1 b:2 b:3 b:4"),
    ("fpr:0,2,2,2", "same-size-disjoint"): (
        "1:0,0", "2:0,0 2:1,0 2:2,0 2:3,0 2:0,1",
        "2:0,0 2:1,0 2:2,0 2:3,0 2:0,1 2:1,1 2:2,1 2:3,1"),
    ("fpr:0,2,2,2", "different-sizes"): (
        "1:1,0", "1:1,0 2:1,0 3:1,0 4:1,0 5:1,0",
        "1:1,0 2:1,0 3:1,0 4:1,0 5:1,0 6:1,0 7:1,0 8:1,0"),
    ("fpr:0,2,2,2", "nested-tower"): (
        "0:0,0", "0:0,0 1:0,0 2:0,0 3:0,0 4:0,0",
        "0:0,0 1:0,0 2:0,0 3:0,0 4:0,0 5:0,0 6:0,0 7:0,0"),
    ("fpr:0,2,2,2", "full-tree"): (
        "0:0,0", "0:0,0 1:0,0 1:1,0 1:0,1 1:1,1",
        "0:0,0 1:0,0 1:1,0 1:0,1 1:1,1 2:0,0 2:1,0 2:2,0"),
    ("orlicz:ulogu", "same-size-disjoint"): (
        "1:0", "3:0 3:1 3:2 3:3 3:4", "3:0 3:1 3:2 3:3 3:4 3:5 3:6 3:7"),
    ("orlicz:ulogu", "different-sizes"): (
        "1:1", "1:1 2:1 3:1 4:1 5:1", "1:1 2:1 3:1 4:1 5:1 6:1 7:1 8:1"),
    ("orlicz:ulogu", "nested-tower"): (
        "0:0", "0:0 1:0 2:0 3:0 4:0", "0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0"),
    ("orlicz:ulogu", "full-tree"): (
        "0:0", "0:0 1:0 1:1 2:0 2:1", "0:0 1:0 1:1 2:0 2:1 2:2 2:3 3:0"),
    ("orlicz:ulogu", "level-optimized"): (
        "1:0", "60:0 60:1 60:2 60:3 60:4", "60:0 60:1 60:2 60:3 60:4 60:5 60:6 60:7"),
    ("hyp:4,2", "same-size-disjoint"): (
        "1:0|0:0", "3:0|0:0 3:1|0:0 3:2|0:0 3:3|0:0 3:4|0:0",
        "3:0|0:0 3:1|0:0 3:2|0:0 3:3|0:0 3:4|0:0 3:5|0:0 3:6|0:0 3:7|0:0"),
    ("hyp:4,2", "different-sizes"): (
        "1:1|0:0", "1:1|0:0 2:1|0:0 3:1|0:0 4:1|0:0 5:1|0:0",
        "1:1|0:0 2:1|0:0 3:1|0:0 4:1|0:0 5:1|0:0 6:1|0:0 7:1|0:0 8:1|0:0"),
    ("hyp:4,2", "fixed-size-rects"): (
        "0:0|0:0", "0:0|2:0 0:0|2:1 0:0|2:2 0:0|2:3 1:0|1:0",
        "0:0|2:0 0:0|2:1 0:0|2:2 0:0|2:3 1:0|1:0 1:0|1:1 1:1|1:0 1:1|1:1"),
    ("bmo:2", "same-size-disjoint"): (
        "1:0", "3:0 3:1 3:2 3:3 3:4", "3:0 3:1 3:2 3:3 3:4 3:5 3:6 3:7"),
    ("bmo:2", "different-sizes"): (
        "1:1", "1:1 2:1 3:1 4:1 5:1", "1:1 2:1 3:1 4:1 5:1 6:1 7:1 8:1"),
    ("bmo:2", "nested-tower"): (
        "0:0", "0:0 1:0 2:0 3:0 4:0", "0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0"),
    ("bmo:2", "full-tree"): (
        "0:0", "0:0 1:0 1:1 2:0 2:1", "0:0 1:0 1:1 2:0 2:1 2:2 2:3 3:0"),
}


def test_family_lists_are_pinned_in_order():
    for label in {label for label, _ in FAMILY_LISTS}:
        spec = parse_space(label)
        pinned = [fam for lab, fam in FAMILY_LISTS if lab == label]
        assert family_catalog(spec) == pinned, label
        for family in pinned:
            got = tuple(" ".join(format_index(i) for i in structured_family(spec, N, family))
                        for N in (1, 5, 8))
            assert got == FAMILY_LISTS[label, family], (label, family)


@pytest.mark.parametrize("label, size, label_text, last", [
    ("lp:2", 64, "integers 1..64", "64"),
    ("lplq:1,2", 64, "pair streams 1..32", "b:32"),
    ("lpq:2,4", 4095, "cubes to level 11 in [0,1)^1", "11:2047"),
    ("fpr:0,2,2,2", 1365, "cubes to level 5 in [0,1)^2", "5:31,31"),
    ("fpr:0,2,2,3", 585, "cubes to level 3 in [0,1)^3", "3:7,7,7"),
    ("hyp:4,2", 20481, "rectangles with level sum <= 10", "10:1023|0:0"),
    ("bmo:2", 8191, "intervals to depth 12", "12:4095"),
])
def test_default_universe_sizes_and_labels(label, size, label_text, last):
    uni = default_universe(parse_space(label))
    assert (len(uni), uni.label, format_index(uni.indices[-1])) == (size, label_text, last)
    assert len(set(uni.indices)) == size


def test_default_universe_size_zero_is_the_smallest_universe():
    # size 0 used to read as "no size" and return the default universe
    uni = default_universe(BMO, 0)
    assert [format_index(i) for i in uni.indices] == ["0:0"]
    uni = default_universe(parse_space("hyp:4,2"), 0)
    assert (len(uni), uni.label) == (1, "rectangles with level sum <= 0")
    for label in ("lp:2", "lplq:1,2", "lpq:2,4"):
        with pytest.raises(FeasibilityError, match="universe empty"):
            default_universe(parse_space(label), 0)


def test_default_universes_run_in_level_order():
    # each universe is a prefix of its level order: the catalog's full-tree
    # (cubes, intervals) and fixed-size-rects slices read it off
    for label in ("lpq:2,4", "fpr:0,2,2,2", "bmo:2"):
        spec = parse_space(label)
        uni = default_universe(spec)
        assert uni.indices == structured_family(spec, len(uni), "full-tree"), label
    hyp = parse_space("hyp:4,2")
    uni = default_universe(hyp, 4)
    assert uni.indices[-(5 * 2**4):] == structured_family(hyp, 5 * 2**4, "fixed-size-rects")


@pytest.mark.parametrize("label, wrong", [
    ("lp:2", "stream-a"),
    ("lplq:1,2", "same-size-disjoint"),
    ("fpr:0,2,2,2", "level-optimized"),
    ("lpq:2,4", "fixed-size-rects"),
    ("hyp:4,2", "full-tree"),
    ("hyp:4,3", "nested-tower"),
    ("bmo:2", "balanced"),
])
def test_unknown_family_names_are_parse_errors(label, wrong):
    spec = parse_space(label)
    for family in (wrong, "bogus"):
        with pytest.raises(ParseError, match=rf"{family}.*{label}"):
            structured_family(spec, 4, family)


def test_property_h_lplq_runs_on_stream_a():
    spec = parse_space("lplq:1,2")
    assert default_stable_family(spec, 3) == structured_family(spec, 8, "stream-a")
    res = property_h_check(spec, 3)
    assert res["tested"] == 70 and res["values"] == [4.0] * 70
    assert (res["spread"], res["h_r_reference"], res["passed"]) == (1.0, 4.0, True)


def test_structured_families_feasibility():
    spec = parse_space("lpq:2,4")
    for family in family_catalog(spec):
        idx = structured_family(spec, 8, family)
        assert len(idx) == 8
        assert len(set(idx)) == 8


def test_structured_vs_exhaustive_consistency():
    # structured family values sit inside the exhaustive [h_ell, h_r] range
    # (universes sized so that the N <= 3 families are contained in them)
    sizes = {"integer": 12, "interval": 4, "cube": 16}
    for label in ("lp:1.5", "bmo:2", "lpq:2,4"):
        spec = parse_space(label)
        uni = default_universe(spec, sizes[spec.universe])
        for N in (2, 3):
            he, hr, _, _ = h_exhaustive(spec, uni, N)
            for family in family_catalog(spec):
                try:
                    v = h_structured(spec, N, family)
                except FeasibilityError:
                    continue
                assert he * (1 - 1e-9) <= v <= hr * (1 + 1e-9), (label, family, N)


def test_structured_extremizers_match_exhaustive_small():
    # the best structured family attains the exhaustive extremes for bmo
    uni = default_universe(BMO, 4)
    he, hr, _, _ = h_exhaustive(BMO, uni, 3)
    vals = [h_structured(BMO, 3, f) for f in family_catalog(BMO)]
    assert min(vals) == pytest.approx(he, rel=1e-9)
    assert max(vals) == pytest.approx(hr, rel=1e-9)


def test_lpq_structured_exponents():
    from nterm.experiments import rate_fit

    for label in ("lpq:2,4", "lpq:4,2"):
        spec = parse_space(label)
        Ns = [2**k for k in range(1, 11)]
        prof = democracy_profile(spec, Ns, strategy="structured")
        f_ell = rate_fit([(r.N, r.h_ell) for r in prof.rows])
        f_r = rate_fit([(r.N, r.h_r) for r in prof.rows])
        assert f_ell.slope == pytest.approx(1 / max(spec.p, spec.q), abs=0.05)
        assert f_r.slope == pytest.approx(1 / min(spec.p, spec.q), abs=0.05)


def test_bmo_tree_value():
    # complete tree of depth m has norm sqrt(m+1) after normalization
    for m in (3, 5, 9):
        N = 2 ** (m + 1) - 1
        assert h_structured(BMO, N, "full-tree") == pytest.approx(
            math.sqrt(m + 1), rel=1e-10
        )


def test_hyp_fixed_size_value():
    # uniform coverage: all rectangles of size 2^-n give
    # 2^{n/p} (n+1)^{1/2} after normalization
    spec = parse_space("hyp:4,2")
    for n in (2, 4, 6):
        N = (n + 1) * 2**n
        v = h_structured(spec, N, "fixed-size-rects")
        assert v == pytest.approx(2 ** (n / 4.0) * math.sqrt(n + 1), rel=1e-10)


def test_democracy_profile_checks(rng):
    prof = democracy_profile(L2, [1, 2, 3, 4, 6, 8], universe=default_universe(L2, 12))
    assert prof.checks["bounds_ok"]
    assert prof.checks["monotone_ok"]
    assert prof.checks["h_r_doubling_constant"] == pytest.approx(math.sqrt(2), rel=1e-9)
    assert prof.checks["h_ell_step_constant"] <= 2 * 2 ** (1 / prof.rho)


def test_democracy_profile_prop_bounds(any_space):
    Ns = [1, 2, 4, 8]
    prof = democracy_profile(any_space, Ns, strategy="structured")
    he = prof.column("h_ell")
    hr = prof.column("h_r")
    Narr = prof.column("N")
    assert np.all(he <= hr * (1 + 1e-12))
    assert np.all(hr <= Narr ** (1 / any_space.rho) * (1 + 1e-9))
    assert np.all(he >= 1.0 - 1e-9)


def test_property_h_examples(rng):
    for label in ("orlicz:ulogu", "lpq:2,4", "lpq:4,2", "hyp:4,2"):
        res = property_h_check(parse_space(label), 5, samples=40,
                               rng=np.random.default_rng(7))
        assert res["passed"], (label, res)
        assert res["spread"] <= 4.0


def test_property_h_even_size_required():
    with pytest.raises(ParseError):
        property_h_check(L2, 3, gamma_set=[1, 2, 3])


def test_induced_h_scaling():
    # democratic ambient space: induced functions track N^alpha * ambient
    uni = default_universe(L2, 10)
    ratios = []
    for N in (1, 2, 3, 4):
        amb, _, _, _ = h_exhaustive(L2, uni, N)
        for mode in ("aspace", "gclass"):
            he, hr = induced_h(L2, 1.0, math.inf, mode, uni, N)
            ratios += [he / (N * amb), hr / (N * amb)]
    assert max(ratios) / min(ratios) < 4.0


def test_induced_h_bmo_gap():
    # ambient right-democracy grows by a log factor; the induced one does not
    uni = default_universe(BMO, 4)
    amb = [h_exhaustive(BMO, uni, N)[1] for N in (2, 4)]
    ind = [induced_h(BMO, 1.0, math.inf, "aspace", uni, N)[1] for N in (2, 4)]
    amb_growth = amb[1] / amb[0]
    ind_growth = ind[1] / ind[0] / 2.0  # divide out N^alpha
    assert ind_growth <= amb_growth + 1e-9


def test_induced_h_democratic_profile():
    uni = default_universe(L2, 8)
    for N in (2, 3):
        he, hr = induced_h(L2, 0.5, 2.0, "gclass", uni, N)
        assert hr / he < 4.0


def test_fpr_disjoint_cube_democracy_rows():
    # unit-normalized cube space: structured rows follow N^{1/p} exactly on
    # the same-size-disjoint family
    spec = parse_space("fpr:0,2,2,1")
    prof = democracy_profile(spec, [2, 4, 8, 16], strategy="structured")
    for r in prof.rows:
        assert r.h_ell == pytest.approx(r.N**0.5, rel=1e-9)
        assert r.h_r == pytest.approx(r.N**0.5, rel=1e-9)


def test_prop24_constants_stable_as_universe_grows():
    specs = parse_space("lp:2")
    consts = []
    for size in (8, 16, 32):
        prof = democracy_profile(specs, [1, 2, 4, 8],
                                 universe=default_universe(specs, size))
        consts.append(prof.checks["h_r_doubling_constant"])
    assert max(consts) / min(consts) < 1.0 + 1e-9  # identical across universes
    assert all(c <= 2 ** (1 / specs.rho) for c in consts)
