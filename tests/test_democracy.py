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
    property_h_check,
    structured_family,
)
from nterm.errors import FeasibilityError, NumericError
from nterm.indices import Cube
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
    with pytest.raises(ValueError):
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
