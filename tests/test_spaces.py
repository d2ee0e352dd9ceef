import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm.errors import ParseError
from nterm.indices import Cube, Pair, Rect, interval
from nterm.sequences import Sequence
from nterm.spaces import (
    MAX_RECT_LEVEL,
    StepFunction,
    _element_norm_cached,
    _level,
    ambient_norm,
    element_norm,
    lorentz_step_norm,
    lp_step_norm,
    orlicz_luxemburg_norm,
    parse_orlicz,
    parse_space,
    space_norm,
    square_function,
    to_raw,
)


def _canonical(spec, n):
    from nterm.experiments import canonical_indices

    return canonical_indices(spec, n)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_space_round_trip():
    for label in ("lp:2", "lplq:1,2", "fpr:0,2,2,1", "lpq:2,4", "orlicz:ulogu",
                  "hyp:4,2", "bmo:2"):
        assert parse_space(label).label() == label


def test_parse_space_errors():
    for bad in ("lp:0", "lp:-1", "wavelets:2", "fpr:1,2", "lpq:2",
                # non-finite parameters and trailing text
                "lp:nan", "lp:inf", "fpr:nan,2,2,1", "lpq:nan,2", "bmo:inf", "lplq:2,inf",
                "orlicz:pow:inf", "orlicz:powlog:2,nan", "orlicz:ulogu:3",
                # wrong parameter counts and a non-integer dimension
                "orlicz:pow", "orlicz:powlog:2", "fpr:0,2,2,1.5", "lp:2,3", "hyp:4"):
        with pytest.raises(ParseError):
            parse_space(bad)


def test_specs_are_values():
    for label in ("lp:2", "lplq:1,2", "fpr:0,2,2,1", "lpq:2,4", "orlicz:pow:2",
                  "orlicz:powlog:1,1", "orlicz:ulogu", "hyp:4,2", "bmo:2"):
        a, b = parse_space(label), parse_space(label)
        assert a is not b and a == b and hash(a) == hash(b)
    # the family string is part of the space: the same Phi under two names
    assert parse_space("orlicz:pow:2") != parse_space("orlicz:powlog:2,0")
    # so two parses of one string share their element-norm cache entries
    _element_norm_cached.cache_clear()
    element_norm(parse_space("lpq:2,4"), Cube(3, (1,)))
    element_norm(parse_space("lpq:2,4"), Cube(3, (5,)))
    assert _element_norm_cached.cache_info()[:2] == (1, 1)


def test_spec_hash_is_taken_once_and_equal_specs_share_a_cache_entry(monkeypatch):
    # element_norm hashes its spec on every lookup: the spec hashes its fields
    # (the OrliczFunction among them) once, when it is built
    from nterm.spaces import OrliczFunction

    calls = []
    field_hash = OrliczFunction.__hash__
    monkeypatch.setattr(OrliczFunction, "__hash__",
                        lambda self: calls.append(self) or field_hash(self))
    cube = Cube(9, (3,))
    for label in ("orlicz:ulogu", "orlicz:powlog:2,1", "orlicz:pow:1.5", "lpq:2,4",
                  "fpr:0,2,2,1", "bmo:2"):
        a, b = parse_space(label), parse_space(label)
        assert a is not b and a == b and hash(a) == hash(b)
        built = len(calls)
        element_norm(a, cube)
        before = _element_norm_cached.cache_info()
        for _ in range(3):
            assert element_norm(b, cube) == element_norm(a, cube)
        after = _element_norm_cached.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (6, 0)
        assert after.currsize == before.currsize
        assert len(calls) == built, label
        # a pickled spec is rebuilt, so its hash is taken in the loading interpreter
        c = pickle.loads(pickle.dumps(a))
        assert c == a and hash(c) == hash(a)
    assert parse_space("orlicz:pow:2") != parse_space("orlicz:powlog:2,0")


def test_rho_values():
    assert parse_space("lp:0.5").rho == 0.5
    assert parse_space("lp:3").rho == 1.0
    assert parse_space("fpr:0,2,0.7,1").rho == 0.7
    assert parse_space("lpq:2,4").rho == 1.0
    assert parse_space("bmo:0.5").rho == 0.5
    assert parse_space("orlicz:ulogu").rho == 1.0


# ---------------------------------------------------------------------------
# evaluator examples
# ---------------------------------------------------------------------------

def test_lp_examples():
    assert space_norm(parse_space("lp:2"), Sequence({1: 3.0, 2: 4.0})) == 5.0


def test_lplq_examples():
    spec = parse_space("lplq:1,2")
    s = Sequence({Pair(0, 1): 1.0, Pair(0, 2): 1.0, Pair(1, 1): 3.0, Pair(1, 2): 4.0},
                 "pair")
    assert space_norm(spec, s) == 7.0


def test_universe_mismatch():
    with pytest.raises(TypeError):
        space_norm(parse_space("lp:2"), Sequence({Cube(0, (0,)): 1.0}, "cube"))


def test_fpr_unit_cube():
    spec = parse_space("fpr:0,2,2,1")
    assert abs(space_norm(spec, Sequence({Cube(0, (0,)): 1.0}, "cube")) - 1.0) < 1e-15


def test_square_function_nested_tower():
    tower = Sequence({Cube(0, (0,)): 1.0, Cube(1, (0,)): 1.0}, "cube")
    f = square_function(tower, 2.0, -0.5)
    atoms = sorted(zip(f.measures, f.values))
    assert atoms[0] == pytest.approx((0.5, 1.0))
    assert atoms[1] == pytest.approx((0.5, math.sqrt(3)))
    assert abs(lp_step_norm(f, 2.0) - math.sqrt(2)) < 1e-14


def test_square_function_disjoint_cubes():
    two = Sequence({Cube(1, (0,)): 1.0, Cube(1, (1,)): 1.0}, "cube")
    f = square_function(two, 2.0, 0.0)
    assert sorted(f.values) == pytest.approx([1.0, 1.0])
    assert f.total_measure() == pytest.approx(1.0)


def test_square_function_measures_sum_to_union():
    seq = Sequence({Cube(0, (0,)): 1.0, Cube(2, (1,)): 2.0, Cube(3, (7,)): 1.0,
                    Cube(1, (1,)): 0.5}, "cube")
    f = square_function(seq, 2.0, -0.5)
    assert f.total_measure() == pytest.approx(1.0)  # union is [0,1)


def test_square_function_parameter_error():
    with pytest.raises(ValueError):
        square_function(Sequence({Cube(0, (0,)): 1.0}, "cube"), 0.0, -0.5)


def test_lp_step_norm_examples():
    chi = StepFunction.from_atoms([1.0], [1.0])
    for p in (0.5, 1.0, 2.0, 7.0):
        assert lp_step_norm(chi, p) == pytest.approx(1.0)
    two = StepFunction.from_atoms([0.5, 0.5], [2.0, 1.0])
    assert lp_step_norm(two, 1.0) == pytest.approx(1.5)


def test_lorentz_step_norm_examples():
    chi = StepFunction.from_atoms([1.0], [1.0])
    assert lorentz_step_norm(chi, 2.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    two = StepFunction.from_atoms([0.5, 0.5], [2.0, 1.0])
    assert lorentz_step_norm(two, 1.0, 1.0) == pytest.approx(1.5, rel=1e-12)


def test_lorentz_step_equals_lp_when_p_eq_q(rng):
    for _ in range(20):
        n = int(rng.integers(1, 8))
        f = StepFunction.from_atoms(rng.uniform(0.1, 2, n), rng.uniform(0, 3, n))
        for p in (1.0, 2.0, 3.5):
            assert lorentz_step_norm(f, p, p) == pytest.approx(lp_step_norm(f, p), rel=1e-10)


def test_lorentz_step_log_scale_matches_linear(rng):
    # the log-scale path agrees with direct evaluation in the linear range
    n = 12
    meas = rng.uniform(0.01, 1, n)
    vals = rng.uniform(0.1, 100, n)
    f = StepFunction.from_atoms(meas, vals)
    p, q = 2.0, 4.0
    order = np.argsort(-vals)
    m, v = meas[order], vals[order]
    b = np.cumsum(m)
    a = np.concatenate(([0.0], b[:-1]))
    direct = float(np.sum((p / q) * (b ** (q / p) - a ** (q / p)) * v**q) ** (1 / q))
    assert lorentz_step_norm(f, p, q) == pytest.approx(direct, rel=1e-10)


def test_orlicz_examples():
    pow2 = parse_orlicz("pow:2")
    assert orlicz_luxemburg_norm(StepFunction.from_atoms([1.0], [1.0]), pow2) == \
        pytest.approx(1.0, rel=1e-9)
    assert orlicz_luxemburg_norm(StepFunction.from_atoms([4.0], [3.0]), pow2) == \
        pytest.approx(6.0, rel=1e-9)
    # L^Phi = L^p reduction for Phi = u^p
    f = StepFunction.from_atoms([0.3, 0.5, 1.2], [2.0, 0.7, 1.1])
    for p in (1.5, 2.0, 3.0):
        lp = lp_step_norm(f, p)
        assert orlicz_luxemburg_norm(f, parse_orlicz(f"pow:{p}")) == \
            pytest.approx(lp, rel=1e-9)


def test_orlicz_indicator_is_fundamental_function():
    # ||chi_E||_Phi = phi(|E|), cross-checked against an independent bisection
    phi = parse_orlicz("ulogu")
    for a in np.geomspace(1e-4, 8.0, 10):
        f = StepFunction.from_atoms([a], [1.0])
        got = orlicz_luxemburg_norm(f, phi)
        lo, hi = 1e-12, 1e12
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if a * phi(1.0 / mid) > 1.0:
                lo = mid
            else:
                hi = mid
        assert got == pytest.approx(hi, rel=1e-8)
        assert got == pytest.approx(phi.fundamental(a), rel=1e-8)


def test_orlicz_zero_function():
    phi = parse_orlicz("pow:2")
    f = square_function(Sequence({Cube(0, (0,)): 0.0}, "cube"), 2.0, -0.5)
    assert orlicz_luxemburg_norm(f, phi) == 0.0


def test_orlicz_parse_validation():
    with pytest.raises(ParseError):
        parse_orlicz("powlog:0.5,1")
    with pytest.raises(ParseError):
        parse_orlicz("unknown")


def test_bmo_examples(rng):
    spec = parse_space("bmo:2")
    assert space_norm(spec, Sequence({interval(2, 1): 1.0}, "interval")) == 1.0
    # full binary tree of depth m: norm sqrt(m+1)
    for m in (2, 3, 5):
        tree = Sequence({interval(j, k): 1.0 for j in range(m + 1)
                         for k in range(2**j)}, "interval")
        assert space_norm(spec, tree) == pytest.approx(math.sqrt(m + 1), rel=1e-12)
    # N disjoint same-level intervals: norm 1
    for N in (2, 8, 32):
        s = Sequence({interval(6, 2 * k): 1.0 for k in range(N)}, "interval")
        assert space_norm(spec, s) == pytest.approx(1.0, rel=1e-12)


def test_bmo_r_generalization():
    spec = parse_space("bmo:3")
    m = 3
    tree = Sequence({interval(j, k): 1.0 for j in range(m + 1)
                     for k in range(2**j)}, "interval")
    assert space_norm(spec, tree) == pytest.approx((m + 1) ** (1 / 3), rel=1e-12)


def test_hyp_examples():
    spec = parse_space("hyp:4,2")
    r = Rect((interval(1, 0), interval(0, 0)))
    assert space_norm(spec, Sequence({r: 1.0}, "rect")) == pytest.approx(2**0.25)
    # two disjoint rectangles of measure 1 tile [0,1)^2 -> constant square fn
    r1 = Rect((interval(1, 0), interval(0, 0)))
    r2 = Rect((interval(1, 1), interval(0, 0)))
    s = Sequence({r1: 1.0, r2: 1.0}, "rect")
    f = square_function(s, 2.0, -0.5)
    assert f.total_measure() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# structural invariants, all space tags
# ---------------------------------------------------------------------------

def _random_seq(spec, n, rng, allow_zero=False):
    idx = _canonical(spec, n)
    vals = rng.standard_normal(n) * np.exp(rng.uniform(-1.5, 1.5, n))
    if not allow_zero:
        vals = np.where(np.abs(vals) < 1e-9, 0.1, vals)
    return Sequence(dict(zip(idx, vals)), spec.universe)


def test_lattice_property(any_space, rng):
    spec = any_space
    for _ in range(8):
        n = int(rng.integers(1, 10))
        big = _random_seq(spec, n, rng)
        shrink = rng.uniform(0, 1, n)
        small = Sequence(
            {i: v * s for (i, v), s in zip(big.entries.items(), shrink)}, spec.universe
        )
        assert space_norm(spec, small) <= space_norm(spec, big) * (1 + 1e-9)


def test_sign_invariance(any_space, rng):
    spec = any_space
    for _ in range(6):
        n = int(rng.integers(1, 10))
        s = _random_seq(spec, n, rng)
        flipped = Sequence(
            {i: v * (-1) ** rng.integers(0, 2) for i, v in s.entries.items()},
            spec.universe,
        )
        assert space_norm(spec, flipped) == pytest.approx(space_norm(spec, s), rel=1e-11)


def test_indicator_coefficient_bounds(any_space, rng):
    # min|c| * ||1_Gamma|| <= ||sum c e|| <= max|c| * ||1_Gamma||
    spec = any_space
    for _ in range(6):
        n = int(rng.integers(1, 9))
        s = _random_seq(spec, n, rng)
        ind = Sequence({i: 1.0 for i in s.entries}, spec.universe)
        ind_norm = space_norm(spec, ind)
        mags = [abs(v) for v in s.entries.values()]
        val = space_norm(spec, s)
        assert min(mags) * ind_norm <= val * (1 + 1e-9)
        assert val <= max(mags) * ind_norm * (1 + 1e-9)


def test_rho_triangle_inequality(any_space, rng):
    spec = any_space
    rho = spec.rho
    for _ in range(8):
        n = int(rng.integers(1, 9))
        idx = _canonical(spec, n)
        a = Sequence(dict(zip(idx, rng.standard_normal(n))), spec.universe)
        b = Sequence(dict(zip(idx, rng.standard_normal(n))), spec.universe)
        lhs = space_norm(spec, a + b) ** rho
        rhs = space_norm(spec, a) ** rho + space_norm(spec, b) ** rho
        assert lhs <= rhs * (1 + 1e-9)


def test_lp_disjoint_additivity_matches_fpr(rng):
    # same-size disjoint cubes: the cube-space norm is exactly l^p additive
    spec = parse_space("fpr:0,1.5,2,1")
    level = 4
    n = 8
    idx = [Cube(level, (2 * k,)) for k in range(n)]
    vals = np.abs(rng.standard_normal(n)) + 0.1
    s = Sequence(dict(zip(idx, vals)), "cube")
    escale = [element_norm(spec, i) for i in idx]
    expected = float(np.sum((vals * escale) ** 1.5) ** (1 / 1.5))
    assert space_norm(spec, s) == pytest.approx(expected, rel=1e-12)


def test_element_norms_known_values():
    assert element_norm(parse_space("lp:2"), 5) == 1.0
    assert element_norm(parse_space("bmo:2"), interval(3, 1)) == 1.0
    assert element_norm(parse_space("fpr:0,2,2,1"), Cube(4, (3,))) == 1.0
    # lpq: (p/q)^{1/q} |Q|^{1/p-1/2}, and hyp:2,2's 2^(L (1/2 - 1/p)), do not
    # depend on the level at p = 2
    spec = parse_space("lpq:2,4")
    assert element_norm(spec, Cube(6, (1,))) == 0.5**0.25
    assert element_norm(spec, Cube(1000, (1, 2))) == 0.5**0.25
    rect = Rect((interval(MAX_RECT_LEVEL, 3), interval(MAX_RECT_LEVEL, 0)))
    assert element_norm(parse_space("hyp:2,2"), rect) == 1.0


ELEMENT_SPACES = ["lp:1.5", "lplq:1,2", "lpq:2,4", "lpq:4,2", "fpr:0,2,2,1",
                  "fpr:0.3,2,1.5,2", "orlicz:ulogu", "orlicz:powlog:2,1", "bmo:2",
                  "hyp:4,2", "hyp:2,2", "hyp:4,3"]
# closed forms that can differ from the general path's float by rounding
ROUNDED = ("fpr", "lpq", "hyp")
EPS = np.finfo(float).eps


def _outcome(spec, idx, cached):
    """The norm of the element at idx, or the type and message it fails with."""
    try:
        if cached:
            return element_norm(spec, idx)
        return space_norm(spec, Sequence({idx: 1.0}, spec.universe))
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _elements(draw, universe):
    """A random element of the universe: an integer, a pair, a signed cube
    (d = 1..3), an interval, or a rectangle of 1 to 3 axes whose levels reach
    past MAX_RECT_LEVEL."""
    if universe == "integer":
        return draw(st.integers(-10**6, 10**6))
    if universe == "pair":
        return Pair(draw(st.integers(0, 1)), draw(st.integers(-10**6, 10**6)))
    if universe == "rect":
        ivs = []
        for _ in range(draw(st.sampled_from([1, 2, 2, 2, 3, 3, 3]))):
            j = draw(st.integers(0, MAX_RECT_LEVEL + 20))
            # rectangle supports are floats: keep the offsets where they are exact
            bound = 1 << min(j + 1, 52)
            ivs.append(interval(j, draw(st.integers(-bound, bound))))
        return Rect(tuple(ivs))
    d = 1 if universe == "interval" else draw(st.integers(1, 3))
    j = draw(st.integers(0, 1000))
    bound = 1 << (j + 1)
    return Cube(j, tuple(draw(st.integers(-bound, bound)) for _ in range(d)))


def _assert_matches_general_path(spec, idx):
    """element_norm against space_norm on the single element: the same error
    (type and message), the same float for lp, lplq, bmo and orlicz, and for
    fpr, lpq and hyp a rel difference of at most 4 eps (1 + L ln 2), the
    rounding of the general path's log-scale measure and value."""
    closed = _outcome(spec, idx, cached=True)
    general = _outcome(spec, idx, cached=False)
    if isinstance(closed, tuple) or isinstance(general, tuple) or spec.tag not in ROUNDED:
        assert closed == general
    else:
        tol = 4 * EPS * (1 + _level(idx) * math.log(2))
        assert abs(closed - general) <= tol * closed, (closed, general)


@pytest.mark.parametrize("label", ELEMENT_SPACES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_element_norm_is_the_uncached_single_element_norm(label, data):
    spec = parse_space(label)
    _assert_matches_general_path(spec, data.draw(_elements(spec.universe)))


@pytest.mark.parametrize("levels", [(500, 500, 23), (500, 500, 24), (500, 500, 25),
                                    (501, 0, 0), (0, 0)])
def test_rect_element_errors_are_the_general_paths(levels):
    # the weight 2^L = e^(L ln 2) stays a float through L = 1024, and a level
    # past MAX_RECT_LEVEL or a wrong axis count fails first
    rect = Rect(tuple(interval(j, 0) for j in levels))
    _assert_matches_general_path(parse_space("hyp:4,3"), rect)


@pytest.mark.parametrize("label", ["fpr:0.3,2,1.5,2", "fpr:0.5,3,2,1", "lpq:2,4", "lpq:4,2",
                                   "lpq:1.2,6", "hyp:4,2", "hyp:1.5,2", "orlicz:pow:3",
                                   "orlicz:ulogu", "orlicz:powlog:2,1"])
@pytest.mark.parametrize("level", [0, 1, 7, 64, 500, 1000])
def test_element_norm_closed_forms_against_mpmath(label, level):
    # 50-digit values of |Q|^(-1/2) ||chi_Q|| at |Q| = 2^-L: the fundamental
    # functions (p/q)^(1/q) t^(1/p) of L^{p,q}, t^(1/p) of L^p (times |Q|^(-s/d)
    # for fpr) and 1/Phi^-1(1/t) of the Orlicz space
    mp = pytest.importorskip("mpmath")
    spec = parse_space(label)
    if spec.tag == "hyp":
        idx = Rect((interval(level // 2, 0), interval(level - level // 2, 0)))
    else:
        idx = Cube(level, (0,))
    with mp.workdps(50):
        t, scale = mp.mpf(2) ** -level, mp.mpf(2) ** (level / mp.mpf(2))
        if spec.tag == "fpr":
            exact = scale * t ** (1 / mp.mpf(spec.p)) * t ** (-spec.s / mp.mpf(spec.d))
        elif spec.tag == "lpq":
            p, q = mp.mpf(spec.p), mp.mpf(spec.q)
            exact = scale * (p / q) ** (1 / q) * t ** (1 / p)
        elif spec.tag == "hyp":
            exact = scale * t ** (1 / mp.mpf(spec.p))
        else:
            p, g = mp.mpf(spec.orlicz.p), mp.mpf(spec.orlicz.g)
            # Phi(u) = 1/t with u = e^y, solved in y so that deep levels stay in range
            y = mp.findroot(lambda y: p * y + g * mp.log(mp.log1p(mp.exp(y))) - level * mp.log(2),
                            level * mp.log(2) / p)
            exact = scale / mp.exp(y)
        rel = float(abs(element_norm(spec, idx) - exact) / exact)
    assert rel <= 4 * EPS * (1 + level * math.log(2))


@pytest.mark.parametrize("label, indices", [
    ("lpq:2,4", [interval(6, k) for k in range(2**6)]),
    ("orlicz:ulogu", [Cube(3, (a, b)) for a in range(8) for b in range(8)]),
    ("bmo:2", [interval(5, k) for k in range(2**5)]),
    ("hyp:4,2", [Rect((interval(3, a), interval(2, b))) for a in range(8) for b in range(4)]),
])
def test_one_element_norm_per_size(label, indices):
    spec = parse_space(label)
    _element_norm_cached.cache_clear()
    to_raw(spec, Sequence({i: 1.0 for i in indices}, spec.universe))
    info = _element_norm_cached.cache_info()
    assert (info.misses, info.hits) == (1, len(indices) - 1)


def test_ambient_norm_normalizes(any_space):
    spec = any_space
    idx = _canonical(spec, 1)[0]
    assert ambient_norm(spec, Sequence({idx: 1.0}, spec.universe)) == pytest.approx(1.0, rel=1e-9)


def test_deep_family_log_scale_lpq():
    # all-different-sizes indicator at depth 1024 stays finite and on trend
    spec = parse_space("lpq:2,4")
    from nterm.democracy import h_structured

    v256 = h_structured(spec, 256, "different-sizes")
    v1024 = h_structured(spec, 1024, "different-sizes")
    assert np.isfinite(v1024)
    # ~ N^{1/4} growth between the two sizes
    assert v1024 / v256 == pytest.approx((1024 / 256) ** 0.25, rel=0.1)
