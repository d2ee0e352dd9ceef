"""Properties of the log-scale L^{p,q} and Orlicz-Luxemburg row kernels that
the scalar step-function norms and the batch evaluators share."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm.batch import batch_evaluator
from nterm.experiments import canonical_indices
from nterm.indices import Cube, Rect, interval
from nterm.sequences import Sequence
from nterm.spaces import (
    LINEAR_MEASURE_SPAN,
    StepFunction,
    lorentz_rows,
    lorentz_step_norm,
    lp_step_norm,
    luxemburg_rows,
    orlicz_luxemburg_norm,
    parse_orlicz,
    parse_space,
    space_norm,
    square_function,
)

mpmath = pytest.importorskip("mpmath")

ORLICZ = ["ulogu", "pow:1.5", "pow:3", "powlog:2,1", "powlog:1,0.3", "powlog:3,2"]
LORENTZ = [(2.0, 4.0), (4.0, 2.0), (1.5, 1.0), (1.0, 3.0)]


@st.composite
def step_rows(draw, span=900.0, max_rows=4):
    """ln measures (k,) and ln values (rows, k), with -inf for empty atoms and
    ln values reaching past +-700."""
    k = draw(st.integers(1, 10))
    rows = draw(st.integers(1, max_rows))
    ln_m = np.array(draw(st.lists(st.floats(-span, 5.0), min_size=k, max_size=k)))
    cell = st.one_of(st.floats(-span, span), st.just(-np.inf))
    ln_v = np.array(draw(st.lists(st.lists(cell, min_size=k, max_size=k),
                                  min_size=rows, max_size=rows)))
    return ln_m, ln_v


def _ln_F(ln_m, ln_v, phi, t):
    """ln sum m Phi(v e^-t) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for lm, lv in zip(ln_m, ln_v):
            if lv > -np.inf:
                u = mpmath.exp(mpmath.mpf(lv) - mpmath.mpf(t))
                total += mpmath.exp(lm) * u**phi.p * mpmath.log1p(u) ** phi.g
        return float(mpmath.log(total))


def _ln_lorentz(ln_m, ln_v, p, q):
    """ln L^{p,q} norm in 50-digit arithmetic."""
    with mpmath.workdps(50):
        pieces = sorted(((lv, lm) for lm, lv in zip(ln_m, ln_v) if lv > -np.inf),
                        reverse=True)
        a, total = mpmath.mpf(0), mpmath.mpf(0)
        for lv, lm in pieces:
            b = a + mpmath.exp(lm)
            total += (p / q) * (b ** (q / p) - a ** (q / p)) * mpmath.exp(q * mpmath.mpf(lv))
            a = b
        return float(mpmath.log(total) / q) if pieces else -np.inf


@given(step_rows(), st.sampled_from(LORENTZ))
@settings(max_examples=150, deadline=None)
def test_lorentz_rows_equal_single_rows_and_scalar(data, pq):
    ln_m, ln_v = data
    p, q = pq
    got = lorentz_rows(ln_m, ln_v, p, q)
    for row, g in zip(ln_v, got):
        assert lorentz_rows(ln_m, row[None, :], p, q)[0] == g
        want = _ln_lorentz(ln_m, row, p, q)
        if want == -np.inf:
            assert g == -np.inf
            continue
        # a few ulps of the largest log-scale magnitude involved
        assert abs(g - want) <= 1e-14 * max(1.0, np.abs(ln_m).max(), np.abs(want))
        if abs(g) < 700:
            assert lorentz_step_norm(StepFunction(ln_m, row), p, q) == math.exp(g)


def _ln_lorentz_logaddexp(ln_measures, ln_values, p, q):
    """lorentz_rows with the cumulative measures always taken by
    np.logaddexp.accumulate: the floats of its branch past the guard."""
    order = np.argsort(-ln_values, axis=1)
    lv = ln_values[np.arange(len(ln_values))[:, None], order]
    ln_b = np.logaddexp.accumulate(ln_measures[order], axis=1)
    ln_a = np.concatenate((np.full((len(lv), 1), -np.inf), ln_b[:, :-1]), axis=1)
    qp = q / p
    with np.errstate(divide="ignore"):
        ln_diff = qp * ln_b + np.log(-np.expm1(-qp * (ln_b - ln_a)))
        terms = math.log(p / q) + ln_diff + q * lv
        mx = terms.max(axis=1, initial=-np.inf)
        mx = np.where(mx > -np.inf, mx, 0.0)
        return (mx + np.log(np.exp(terms - mx[:, None]).sum(axis=1))) / q


def _tower(levels, rng):
    """ln measures and ln values of the square function of a nested tower of
    cubes at levels 0..levels-1, with random coefficients."""
    seq = Sequence({Cube(j, (0,)): float(np.exp(rng.uniform(-3.0, 3.0)))
                    for j in range(levels)}, "cube")
    f = square_function(seq, 2.0, -0.5)
    return f.ln_measures, f.ln_values[None, :]


@pytest.mark.parametrize("pq", LORENTZ)
def test_lorentz_rows_linear_measures_below_the_guard(pq, rng):
    p, q = pq
    # ln measures spanning just under the guard, values within a factor e: the
    # linear cumulative sums give the logaddexp formula's norms to rel 1e-14
    for _ in range(20):
        k = int(rng.integers(2, 200))
        ln_m = rng.uniform(-599.9, 0.0, k)
        ln_m[:2] = -599.9, 0.0
        ln_v = rng.uniform(-1.0, 1.0, (4, k))
        got, want = lorentz_rows(ln_m, ln_v, p, q), _ln_lorentz_logaddexp(ln_m, ln_v, p, q)
        np.testing.assert_allclose(np.exp(got), np.exp(want), rtol=1e-14, atol=0.0)
    # a tower of 864 levels spans 597.5 nats; its ln norms reach hundreds, and
    # agree to a few ulps of them (an ulp of 300 is 5.7e-14)
    ln_m, ln_v = _tower(864, rng)
    assert np.ptp(ln_m) < LINEAR_MEASURE_SPAN
    got, want = lorentz_rows(ln_m, ln_v, p, q), _ln_lorentz_logaddexp(ln_m, ln_v, p, q)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("pq", LORENTZ)
def test_lorentz_rows_logaddexp_floats_at_and_past_the_guard(pq, rng):
    p, q = pq
    ln_m = np.array([-LINEAR_MEASURE_SPAN, 0.0, -3.0])
    ln_v = rng.uniform(-5.0, 5.0, (4, 3))
    cases = [(ln_m, ln_v), _tower(1000, rng)]
    for ln_m, ln_v in cases:
        assert np.ptp(ln_m) >= LINEAR_MEASURE_SPAN
        got = lorentz_rows(ln_m, ln_v, p, q)
        assert np.array_equal(got, _ln_lorentz_logaddexp(ln_m, ln_v, p, q))


@given(step_rows(), st.sampled_from(ORLICZ))
@settings(max_examples=150, deadline=None)
def test_luxemburg_rows_equal_single_rows_and_scalar(data, name):
    ln_m, ln_v = data
    phi = parse_orlicz(name)
    got, _ = luxemburg_rows(ln_m, ln_v, phi)
    for row, g in zip(ln_v, got):
        one, its = luxemburg_rows(ln_m, row[None, :], phi)
        assert one[0] == g
        if not np.any(row > -np.inf):
            assert g == -np.inf and its == 0
            continue
        assert 1 <= its <= 8
        if abs(g) < 700:
            assert orlicz_luxemburg_norm(StepFunction(ln_m, row), phi) == math.exp(g)
        # F(t) = F'(t*) (t - t*) with |F'| <= p + g, and t is held to a few ulps
        # of the log-scale magnitudes that enter the sum
        live = row > -np.inf
        scale = max(1.0, np.abs(ln_m[live]).max(),
                    (phi.p + phi.g) * (np.abs(row[live]).max() + abs(g)))
        assert abs(_ln_F(ln_m, row, phi, g)) <= 1e-13 + 1e-15 * scale


@given(step_rows(span=30.0, max_rows=1), st.sampled_from(ORLICZ))
@settings(max_examples=150, deadline=None)
def test_luxemburg_residual_in_moderate_range(data, name):
    ln_m, ln_v = data
    phi = parse_orlicz(name)
    t, its = luxemburg_rows(ln_m, ln_v, phi)
    if its:
        assert its <= 8
        assert abs(_ln_F(ln_m, ln_v[0], phi, t[0])) <= 1e-13


@given(step_rows(max_rows=1), st.sampled_from([1.25, 1.5, 2.0, 3.0, 7.5]))
@settings(max_examples=100, deadline=None)
def test_pow_luxemburg_is_one_newton_step(data, p):
    ln_m, ln_v = data
    phi = parse_orlicz(f"pow:{p:g}")
    t, its = luxemburg_rows(ln_m, ln_v, phi)
    if not its:
        return
    assert its == 1
    f = StepFunction(ln_m, ln_v[0])
    if abs(t[0]) < 700:
        # 1e-14 relative per unit of |ln lam|, which carries its own ulp
        rel = 1e-14 * max(1.0, abs(t[0]))
        assert orlicz_luxemburg_norm(f, phi) == pytest.approx(lp_step_norm(f, p), rel=rel)


BATCH_SPACES = ["orlicz:pow:1.5", "orlicz:powlog:2,1", "orlicz:ulogu", "lpq:2,4", "lpq:4,2",
                "hyp:4,2", "hyp:2,2", "fpr:0,2,2,1"]
DEEP_BATCH_SPACES = ["hyp:4,2", "hyp:2,2", "fpr:0,2,2,1", "fpr:0,2,2,2", "lpq:2,4", "lpq:4,2",
                     "orlicz:ulogu", "bmo:2"]


def _assert_batch_equals_scalar(spec, idx, vals, seed):
    n = len(idx)
    ev = batch_evaluator(spec, idx, vals)
    vmap = dict(zip(idx, vals))
    masks = np.random.default_rng(seed).integers(0, 2, size=(12, n)).astype(float)
    for row, got in zip(masks, ev.norms(masks)):
        sub = Sequence({idx[i]: vmap[idx[i]] for i in range(n) if row[i]}, spec.universe)
        assert got == pytest.approx(space_norm(spec, sub), rel=1e-12, abs=0.0)


@given(
    st.sampled_from(BATCH_SPACES),
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=9),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batch_equals_scalar(label, vals, seed):
    spec = parse_space(label)
    _assert_batch_equals_scalar(spec, canonical_indices(spec, len(vals)), vals, seed)


@st.composite
def deep_supports(draw, universe, d=1, max_level=120, max_size=8):
    """Distinct dyadic rectangles of [0,1)^2, or cubes of [0,1)^d (intervals
    for d = 1), with levels to max_level per axis; about half hang below an
    earlier member, so weights 2^(j1 + j2) (2^(j d) for cubes) that differ by
    far more than 2^53 meet in one cell. A cube's axes share its level."""
    axes = 2 if universe == "rect" else d
    members = []
    for _ in range(draw(st.integers(1, max_size))):
        if members and draw(st.booleans()):
            base = draw(st.sampled_from(members))
            gaps = [draw(st.integers(0, max_level - j)) for j, _ in base]
            if universe != "rect":
                gaps = gaps[:1] * axes
            member = tuple((j + g, k << g | draw(st.integers(0, (1 << g) - 1)))
                           for (j, k), g in zip(base, gaps))
        else:
            levels = [draw(st.integers(0, max_level)) for _ in range(axes)]
            if universe != "rect":
                levels = levels[:1] * axes
            member = tuple((j, draw(st.integers(0, (1 << j) - 1))) for j in levels)
        if member not in members:
            members.append(member)
    if universe == "rect":
        return [Rect(tuple(interval(j, k) for j, k in m)) for m in members]
    return [Cube(m[0][0], tuple(k for _, k in m)) for m in members]


@given(st.sampled_from(DEEP_BATCH_SPACES), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=160, deadline=None)
def test_batch_equals_scalar_on_deep_families(label, data, seed):
    spec = parse_space(label)
    idx = data.draw(deep_supports(spec.universe, spec.d if spec.tag == "fpr" else 1))
    vals = data.draw(st.lists(st.floats(0.01, 100.0), min_size=len(idx), max_size=len(idx)))
    _assert_batch_equals_scalar(spec, idx, vals, seed)


def test_hyp_weights_far_apart_do_not_cancel():
    # weights 1 and 2^60 in one cell: summing them into a difference array and
    # taking its cumsum lost the 1 in the cell beside it, and the norm read 1.0
    spec = parse_space("hyp:2,2")
    rects = [Rect((interval(0, 0), interval(0, 0))), Rect((interval(60, 0), interval(0, 0)))]
    scalar = space_norm(spec, Sequence(dict.fromkeys(rects, 1.0), "rect"))
    batch = batch_evaluator(spec, rects, [1.0, 1.0]).norms(np.ones((1, 2)))[0]
    assert scalar == pytest.approx(math.sqrt(2), rel=1e-14)
    assert batch == pytest.approx(math.sqrt(2), rel=1e-14)


def test_luxemburg_beyond_linear_range():
    # atoms at e^(+-800) were out of reach of a linear-range evaluation
    phi = parse_orlicz("ulogu")
    f = StepFunction(np.array([-1600.0, 0.0]), np.array([800.0, 1.0]))
    lam = orlicz_luxemburg_norm(f, phi)
    assert math.isfinite(lam) and lam > 0
    assert abs(_ln_F(f.ln_measures, f.ln_values, phi, math.log(lam))) <= 1e-12


def test_lorentz_measure_jump_beyond_e700():
    # a thin high piece, then a piece e^800 times wider: q/p (ln b - ln a) is
    # 1600, past the range where b^(q/p) - a^(q/p) can be taken via expm1 of it
    ln_m, ln_v = np.array([-800.0, 0.0]), np.array([300.0, 0.0])
    want = _ln_lorentz(ln_m, ln_v, 2.0, 4.0)
    assert lorentz_step_norm(StepFunction(ln_m, ln_v), 2.0, 4.0) == \
        pytest.approx(math.exp(want), rel=1e-14)


def test_exact_root_stops_before_the_bracket():
    # F(t0) = 0 exactly: the zero step must end the row, although t0 is then
    # an end of the bracket
    t, its = luxemburg_rows(np.zeros(1), np.zeros((1, 1)), parse_orlicz("pow:2"))
    assert t[0] == 0.0 and its == 1
