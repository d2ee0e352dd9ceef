"""Properties of the log-scale L^{p,q} and Orlicz-Luxemburg row kernels that
the scalar step-function norms and the batch evaluators share."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm.batch import batch_evaluator
from nterm.experiments import canonical_indices
from nterm.sequences import Sequence
from nterm.spaces import (
    StepFunction,
    lorentz_rows,
    lorentz_step_norm,
    lp_step_norm,
    luxemburg_rows,
    orlicz_luxemburg_norm,
    parse_orlicz,
    parse_space,
    space_norm,
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


BATCH_SPACES = ["orlicz:pow:1.5", "orlicz:powlog:2,1", "orlicz:ulogu", "lpq:2,4", "lpq:4,2"]


@given(
    st.sampled_from(BATCH_SPACES),
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=9),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batch_equals_scalar(label, vals, seed):
    spec = parse_space(label)
    n = len(vals)
    idx = canonical_indices(spec, n)
    ev = batch_evaluator(spec, idx, vals)
    vmap = dict(zip(idx, vals))
    masks = np.random.default_rng(seed).integers(0, 2, size=(12, n)).astype(float)
    for row, got in zip(masks, ev.norms(masks)):
        sub = Sequence({ev.indices[i]: vmap[ev.indices[i]] for i in range(n) if row[i]},
                       spec.universe)
        assert got == pytest.approx(space_norm(spec, sub), rel=1e-12, abs=0.0)


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
