import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm.lorentz import (
    fundamental_function_check,
    lorentz_norm,
    lorentz_norm_dyadic,
    weighted_lq,
)
from nterm.sequences import Sequence, indicator
from nterm.weights import Weight

SQRT = Weight.power_log(0.5)
LIN = Weight.power_log(1.0)


def test_indicator_sup_norm_is_weight_value():
    # sup form of the indicator norm equals eta(|Gamma|) exactly
    assert lorentz_norm(indicator(range(1, 5)), SQRT, math.inf) == 2.0
    for N in (1, 3, 7, 20):
        assert lorentz_norm(indicator(range(1, N + 1)), LIN, math.inf) == float(N)


def test_examples():
    assert abs(lorentz_norm(indicator(range(1, 4)), LIN, 1) - 3.0) < 1e-14
    s = Sequence({1: 3.0, 2: 2.0, 3: 1.0})
    assert lorentz_norm(s, LIN, math.inf) == 4.0  # max(3, 4, 3)


def test_q_validation():
    for norm in (lorentz_norm, lorentz_norm_dyadic):
        for q in (0.0, -1.0, math.nan):  # nan passes a "q <= 0" guard
            with pytest.raises(ValueError, match="positive"):
                norm(indicator([1, 2]), LIN, q)
    # a non-integer kappa used to fail inside numpy's indexing
    for kappa in (1, 2.5, 3.0):
        with pytest.raises(ValueError, match="kappa must be an integer"):
            lorentz_norm_dyadic(indicator([1, 2]), LIN, 1.0, kappa)


def _weighted_lq_oracle(vals, w, q, kappa):
    """The weighted l^q sum in 50-digit arithmetic, with eta(k) = k^a log^b(k+1)
    table[k-1] (table entries read exactly)."""
    n = len(vals)
    if kappa is None:
        ks, dens = range(1, n + 1), range(1, n + 1)
    else:
        ks = [kappa**j for j in range(n) if kappa**j <= n]
        dens = [1] * len(ks)
    with mpmath.workdps(50):
        wk = [mpmath.mpf(k) ** w.a * mpmath.log(k + 1) ** w.b
              * (1 if w.table is None else mpmath.mpf(float(w.table[k - 1]))) for k in ks]
        terms = [x * mpmath.mpf(float(vals[k - 1])) for x, k in zip(wk, ks)]
        if math.isinf(q):
            return float(max(terms))
        return float(mpmath.fsum(t**q / d for t, d in zip(terms, dens)) ** (1 / mpmath.mpf(q)))


def test_weighted_lq_matches_mpmath_oracle(rng):
    n = 200
    table = Weight.from_table(np.cumsum(rng.uniform(0.1, 5.0, n)))
    weights = (Weight.power_log(0.5), Weight.power_log(1.5, 2.0), table, table.scaled(0.75))
    for _ in range(4):
        vals = 10.0 ** rng.uniform(-16, 16, n)  # terms over 32 decades
        for w in weights:
            for q in (0.5, 1.0, 2.0, 3.7, math.inf):
                for kappa in (None, 2, 3):
                    got = weighted_lq(vals, w, q, kappa)
                    want = _weighted_lq_oracle(vals, w, q, kappa)
                    assert got == pytest.approx(want, rel=1e-13), (w, q, kappa)


def test_weighted_lq_of_no_terms_is_zero():
    for q in (0.5, 1.0, math.inf):
        for kappa in (None, 2, 3):
            assert weighted_lq(np.zeros(0), SQRT, q, kappa) == 0.0


def test_dyadic_examples():
    assert abs(lorentz_norm_dyadic(indicator(range(1, 9)), LIN, 1, 2) - 15.0) < 1e-13
    assert lorentz_norm_dyadic(Sequence({1: 5.0}), Weight.power_log(0), math.inf) == 5.0
    s = Sequence({1: 3.0, 2: 2.0, 3: 1.0})
    assert lorentz_norm_dyadic(s, LIN, math.inf, 2) == 4.0


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.randoms())
@settings(max_examples=50, deadline=None)
def test_rearrangement_invariance(values, rnd):
    s = Sequence(dict(enumerate(values, start=1)))
    perm = list(range(1, len(values) + 1))
    rnd.shuffle(perm)
    t = Sequence(dict(zip(perm, values)))
    for q in (0.5, 1.0, 2.0, math.inf):
        a = lorentz_norm(s, SQRT, q)
        b = lorentz_norm(t, SQRT, q)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@given(
    st.lists(st.floats(-20, 20), min_size=1, max_size=12),
    st.floats(-4, 4).filter(lambda x: x != 0),
)
@settings(max_examples=50, deadline=None)
def test_scaling(values, lam):
    s = Sequence(dict(enumerate(values, start=1)))
    for q in (1.0, 2.0, math.inf):
        a = lorentz_norm(s.scale(lam), SQRT, q)
        b = abs(lam) * lorentz_norm(s, SQRT, q)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_pointwise_monotonicity(rng):
    for _ in range(50):
        n = int(rng.integers(1, 15))
        big = rng.uniform(0, 5, n)
        small = big * rng.uniform(0, 1, n)
        s = Sequence(dict(enumerate(small, start=1)))
        t = Sequence(dict(enumerate(big, start=1)))
        for q in (0.7, 1.0, 2.0, math.inf):
            assert lorentz_norm(s, SQRT, q) <= lorentz_norm(t, SQRT, q) + 1e-12


def test_dyadic_equivalence_band(rng):
    # ratio of dyadic to full form sits in a band depending only on the space
    ratios = []
    for size in (10, 100, 1000, 10000):
        vals = np.sort(rng.uniform(0, 1, size))[::-1] * np.arange(1, size + 1) ** -0.7
        s = Sequence(dict(enumerate(vals, start=1)))
        ratios.append(lorentz_norm_dyadic(s, SQRT, 2.0, 2) / lorentz_norm(s, SQRT, 2.0))
    assert max(ratios) / min(ratios) < 4.0
    assert all(0.2 < r < 5.0 for r in ratios)


def test_classical_lorentz_specialization(rng):
    # eta(k) = k^{1/tau} recovers the classical sequence-space quasi-norm
    tau, q = 1.0, 1.0
    vals = np.abs(rng.standard_normal(30))
    s = Sequence(dict(enumerate(vals, start=1)))
    w = Weight.power_log(1.0 / tau)
    classical = np.sort(vals)[::-1].sum()  # l^{1,1} = l^1
    assert math.isclose(lorentz_norm(s, w, q), classical, rel_tol=1e-12)


def test_fundamental_function_sup_exact():
    rows = fundamental_function_check(SQRT, math.inf, [1, 4, 9, 64])
    for row in rows:
        assert row["ratio"] == 1.0
        assert not row["weight_warning"]


def test_fundamental_function_finite_q_band():
    rows = fundamental_function_check(SQRT, 2.0, [2**j for j in range(1, 13)])
    ratios = [r["ratio"] for r in rows]
    assert all(1.0 - 1e-12 <= r <= 2.0 for r in ratios)
    rows = fundamental_function_check(LIN, 1.0, [4])
    assert abs(rows[0]["ratio"] - 1.0) < 1e-12


def test_fundamental_function_warns_without_certificate():
    rows = fundamental_function_check(Weight.power_log(0, 1), 2.0, [4, 16])
    assert all(r["weight_warning"] for r in rows)
