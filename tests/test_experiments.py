import math

import numpy as np
import pytest

from nterm.errors import FeasibilityError, ParseError
from nterm.experiments import (
    attach,
    bernstein_verifier,
    canonical_indices,
    cor72_schedule,
    cor73_schedule,
    embedding_verifier,
    jackson_verifier,
    nonlinearity_demo,
    prop71_witness,
    rate_fit,
    standard_test_set,
    stechkin_check,
)
from nterm.indices import Pair
from nterm.sequences import Sequence
from nterm.spaces import parse_space
from nterm.weights import Weight

L2 = parse_space("lp:2")


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_rate_fit_exact_power():
    Ns = [2**k for k in range(1, 12)]
    fit = rate_fit([(N, N**-0.5) for N in Ns])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_rate_fit_noisy_power(rng):
    Ns = np.geomspace(4, 4096, 24)
    vals = 3.0 * Ns**0.25 * (1 + rng.uniform(-0.01, 0.01, len(Ns)))
    fit = rate_fit(zip(Ns, vals))
    assert fit.slope == pytest.approx(0.25, abs=0.01)


def test_rate_fit_constant():
    fit = rate_fit([(N, 2.0) for N in (1, 10, 100, 1000, 10000)],
                   drop_first_decade=False)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_needs_points():
    with pytest.raises(FeasibilityError):
        rate_fit([(1, 1.0), (2, 0.0), (3, -1.0)])


# ---------------------------------------------------------------------------
# verifier sanity
# ---------------------------------------------------------------------------

def test_jackson_bounded_and_stable():
    w = Weight.power_log(0.5)
    cs = []
    for support in (48, 96):
        seqs = standard_test_set(L2, support, seed=7, critical=1.0)
        cs.append(jackson_verifier(L2, w, 0.5, math.inf, seqs)["constant"])
    assert cs[1] < 5.0
    assert abs(cs[1] - cs[0]) / cs[0] < 0.05


def test_jackson_sigma_kind():
    w = Weight.power_log(0.5)
    seqs = standard_test_set(L2, 32, seed=7, critical=1.0)
    res = jackson_verifier(L2, w, 0.5, math.inf, seqs, error_kind="sigma")
    assert res["constant"] <= jackson_verifier(L2, w, 0.5, math.inf, seqs)["constant"] + 1e-12


def test_jackson_refuses_uncertified_weight():
    seqs = standard_test_set(L2, 16, seed=1, critical=1.0)
    with pytest.raises(FeasibilityError, match="certificate"):
        # a small alpha keeps the slowly varying weight uncertified
        jackson_verifier(L2, Weight.power_log(0, 1), 0.01, math.inf, seqs)


def test_jackson_names_the_length_of_a_short_table():
    # classify clamps its range to a table's length, and no 3-entry table can
    # pass its margin; the error says so rather than blaming the weight alone
    seqs = standard_test_set(L2, 8, seed=1, critical=1.0)
    with pytest.raises(FeasibilityError, match=r"clamped to the table length 3$"):
        jackson_verifier(L2, Weight.from_table([1.0, 1.5, 2.0]), 0.5, 2.0, seqs)
    with pytest.raises(FeasibilityError, match=r"\)$"):
        jackson_verifier(L2, Weight.power_log(0, 1), 0.01, math.inf, seqs)


def test_jackson_single_element():
    # x = e_1: the constant reduces to the N = 0 ratio
    w = Weight.power_log(0.5)
    res = jackson_verifier(L2, w, 0.5, math.inf, [attach(L2, [1.0])])
    assert res["constant"] == pytest.approx(1.0, rel=1e-12)


def test_bernstein_l2_constant_is_one():
    res = bernstein_verifier(L2, Weight.power_log(0.5), 0.5, 2.0, [1, 2, 4, 8], seed=0)
    assert res["constant"] == pytest.approx(1.0, rel=1e-9)
    assert res["left_democracy_surrogate"] == pytest.approx(1.0, rel=1e-9)


def test_bernstein_lpq_weight_for_h_ell():
    spec = parse_space("lpq:2,4")
    res = bernstein_verifier(spec, Weight.power_log(0.25), 0.5, 2.0, [1, 2, 4, 8, 16],
                             seed=0, trials=10)
    assert res["constant"] < 10.0


def test_embedding_directions():
    seqs = standard_test_set(L2, 32, seed=5, critical=1.0)
    w = Weight.power_log(0.5)
    for d in ("lorentz-into-G", "lorentz-into-A", "A-into-lorentz"):
        res = embedding_verifier(d, L2, w, 0.5, 2.0, seqs)
        assert 0 < res["constant"] < 10.0
    with pytest.raises(ParseError):
        embedding_verifier("sideways", L2, w, 0.5, 2.0, seqs)


def test_embedding_constants_reproduce_identity():
    # both directions bounded at once: the two-sided comparison of the
    # orthonormal-case identity
    seqs = standard_test_set(L2, 48, seed=5, critical=1.0)
    w = Weight.power_log(0.5)
    into = embedding_verifier("lorentz-into-A", L2, w, 0.5, 2.0, seqs)["constant"]
    outof = embedding_verifier("A-into-lorentz", L2, w, 0.5, 2.0, seqs)["constant"]
    assert into * outof < 25.0


def test_stechkin_band():
    res = stechkin_check(0.5, 1.0, trials=40, support_cap=48, seed=3)
    assert res["band"] <= 10.0
    assert res["tau"] == pytest.approx(1.0)


def test_verifier_constant_nondecreasing_in_test_set():
    # the measured constant is a max, so growing the test set never lowers it
    w = Weight.power_log(0.5)
    seqs = standard_test_set(L2, 32, seed=9, critical=1.0)
    small = jackson_verifier(L2, w, 0.5, math.inf, seqs[:5])["constant"]
    full = jackson_verifier(L2, w, 0.5, math.inf, seqs)["constant"]
    assert full >= small


# ---------------------------------------------------------------------------
# two-stream non-linearity
# ---------------------------------------------------------------------------

def test_nonlinearity_rejects_bad_exponents():
    with pytest.raises(ParseError):
        nonlinearity_demo(2.0, 2.0, 1.0, 1000)
    with pytest.raises(ParseError):
        nonlinearity_demo(1.0, 2.0, 1.0, 1000)


def test_nonlinearity_counts_and_slopes():
    res = nonlinearity_demo(2.0, 1.0, 1.0, 50_000)
    assert res["counts_match_inequality"]
    assert not res["insufficient_range"]
    assert res["fit_x"].slope == pytest.approx(-1.0, abs=0.1)
    assert res["fit_y"].slope == pytest.approx(-1.0, abs=0.1)
    assert res["fit_sum"].slope == pytest.approx(-0.75, abs=0.1)
    # N_J growth exponent within 5% of gamma/beta
    got = res["fit_NJ_vs_J"].slope
    assert abs(got - res["expected_NJ_exponent"]) / res["expected_NJ_exponent"] < 0.05


def test_nonlinearity_first_block_is_singleton():
    res = nonlinearity_demo(2.0, 1.0, 1.0, 2000)
    # A_1 = {1}
    assert res["counts_checked"] >= 1 and res["counts_match_inequality"]


def test_nonlinearity_tail_correction_stability():
    a = nonlinearity_demo(2.0, 1.0, 1.0, 30_000)
    b = nonlinearity_demo(2.0, 1.0, 1.0, 60_000)
    assert abs(a["fit_x"].slope - b["fit_x"].slope) < 0.02
    assert abs(a["fit_sum"].slope - b["fit_sum"].slope) < 0.05


def materialized_sum_sequence(p, q, alpha, K):
    """The truncated x+y as an explicit paired-stream sequence (for
    cross-checking the closed forms against the generic engine)."""
    beta = alpha + 1.0 / p
    gamma = alpha + 1.0 / q
    entries = {}
    for k in range(1, K + 1):
        entries[Pair(0, k)] = k**-beta
    for j in range(1, K + 1):
        entries[Pair(1, j)] = j**-gamma
    return Sequence(entries, "pair")


def test_nonlinearity_closed_form_matches_generic_engine():
    # small truncation: gamma_N from the generic engine equals the closed form
    from nterm.greedy import gamma_profile

    p, q, alpha, K = 2.0, 1.0, 1.0, 60
    spec = parse_space(f"lplq:{p:g},{q:g}")
    seq = materialized_sum_sequence(p, q, alpha, K)
    res = nonlinearity_demo(p, q, alpha, 10_000)
    beta, gamma = res["beta"], res["gamma"]
    gammas = gamma_profile(seq, spec).values
    for J in (2, 3, 4):
        cut = max(k for k in range(1, K) if k**beta <= J**gamma)
        NJ = cut + J
        got = gammas[NJ]
        want = (sum(k ** (-beta * p) for k in range(cut + 1, K + 1))) ** (1 / p) + (
            sum(j ** (-gamma * q) for j in range(J + 1, K + 1))
        ) ** (1 / q)
        assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# divergence witness
# ---------------------------------------------------------------------------

def test_prop71_feasible_configuration_grows():
    # democracy exponents 1/1.2 and 1/6: the (2,1) schedule satisfies the
    # growth hypothesis for alpha = 0.4 and the ratio must diverge
    spec = parse_space("lpq:1.2,6")
    rows = prop71_witness(spec, 0.4, math.inf, cor72_schedule(2, 1),
                          [2, 3, 4, 6, 8, 11, 16], support_cap=400)
    ratios = [r["ratio"] for r in rows]
    assert all(np.diff(ratios) > 0)
    Ns = np.array([r["N"] for r in rows], dtype=float)
    slope = np.polyfit(np.log(Ns[2:]), np.log(ratios[2:]), 1)[0]
    assert slope >= 0.4 * (2 - 1) / 2


def test_prop71_degenerate_schedule_bounded():
    # p_N = q_N: no democracy gap is exercised; the ratio stays bounded
    spec = parse_space("lpq:2,4")
    rows = prop71_witness(spec, 0.5, math.inf, lambda N: (N, N), [2, 4, 8, 16, 32])
    ratios = [r["ratio"] for r in rows]
    assert max(ratios) / min(ratios) < 3.0


def test_prop71_reports_feasible_prefix():
    spec = parse_space("lpq:1.2,6")
    rows = prop71_witness(spec, 0.4, math.inf, cor72_schedule(2, 1),
                          [2, 30, 1000], support_cap=1000)
    assert [r["N"] for r in rows] == [2, 30]
    with pytest.raises(FeasibilityError):
        prop71_witness(spec, 0.4, math.inf, cor72_schedule(2, 1), [1000],
                       support_cap=100)


def test_prop71_bmo_log_gap_schedule():
    # logarithmic democracy gap with the doubly exponential schedule
    rows = prop71_witness(parse_space("bmo:2"), 0.3, math.inf, cor73_schedule(1, 1),
                          [2, 3, 4, 5, 6], support_cap=800)
    ratios = [r["ratio"] for r in rows]
    assert ratios[-1] > ratios[0]


def test_canonical_indices_universe_error():
    with pytest.raises(FeasibilityError):
        canonical_indices(parse_space("bmo:2"), 10**6)


def test_jackson_bmo_tree_supported():
    # mean-oscillation space with the (log k)^{1/2}-type weight on
    # tree-supported inputs: the constant stays bounded
    from nterm.indices import interval
    from nterm.sequences import Sequence

    bmo = parse_space("bmo:2")
    w = Weight.power_log(0.0, 0.5)
    seqs = []
    for m in (2, 3, 4, 5):
        seqs.append(Sequence({interval(j, k): 1.0 for j in range(m + 1)
                              for k in range(2**j)}, "interval"))
    res = jackson_verifier(bmo, w, 0.5, math.inf, seqs)
    assert res["constant"] < 10.0


def test_embedding_lpq_right_democracy_rate():
    # cube-Lorentz space embedded from the Lorentz scale at the h_r rate
    spec = parse_space("lpq:2,4")
    w = Weight.power_log(1.0 / min(spec.p, spec.q))
    seqs = standard_test_set(spec, 24, seed=2, critical=1.0)
    res = embedding_verifier("lorentz-into-G", spec, w, 0.5, 2.0, seqs)
    assert res["constant"] < 20.0


def test_embedding_bmo_into_classical_lorentz():
    # flat left-democracy: the approximation space embeds into the classical
    # Lorentz scale (eta = 1)
    bmo = parse_space("bmo:2")
    w = Weight.power_log(0.0)
    seqs = standard_test_set(bmo, 24, seed=2, critical=1.0)
    res = embedding_verifier("A-into-lorentz", bmo, w, 0.5, 2.0, seqs)
    assert res["constant"] < 20.0


def test_nonlinearity_small_K_flags_insufficient():
    res = nonlinearity_demo(2.0, 1.0, 1.0, 60)
    assert res["insufficient_range"]
    with pytest.raises(FeasibilityError):
        nonlinearity_demo(2.0, 1.0, 1.0, 2)
