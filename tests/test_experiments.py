import math

import numpy as np
import pytest

from nterm import batch, experiments
from nterm.batch import batch_evaluator
from nterm.democracy import structured_family
from nterm.errors import FeasibilityError, NumericError, ParseError
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
from nterm.spaces import ambient_norm, parse_space
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


def _witness_blocks(spec, schedule, N):
    """The (left, right) blocks prop71_witness builds at N."""
    p_N, q_N = schedule(N)
    fam_l, fam_r = experiments._extremal_families(spec, p_N, q_N)
    return experiments._shifted_family(spec, p_N, fam_l), structured_family(spec, q_N, fam_r)


def _scalar_residual(spec, left, right, keep_left, keep_right):
    """One candidate's scalar norm as the witness took it before it batched
    its rows: left[lo:hi] (or the listed left indices) with coefficient 2,
    then right[: len(right) - keep_right] with 1."""
    idx = left[keep_left[0] : keep_left[1]] if isinstance(keep_left, tuple) else keep_left
    entries = {i: 2.0 for i in idx}
    entries.update({i: 1.0 for i in right[: len(right) - keep_right]})
    return ambient_norm(spec, Sequence(entries, spec.universe)) if entries else 0.0


def _scalar_two_block_norms(spec, left, right, alpha, rng):
    """The two-block witness norms, one scalar ambient_norm per candidate,
    with the same rng.choice calls in the same order."""
    pn, qn = len(left), len(right)
    n = pn + qn

    def res_norm(keep_left, keep_right):
        return _scalar_residual(spec, left, right, keep_left, keep_right)

    full = res_norm((0, pn), 0)
    ks = sorted(set(np.unique(np.round(np.geomspace(1, n, experiments.TWO_BLOCK_GRID)))
                    .astype(int).tolist()) | {pn, qn, n})
    g_sup = a_sup = 0.0
    for k in ks:
        if k <= pn:
            cands = [(k, pn), (0, pn - k)]
            for _ in range(experiments.TWO_BLOCK_SAMPLES):
                kept = set(rng.choice(pn, size=k, replace=False).tolist())
                cands.append([left[i] for i in range(pn) if i not in kept])
            vals = [res_norm(c, 0) for c in cands]
            g_k, s_k = max(vals), min(vals)
        else:
            g_k = s_k = res_norm((0, 0), k - pn)
        for j in np.unique(np.round(np.linspace(max(0, k - qn), min(k, pn), 10)).astype(int)):
            s_k = min(s_k, res_norm((j, pn), k - j), res_norm((0, pn - j), k - j))
        g_sup = max(g_sup, k**alpha * g_k)
        a_sup = max(a_sup, k**alpha * s_k)
    return full + g_sup, full + a_sup


@pytest.mark.parametrize("label,alpha,schedule,Ns", [
    ("lpq:1.2,6", 0.4, cor72_schedule(2, 1), (2, 3, 4, 5, 6)),  # the README's cor72 run
    ("bmo:2", 0.3, cor73_schedule(1, 1), (2, 3, 4)),
])
def test_batched_two_block_norms_match_the_scalar_path(label, alpha, schedule, Ns):
    # one batch evaluator per N against one scalar ambient_norm per candidate:
    # within rel 1e-12, the batch-vs-scalar tolerance (at most 5e-16 was seen),
    # from the same rng draws
    spec = parse_space(label)
    for N in Ns:
        left, right = _witness_blocks(spec, schedule, N)
        rng, ref = np.random.default_rng(N), np.random.default_rng(N)
        got = experiments._two_block_norms(spec, left, right, alpha, rng)
        want = _scalar_two_block_norms(spec, left, right, alpha, ref)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), N
        assert rng.bit_generator.state == ref.bit_generator.state


# at lpq:1.2,6, N = 5 the batch evaluator's witness norms differ from the
# scalar ones in the last bits, so the bitwise checks below see the path taken
@pytest.mark.parametrize("label,schedule,N", [("lpq:1.2,6", cor72_schedule(2, 1), 5),
                                              ("bmo:2", cor73_schedule(1, 1), 3)])
def test_two_block_norms_past_the_batch_support_take_the_scalar_path(monkeypatch, label,
                                                                     schedule, N):
    # a support past WITNESS_BATCH_MAX builds no batch evaluator: every row
    # takes the scalar ambient_norm, so the witness norms are the
    # per-candidate ones bitwise
    spec = parse_space(label)
    left, right = _witness_blocks(spec, schedule, N)

    def refuse(*args):
        raise AssertionError("batch evaluator built past WITNESS_BATCH_MAX")

    monkeypatch.setattr(experiments, "WITNESS_BATCH_MAX", len(left) + len(right) - 1)
    monkeypatch.setattr(experiments, "batch_evaluator", refuse)
    rng, ref = np.random.default_rng(N), np.random.default_rng(N)
    got = experiments._two_block_norms(spec, left, right, 0.4, rng)
    assert got == _scalar_two_block_norms(spec, left, right, 0.4, ref)


def test_two_block_norms_take_the_scalar_path_where_the_incidence_is_refused(monkeypatch):
    # with the incidence cap below this support's, batch_evaluator raises
    # FeasibilityError before it builds anything, and the rows take the scalar
    # ambient_norm: the per-candidate witness norms bitwise
    spec = parse_space("lpq:1.2,6")
    left, right = _witness_blocks(spec, cor72_schedule(2, 1), 5)
    raised = []

    def spy(*args):
        try:
            return batch_evaluator(*args)
        except FeasibilityError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(batch, "INCIDENCE_CAP", 10)
    monkeypatch.setattr(experiments, "batch_evaluator", spy)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = experiments._two_block_norms(spec, left, right, 0.4, rng)
    assert len(raised) == 1
    assert got == _scalar_two_block_norms(spec, left, right, 0.4, ref)


def test_two_block_rows_of_a_deep_tower_take_the_scalar_path(monkeypatch):
    # at N = 30 the cor72 left block is a tower of 900 levels: its batch inner
    # sums overflow, batch_evaluator raises NumericError, and the rows go
    # through the scalar ambient_norm, reproducing the per-candidate values
    spec = parse_space("lpq:1.2,6")
    left, right = _witness_blocks(spec, cor72_schedule(2, 1), 30)
    pn, qn = len(left), len(right)
    raised = []

    def spy(*args):
        try:
            return batch_evaluator(*args)
        except NumericError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(experiments, "batch_evaluator", spy)
    picks = np.random.default_rng(0).choice(pn, size=400, replace=False)
    cands = [((0, pn), 0), ((450, pn), 7), ((0, pn - 120), 29), ((0, 0), 12), ((pn, pn), qn),
             ([left[i] for i in range(pn) if i not in set(picks.tolist())], 3)]
    rows = np.zeros((len(cands), pn + qn), dtype=bool)
    for row, (keep_left, keep_right) in zip(rows, cands):
        if isinstance(keep_left, tuple):
            row[keep_left[0] : keep_left[1]] = True
        else:
            row[:pn] = True
            row[picks] = False
        row[pn : pn + qn - keep_right] = True
    got = experiments._residual_norms(spec, left + right, [2.0] * pn + [1.0] * qn, rows)
    assert len(raised) == 1
    assert got.tolist() == [_scalar_residual(spec, left, right, *c) for c in cands]


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


def _cutoffs_by_bisection(p, q, alpha, K):
    """Block cutoffs c_j = max{k <= K : k^beta <= j^gamma}, j = 1.. while
    c_j < K, each by its own binary search over exact integers."""
    from fractions import Fraction

    alpha_f, p_f, q_f = (Fraction(repr(float(x))) for x in (alpha, p, q))
    beta, gamma = alpha_f + 1 / p_f, alpha_f + 1 / q_f
    L = math.lcm(beta.denominator, gamma.denominator)
    bn, gn = beta.numerator * (L // beta.denominator), gamma.numerator * (L // gamma.denominator)
    cutoffs = [0]
    while True:
        target, lo, hi = len(cutoffs) ** gn, 0, K
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid**bn <= target else (lo, mid - 1)
        if lo >= K:
            return cutoffs
        cutoffs.append(lo)


@pytest.mark.parametrize("p,q,alpha,K", [(2.0, 1.0, 1.0, 50_000), (3.0, 1.5, 0.3, 20_000),
                                         (2.5, 1.25, 0.35, 30_000), (10.0, 1.0, 0.1, 20_000)])
def test_nonlinearity_cutoffs_match_bisection(p, q, alpha, K):
    # the block grid's abscissae N_J = c_J + J and J_max against the cutoffs
    # found one binary search per block
    res = nonlinearity_demo(p, q, alpha, K)
    cutoffs = _cutoffs_by_bisection(p, q, alpha, K)
    assert res["J_max"] == len(cutoffs) - 1
    Js = np.unique(np.round(np.geomspace(2, res["J_max"], experiments.RATE_GRID)).astype(int))
    assert [N for N, _ in res["points_sum"]] == [cutoffs[J] + J for J in Js.tolist()]


@pytest.mark.parametrize("K", [1_000, 10**6])
def test_nonlinearity_cutoffs_with_a_large_exponent_ratio(K):
    # gamma / beta = 2501 / 2: the float estimate 2^(2501/2) of the second
    # cutoff is past the float range, so it must clamp to K; the grid then
    # has one block, as the binary search finds, and the demo refuses it
    assert len(_cutoffs_by_bisection(1000.0, 0.4, 0.001, K)) - 1 < 2
    with pytest.raises(FeasibilityError, match="truncation K too small"):
        nonlinearity_demo(1000.0, 0.4, 0.001, K)


def test_nonlinearity_small_K_flags_insufficient():
    res = nonlinearity_demo(2.0, 1.0, 1.0, 60)
    assert res["insufficient_range"]
    with pytest.raises(FeasibilityError):
        nonlinearity_demo(2.0, 1.0, 1.0, 2)
