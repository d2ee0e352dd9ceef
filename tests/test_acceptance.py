"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its wall time (run pytest -s to see them inline).

Criterion 8 is asserted exactly as stated and is expected to fail: for that
space and schedule the two quasi-norms provably grow at the same rate, so the
ratio stays bounded (see the derivation in README.md, "Tests and acceptance
suite"). The test is marked strict xfail so the defect stays visible without
hiding a regression.
"""
import math
import time

import numpy as np
import pytest

from nterm.democracy import (
    default_universe,
    democracy_profile,
    h_exhaustive,
    h_structured,
    induced_h,
    property_h_check,
)
from nterm.experiments import (
    bernstein_verifier,
    canonical_indices,
    cor72_schedule,
    jackson_verifier,
    nonlinearity_demo,
    prop71_witness,
    rate_fit,
    standard_test_set,
    stechkin_check,
)
from nterm.greedy import gamma_profile, sigma_n_exact, sigma_profile, _Context
from nterm.sequences import Sequence
from nterm.spaces import parse_space
from nterm.weights import Weight, classify, geometric_sum_check

SEED = 20250809


class report:
    """Context manager printing one acceptance line with the wall time."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number:02d} {self.name}: {status} ({dt:.1f}s)")
        assert dt < self.budget, f"runtime {dt:.1f}s exceeds {self.budget}s budget"
        return False


def test_criterion_01_lp_democracy_exact(capsys):
    with report(1, "exact l^p democracy", 1.0):
        from nterm.cli import main

        for p in (1, 2, 3):
            assert main(["experiment", "democracy", "--space", f"lp:{p}",
                         "--set", "N=1..64", "--set", "strategy=structured"]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            rows = [line.split(",") for line in lines[1 : 65]]
            for row in rows:
                N = int(row[0])
                want = N ** (1.0 / p)
                assert abs(float(row[1]) - want) <= 1e-12 * want
                assert abs(float(row[2]) - want) <= 1e-12 * want


def test_criterion_02_greedy_optimality_oracle():
    with report(2, "greedy-optimality oracle", 60.0):
        rng = np.random.default_rng(SEED)
        vectors = []
        for _ in range(500):
            n = int(rng.integers(1, 15))
            vectors.append(np.abs(rng.standard_normal(n)) * np.exp(rng.uniform(-2, 2, n)) + 1e-9)
        # exact equality of the exhaustive optimum and the greedy bound in l^p
        for p in (1.0, 1.5, 2.0):
            spec = parse_space(f"lp:{p:g}")
            for vals in vectors:
                seq = Sequence(dict(zip(range(1, len(vals) + 1), vals)))
                ctx = _Context(seq, spec)
                bound = sigma_profile(seq, spec, method="greedy").values
                for N in range(len(vals) + 1):
                    a = sigma_n_exact(seq, N, spec, ctx=ctx)
                    b = bound[N]
                    assert a == b, (p, N, a, b)
        # sigma <= gamma for every space tag on the same vectors
        for label in ("lp:1.5", "lplq:2,1", "fpr:0,2,2,1", "lpq:2,4",
                      "orlicz:ulogu", "hyp:4,2", "bmo:2"):
            spec = parse_space(label)
            for vals in vectors:
                seq = Sequence(
                    dict(zip(canonical_indices(spec, len(vals)), vals)), spec.universe
                )
                sp = sigma_profile(seq, spec)
                gp = gamma_profile(seq, spec)
                assert np.all(sp.values <= gp.values * (1 + 1e-12) + 1e-15), label


def test_criterion_03_stechkin_band():
    with report(3, "orthonormal identity band", 120.0):
        r64 = stechkin_check(0.5, 1.0, trials=100, support_cap=64, seed=SEED)
        r128 = stechkin_check(0.5, 1.0, trials=100, support_cap=128, seed=SEED)
        assert r64["band"] <= 10.0, r64
        assert r128["band"] <= 10.0, r128


def test_criterion_04_lpq_democracy_exponents():
    with report(4, "cube-Lorentz democracy exponents", 120.0):
        Ns = [2**k for k in range(1, 11)]
        for label in ("lpq:2,4", "lpq:4,2"):
            spec = parse_space(label)
            prof = democracy_profile(spec, Ns, strategy="structured")
            f_ell = rate_fit([(r.N, r.h_ell) for r in prof.rows])
            f_r = rate_fit([(r.N, r.h_r) for r in prof.rows])
            assert abs(f_ell.slope - 0.25) <= 0.05, (label, f_ell)
            assert abs(f_r.slope - 0.5) <= 0.05, (label, f_r)


def test_criterion_05_bmo_democracy():
    with report(5, "mean-oscillation democracy", 30.0):
        bmo = parse_space("bmo:2")
        for k in range(1, 13):
            v = h_structured(bmo, 2**k, "same-size-disjoint")
            assert v <= 2.0, (k, v)
        for m in range(2, 12):
            N = 2 ** (m + 1) - 1  # complete tree, sizes spanning 2^3..2^12
            ratio = h_structured(bmo, N, "full-tree") ** 2 / math.log(N)
            assert 0.5 <= ratio <= 3.0, (N, ratio)


def test_criterion_06_hyperbolic_exponents():
    with report(6, "hyperbolic democracy exponents", 120.0):
        spec = parse_space("hyp:4,2")
        pts = []
        for n in range(3, 12):
            N = (n + 1) * 2**n
            v = h_structured(spec, N, "fixed-size-rects")
            pts.append((N, v / math.log(N) ** 0.25))
        fit = rate_fit(pts)
        assert abs(fit.slope - 0.25) <= 0.05, fit


def test_criterion_07_nonlinearity():
    with report(7, "greedy-class non-linearity", 300.0):
        res = nonlinearity_demo(2.0, 1.0, 1.0, 200_000)
        assert res["counts_match_inequality"]
        assert abs(res["fit_x"].slope - (-1.0)) <= 0.1, res["fit_x"]
        assert abs(res["fit_sum"].slope - (-0.75)) <= 0.1, res["fit_sum"]


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: for this space the democracy exponents give "
    "r*beta_1 - s*beta_0 = 1/2 - 2/4 = 0, so the growth hypothesis fails for "
    "every alpha > 0 and both quasi-norms scale identically; the ratio is "
    "provably bounded (derivation in README.md, 'Tests and acceptance suite'). "
    "The divergence is demonstrated at a feasible configuration in "
    "test_experiments.",
)
def test_criterion_08_prop71_divergence():
    with report(8, "democracy-gap divergence (as specified)", 300.0):
        spec = parse_space("lpq:2,4")
        alpha, s, r = 1.0, 2, 1
        rows = prop71_witness(spec, alpha, math.inf, cor72_schedule(s, r),
                              [2, 3, 4, 6, 8, 11, 16], support_cap=2000, seed=SEED)
        ratios = [row["ratio"] for row in rows]
        assert all(np.diff(ratios) > 0), ratios  # monotone increase
        Ns = np.array([row["N"] for row in rows], dtype=float)
        slope = np.polyfit(np.log(Ns), np.log(ratios), 1)[0]
        assert slope >= alpha * (s - r) / 2, (slope, ratios)


def test_criterion_09_jackson_bernstein_stability():
    with report(9, "Jackson/Bernstein constant stability", 120.0):
        spec = parse_space("lp:2")
        w = Weight.power_log(0.5)
        for alpha in (0.5, 1.0):
            cs = []
            for support in (64, 128):
                seqs = standard_test_set(spec, support, seed=SEED, critical=alpha + 0.5)
                cs.append(jackson_verifier(spec, w, alpha, math.inf, seqs)["constant"])
            assert abs(cs[1] - cs[0]) / cs[0] < 0.05, (alpha, cs)
            bs = []
            for n_max in (32, 64):
                res = bernstein_verifier(spec, w, alpha, 2.0,
                                         [1, 2, 4, 8, 16, n_max], seed=SEED)
                bs.append(res["constant"])
            assert abs(bs[1] - bs[0]) / bs[0] < 0.05, (alpha, bs)


def test_criterion_10_weight_classification():
    with report(10, "weight classification", 10.0):
        c = classify(Weight.power_log(0.5), 10**6)
        assert c.positive_dilation and c.kappa == 2
        best, _ = geometric_sum_check(Weight.power_log(0.5), 2, 25)
        assert best <= 1.0 / (1.0 - 2**-0.5) + 1e-6
        c = classify(Weight.power_log(0, 1), 10**6)
        assert not c.positive_dilation
        _, ratios = geometric_sum_check(Weight.power_log(0, 1), 2, 25)
        ns = np.arange(8, 26)
        slope = np.polyfit(ns, ratios[8:], 1)[0]
        assert 0.35 <= slope <= 0.65, slope  # linear divergence


def test_criterion_11_property_h():
    with report(11, "half-subset stability (three families)", 120.0):
        cases = ["orlicz:ulogu", "lpq:2,4", "lpq:4,2", "hyp:4,2"]
        for label in cases:
            res = property_h_check(parse_space(label), 10, samples=200,
                                   rng=np.random.default_rng(SEED))
            assert res["passed"] and res["spread"] <= 4.0, (label, res)


def test_criterion_12_induced_democracy():
    with report(12, "induced democracy functions", 120.0):
        spec = parse_space("lp:2")
        uni = default_universe(spec, 12)
        alpha = 1.0
        ratios = []
        for N in range(1, 7):
            amb_ell, amb_r, _, _ = h_exhaustive(spec, uni, N)
            for mode in ("aspace", "gclass"):
                he, hr = induced_h(spec, alpha, math.inf, mode, uni, N)
                ratios += [he / (N**alpha * amb_ell), hr / (N**alpha * amb_r)]
        assert max(ratios) / min(ratios) <= 4.0, ratios
