"""Finite-scale verification experiments: Jackson/Bernstein constants,
embedding constants, the orthonormal-case identity band, the democracy-gap
divergence witness, and the two-stream non-linearity construction."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .batch import batch_evaluator
# h_structured is not called here, but perfbench/tracer.py requires this binding
from .democracy import h_structured  # noqa: F401
from .democracy import default_universe, structured_family, structured_values
from .errors import FeasibilityError, NumericError, ParseError, finite
from .greedy import aspace_norm, gamma_profile, sigma_profile
from .indices import Cube, Pair, Rect, interval
from .lorentz import lorentz_norm, weighted_lq
from .sequences import Sequence
from .spaces import SpaceSpec, ambient_norm, element_norm, parse_space
from .weights import Weight, classify

TAIL_FACTORS = (0.6, 1.1, 2.1)  # power-tail decay relative to the critical exponent
TEST_SET_SIZE = 12  # sequences per standard test set
TWO_BLOCK_GRID = 48  # geometric grid of k in the two-block witness norms
TWO_BLOCK_SAMPLES = 4  # sampled tie choices per k in the two-block gamma
# columns of the two-block witness's batch evaluator; past it the rows take the
# scalar path. On 1,300 rows (about a witness's count) of 2,048 columns the batch
# path peaked at 110 MB (lpq:2,4), 100 MB (bmo:2) and 49 MB (fpr:0,2,2,1) under
# tracemalloc, and bmo:2 at 400 MB on 4,096 columns; the scalar path stayed under
# 1 MB but took 54 s on lpq:2,4 at 2,048 against 0.44 s (2-core Xeon)
WITNESS_BATCH_MAX = 1 << 11
RATE_GRID = 40  # geometric grid points of the non-linearity rate fits
EXACT_COUNT_BITS = 2**14  # size cap of the integers the exact block counts compare


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    fit_range: tuple
    n_points: int


def rate_fit(points, drop_first_decade=True):
    """Least-squares line on (log N, log value); the slope is the exponent.

    Nonpositive values are excluded (reported through n_points); by default
    the smallest decade of N is excluded as transient unless that starves the
    fit below 4 points.
    """
    pts = [(float(N), float(v)) for N, v in points if v > 0 and N > 0]
    if drop_first_decade and pts:
        lo = min(N for N, _ in pts) * 10.0
        trimmed = [t for t in pts if t[0] >= lo]
        if len(trimmed) >= 4:
            pts = trimmed
    if len(pts) < 4:
        raise FeasibilityError("rate fit needs at least 4 positive points")
    x = np.log([N for N, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(slope), float(intercept), r2, (float(x.min()), float(x.max())), len(pts))


# ---------------------------------------------------------------------------
# seeded test sets
# ---------------------------------------------------------------------------

def canonical_indices(spec: SpaceSpec, n):
    """First n indices of the space's default universe in canonical order."""
    if spec.universe == "integer":
        return list(range(1, n + 1))
    if spec.universe == "pair":
        return [Pair(k % 2, k // 2 + 1) for k in range(n)]
    uni = default_universe(spec)
    if n > len(uni):
        raise FeasibilityError(f"universe too small for support {n}")
    return uni.indices[:n]


def attach(spec, values):
    """Sequence with the given normalized-basis coefficients on the canonical
    index family of the space."""
    return Sequence(dict(zip(canonical_indices(spec, len(values)), values)), spec.universe)


def standard_test_set(spec, support, seed, critical=1.0):
    """Deterministic mix of power tails (decay relative to the critical
    exponent), structured indicators and random sparse vectors."""
    rng = np.random.default_rng(seed)
    out = []
    k = np.arange(1, support + 1, dtype=float)
    for c in TAIL_FACTORS:
        out.append(attach(spec, k ** (-c * critical)))
    for N in {1, max(2, support // 8), max(3, support // 2), support}:
        out.append(attach(spec, np.ones(N)))
    while len(out) < TEST_SET_SIZE:
        n = int(rng.integers(2, support + 1))
        vals = rng.standard_normal(n) * np.exp(rng.uniform(-2, 2, n))
        out.append(attach(spec, np.abs(vals) + 1e-12))
    return out


# ---------------------------------------------------------------------------
# Jackson / Bernstein / embedding constants
# ---------------------------------------------------------------------------

def jackson_verifier(spec, w: Weight, alpha, q, seqs, error_kind="gamma"):
    """Empirical constant sup over x, N of (N+1)^alpha e_N(x) / ||x||_{l^q_omega}
    with omega(k) = k^alpha eta(k); requires a positive-dilation certificate
    for omega."""
    if finite(alpha, "alpha") <= 0:
        raise ParseError("alpha must be positive")
    omega = w.scaled(alpha)
    K = 10**5
    cls = classify(omega, K=K)
    if not cls.positive_dilation:
        # a short table caps the range, and with it the ratios a certificate can use
        clamped = "" if cls.range_cap == K else (
            f"; classify's range 1..{K} was clamped to the table length {cls.range_cap}")
        raise FeasibilityError(
            f"weight {omega.label()} has no positive-dilation certificate "
            f"(ratio table {cls.ratio_table}){clamped}"
        )
    rows = []
    for x in seqs:
        denom = lorentz_norm(x, omega, q)
        if denom == 0:
            continue
        prof = gamma_profile(x, spec) if error_kind == "gamma" else sigma_profile(x, spec)
        top = weighted_lq(prof.values, Weight.power_log(alpha), math.inf)  # max (N+1)^a e_N
        rows.append({"support": len(prof.values) - 1, "constant": top / denom, "norm": denom})
    constant = max(r["constant"] for r in rows)
    return {"constant": constant, "rows": rows, "weight": omega.label(), "alpha": alpha, "q": q}


def bernstein_verifier(spec, w: Weight, alpha, q, N_list, seed=0, trials=20):
    """Empirical constant sup over x in Sigma_N of ||x||_{l^q_omega} /
    (N^alpha ||x||), plus the left-democracy surrogate min ||1_Gamma|| / eta(N)."""
    if finite(alpha, "alpha") <= 0:
        raise ParseError("alpha must be positive")
    rng = np.random.default_rng(seed)
    omega = w.scaled(alpha)
    rows = []
    surrogate = math.inf
    for N in N_list:
        best = 0.0
        for _ in range(trials):
            vals = np.abs(rng.standard_normal(N)) * np.exp(rng.uniform(-2, 2, N)) + 1e-12
            x = attach(spec, vals)
            num = lorentz_norm(x, omega, q)
            den = N**alpha * ambient_norm(spec, x)
            best = max(best, num / den)
        ind = attach(spec, np.ones(N))
        surrogate = min(surrogate, ambient_norm(spec, ind) / w(N))
        rows.append({"N": N, "constant": best})
    return {
        "constant": max(r["constant"] for r in rows),
        "rows": rows,
        "left_democracy_surrogate": surrogate,
        "weight": omega.label(),
    }


def embedding_verifier(direction, spec, w: Weight, alpha, q, seqs):
    """Max ratio of target-space norm to source-space norm over the test set.

    directions: lorentz-into-G, lorentz-into-A, A-into-lorentz.
    """
    if direction not in ("lorentz-into-G", "lorentz-into-A", "A-into-lorentz"):
        raise ParseError(f"unknown embedding direction {direction!r}")
    omega = w.scaled(alpha)
    kind = "gamma" if direction == "lorentz-into-G" else "sigma"
    rows = []
    for x in seqs:
        ln = lorentz_norm(x, omega, q)
        an = aspace_norm(x, alpha, q, spec, error_kind=kind)
        ratio = ln / an if direction == "A-into-lorentz" else an / ln
        rows.append({"support": len(x.support()), "ratio": ratio})
    return {
        "direction": direction,
        "constant": max(r["ratio"] for r in rows),
        "rows": rows,
        "weight": omega.label(),
    }


def stechkin_check(alpha, q, trials=100, support_cap=64, seed=0):
    """Ratio band of the approximation-space norm against the classical
    Lorentz norm with 1/tau = alpha + 1/2 on random vectors (orthonormal
    setting: l^2 with its canonical basis)."""
    if finite(alpha, "alpha") <= 0:
        raise ParseError("alpha must be positive")
    spec = parse_space("lp:2")
    tau = 1.0 / (alpha + 0.5)
    w = Weight.power_log(1.0 / tau)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(trials):
        n = int(rng.integers(2, support_cap + 1))
        vals = np.abs(rng.standard_normal(n)) * np.exp(rng.uniform(-3, 3, n)) + 1e-12
        x = attach(spec, vals)
        an = aspace_norm(x, alpha, q, spec, error_kind="sigma", method="greedy")
        ln = lorentz_norm(x, w, q)
        rows.append({"support": n, "ratio": an / ln})
    ratios = np.array([r["ratio"] for r in rows])
    return {
        "alpha": alpha,
        "q": q,
        "tau": tau,
        "trials": trials,
        "support_cap": support_cap,
        "min": float(ratios.min()),
        "max": float(ratios.max()),
        "band": float(ratios.max() / ratios.min()),
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# democracy-gap divergence witness (two-block indicator construction)
# ---------------------------------------------------------------------------

def _shifted_family(spec, N, family):
    """Structured family translated away from the origin region so that it is
    disjoint from families built in the default region."""
    base = structured_family(spec, N, family)
    if spec.universe in ("cube", "interval"):
        return [Cube(c.j, (c.k[0] + 2**c.j,) + c.k[1:]) for c in base]
    if spec.universe == "integer":
        return [k + 10**9 for k in base]
    if spec.universe == "pair":
        return [Pair(p.component, p.k + 10**9) for p in base]
    if spec.universe == "rect":
        return [
            Rect((interval(r.intervals[0].j, r.intervals[0].k[0] + 2 ** r.intervals[0].j),)
                 + r.intervals[1:])
            for r in base
        ]
    raise AssertionError(spec.universe)


def _extremal_families(spec, p_N, q_N):
    """(left family at p_N, right family at q_N) per the structured catalog."""
    lows = structured_values(spec, p_N)
    highs = structured_values(spec, q_N)
    return min(lows, key=lows.get), max(highs, key=highs.get)


def cor72_schedule(s, r):
    if not (0 < r < s):
        raise ParseError("cor72 schedule needs integers 0 < r < s")
    return lambda N: (N**s, N**r)


def cor73_schedule(a, b):
    if not (a >= 0 and b >= 0):
        raise ParseError("cor73 schedule needs integers a, b >= 0")
    return lambda N: (N**a * 2 ** (N**b), 2 ** (N**b))


def prop71_witness(spec, alpha, tau, schedule, N_list, support_cap=100_000, seed=0):
    """Ratio ||x_N||_G / ||x_N||_A for x_N built from a right-democracy
    extremizer of size q_N (coefficients 1) plus a disjoint left-democracy
    extremizer of size p_N (coefficients 2).

    With tau = inf both quasi-norms are computed as sups over a geometric step
    grid; the greedy errors are tie-family maxima over corner and sampled
    selections (a certified lower bound) and the optimal errors are minima
    over structured candidate kept-sets (an upper bound), so the reported
    ratio is a certified lower bound on the true one.
    """
    if finite(alpha, "alpha") <= 0:
        raise ParseError("alpha must be positive")
    if not math.isinf(tau):
        raise FeasibilityError("finite tau is not supported; use tau = inf")
    rng = np.random.default_rng(seed)
    rows = []
    for N in N_list:
        p_N, q_N = schedule(N)
        if p_N + q_N > support_cap:
            break
        fam_l, fam_r = _extremal_families(spec, p_N, q_N)
        left = _shifted_family(spec, p_N, fam_l)
        right = structured_family(spec, q_N, fam_r)
        gnorm, anorm = _two_block_norms(spec, left, right, alpha, rng)
        rows.append(
            {
                "N": N,
                "p_N": p_N,
                "q_N": q_N,
                "family_left": fam_l,
                "family_right": fam_r,
                "g_norm": gnorm,
                "a_norm": anorm,
                "ratio": gnorm / anorm,
            }
        )
    if not rows:
        raise FeasibilityError("schedule infeasible at every requested N")
    return rows


def _two_block_norms(spec, left, right, alpha, rng):
    """sup_k k^alpha gamma_k and sup_k k^alpha sigma_k (plus the base norm)
    for 2*1_left + 1_right, via corner/sampled tie choices for gamma and a
    split grid of structured kept-sets for sigma.

    Every candidate residual is a boolean row over left + right, and the rows
    go through one batch evaluator in one norms call (`_residual_norms`)."""
    pn, qn = len(left), len(right)
    n = pn + qn
    rows = []

    def res_row(keep_left, keep_right):
        """Row id of the residual: left[lo:hi] (or the left positions not in
        a set) with coefficient 2, and right[: qn - keep_right] with 1."""
        row = np.zeros(n, dtype=bool)
        if isinstance(keep_left, tuple):
            row[keep_left[0] : keep_left[1]] = True
        else:
            row[:pn] = True
            row[list(keep_left)] = False
        row[pn : n - keep_right] = True
        rows.append(row)
        return len(rows) - 1

    full = res_row((0, pn), 0)
    ks = sorted(set(np.unique(np.round(np.geomspace(1, n, TWO_BLOCK_GRID))).astype(int).tolist())
                | {pn, qn, n})
    steps = []  # (k, gamma candidate rows, sigma candidate rows)
    for k in ks:
        if k > n:
            continue
        if k <= pn:
            cands = [res_row((k, pn), 0), res_row((0, pn - k), 0)]
            for _ in range(TWO_BLOCK_SAMPLES):
                cands.append(res_row(rng.choice(pn, size=k, replace=False), 0))
        else:
            cands = [res_row((0, 0), k - pn)]
        split = []
        for j in np.unique(np.round(np.linspace(max(0, k - qn), min(k, pn), 10)).astype(int)):
            m = k - j
            split += [res_row((j, pn), m), res_row((0, pn - j), m)]
        steps.append((k, cands, cands + split))
    coef = [2.0] * pn + [1.0] * qn
    vals = _residual_norms(spec, left + right, coef, np.array(rows)).tolist()
    g_sup = a_sup = 0.0
    for k, cands, both in steps:
        g_sup = max(g_sup, k**alpha * max(vals[i] for i in cands))
        a_sup = max(a_sup, k**alpha * min(vals[i] for i in both))
    return vals[full] + g_sup, vals[full] + a_sup


def _residual_norms(spec, indices, coef, rows):
    """ambient_norm of each row's residual sum(coef[c] e_c / ||e_c||, c in
    row), 0.0 for an empty row.

    The rows go through one batch evaluator over the indices, in one norms
    call; the values agree with the scalar ambient_norm of each residual to
    rel 1e-12 (tests/test_experiments.py). A support past WITNESS_BATCH_MAX
    columns, or one whose batch evaluator raises NumericError (inner sums out
    of linear float range, as in a tower hundreds of levels deep) or
    FeasibilityError (an incidence past its cap), takes the scalar
    ambient_norm of each row instead, entries in column order."""
    out = np.zeros(len(rows))
    busy = rows.any(axis=1)
    if len(indices) <= WITNESS_BATCH_MAX:
        try:
            raw = [c / element_norm(spec, i) for i, c in zip(indices, coef)]
            out[busy] = batch_evaluator(spec, indices, raw).norms(rows[busy])
            return out
        except (NumericError, FeasibilityError):
            pass
    for r in np.flatnonzero(busy):
        entries = {indices[c]: coef[c] for c in np.flatnonzero(rows[r])}
        out[r] = ambient_norm(spec, Sequence(entries, spec.universe))
    return out


# ---------------------------------------------------------------------------
# two-stream non-linearity construction
# ---------------------------------------------------------------------------

@dataclass
class StreamTail:
    """Closed-form tail sums of k^(-e) truncated at K, with integral bounds."""

    e: float
    K: int

    def __post_init__(self):
        k = np.arange(1, self.K + 1, dtype=float)
        self.partial = np.concatenate(([0.0], np.cumsum(k**-self.e)))
        lo = (self.K + 1) ** (1 - self.e) / (self.e - 1)
        hi = self.K ** (1 - self.e) / (self.e - 1)
        self.tail_mid = 0.5 * (lo + hi)
        self.tail_halfwidth = 0.5 * (hi - lo)

    def tail_from(self, m):
        """sum_{k > m} k^(-e) with the analytic correction beyond K."""
        if m > self.K:
            raise FeasibilityError("truncation too small for requested tail")
        return float(self.partial[self.K] - self.partial[m] + self.tail_mid)


def nonlinearity_demo(p, q, alpha, K):
    """Greedy-error decay of the two power-tail streams and of their sum in
    the direct-sum space, with exact block counts and log-log rate fits.

    Needs 0 < q < p < inf. Coefficient streams: first component k^(-beta) with
    beta = alpha + 1/p, second component j^(-gamma) with gamma = alpha + 1/q,
    both read as the decimals alpha, p and q print as. The block counts compare
    k^bn with j^gn over a common denominator, so exponents with many decimal
    digits raise FeasibilityError once those integers pass EXACT_COUNT_BITS.

    ``insufficient_range`` is True when the fitted slopes cannot be trusted:
    the block grid has fewer than 8 points, a fit is missing (under 4 positive
    points), or a fit spans less than one decade of its abscissa. The last
    case arises because ``rate_fit`` keeps the transient first decade when
    dropping it would leave fewer than 4 points, so a small K yields fits over
    a short, pre-asymptotic range whose slopes are off the exact exponents.
    """
    if finite(alpha, "alpha") <= 0:
        raise ParseError("alpha must be positive")
    if not 0 < q < p < math.inf:
        raise ParseError("needs 0 < q < p < inf")
    # Fraction(0.1) would have denominator 2^55
    alpha_f, p_f, q_f = (Fraction(repr(float(x))) for x in (alpha, p, q))
    beta = alpha_f + 1 / p_f
    gamma = alpha_f + 1 / q_f
    bf, gf = float(beta), float(gamma)
    xs = StreamTail(bf * p, K)
    ys = StreamTail(gf * q, K)

    # counts A_j = #{k : (j-1)^gamma < k^beta <= j^gamma} via exact integers
    L = math.lcm(beta.denominator, gamma.denominator)
    bn = beta.numerator * (L // beta.denominator)
    gn = gamma.numerator * (L // gamma.denominator)
    if bn * K.bit_length() > EXACT_COUNT_BITS:
        raise FeasibilityError(
            f"exact block counts compare {bn * K.bit_length()}-bit integers (cap "
            f"{EXACT_COUNT_BITS}); give alpha, p and q with fewer decimal digits"
        )
    # cutoff j is the largest k <= K with k^bn <= j^gn: step from the float
    # estimate j^(gn/bn), clamped to K before exp so it cannot overflow, to the
    # exact integer, in either direction
    cutoffs = [0]
    j = 1
    while True:
        target = j**gn
        e = gn / bn * math.log(j)
        c = K if e >= math.log(K + 1) else min(K, int(math.exp(e)))
        while c > 0 and c**bn > target:
            c -= 1
        while c < K and (c + 1) ** bn <= target:
            c += 1
        if c >= K:
            break
        cutoffs.append(c)
        j += 1
    J_max = len(cutoffs) - 1
    counts = np.diff(cutoffs)
    if J_max < 2:
        raise FeasibilityError("truncation K too small to form the block grid")

    # independent count straight from the defining inequality
    direct = []
    for j in range(1, min(J_max, 400) + 1):
        lo_pow, hi_pow = (j - 1) ** gn, j**gn
        c = sum(1 for k in range(max(1, cutoffs[j - 1] - 2), cutoffs[j] + 3)
                if k <= K and lo_pow < k**bn <= hi_pow)
        direct.append(c)
    counts_ok = np.array_equal(np.array(direct), counts[: len(direct)])

    def fit_or_none(points, **kw):
        try:
            return rate_fit(points, **kw)
        except FeasibilityError:
            return None

    Ns = np.unique(np.round(np.geomspace(1, max(K // 10, 2), RATE_GRID)).astype(int))
    gx = np.array([xs.tail_from(int(N)) ** (1 / p) for N in Ns])
    gy = np.array([ys.tail_from(int(N)) ** (1 / q) for N in Ns])
    fit_x = fit_or_none(zip(Ns, gx))
    fit_y = fit_or_none(zip(Ns, gy))

    Js = np.unique(np.round(np.geomspace(2, J_max, RATE_GRID)).astype(int))
    NJ = np.array([cutoffs[j] + j for j in Js])
    gxy = np.array(
        [xs.tail_from(cutoffs[j]) ** (1 / p) + ys.tail_from(int(j)) ** (1 / q) for j in Js]
    )
    fit_xy = fit_or_none(zip(NJ, gxy))
    fit_NJ = fit_or_none(zip(Js, NJ), drop_first_decade=True)
    insufficient = len(Js) < 8 or any(
        f is None or f.fit_range[1] - f.fit_range[0] < math.log(10.0)
        for f in (fit_x, fit_y, fit_xy, fit_NJ))
    return {
        "p": p,
        "q": q,
        "alpha": alpha,
        "beta": bf,
        "gamma": gf,
        "K": K,
        "J_max": J_max,
        "counts_match_inequality": bool(counts_ok),
        "counts_checked": len(direct),
        "fit_x": fit_x,
        "fit_y": fit_y,
        "fit_sum": fit_xy,
        "fit_NJ_vs_J": fit_NJ,
        "expected_slope_x": -alpha,
        "expected_slope_sum": -alpha * bf / gf,
        "expected_NJ_exponent": gf / bf,
        "tail_bound_x": xs.tail_halfwidth,
        "tail_bound_y": ys.tail_halfwidth,
        "insufficient_range": insufficient,
        "points_x": list(zip(Ns.tolist(), gx.tolist())),
        "points_sum": list(zip(NJ.tolist(), gxy.tolist())),
    }
