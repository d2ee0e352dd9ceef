"""Greedy and optimal N-term approximation errors and the derived quasi-norms.

All operations here treat sequences as coefficients on the NORMALIZED basis:
ordering compares plain magnitudes and norm evaluation divides by the norm of
each basis element. For l^p-type spaces the two coordinate systems coincide.

Greedy errors (gamma_N, and the greedy upper bound on sigma_N) range over the
tie family of step N: every kept set that is the first N entries of some
magnitude-nonincreasing ordering. With the magnitudes sorted, that is the
strict prefix [0, a) joined with each m-subset of the tie class a..b-1 that
holds the N-th largest magnitude, m = N - a. A family of at most
TIE_FAMILY_CAP sets is listed in combination order. A larger one is sampled
and flagged: the two corner picks plus up to TIE_FAMILY_CAP distinct sorted
picks of Generator.choice(t, m, replace=False), t = b - a, from the context's
default_rng(0), with sampled steps drawn in increasing N. The draws are not
made one call at a time. Each batch of up to _PICK_ROWS calls is one draw of
the bounded integers the calls consume (Floyd's j = t-m..t-1, then the shuffle's
i = m-1..1), followed by Floyd's insertion over a (rows x t) membership
matrix; the shuffle draws only keep the stream aligned, since the set does not
depend on their order. For t <= 10,000, where numpy's choice takes Floyd's
branch, the picks, their set iteration order and the rng state after each
step equal those of the per-call loop, so a sequence always gets the same
picks.

A profile stacks every step's residual masks in step order and evaluates them
through BatchNorm.norms in blocks of at most MASK_CHUNK rows, never splitting
a family, then reduces each step by max (gamma) or min (the sigma bound).
Stacking changes the matmul shapes of the square-function and bmo evaluators,
so their values agree with a per-step evaluation of the same family to rel
1e-15. The additive l^p and l^p(+)l^q rows do not depend on the batch shape
and agree bitwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from . import _kernels
from .batch import MASK_CHUNK, batch_evaluator
from .errors import FeasibilityError, ParseError, finite
from .lorentz import weighted_lq
from .sequences import Sequence, rearrange
from .spaces import SpaceSpec, ambient_norm, element_norm
from .weights import Weight

TIE_FAMILY_CAP = 10_000
SUBSET_CAP = 2_000_000
METHODS = ("auto", "exact", "greedy")
# sampled picks drawn, and converted to Python tuples, this many at a time
_PICK_ROWS = 1 << 10


class _Context:
    """Per-(sequence, space) evaluation state shared by the subset engines.
    Position c in the nonincreasing rearrangement is the evaluator's column c."""

    def __init__(self, seq: Sequence, spec: SpaceSpec):
        self.spec = spec
        r = rearrange(seq)
        self.indices = r.order
        self.mags = r.values
        self.n = len(r)
        # tie class a..b-1 of each position in the nonincreasing magnitudes
        neg = -self.mags
        self._tie_lo = np.searchsorted(neg, neg, "left")
        self._tie_hi = np.searchsorted(neg, neg, "right")
        self.rng = np.random.default_rng(0)
        self._eval = None

    @property
    def evaluator(self):
        if self._eval is None and self.n:
            raw = [
                self.mags[i] / element_norm(self.spec, idx)
                for i, idx in enumerate(self.indices)
            ]
            self._eval = batch_evaluator(self.spec, self.indices, raw)
        return self._eval

    def _tie_class(self, N):
        """(a, b): positions a..b-1 hold the N-th largest magnitude, 0 < N < n."""
        return int(self._tie_lo[N - 1]), int(self._tie_hi[N - 1])

    def greedy_representatives(self, N):
        """Tie family reduced by norm-equivalence where the space is invariant
        under index permutations: any tie choice for l^p, per-component-count
        representatives for the direct sum. Falls back to the full family."""
        if N <= 0 or N >= self.n:
            return self.greedy_kept(N)
        if self.spec.tag == "lp":
            return np.arange(N)[None, :], True
        if self.spec.tag == "lplq":
            a, b = self._tie_class(N)
            comp = np.array([self.indices[i].component for i in range(a, b)])
            ties_a = a + np.flatnonzero(comp == 0)
            ties_b = a + np.flatnonzero(comp == 1)
            m = N - a
            fam = [
                np.concatenate((np.arange(a), ties_a[:j], ties_b[: m - j]))
                for j in range(max(0, m - len(ties_b)), min(m, len(ties_a)) + 1)
            ]
            return np.array(fam), True
        return self.greedy_kept(N)

    def greedy_kept(self, N):
        """Admissible kept position-sets of size N (first N of some
        magnitude-nonincreasing ordering) as the rows of an int array, plus an
        exactness flag; a family past TIE_FAMILY_CAP is sampled (module
        docstring)."""
        if N <= 0:
            return np.empty((1, 0), dtype=np.intp), True
        if N >= self.n:
            return np.arange(self.n)[None, :], True
        a, b = self._tie_class(N)
        t, m = b - a, N - a
        count = math.comb(t, m)
        if count <= TIE_FAMILY_CAP:
            combos = chain.from_iterable(combinations(range(a, b), m))
            ties = np.fromiter(combos, np.intp, count * m).reshape(count, m)
        else:
            ties = self._sampled_ties(a, b, m)
        kept = np.empty((len(ties), N), dtype=np.intp)
        kept[:, :a] = np.arange(a)
        kept[:, a:] = ties
        return kept, count <= TIE_FAMILY_CAP

    def _sampled_ties(self, a, b, m):
        """The sampled m-subsets of the tie class a..b-1 (module docstring) as
        int32 rows in the iteration order of their dedupe set. Floyd rows are
        drawn in batches and added to the corner-seeded set in draw order until
        it holds TIE_FAMILY_CAP picks or TIE_FAMILY_CAP rows are drawn. A batch
        never has more rows than the set can still take, so it can fill the set
        only on its last row and the rng ends where the per-call loop leaves
        it. The set goes on return, before the caller builds the kept rows."""
        t = b - a
        seen = {tuple(range(a, a + m)), tuple(range(b - m, b))}
        drawn = 0
        while drawn < TIE_FAMILY_CAP and len(seen) < TIE_FAMILY_CAP:
            rows = min(_PICK_ROWS, TIE_FAMILY_CAP - drawn, TIE_FAMILY_CAP - len(seen))
            seen.update(zip(*(_floyd_picks(self.rng, t, m, rows) + a).T.tolist()))
            drawn += rows
        return np.fromiter(chain.from_iterable(seen), np.int32, len(seen) * m).reshape(-1, m)


def _floyd_picks(rng, t, m, rows):
    """The sorted picks of `rows` calls of rng.choice(t, m, replace=False) as
    an int array, one call per row, from one draw of the same stream.

    Floyd's algorithm inserts, at step j, the draw v in 0..j, or j itself when
    v is already in the set. That is the branch numpy takes for t <= 10,000
    (and beyond it for m <= t // 50), so for those the picks and the rng state
    after the call equal the calls'. The shuffle only orders the set; its draws
    are consumed to keep the stream aligned."""
    bounds = np.concatenate((np.arange(t - m, t), np.arange(m - 1, 0, -1)))
    draws = rng.integers(0, bounds.astype(np.int32), size=(rows, 2 * m - 1),
                         endpoint=True, dtype=np.int32)
    member = np.zeros((rows, t), dtype=bool)
    flat, row = member.reshape(-1), np.arange(0, rows * t, t)
    for k, j in enumerate(range(t - m, t)):
        v = row + draws[:, k]
        flat[np.where(flat[v], row + j, v)] = True
    return np.nonzero(member)[1].reshape(rows, m)


def _greedy_extrema(ctx, Ns):
    """Max and min residual norm over the greedy family of each step in Ns
    (greedy_representatives), with the families' exactness flags.

    Each step gives one run of residual-mask rows. Runs are stacked in step
    order into blocks of at most MASK_CHUNK rows, never splitting a run, and
    each block is evaluated by one BatchNorm.norms call."""
    hi, lo = np.zeros(len(Ns)), np.zeros(len(Ns))
    exact = np.ones(len(Ns), dtype=bool)
    if ctx.n == 0:
        return hi, lo, exact
    ev, runs, first = ctx.evaluator, [], 0
    for i, N in enumerate(Ns):
        kept, exact[i] = ctx.greedy_representatives(N)
        masks = ev.subset_masks(kept, complement=True)
        if runs and sum(map(len, runs)) + len(masks) > MASK_CHUNK:
            _reduce_runs(ev, runs, hi[first:i], lo[first:i])
            runs, first = [], i
        runs.append(masks)
    _reduce_runs(ev, runs, hi[first:], lo[first:])
    return hi, lo, exact


def _reduce_runs(ev, runs, hi, lo):
    """Evaluate the stacked runs in one norms call and write each run's max
    and min into hi and lo."""
    vals = ev.norms(np.concatenate(runs))
    starts = np.cumsum([0] + [len(run) for run in runs[:-1]])
    np.maximum.reduceat(vals, starts, out=hi)
    np.minimum.reduceat(vals, starts, out=lo)


def sigma_n_exact(seq, N, spec, ctx=None):
    """Optimal N-term error by exhaustive search over all kept sets of size N."""
    ctx = ctx or _Context(seq, spec)
    if N >= ctx.n:
        return 0.0
    count = math.comb(ctx.n, N)
    if count > SUBSET_CAP:
        raise FeasibilityError(
            f"C({ctx.n},{N}) = {count} kept sets exceeds the exhaustive cap; "
            'use sigma_profile(method="greedy")'
        )
    return ctx.evaluator.subset_extrema(N, complement=True)[0]


@dataclass
class Profile:
    """Error-vs-N table for one sequence in one space."""

    kind: str  # sigma | gamma
    space: str
    values: np.ndarray  # index N = 0 .. n
    flags: list = field(default_factory=list)  # per-N: exact | greedy | sampled

    def rows(self):
        return [(N, self.values[N], self.flags[N]) for N in range(len(self.values))]


def _sigma_all(ctx):
    """sigma_0 .. sigma_n: the norm of every residual mask, least per popcount.

    l^p reads the residuals' p-th power sums off the subset-sum table. Other
    spaces evaluate one popcount class at a time in blocks of MASK_CHUNK; with
    position c at bit n-1-c, ascending residual masks follow the kept sets in
    combination order, so each block is a block of sigma_n_exact's scan and the
    norms agree bitwise (a block that mixes popcounts moves rows, which can move
    a matmul result by an ulp)."""
    n = ctx.n
    if ctx.spec.tag == "lp":
        resid = _kernels.subset_sums(ctx.mags**ctx.spec.p)
    else:
        ev = ctx.evaluator
        resid = np.zeros(1 << n)
        masks = np.arange(1 << n, dtype=np.uint32)
        popcount = np.bitwise_count(masks)
        bits = (1 << np.arange(n - 1, -1, -1)).astype(np.uint32)
        for k in range(1, n + 1):
            cls = masks[popcount == k]
            for start in range(0, len(cls), MASK_CHUNK):
                block = cls[start : start + MASK_CHUNK]
                resid[block] = ev.norms((block[:, None] & bits) != 0)
    mins = _kernels.extrema_by_popcount(resid, n)[0][::-1]
    # the root is taken on the reversed view: numpy's contiguous power loop can
    # round differently from its strided one, and these floats are the reference
    return mins ** (1.0 / ctx.spec.p) if ctx.spec.tag == "lp" else mins


def _check_method(method):
    if method not in METHODS:
        raise ParseError(f"method must be one of {', '.join(METHODS)}")


def sigma_profile(seq, spec, method="auto"):
    """Profile of optimal errors sigma_N, N = 0..|supp|.

    method: "exact" sweeps every residual mask (FeasibilityError when some
    C(n, N) exceeds SUBSET_CAP), "greedy" takes the greedy upper bound at each
    N, and "auto" sweeps when 2^n <= 2 * SUBSET_CAP and takes the greedy bound
    otherwise.
    """
    _check_method(method)
    ctx = _Context(seq, spec)
    n = ctx.n
    vals = np.zeros(n + 1)
    flags = ["exact"] * (n + 1)
    if method == "exact" and (count := math.comb(n, n // 2)) > SUBSET_CAP:
        raise FeasibilityError(
            f"C({n},{n // 2}) = {count} kept sets exceeds the exhaustive cap; "
            "use method='greedy'"
        )
    if n and (method == "exact" or (method == "auto" and 2**n <= 2 * SUBSET_CAP)):
        vals[:n] = _sigma_all(ctx)[:n]
    else:
        _, vals[:n], exact = _greedy_extrema(ctx, range(n))
        flags[:n] = ["greedy" if e else "sampled" for e in exact]
    return Profile("sigma", spec.label(), vals, flags)


def gamma_profile(seq, spec):
    """Profile of greedy errors gamma_N, N = 0..|supp|."""
    ctx = _Context(seq, spec)
    n = ctx.n
    vals = np.zeros(n + 1)
    vals[:n], _, exact = _greedy_extrema(ctx, range(n))
    flags = ["exact" if e else "sampled" for e in exact] + ["exact"]
    return Profile("gamma", spec.label(), vals, flags)


def aspace_norm(
    seq,
    alpha,
    q,
    spec,
    error_kind="sigma",
    form="full",
    method="auto",
):
    """Approximation-space quasi-norm built from the sigma or gamma profile.

    full form:   ||x|| + [sum_{N>=1} (N^alpha e_N)^q / N]^(1/q)
    dyadic form: ||x|| + [sum_{k>=0} (2^{k alpha} e_{2^k})^q]^(1/q)
    with sup in place of the sum when q = inf (lorentz.weighted_lq over e_1..e_n).
    Terms with N beyond the support vanish since e_N = 0 there.
    """
    if finite(alpha, "alpha") <= 0:
        raise ParseError("alpha must be positive")
    if not q > 0:
        raise ParseError("q must be positive")
    if error_kind not in ("sigma", "gamma"):
        raise ParseError("error_kind must be sigma or gamma")
    if form not in ("full", "dyadic"):
        raise ParseError("form must be full or dyadic")
    if error_kind == "gamma":
        _check_method(method)  # sigma_profile checks it on the sigma path
    base = ambient_norm(spec, seq)
    profile = (
        sigma_profile(seq, spec, method=method)
        if error_kind == "sigma"
        else gamma_profile(seq, spec)
    )
    return base + weighted_lq(profile.values[1:], Weight.power_log(alpha), q,
                              None if form == "full" else 2)
