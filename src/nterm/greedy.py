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
default_rng(0), with sampled steps drawn in increasing N, in first-draw order.
The draws are not made one call at a time. Each batch of PICK_FLOATS // t
calls is one draw of the bounded integers the calls consume (Floyd's
j = t-m..t-1, then the shuffle's i = m-1..1), followed by Floyd's insertion
over a (rows x t) boolean membership matrix; the shuffle draws only keep the
stream aligned, since the set does not depend on their order. The rows are
deduplicated on their packed bits by np.unique, first occurrences kept. For
t <= 10,000, where numpy's choice takes Floyd's branch, the picks and the rng
state after each step equal those of the per-call loop, whatever the batch
size, so a sequence always gets the same picks.

A profile builds each step's residual masks (column c true where position c
is left out) as one boolean array, `_step_masks`. A step whose family is the
one set [0, N) (N = 0, a singleton class, the last step of a class, every l^p
step) is the row cols >= N. A class of t <= CODE_BITS positions takes the rows
of its listed steps from the t-bit residual codes in ascending order, grouped
by popcount (`_residual_groups`), which is the combination order of the kept
sets; every step of a class of at most 15 is listed. Larger classes list their
listed steps by itertools.combinations. Steps past TIE_FAMILY_CAP take their
masks straight from the sampler's membership rows (`sampled_masks`), and
l^p(+)l^q steps take the per-component-count representatives. The steps'
arrays are stacked in step order into blocks of at most MASK_CHUNK rows,
never splitting a step; each block is one BatchNorm.norms call, reduced per
step by max (gamma) or min (the sigma bound) with reduceat. Stacking changes
the matmul shapes of the square-function and bmo evaluators, so their values
agree with a per-step evaluation of the same family to rel 1e-15. The
additive l^p and l^p(+)l^q rows do not depend on the batch shape and agree
bitwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from . import _kernels
from .batch import KERNEL_ROWS, MASK_CHUNK, batch_evaluator
from .errors import FeasibilityError, ParseError, finite
from .lorentz import weighted_lq
from .sequences import Sequence, rearrange
from .spaces import SpaceSpec, ambient_norm, element_norm
from .weights import Weight

TIE_FAMILY_CAP = 10_000
SUBSET_CAP = 2_000_000
METHODS = ("auto", "exact", "greedy")
# entries of a sampler batch's (rows x t) membership matrix
PICK_FLOATS = 1 << 16
# tie classes of at most this many positions take their listed steps' rows
# from the 2^t residual codes
CODE_BITS = 16
# relative margin of the exact sweep's lattice pruning (_sigma_all): a row is
# skipped only when its lower bound exceeds the greedy residual's norm by more
PRUNE_MARGIN = 1e-6
# the sweep prunes popcount groups of more rows than this when the outer
# transform is a log-scale kernel (KERNEL_ROWS otherwise): the bound bookkeeping
# and the one norms call on the greedy residuals cost about as much as the
# L^{p,q} kernel on a hundred rows
PRUNE_LOG_ROWS = 100


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

    def _direct_sum_kept(self, N):
        """Step N's tie family reduced by norm-equivalence in l^p(+)l^q: one
        kept set per count of first-component ties, 0 < N < n."""
        a, b = self._tie_class(N)
        comp = np.array([self.indices[i].component for i in range(a, b)])
        ties_a = a + np.flatnonzero(comp == 0)
        ties_b = a + np.flatnonzero(comp == 1)
        m = N - a
        return np.array([
            np.concatenate((np.arange(a), ties_a[:j], ties_b[: m - j]))
            for j in range(max(0, m - len(ties_b)), min(m, len(ties_a)) + 1)
        ])

    def greedy_kept(self, N):
        """Admissible kept position-sets of size N (first N of some
        magnitude-nonincreasing ordering) as the rows of an int array, in
        combination order. Only for a listed family, of at most
        TIE_FAMILY_CAP sets; larger ones are sampled by sampled_masks."""
        if N <= 0:
            return np.empty((1, 0), dtype=np.intp)
        if N >= self.n:
            return np.arange(self.n)[None, :]
        a, b = self._tie_class(N)
        m = N - a
        count = math.comb(b - a, m)
        combos = chain.from_iterable(combinations(range(a, b), m))
        kept = np.empty((count, N), dtype=np.intp)
        kept[:, a:] = np.fromiter(combos, np.intp, count * m).reshape(count, m)
        kept[:, :a] = np.arange(a)
        return kept

    def sampled_masks(self, N):
        """Residual masks (column c true where position c is left out) of the
        sampled kept sets of step N, a family past TIE_FAMILY_CAP (module
        docstring), in first-draw order."""
        a, b = self._tie_class(N)
        member = self._sampled_ties(a, b, N - a)
        masks = np.ones((len(member), self.n), dtype=bool)
        masks[:, :a] = False
        np.logical_not(member, out=masks[:, a:b])
        return masks

    def _sampled_ties(self, a, b, m):
        """The sampled m-subsets of the tie class a..b-1 (module docstring) as
        boolean membership rows over the class, in first-draw order, the two
        corners first. Floyd rows are drawn in batches and deduplicated with
        the rows kept so far until TIE_FAMILY_CAP picks are kept or
        TIE_FAMILY_CAP rows are drawn. A batch never has more rows than the
        picks can still grow by, so it can fill them only on its last row and
        the rng ends where the per-call loop leaves it."""
        t = b - a
        member = np.zeros((2, t), dtype=bool)
        member[0, :m] = member[1, t - m :] = True
        drawn = 0
        while drawn < TIE_FAMILY_CAP and len(member) < TIE_FAMILY_CAP:
            rows = min(max(1, PICK_FLOATS // t), TIE_FAMILY_CAP - drawn,
                       TIE_FAMILY_CAP - len(member))
            member = _first_rows(np.concatenate((member, _floyd_picks(self.rng, t, m, rows))))
            drawn += rows
        return member


def _first_rows(member):
    """The distinct rows of a boolean matrix in order of first occurrence,
    compared on their packed bits (one uint64 key per row up to 64 columns)."""
    packed = np.packbits(member, axis=1)
    width = -(-packed.shape[1] // 8) * 8
    keys = np.zeros((len(member), width), dtype=np.uint8)
    keys[:, : packed.shape[1]] = packed
    keys = keys.view(np.uint64 if width == 8 else np.dtype((np.void, width))).ravel()
    first = np.unique(keys, return_index=True)[1]
    return member[np.sort(first)]


def _floyd_picks(rng, t, m, rows):
    """The picks of `rows` calls of rng.choice(t, m, replace=False) as the
    rows of a boolean (rows x t) membership matrix, one call per row, from one
    draw of the same stream.

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
    return member


def _residual_groups(t, sizes):
    """The t-bit residual codes (position j at bit t-1-j) of the residuals of
    each size k in `sizes`, one group at a time: the codes of popcount k in
    ascending order, which is the combination order of the kept (t-k)-sets."""
    codes = np.arange(1 << t, dtype=np.uint32)
    popcount = np.bitwise_count(codes)
    for k in sizes:
        yield codes[popcount == k]


def _code_bits(t):
    """The bit of each position j = 0..t-1 in a t-bit residual code."""
    return (1 << np.arange(t - 1, -1, -1)).astype(np.uint32)


def _step_masks(ctx, N, groups):
    """Residual masks of step N's greedy family (module docstring), and
    whether the family is listed in full. `groups` caches each class size's
    residual-code groups."""
    a, b = ctx._tie_class(N) if N else (0, 0)
    t, m = b - a, N - a
    if N == b or ctx.spec.tag == "lp":
        return (np.arange(ctx.n) >= N)[None], True
    if ctx.spec.tag == "lplq":
        return ctx.evaluator.subset_masks(ctx._direct_sum_kept(N), complement=True), True
    if math.comb(t, m) > TIE_FAMILY_CAP:
        return ctx.sampled_masks(N), False
    if t > CODE_BITS:
        return ctx.evaluator.subset_masks(ctx.greedy_kept(N), complement=True), True
    if t not in groups:
        groups[t] = list(_residual_groups(t, range(t, -1, -1)))
    codes = groups[t][m]
    masks = np.repeat((np.arange(ctx.n) >= b)[None], len(codes), axis=0)
    masks[:, a:b] = (codes[:, None] & _code_bits(t)) != 0
    return masks, True


def _greedy_extrema(ctx):
    """Max and min residual norm over the greedy family of each step
    N = 0..n-1, with the families' exactness flags (module docstring)."""
    n = ctx.n
    hi, lo = np.zeros(n), np.zeros(n)
    exact = np.ones(n, dtype=bool)
    block, rows, groups = [], 0, {}

    def reduce(first):
        starts = np.cumsum([0] + [len(masks) for masks in block[:-1]])
        steps = slice(first, first + len(block))
        masks = np.concatenate(block)
        block.clear()  # the steps' arrays go before the evaluation's temporaries
        vals = ctx.evaluator.norms(masks)
        np.maximum.reduceat(vals, starts, out=hi[steps])
        np.minimum.reduceat(vals, starts, out=lo[steps])

    for N in range(n):
        masks, exact[N] = _step_masks(ctx, N, groups)
        if block and rows + len(masks) > MASK_CHUNK:
            reduce(N - len(block))
            rows = 0
        block.append(masks)
        rows += len(masks)
    if block:
        reduce(n - len(block))
    return hi, lo, exact


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


def _code_masks(codes, bits):
    """Boolean residual masks of the codes, built one KERNEL_ROWS slice at a
    time, so the (rows x n) uint32 bit test is never held for a whole block."""
    masks = np.empty((len(codes), len(bits)), dtype=bool)
    for s in range(0, len(codes), KERNEL_ROWS):
        masks[s : s + KERNEL_ROWS] = codes[s : s + KERNEL_ROWS, None] & bits  # nonzero
    return masks


def _group_norms(ev, codes, keep, bits):
    """Norms of the residual masks of one popcount group's codes, or of the
    rows the boolean `keep` selects, in MASK_CHUNK blocks. Only the KERNEL_ROWS
    slices that hold a selected row are built; they are whole slices of the
    group but its last, so every row keeps its offset in the unpruned blocks."""
    if keep is not None and len(codes) > KERNEL_ROWS:
        held = np.logical_or.reduceat(keep, np.arange(0, len(codes), KERNEL_ROWS))
        held = np.repeat(held, KERNEL_ROWS)[: len(codes)]
        codes, keep = codes[held], keep[held]
    out = [ev.norms(_code_masks(codes[s : s + MASK_CHUNK], bits),
                    None if keep is None else keep[s : s + MASK_CHUNK])
           for s in range(0, len(codes), MASK_CHUNK)]
    return out[0] if len(out) == 1 else np.concatenate(out)


def _sigma_all(ctx):
    """sigma_0 .. sigma_{n-1}: the least residual norm of each kept-set size.

    l^p reads the residuals' p-th power sums off the subset-sum table and
    takes the least per popcount. Other spaces keep no table: they walk the
    popcount groups of `_residual_groups` from residuals of size 1 up to n,
    each in MASK_CHUNK blocks of its ascending codes. The codes follow the kept
    sets in combination order, so each block is a block of sigma_n_exact's scan
    and an evaluated row agrees with the scan bitwise (a block that mixed
    popcounts would move rows, which can move a matmul result by an ulp).

    Every catalog norm is a lattice norm: a residual's norm is at least that
    of any sub-residual. A group of more than PRUNE_LOG_ROWS rows (KERNEL_ROWS
    where the outer transform is linear) is pruned with that bound; smaller
    ones are evaluated whole, since there the bookkeeping costs more than it
    saves. Each residual takes the bound of itself without its smallest
    magnitude (its lowest set bit) in the previous group, where an evaluated
    row's bound is its norm. Only the rows whose bound is at most
    U_k (1 + PRUNE_MARGIN) are evaluated, U_k the norm of the greedy residual
    of size k (the k smallest magnitudes), which bounds the group's least norm
    from above; the margin covers matmul ulps and the Orlicz Newton stop.
    BatchNorm.norms runs the outer transform on the selected rows of whole
    KERNEL_ROWS slices, so the least norm is bitwise the unpruned sweep's."""
    n = ctx.n
    if ctx.spec.tag == "lp":
        sums = _kernels.subset_sums(ctx.mags**ctx.spec.p)
        mins = _kernels.extrema_by_popcount(sums, n)[0][::-1]
        # the root is taken on the reversed view: numpy's contiguous power loop
        # can round differently from its strided one, and these floats are the
        # reference
        return (mins ** (1.0 / ctx.spec.p))[:n]
    ev, bits = ctx.evaluator, _code_bits(n)
    sigma, top = np.empty(n), None
    codes, bound = np.zeros(1, dtype=np.uint32), np.zeros(1)  # the empty residual
    for k, group in enumerate(_residual_groups(n, range(1, n + 1)), 1):
        if len(group) > (PRUNE_LOG_ROWS if ev.log_outer else KERNEL_ROWS):
            if top is None:  # the greedy residuals of sizes 1..n
                stair = np.arange(n) >= n - np.arange(1, n + 1)[:, None]
                top = ev.norms(stair) * (1 + PRUNE_MARGIN)
            bound = bound[np.searchsorted(codes, group & (group - 1))]
            keep = bound <= top[k - 1]
            vals = _group_norms(ev, group, keep, bits)
            bound[keep] = vals
        else:
            bound = vals = _group_norms(ev, group, None, bits)
        codes, sigma[n - k] = group, vals.min()
    return sigma


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
        vals[:n] = _sigma_all(ctx)
    else:
        _, vals[:n], exact = _greedy_extrema(ctx)
        flags[:n] = ["greedy" if e else "sampled" for e in exact]
    return Profile("sigma", spec.label(), vals, flags)


def gamma_profile(seq, spec):
    """Profile of greedy errors gamma_N, N = 0..|supp|."""
    ctx = _Context(seq, spec)
    n = ctx.n
    vals = np.zeros(n + 1)
    vals[:n], _, exact = _greedy_extrema(ctx)
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
