"""Exact quasi-norm evaluators for concrete discrete sequence spaces.

Supported spaces; SPACE_TAGS gives each tag's index universe and parameters:

    lp:p           l^p over integers
    lplq:p,q       l^p (+) l^q over paired integer streams, norm ||a||_p + ||b||_q
    fpr:s,p,r,d    cubes: L^p of the inner l^r sum, per-cube scale |Q|^(-s/d - 1/2)
    lpq:p,q        cubes: L^{p,q} outer norm (inner exponent 2, scale |Q|^(-1/2))
    orlicz:<fam>   cubes: Orlicz-Luxemburg outer norm
    hyp:p,d        dyadic rectangles: L^p outer norm
    bmo:r          one-dimensional intervals: the mean-oscillation sup

All integration over dyadic geometry is exact: step functions are carried as
atoms with log-scale measures/values so that families spanning a thousand
dyadic levels are evaluated without overflow or underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import FeasibilityError, NumericError, ParseError, finite
from .geometry import cube_sweep, rect_grid, virtual_tree
from .indices import Cube, Rect, canonical_key
from .sequences import Sequence

LN2 = math.log(2.0)
GRID_CELL_CAP = 3 * 10**7
MAX_RECT_LEVEL = 500


# ---------------------------------------------------------------------------
# Orlicz functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrliczFunction:
    """Convex Orlicz function Phi with Phi(0) = 0, strictly increasing on (0, inf).

    Built-in family powlog:p,g is Phi(u) = u^p log^g(1+u) with p >= 1, g >= 0.
    name is the family string, so pow:2 != powlog:2,0 although Phi is the same.
    """

    name: str
    p: float = 1.0
    g: float = 0.0

    def __post_init__(self):
        if not (1 <= self.p < math.inf and 0 <= self.g < math.inf):
            raise ParseError("orlicz powlog family needs finite p >= 1 and g >= 0")
        if self.p == 1 and self.g == 0:
            raise ParseError("orlicz powlog:1,0 is plain L^1; use lp/fpr instead")

    def __call__(self, u):
        return _powlog(u, self.p, self.g)

    def inverse(self, y):
        """Phi^{-1}(y) by bisection (closed form when g = 0), memoized on (p, g, y)."""
        return _powlog_inverse(self.p, self.g, y)

    def fundamental(self, t):
        """phi(t) = 1 / Phi^{-1}(1/t), the fundamental function of the space."""
        if t <= 0:
            raise ValueError("fundamental function needs t > 0")
        return 1.0 / self.inverse(1.0 / t)


def _powlog(u, p, g):
    u = np.asarray(u, dtype=float)
    out = u**p * np.log1p(u) ** g if g else u**p
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=1 << 14, typed=True)
def _powlog_inverse(p, g, y):
    if y == 0:
        return 0.0
    if y < 0:
        raise ValueError("Phi inverse needs y >= 0")
    if g == 0:
        return y ** (1.0 / p)
    lo, hi = 0.0, 1.0
    while _powlog(hi, p, g) < y:
        hi *= 2.0
        if hi > 1e300:
            raise NumericError("Phi inverse bracket overflow")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _powlog(mid, p, g) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def parse_orlicz(text):
    """Parse an Orlicz family string: pow:p, powlog:p,g or ulogu."""
    head, _, rest = text.partition(":")
    if text == "ulogu":
        return OrliczFunction(text, p=1.0, g=1.0)
    if head in ("pow", "powlog"):
        return OrliczFunction(text, *_numbers(text, rest, "p" if head == "pow" else "pg"))
    raise ParseError(f"unknown orlicz family {text!r}")


def _numbers(text, rest, names):
    """rest's comma-separated parameters, one per name: d an integer, others finite."""
    parts = rest.split(",")
    if len(parts) != len(names):
        raise ParseError(f"{text!r} needs the {len(names)} parameter(s) {','.join(names)}")
    return [_number(name, x) for name, x in zip(names, parts)]


def _number(name, text):
    if name != "d":
        return finite(text, name)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"dimension d must be an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# Space specifications
# ---------------------------------------------------------------------------

# tag -> (index universe, parameter names in spec-string order); orlicz takes
# one Orlicz family string instead (parse_orlicz)
SPACE_TAGS = {
    "lp": ("integer", ("p",)),
    "lplq": ("pair", ("p", "q")),
    "fpr": ("cube", ("s", "p", "r", "d")),
    "lpq": ("cube", ("p", "q")),
    "orlicz": ("cube", ()),
    "hyp": ("rect", ("p", "d")),
    "bmo": ("interval", ("r",)),
}


@dataclass(frozen=True)
class SpaceSpec:
    """A space as a value: equal specs hash alike, so a spec is its own cache
    key. Only the parameters SPACE_TAGS names for the tag are read.

    The hash of the seven fields is taken once, in __post_init__, since every
    element_norm lookup hashes the spec; equality compares the fields."""

    tag: str
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0
    s: float = 0.0
    d: int = 1
    orlicz: OrliczFunction | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tag not in SPACE_TAGS:
            raise ParseError(f"unknown space tag {self.tag!r}")
        for name in self.exponents:
            if not 0 < getattr(self, name) < math.inf:
                raise ParseError(f"{self.tag}: exponent {name} must be in (0, inf)")
        if self.d < 1:
            raise ParseError("dimension must be >= 1")
        fields = (self.tag, self.p, self.q, self.r, self.s, self.d, self.orlicz)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so the hash is taken again where the spec
        # is loaded (string hashes differ between interpreters)
        return SpaceSpec, (self.tag, self.p, self.q, self.r, self.s, self.d, self.orlicz)

    @property
    def exponents(self):
        """The space's exponents among p, q and r."""
        return [name for name in SPACE_TAGS[self.tag][1] if name in "pqr"]

    @property
    def universe(self):
        return SPACE_TAGS[self.tag][0]

    @property
    def square_exponents(self):
        """(inner exponent r, scale exponent) of the square function of the
        cube and rectangle spaces fpr, lpq, orlicz and hyp."""
        return (self.r, -self.s / self.d - 0.5) if self.tag == "fpr" else (2.0, -0.5)

    @property
    def rho(self):
        """Declared power-triangle exponent: min of 1 and the space's exponents."""
        return min([1.0] + [getattr(self, name) for name in self.exponents])

    def label(self):
        if self.tag == "orlicz":
            return f"orlicz:{self.orlicz.name}"
        return f"{self.tag}:" + ",".join(
            str(self.d) if name == "d" else f"{getattr(self, name):g}"
            for name in SPACE_TAGS[self.tag][1])


def parse_space(text):
    """Parse a space string like lp:2, lplq:1,2, fpr:0,2,2,1, lpq:2,4,
    orlicz:powlog:1,1, hyp:4,2, bmo:2 (SPACE_TAGS gives each tag's
    parameters; all must be finite)."""
    tag, _, rest = text.partition(":")
    if tag == "orlicz":
        return SpaceSpec(tag, orlicz=parse_orlicz(rest))
    if tag not in SPACE_TAGS:
        raise ParseError(f"unknown space {text!r}")
    names = SPACE_TAGS[tag][1]
    return SpaceSpec(tag, **dict(zip(names, _numbers(text, rest, names))))


# ---------------------------------------------------------------------------
# Step functions (disjoint atoms with log-scale measure/value)
# ---------------------------------------------------------------------------

@dataclass
class StepFunction:
    """Nonnegative step function as disjoint atoms.

    Atoms are stored as natural logs of (measure, value); value 0 is ln -inf.

    A square function also records its cover, the tuple (ln_weights, grid,
    bounds, atoms): support index i, in canonical order, has ln r-th power
    weight ln_weights[i] and covers a box of the cells of an array of shape
    grid, the cells lo[i] <= c < hi[i] along each axis, (lo, hi) =
    bounds[axis]; atom a is the cell atoms[a] of that array flattened (atoms
    is slice(None) when every cell is an atom, in C order). Atom a's value is
    then (sum of exp(ln_weights[i]) over the boxes holding its cell)^(1/r).
    """

    ln_measures: np.ndarray
    ln_values: np.ndarray
    cover: tuple | None = None

    def __post_init__(self):
        self.ln_measures = np.asarray(self.ln_measures, dtype=float)
        self.ln_values = np.asarray(self.ln_values, dtype=float)
        if self.ln_measures.shape != self.ln_values.shape:
            raise ValueError("measure/value length mismatch")

    @classmethod
    def from_atoms(cls, measures, values):
        m = np.asarray(measures, dtype=float)
        v = np.asarray(values, dtype=float)
        if np.any(m <= 0):
            raise ValueError("atom measures must be positive")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("atom values must be finite and nonnegative")
        with np.errstate(divide="ignore"):
            return cls(np.log(m), np.log(v))

    @property
    def measures(self):
        return np.exp(self.ln_measures)

    @property
    def values(self):
        return np.exp(self.ln_values)

    def total_measure(self):
        return float(np.exp(_logsumexp(self.ln_measures)))

    def __len__(self):
        return len(self.ln_measures)


def _logsumexp(a):
    a = np.asarray(a, dtype=float)
    a = a[a > -np.inf]
    if len(a) == 0:
        return -np.inf
    mx = a.max()
    if mx == np.inf:
        raise NumericError("overflow in log-scale reduction")
    return mx + math.log(np.exp(a - mx).sum())


def lp_step_norm(f: StepFunction, p):
    """(sum over atoms measure * value^p)^(1/p), computed in log scale."""
    if p <= 0:
        raise ValueError("p must be positive")
    ln = _logsumexp(f.ln_measures + p * f.ln_values)
    return 0.0 if ln == -np.inf else math.exp(ln / p)


def lorentz_step_norm(f: StepFunction, p, q):
    """L^{p,q} quasi-norm of a step function via its decreasing rearrangement.

    Each rearranged piece [a, b) at value v contributes the closed form
    (p/q) (b^{q/p} - a^{q/p}) v^q; `lorentz_rows` sums the pieces in log scale,
    so value/measure ranges spanning many hundreds of dyadic levels are exact
    to a few ulps of ln of the norm.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    return math.exp(lorentz_rows(f.ln_measures, f.ln_values[None, :], p, q)[0])


def orlicz_luxemburg_norm(f: StepFunction, phi: OrliczFunction):
    """inf{lam > 0 : sum measure * Phi(value/lam) <= 1}, by the safeguarded
    Newton iteration of `luxemburg_rows` on ln lam. It stops at a step of at
    most 1e-12 max(1, |ln lam|) and returns the last Newton iterate, which is
    exact to a few ulps of ln lam."""
    return math.exp(luxemburg_rows(f.ln_measures, f.ln_values[None, :], phi)[0][0])


# Both kernels take the atoms' ln measures (k,) and a matrix of ln values
# (rows, k), -inf marking an atom a row leaves empty, and return ln of each
# row's norm (-inf for a row with no atom). Every reduction runs along a row,
# so a row's float does not depend on the other rows of the matrix.

# lorentz_rows sums the cumulative measures in linear scale when the atoms' ln
# measures span less than this many nats, so every partial sum, relative to
# the largest measure, is a normal float (>= e^-600)
LINEAR_MEASURE_SPAN = 600.0


def lorentz_rows(ln_measures, ln_values, p, q):
    """ln L^{p,q} norm of each row's step function.

    The cumulative measures ln b of the rearranged pieces are
    log(cumsum(exp(ln m - top))) + top, top the largest ln m, when the ln
    measures span less than LINEAR_MEASURE_SPAN nats, and a logaddexp
    accumulation otherwise (deep towers, families over hundreds of levels).
    """
    order = np.argsort(-ln_values, axis=1)
    lv = ln_values[np.arange(len(ln_values))[:, None], order]
    top = ln_measures.max(initial=-np.inf)
    if top - ln_measures.min(initial=np.inf) < LINEAR_MEASURE_SPAN:
        ln_b = np.log(np.exp(ln_measures - top)[order].cumsum(axis=1)) + top
    else:
        ln_b = np.logaddexp.accumulate(ln_measures[order], axis=1)
    ln_a = np.concatenate((np.full((len(lv), 1), -np.inf), ln_b[:, :-1]), axis=1)
    qp = q / p
    with np.errstate(divide="ignore"):
        # ln(b^qp - a^qp) = qp ln b + ln(1 - e^(-qp (ln b - ln a))); a piece too
        # thin to move ln b adds nothing
        ln_diff = qp * ln_b + np.log(-np.expm1(-qp * (ln_b - ln_a)))
        terms = math.log(p / q) + ln_diff + q * lv
        mx = terms.max(axis=1, initial=-np.inf)
        mx = np.where(mx > -np.inf, mx, 0.0)
        return (mx + np.log(np.exp(terms - mx[:, None]).sum(axis=1))) / q


LUXEMBURG_MAX_ITER = 50


def luxemburg_rows(ln_measures, ln_values, phi: OrliczFunction):
    """ln Luxemburg norm of each row's step function, and the number of
    Newton iterations until every row had converged.

    Solves F(t) = ln sum m Phi(v e^-t) = 0 for t = ln lam by Newton's method,
    F'(t) = -sum w (p + g u/((1+u) log1p u)) / sum w with w = m Phi(u) and
    u = v e^-t, starting at the g = 0 root t0 = ln(sum m v^p)/p (exact for
    pow:p). log1p u is taken as logaddexp(0, ln u), so no atom has to be in
    linear float range. A row stops at a step of at most 1e-12 max(1, |t|);
    before that, a step that leaves the bracket kept from the sign of F is
    replaced by the bracket's midpoint. Converged rows are set aside, and
    NumericError is raised past LUXEMBURG_MAX_ITER iterations.
    """
    p, g = phi.p, phi.g
    a = ln_measures + p * ln_values  # ln m + p ln v
    mx = a.max(axis=1, initial=-np.inf)
    t = np.full(len(mx), -np.inf)
    idx = np.flatnonzero(mx > -np.inf)  # rows with an atom
    if not idx.size:
        return t, 0
    if idx.size < len(t):
        a, mx, ln_values = a[idx], mx[idx], ln_values[idx]
    ta = (mx + np.log(np.exp(a - mx[:, None]).sum(axis=1))) / p
    if g:
        a = a + g * ln_values  # ln m + (p + g) ln v
    lo, hi = -np.inf, np.inf
    for it in range(1, LUXEMBURG_MAX_ITER + 1):
        lw = a - ((p + g) * ta)[:, None]  # ln m + (p + g) ln u
        if g:
            # ln Phi(u) = (p + g) ln u + g (ln log1p u - ln u); below ln u = -37,
            # log1p u = u and u / ((1+u) log1p u) = 1 to double precision, so
            # clamping there keeps every term finite
            xc = np.maximum(ln_values - ta[:, None], -37.0)
            ln1pu = np.logaddexp(0.0, xc)
            lw += g * (np.log(ln1pu) - xc)
        mx = lw.max(axis=1)
        w = np.exp(lw - mx[:, None])
        s = w.sum(axis=1)
        F = mx + np.log(s)
        # -F'(t), with u / ((1+u) log1p u) = e^(ln u - log1p u) / log1p u
        slope = p + g * (w * (np.exp(xc - ln1pu) / ln1pu)).sum(axis=1) / s if g else p
        step = F / slope
        tn = ta + step
        # the stop test comes first: an exact root (F = 0) sits on the bracket
        done = np.abs(step) <= 1e-12 * np.maximum(1.0, np.abs(ta))
        any_done = done.any()
        if any_done and done.all():
            t[idx] = tn
            return t, it
        above = F > 0
        lo = np.where(above, ta, lo)
        hi = np.where(above, hi, ta)
        inside = (lo < tn) & (tn < hi)
        ta = tn if inside.all() else np.where(inside, tn, 0.5 * (lo + hi))
        if any_done:
            t[idx[done]] = tn[done]
            keep = ~done
            idx, a, ln_values, ta, lo, hi = (
                idx[keep], a[keep], ln_values[keep], ta[keep], lo[keep], hi[keep])
    raise NumericError(f"luxemburg Newton did not converge in {LUXEMBURG_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# Square function over cubes / rectangles
# ---------------------------------------------------------------------------

def square_function(seq: Sequence, inner_exponent, scale_exponent):
    """Step function g = (sum_Q (|Q|^scale |s_Q| chi_Q)^r)^(1/r) over the
    common refinement of the supporting cubes or rectangles, with its cover.

    Cube atoms are the support cubes not tiled by their children in the
    support, in canonical order; each value is a logaddexp chain along the
    parents, so it stays exact at any depth. Rectangle atoms are the cells of
    the refinement grid in C order (cells no rectangle covers have value 0);
    each cell sums only the weights of the rectangles that cover it, so no
    weight cancels against another.
    """
    if inner_exponent <= 0:
        raise ValueError("inner exponent must be positive")
    items = [(i, abs(v)) for i, v in seq.entries.items() if v != 0.0]
    items.sort(key=lambda t: canonical_key(t[0]))
    if not items:
        # an empty cover, so that a batch evaluator over no indices still builds
        return StepFunction(np.array([]), np.array([]), (np.array([]), (0,), [([], [])], []))
    if seq.kind not in ("cube", "interval", "rect"):
        raise TypeError(f"square function needs cube or rectangle indices, got {seq.kind}")
    r = inner_exponent
    ln_wr = np.array([r * (scale_exponent * idx.log2_measure * LN2 + math.log(mag))
                      for idx, mag in items])
    if seq.kind == "rect":
        return _square_atoms_rects([rect for rect, _ in items], r, ln_wr)
    return _square_atoms_cubes([cube for cube, _ in items], r, ln_wr)


def _square_atoms_cubes(cubes, r, ln_wr):
    parent, start, end = cube_sweep(cubes)
    n = len(cubes)
    chain = np.full(n, -np.inf)
    child_frac = np.zeros(n)
    # canonical order puts every parent before its children
    for i, cube in enumerate(cubes):
        p = parent[i]
        chain[i] = np.logaddexp(chain[p], ln_wr[i]) if p >= 0 else ln_wr[i]
        if p >= 0:
            child_frac[p] += 2.0 ** (-(cube.j - cubes[p].j) * cube.d)
    ln_m, ln_v, cells = [], [], []
    for i, cube in enumerate(cubes):
        if child_frac[i] < 1.0:
            ln_m.append(cube.log2_measure * LN2 + math.log1p(-child_frac[i]))
            ln_v.append(chain[i] / r)
            cells.append(start[i])
    # the cover's grid is the Z-order of the support: a cube's box is its subtree
    return StepFunction(np.array(ln_m), np.array(ln_v), (ln_wr, (n,), [(start, end)], cells))


def _square_atoms_rects(rects, r, ln_wr):
    if any(iv.j > MAX_RECT_LEVEL for rect in rects for iv in rect.intervals):
        raise FeasibilityError("rectangle level beyond supported grid range")
    breaks, bounds = rect_grid(rects)
    grid = tuple(len(b) - 1 for b in breaks)
    cells = math.prod(grid)
    if cells > GRID_CELL_CAP:
        raise FeasibilityError(f"refinement grid of {cells} cells exceeds cap")
    with np.errstate(over="ignore"):
        wr = np.exp(ln_wr)
    if not np.all(np.isfinite(wr)):
        raise NumericError("rectangle weight out of float range")
    sums = np.zeros(grid)
    for i, w in enumerate(wr):
        sums[tuple(slice(lo[i], hi[i]) for lo, hi in bounds)] += w
    meas = reduce(np.multiply.outer, [np.diff(b) for b in breaks]).reshape(-1)
    with np.errstate(divide="ignore"):
        return StepFunction(np.log(meas), np.log(sums.reshape(-1)) / r,
                            (ln_wr, grid, bounds, slice(None)))


# ---------------------------------------------------------------------------
# bmo
# ---------------------------------------------------------------------------

# floats per block of bmo weight rows in bmo_norm; blocks of 2^15 floats raise
# the peak memory of a scalar pass by 0.7 MB, and are no faster
BMO_BLOCK_FLOATS = 1 << 12


def bmo_norm(seq: Sequence, r):
    """sup over dyadic intervals I of ((1/|I|) sum_{J subset I} |s_J|^r |J|)^(1/r).

    The sup is attained on the virtual tree of the support: the support
    intervals and the lowest common ancestors of their Z-order neighbours.
    Between two consecutive nodes of that tree, and above its root, an
    ancestor I holds the same intervals J as the node below it while |I|
    doubles at each level, so its mean is smaller. Each node's mean is summed
    from the relative weights |s_J|^r |J|/|I| = |s_J|^r 2^(j_I - j_J), exact
    powers of two that stay in range at any depth, in the order of the items:
    the weight rows come in blocks of at most BMO_BLOCK_FLOATS floats, and
    numpy sums a block along axis 0 one row after another, starting from the
    running sums folded into its first row.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if seq.kind != "interval":
        raise TypeError("bmo needs one-dimensional interval indices")
    items = [(iv, abs(v)) for iv, v in seq.entries.items() if v != 0.0]
    if not items:
        return 0.0
    sums = None
    for block in bmo_weights(virtual_tree([iv for iv, _ in items]),
                             [mag**r for _, mag in items], BMO_BLOCK_FLOATS):
        if sums is not None:
            block[0] += sums
        sums = block.sum(axis=0)
    return float(sums.max()) ** (1.0 / r)


def bmo_weights(tree, pows, block_floats=None):
    """Relative weights of the bmo means over the virtual tree of intervals,
    as geometry.virtual_tree returns it (the intervals are its first nodes).

    Row J, for each interval J in order, is the vector over the tree nodes I
    of pows[J] |J|/|I| = pows[J] 2^(j_I - j_J) where I contains J, and 0
    elsewhere. Yields the rows as consecutive (rows x nodes) blocks of at
    most block_floats floats (at least one row each), or all in one block.
    """
    nodes, start, end = tree
    levels = np.array([iv.j for iv in nodes])
    pows = np.asarray(pows, dtype=float)
    n = len(pows)
    step = n if block_floats is None else max(1, block_floats // len(nodes))
    for i in range(0, n, step):
        rows = slice(i, min(i + step, n))  # the tree lists the intervals first
        s = start[rows, None]
        inside = (start <= s) & (s < end)
        rel = np.minimum(levels - levels[rows, None], 0)
        yield np.where(inside, np.ldexp(pows[rows, None], rel), 0.0)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _check_universe(spec, seq):
    if seq.kind != spec.universe:
        raise TypeError(
            f"space {spec.label()} needs {spec.universe} indices, got {seq.kind}"
        )
    check_rect_axes(spec, seq.entries)


def check_rect_axes(spec, indices):
    """ParseError unless hyp's rectangles have the spec's d axes. The first
    index is checked; mixed rectangle dimensions are refused by the
    refinement grid."""
    first = next(iter(indices), None)
    if spec.tag == "hyp" and first is not None and first.d != spec.d:
        raise ParseError(f"space {spec.label()} needs rectangles of {spec.d} axes, "
                         f"got {first.d}")


def space_norm(spec: SpaceSpec, seq: Sequence):
    """Quasi-norm of the raw coefficient sequence in the given space."""
    _check_universe(spec, seq)
    vals = [v for v in seq.entries.values() if v != 0.0]
    if not vals:
        return 0.0
    if spec.tag == "lp":
        return math.fsum(abs(v) ** spec.p for v in vals) ** (1.0 / spec.p)
    if spec.tag == "lplq":
        a = math.fsum(abs(v) ** spec.p for i, v in seq.entries.items()
                      if v != 0.0 and i.component == 0)
        b = math.fsum(abs(v) ** spec.q for i, v in seq.entries.items()
                      if v != 0.0 and i.component == 1)
        return a ** (1.0 / spec.p) + b ** (1.0 / spec.q)
    if spec.tag == "bmo":
        return bmo_norm(seq, spec.r)
    f = square_function(seq, *spec.square_exponents)
    if spec.tag == "lpq":
        return lorentz_step_norm(f, spec.p, spec.q)
    if spec.tag == "orlicz":
        return orlicz_luxemburg_norm(f, spec.orlicz)
    return lp_step_norm(f, spec.p)


# ---------------------------------------------------------------------------
# normalized basis layer
# ---------------------------------------------------------------------------

def _level(idx):
    """L = -log2 |idx| as an int: j d for a cube, the sum of the axis levels
    for a rectangle, 0 for an integer or a pair."""
    if isinstance(idx, Cube):
        return idx.j * idx.d
    if isinstance(idx, Rect):
        return sum(iv.j for iv in idx.intervals)
    return 0


@lru_cache(maxsize=1 << 18)
def _element_norm_cached(spec, level):
    if spec.tag in ("lp", "lplq", "bmo"):
        return 1.0
    x = level * LN2
    if spec.tag == "orlicz":
        # the one atom square_function builds: ln measure -L ln 2, ln value (L/2) ln 2
        return math.exp(luxemburg_rows(np.array([-x]), np.array([[x / 2]]), spec.orlicz)[0][0])
    if spec.tag == "fpr":
        return math.exp(x * (spec.s / spec.d + 0.5 - 1.0 / spec.p))
    if spec.tag == "lpq":
        return math.exp(math.log(spec.p / spec.q) / spec.q + x * (0.5 - 1.0 / spec.p))
    return math.exp(x * (0.5 - 1.0 / spec.p))  # hyp


def _check_rect_element(spec, rect, level):
    """The errors square_function raises on one rectangle: its axis count,
    each axis's level, and its r-th power weight 2^L past the float range."""
    check_rect_axes(spec, (rect,))
    if any(iv.j > MAX_RECT_LEVEL for iv in rect.intervals):
        raise FeasibilityError("rectangle level beyond supported grid range")
    try:
        math.exp(level * LN2)
    except OverflowError:
        raise NumericError("rectangle weight out of float range") from None


def element_norm(spec, idx):
    """Norm of the canonical basis element at idx, in closed form from its
    size L = -log2 |idx| (an int, `_level`) and cached per (spec, L).

    - lp, lplq and bmo: 1.0.
    - fpr:s,p,r,d: 2^(L (s/d + 1/2 - 1/p)), d from the spec.
    - lpq:p,q: (p/q)^(1/q) 2^(L (1/2 - 1/p)), the fundamental function
      (p/q)^(1/q) t^(1/p) of L^{p,q} at t = |Q|, times the scale |Q|^(-1/2).
    - hyp:p,d: 2^(L (1/2 - 1/p)).
    - orlicz: the Luxemburg norm of the one atom of measure 2^-L and value
      2^(L/2), by `luxemburg_rows`, so 1 / Phi^{-1}(2^L) times 2^(L/2).

    Each power is math.exp of its log, so one past the float range raises
    OverflowError as `space_norm` does. The lp, lplq, bmo and orlicz values
    are the floats `space_norm` gives on the single element. The fpr, lpq and
    hyp values are within 4 eps (1 + L ln 2) rel of them: `space_norm` carries
    ln of the measure and of the value, each off by up to eps L ln 2, and the
    closed form is the more accurate of the two. hyp elements are first
    checked as `space_norm` checks them, with the same errors.
    """
    level = _level(idx)
    if spec.tag == "hyp":
        _check_rect_element(spec, idx, level)
    return _element_norm_cached(spec, level)


def to_raw(spec, seq: Sequence) -> Sequence:
    """Convert normalized-basis coefficients to raw coefficients by dividing
    each entry by the closed-form norm of its basis element (`element_norm`,
    one cache lookup per entry)."""
    return Sequence(
        {i: v / element_norm(spec, i) for i, v in seq.entries.items()}, seq.kind
    )


def ambient_norm(spec, seq: Sequence):
    """Norm of x = sum c_j e_j/||e_j|| for a normalized-basis sequence {c_j}."""
    return space_norm(spec, to_raw(spec, seq))
