"""Exact quasi-norm evaluators for concrete discrete sequence spaces.

Supported space tags and their index universes:

    lp:p           l^p over integers
    lplq:p,q       l^p (+) l^q over paired integer streams, norm ||a||_p + ||b||_q
    fpr:s,p,r,d    smoothness-scale cube space: L^p of the inner l^r sum with
                   per-cube scale |Q|^(-s/d - 1/2)
    lpq:p,q        cube space with L^{p,q} outer norm (inner exponent 2, scale
                   |Q|^(-1/2))
    orlicz:<fam>   cube space with Orlicz-Luxemburg outer norm
    hyp:p,d        dyadic-rectangle space with L^p outer norm
    bmo:r          one-dimensional interval space with the mean-oscillation sup

All integration over dyadic geometry is exact: step functions are carried as
atoms with log-scale measures/values so that families spanning a thousand
dyadic levels are evaluated without overflow or underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import FeasibilityError, NumericError, ParseError
from .geometry import cube_parents, rect_grid, virtual_tree
from .indices import canonical_key
from .sequences import Sequence

LN2 = math.log(2.0)
GRID_CELL_CAP = 3 * 10**7
MAX_RECT_LEVEL = 500


# ---------------------------------------------------------------------------
# Orlicz functions
# ---------------------------------------------------------------------------

class OrliczFunction:
    """Convex Orlicz function Phi with Phi(0) = 0, strictly increasing on (0, inf).

    Built-in family powlog:p,g is Phi(u) = u^p log^g(1+u) with p >= 1, g >= 0.
    """

    def __init__(self, name, p=1.0, g=0.0):
        if p < 1 or g < 0:
            raise ParseError("orlicz powlog family needs p >= 1 and g >= 0")
        if p == 1 and g == 0:
            raise ParseError("orlicz powlog:1,0 is plain L^1; use lp/fpr instead")
        self.name = name
        self.p = p
        self.g = g

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

    def key(self):
        return (self.name, self.p, self.g)

    def __repr__(self):
        return f"OrliczFunction({self.name})"


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
    head, _, rest = text.partition(":")
    if head == "pow":
        return OrliczFunction(text, p=float(rest))
    if head == "powlog":
        p, g = (float(x) for x in rest.split(","))
        return OrliczFunction(text, p=p, g=g)
    if head == "ulogu" or text == "ulogu":
        return OrliczFunction("ulogu", p=1.0, g=1.0)
    raise ParseError(f"unknown orlicz family {text!r}")


# ---------------------------------------------------------------------------
# Space specifications
# ---------------------------------------------------------------------------

_UNIVERSE = {
    "lp": "integer",
    "lplq": "pair",
    "fpr": "cube",
    "lpq": "cube",
    "orlicz": "cube",
    "hyp": "rect",
    "bmo": "interval",
}


@dataclass(frozen=True)
class SpaceSpec:
    tag: str
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0
    s: float = 0.0
    d: int = 1
    orlicz: OrliczFunction | None = field(default=None, compare=False)
    orlicz_key: tuple | None = None

    def __post_init__(self):
        if self.tag not in _UNIVERSE:
            raise ParseError(f"unknown space tag {self.tag!r}")
        for name in ("p", "q", "r"):
            v = getattr(self, name)
            if v < 0 or (v == 0 and self._needs(name)):
                raise ParseError(f"{self.tag}: exponent {name} must be in (0, inf)")
        if self.d < 1:
            raise ParseError("dimension must be >= 1")

    def _needs(self, name):
        need = {
            "lp": "p",
            "lplq": "pq",
            "fpr": "pr",
            "lpq": "pq",
            "orlicz": "",
            "hyp": "p",
            "bmo": "r",
        }[self.tag]
        return name in need

    @property
    def universe(self):
        return _UNIVERSE[self.tag]

    @property
    def rho(self):
        """Declared power-triangle exponent for this space."""
        if self.tag == "lp":
            return min(1.0, self.p)
        if self.tag == "fpr":
            return min(1.0, self.p, self.r)
        if self.tag in ("lpq", "lplq"):
            return min(1.0, self.p, self.q)
        if self.tag == "bmo":
            return min(1.0, self.r)
        if self.tag == "orlicz":
            return 1.0
        if self.tag == "hyp":
            return min(1.0, self.p)
        raise AssertionError(self.tag)

    def label(self):
        if self.tag == "lp":
            return f"lp:{self.p:g}"
        if self.tag == "lplq":
            return f"lplq:{self.p:g},{self.q:g}"
        if self.tag == "fpr":
            return f"fpr:{self.s:g},{self.p:g},{self.r:g},{self.d}"
        if self.tag == "lpq":
            return f"lpq:{self.p:g},{self.q:g}"
        if self.tag == "orlicz":
            return f"orlicz:{self.orlicz.name}"
        if self.tag == "hyp":
            return f"hyp:{self.p:g},{self.d}"
        return f"bmo:{self.r:g}"


def parse_space(text):
    """Parse a space string like lp:2, lplq:1,2, fpr:0,2,2,1, lpq:2,4,
    orlicz:powlog:1,1, hyp:4,2, bmo:2."""
    head, _, rest = text.partition(":")
    try:
        if head == "lp":
            return SpaceSpec("lp", p=float(rest))
        if head == "lplq":
            p, q = (float(x) for x in rest.split(","))
            return SpaceSpec("lplq", p=p, q=q)
        if head == "fpr":
            s, p, r, d = rest.split(",")
            return SpaceSpec("fpr", s=float(s), p=float(p), r=float(r), d=int(d))
        if head == "lpq":
            p, q = (float(x) for x in rest.split(","))
            return SpaceSpec("lpq", p=p, q=q)
        if head == "orlicz":
            fn = parse_orlicz(rest)
            return SpaceSpec("orlicz", orlicz=fn, orlicz_key=fn.key())
        if head == "hyp":
            p, d = rest.split(",")
            return SpaceSpec("hyp", p=float(p), d=int(d))
        if head == "bmo":
            return SpaceSpec("bmo", r=float(rest))
    except ParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseError(f"cannot parse space {text!r}: {exc}") from exc
    raise ParseError(f"unknown space {text!r}")


# ---------------------------------------------------------------------------
# Step functions (disjoint atoms with log-scale measure/value)
# ---------------------------------------------------------------------------

@dataclass
class StepFunction:
    """Nonnegative step function as disjoint atoms.

    Atoms are stored as natural logs of (measure, value); value 0 is ln -inf.
    regions optionally records the geometric piece behind each atom.
    """

    ln_measures: np.ndarray
    ln_values: np.ndarray
    regions: list | None = None

    def __post_init__(self):
        self.ln_measures = np.asarray(self.ln_measures, dtype=float)
        self.ln_values = np.asarray(self.ln_values, dtype=float)
        if self.ln_measures.shape != self.ln_values.shape:
            raise ValueError("measure/value length mismatch")

    @classmethod
    def from_atoms(cls, measures, values, regions=None):
        m = np.asarray(measures, dtype=float)
        v = np.asarray(values, dtype=float)
        if np.any(m <= 0):
            raise ValueError("atom measures must be positive")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("atom values must be finite and nonnegative")
        with np.errstate(divide="ignore"):
            return cls(np.log(m), np.log(v), regions)

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

def lorentz_rows(ln_measures, ln_values, p, q):
    """ln L^{p,q} norm of each row's step function."""
    order = np.argsort(-ln_values, axis=1)
    lv = -np.sort(-ln_values, axis=1)
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
    common refinement of the supporting cubes or rectangles."""
    if inner_exponent <= 0:
        raise ValueError("inner exponent must be positive")
    items = [(i, abs(v)) for i, v in seq.entries.items() if v != 0.0]
    if not items:
        return StepFunction(np.array([]), np.array([]), [])
    if seq.kind in ("cube", "interval"):
        return _square_atoms_cubes(items, inner_exponent, scale_exponent)
    if seq.kind == "rect":
        return _square_atoms_rects(items, inner_exponent, scale_exponent)
    raise TypeError(f"square function needs cube or rectangle indices, got {seq.kind}")


def _square_atoms_cubes(items, r, scale_exp):
    items.sort(key=lambda t: canonical_key(t[0]))
    parent = cube_parents([cube for cube, _ in items])
    n = len(items)
    ln_wr = np.empty(n)
    for i, (cube, mag) in enumerate(items):
        ln_w = scale_exp * cube.log2_measure * LN2 + math.log(mag)
        ln_wr[i] = r * ln_w
    chain = np.full(n, -np.inf)
    child_frac = np.zeros(n)
    # canonical order puts every parent before its children
    for i, (cube, _) in enumerate(items):
        p = parent[i]
        chain[i] = np.logaddexp(chain[p], ln_wr[i]) if p >= 0 else ln_wr[i]
        if p >= 0:
            child_frac[p] += 2.0 ** (-(cube.j - items[p][0].j) * cube.d)
    ln_m, ln_v, regions = [], [], []
    for i, (cube, _) in enumerate(items):
        frac = child_frac[i]
        if frac >= 1.0:
            continue
        ln_m.append(cube.log2_measure * LN2 + math.log1p(-frac))
        ln_v.append(chain[i] / r)
        regions.append(cube)
    return StepFunction(np.array(ln_m), np.array(ln_v), regions)


def _square_atoms_rects(items, r, scale_exp):
    d = items[0][0].d
    if any(rect.d != d for rect, _ in items):
        raise ValueError("mixed rectangle dimensions")
    if any(iv.j > MAX_RECT_LEVEL for rect, _ in items for iv in rect.intervals):
        raise FeasibilityError("rectangle level beyond supported grid range")
    breaks, slices = rect_grid([rect for rect, _ in items])
    shape = tuple(len(b) - 1 for b in breaks)
    cells = int(np.prod(shape))
    if cells > GRID_CELL_CAP:
        raise FeasibilityError(f"refinement grid of {cells} cells exceeds cap")
    diff = np.zeros(tuple(s + 1 for s in shape))
    for (rect, mag), sl in zip(items, slices):
        wr = math.exp(r * (scale_exp * rect.log2_measure * LN2 + math.log(mag)))
        if not math.isfinite(wr):
            raise NumericError("rectangle weight out of float range")
        for corner in range(1 << d):
            sign = 1.0
            idx = []
            for axis in range(d):
                if corner >> axis & 1:
                    idx.append(sl[axis].stop)
                    sign = -sign
                else:
                    idx.append(sl[axis].start)
            diff[tuple(idx)] += sign * wr
    for axis in range(d):
        diff = np.cumsum(diff, axis=axis)
    cover = diff[tuple(slice(0, s) for s in shape)]
    meas = np.array([1.0])
    for axis in range(d):
        meas = np.multiply.outer(meas, np.diff(breaks[axis]))
    meas = meas.reshape(-1)[:]
    cover = cover.reshape(-1)
    pos_mask = meas > 0
    cover = np.maximum(cover[pos_mask], 0.0)
    meas = meas[pos_mask]
    with np.errstate(divide="ignore"):
        return StepFunction(np.log(meas), np.log(cover) / r, None)


# ---------------------------------------------------------------------------
# bmo
# ---------------------------------------------------------------------------

def bmo_norm(seq: Sequence, r):
    """sup over dyadic intervals I of ((1/|I|) sum_{J subset I} |s_J|^r |J|)^(1/r).

    The sup is attained on the virtual tree of the support: the support
    intervals and the lowest common ancestors of their Z-order neighbours.
    Between two consecutive nodes of that tree, and above its root, an
    ancestor I holds the same intervals J as the node below it while |I|
    doubles at each level, so its mean is smaller. Each node's mean is summed
    from the relative weights |s_J|^r |J|/|I| = |s_J|^r 2^(j_I - j_J), exact
    powers of two that stay in range at any depth, in the order of the items.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if seq.kind != "interval":
        raise TypeError("bmo needs one-dimensional interval indices")
    items = [(iv, abs(v)) for iv, v in seq.entries.items() if v != 0.0]
    if not items:
        return 0.0
    # the columns are added in item order, so each node's sum keeps that order
    sums = reduce(np.add, bmo_weights([iv for iv, _ in items], [mag**r for _, mag in items]))
    return float(sums.max()) ** (1.0 / r)


def bmo_weights(intervals, pows):
    """Relative weights of the bmo means over the virtual tree of the intervals.

    Yields, for each interval J in order, the vector over the tree nodes I of
    pows[J] |J|/|I| = pows[J] 2^(j_I - j_J) where I contains J, and 0 elsewhere.
    """
    nodes, start, end = virtual_tree(intervals)
    levels = np.array([iv.j for iv in nodes])
    for i, (iv, w) in enumerate(zip(intervals, pows)):
        inside = (start <= start[i]) & (start[i] < end)
        yield np.where(inside, np.ldexp(w, np.minimum(levels - iv.j, 0)), 0.0)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _check_universe(spec, seq):
    if seq.kind != spec.universe:
        raise TypeError(
            f"space {spec.label()} needs {spec.universe} indices, got {seq.kind}"
        )


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
    if spec.tag == "fpr":
        f = square_function(seq, spec.r, -spec.s / spec.d - 0.5)
        return lp_step_norm(f, spec.p)
    if spec.tag == "lpq":
        f = square_function(seq, 2.0, -0.5)
        return lorentz_step_norm(f, spec.p, spec.q)
    if spec.tag == "orlicz":
        f = square_function(seq, 2.0, -0.5)
        return orlicz_luxemburg_norm(f, spec.orlicz)
    if spec.tag == "hyp":
        f = square_function(seq, 2.0, -0.5)
        return lp_step_norm(f, spec.p)
    if spec.tag == "bmo":
        return bmo_norm(seq, spec.r)
    raise AssertionError(spec.tag)


# ---------------------------------------------------------------------------
# normalized basis layer
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 18)
def _element_norm_cached(spec_key, idx):
    spec = _SPEC_CACHE[spec_key]
    return space_norm(spec, Sequence({idx: 1.0}, spec.universe))


_SPEC_CACHE: dict = {}


def _spec_key(spec):
    key = (spec.tag, spec.p, spec.q, spec.r, spec.s, spec.d, spec.orlicz_key)
    _SPEC_CACHE.setdefault(key, spec)
    return key


def element_norm(spec, idx):
    """Norm of the canonical basis element at idx."""
    return _element_norm_cached(_spec_key(spec), idx)


def to_raw(spec, seq: Sequence) -> Sequence:
    """Convert normalized-basis coefficients to raw coefficients by dividing
    each entry by the norm of its basis element."""
    return Sequence(
        {i: v / element_norm(spec, i) for i, v in seq.entries.items()}, seq.kind
    )


def ambient_norm(spec, seq: Sequence):
    """Norm of x = sum c_j e_j/||e_j|| for a normalized-basis sequence {c_j}."""
    return space_norm(spec, to_raw(spec, seq))
