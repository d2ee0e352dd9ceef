"""Vectorized subset-norm evaluators.

A batch evaluator is built once per (space, support) and then maps a boolean
selection matrix (one row per subset of the support) to the corresponding
quasi-norms. The columns follow the given indices: column i selects indices[i],
so callers name subsets by positions in their own list. The combinatorial
engines (exact N-term search, greedy tie enumeration, exhaustive democracy
scans) all run on top of this layer; its agreement with the scalar evaluators
in spaces.py is asserted by tests.

The square-function spaces (fpr, lpq, orlicz, hyp) take their atoms and the
(atom x index) incidence of r-th power weights from the cover that
spaces.square_function records, so the scalar and batch layers share one
refinement (its canonical index order is permuted to the given order once, at
build); an incidence past INCIDENCE_CAP = 5e7 entries raises FeasibilityError
before the square function is built, as does a bmo (node x index) weight
matrix past the same cap before it is built.

The inner sums (p-th powers, r-th power square-function sums, bmo means) are
taken in linear float range and checked finite; a support whose weights leave
that range raises NumericError. The L^{p,q} and Orlicz-Luxemburg outer norms
then run in log scale through the kernels the scalar path uses,
spaces.lorentz_rows (closed form per rearranged piece) and
spaces.luxemburg_rows (safeguarded Newton on ln lam, step tolerance
1e-12 max(1, |ln lam|)), so lpq and orlicz rows reach any value range the inner
sums do. fpr and hyp keep their linear outer sums, taken as an einsum.

BatchNorm.norms casts and evaluates its mask matrix KERNEL_ROWS rows at a time,
so the float temporaries of every space (the mask slice, the inner sums and
their outer transform) are bounded by KERNEL_ROWS x (support + atoms) floats
however many rows are asked for. The callers that need complements, the greedy
residuals, sigma_n_exact and greedy._sigma_all, go through these dense masks,
so their floats do not depend on the kept-index path below.

Every outer transform is row-independent: a row's norm does not depend on the
other rows it is transformed with. That lets norms take a boolean row selector.
It still takes the inner sums of each whole KERNEL_ROWS slice at its usual
offset, so the matmul shapes, and the bits, are those of the unselected call.
It then runs the outer transform on the selected rows only, and returns their
norms alone. greedy._sigma_all selects the residuals whose lattice bound can
still beat the greedy one. No BLAS call may therefore sit in an outer transform.
A gemv's result moves by an ulp with the number of rows, so the fpr and hyp
sums over atoms are np.einsum('ij,j->i'), which is computed row by row.

BatchNorm.subset_norms of subsets themselves (complement=False), and so
subset_extrema and democracy.h_exhaustive, take kept-index rows instead: each
row's inner sums are its N gathered rows of the (support x atoms) column
weights, added in column order, then passed through the same outer transform.
No mask is built, and the work is rows x N x atoms rather than rows x support
x atoms. The slices are sized by floats, KEPT_FLOATS // atoms rows, so each
(rows x atoms) temporary holds about KEPT_FLOATS floats: the gathers are
memory-bound, and a slice of KERNEL_ROWS rows over hundreds of atoms would
leave the cache. A kept row can differ from the dense row of the same subset
by an ulp, since the two sum in different orders. MASK_CHUNK only fixes the
blocks of an exhaustive scan: one index block of that many combinations at a
time, and for complements their boolean mask matrix.
"""
from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

from .errors import FeasibilityError, NumericError
from .geometry import rect_grid, virtual_tree
from .indices import canonical_key
from .sequences import Sequence
from .spaces import (SpaceSpec, bmo_weights, check_rect_axes, lorentz_rows, luxemburg_rows,
                     square_function)

# subset rows per block of an exhaustive scan or a stacked greedy profile
MASK_CHUNK = 1 << 16
# rows per evaluation slice in BatchNorm.norms: it bounds the memory of every
# evaluation and keeps the log-scale kernels' temporaries in cache; the slice
# shape fixes the matmul batch shapes, so changing it can move results by an ulp
KERNEL_ROWS = 1 << 12
# floats per (rows x atoms) temporary of a kept-index slice in subset_norms
KEPT_FLOATS = 1 << 16
# entries of the (atoms x indices) incidence or the (nodes x indices) bmo weights
INCIDENCE_CAP = 5 * 10**7


class BatchNorm:
    """Callable mapping subset-selection rows (column i: the i-th index) to norms.

    cols (n x atoms) holds each column's contribution to the inner sums. A
    float mask slice goes through `inner`, which sums it against cols; a slice
    of kept-index rows sums its gathered rows of cols. Both then go through
    the same `outer` transform."""

    def __init__(self, cols, inner, outer, log_outer=False):
        self.n = len(cols)
        self._cols, self._inner, self._outer = cols, inner, outer
        # the outer transform is a log-scale kernel (lpq, orlicz), which costs
        # about a microsecond per row against tens of nanoseconds for the others
        self.log_outer = log_outer

    def norms(self, masks, rows=None):
        """Norms of the mask rows, or of the rows the boolean selector `rows`
        (one entry per mask row) picks, in row order. Each KERNEL_ROWS slice
        that holds a selected row has its inner sums taken whole; only the
        selected rows go through the outer transform."""
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[1] != self.n:
            raise ValueError("mask matrix shape mismatch")
        if rows is not None and np.shape(rows) != (len(masks),):
            raise ValueError("row selector shape mismatch")
        out = np.empty(len(masks) if rows is None else np.count_nonzero(rows))
        done = 0
        for i in range(0, len(masks), KERNEL_ROWS):
            keep = slice(None) if rows is None else rows[i : i + KERNEL_ROWS]
            if rows is not None and not keep.any():
                continue
            inner = self._inner(masks[i : i + KERNEL_ROWS].astype(float))[keep]
            out[done : done + len(inner)] = self._outer(inner)
            done += len(inner)
        _check_finite(out)
        return out

    def subset_masks(self, kept, complement=False):
        """Boolean rows selecting the subsets given as equal-length rows of
        column positions, or their complements."""
        kept = np.asarray(kept, dtype=np.intp)
        masks = np.full((len(kept), self.n), complement)
        masks[np.arange(len(kept))[:, None], kept] = not complement
        return masks

    def subset_norms(self, kept, complement=False):
        """Norms of the subset_masks rows. Complements go through norms; the
        subsets themselves sum their N gathered rows of cols, in column
        order, KEPT_FLOATS // atoms rows at a time, and build no mask."""
        if complement:
            return self.norms(self.subset_masks(kept, complement))
        kept = np.asarray(kept, dtype=np.intp)
        out = np.empty(len(kept))
        atoms = self._cols.shape[1]
        step = max(1, KEPT_FLOATS // max(1, atoms))
        for i in range(0, len(kept), step):
            block = kept[i : i + step]
            if block.shape[1]:
                inner = self._cols[block[:, 0]]
            else:
                inner = np.zeros((len(block), atoms))
            for col in block.T[1:]:
                inner += self._cols[col]
            out[i : i + step] = self._outer(inner)
        _check_finite(out)
        return out

    def subset_extrema(self, N, complement=False):
        """Exhaustive min and max of subset_norms over every N-subset of the
        columns 0..n-1, scanned in blocks of MASK_CHUNK.

        Returns (min, max, argmin, argmax); the arg tuples are the first
        extremizers in combination order, as column positions."""
        lo, hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
        it = combinations(range(self.n), N)
        total = math.comb(self.n, N)
        for start in range(0, total, MASK_CHUNK):
            m = min(MASK_CHUNK, total - start)
            block = np.fromiter(chain.from_iterable(islice(it, m)), np.intp, m * N)
            block = block.reshape(m, N)
            out = self.subset_norms(block, complement)
            i, j = int(np.argmin(out)), int(np.argmax(out))
            if out[i] < lo:
                lo, arg_lo = float(out[i]), tuple(block[i].tolist())
            if out[j] > hi:
                hi, arg_hi = float(out[j]), tuple(block[j].tolist())
            del block, out  # so the next block is built without this one
        return lo, hi, arg_lo, arg_hi


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError(
                "batch evaluator gave non-finite values (out of linear float "
                "range); use the scalar path"
            )


def _incidence(f, n):
    """(atom x index) matrix of the r-th power weights of a square function
    over n support indices, read off the cover square_function records."""
    ln_wr, grid, bounds, atoms = f.cover
    cells = math.prod(grid)
    with np.errstate(over="ignore"):
        wr = np.exp(ln_wr)
    cell = np.arange(cells)[atoms]
    inside = np.ones((len(cell), n), dtype=bool)
    for c, (lo, hi) in zip(np.unravel_index(cell, grid), bounds):
        c = c[:, None]
        inside &= (np.asarray(lo) <= c) & (c < np.asarray(hi))
    im = np.where(inside, wr, 0.0)
    _check_finite(im)
    return im


def batch_evaluator(spec: SpaceSpec, indices, values) -> BatchNorm:
    """Build a subset-norm evaluator for raw coefficients `values` at `indices`.

    The selection columns follow the given indices: column i is indices[i].
    """
    values = np.asarray([abs(v) for v in values], dtype=float)
    if np.any(values == 0.0):
        raise ValueError("batch evaluator needs nonzero coefficients")
    check_rect_axes(spec, indices)

    # the additive paths reduce with (masks * w).sum(axis=1) rather than a BLAS
    # matmul: pairwise reduction over a fixed axis length is independent of the
    # batch shape, so the same subset row gives the same float in every call
    if spec.tag == "lp":
        pw = values**spec.p
        _check_finite(pw)
        return BatchNorm(pw[:, None], lambda masks: (masks * pw).sum(axis=1, keepdims=True),
                         lambda inner: inner[:, 0] ** (1.0 / spec.p))

    if spec.tag == "lplq":
        comp = np.array([idx.component for idx in indices])
        pwa = np.where(comp == 0, values**spec.p, 0.0)
        pwb = np.where(comp == 1, values**spec.q, 0.0)
        _check_finite(pwa, pwb)

        def inner(masks):
            return np.column_stack(((masks * pwa).sum(axis=1), (masks * pwb).sum(axis=1)))

        return BatchNorm(np.column_stack((pwa, pwb)), inner,
                         lambda s: s[:, 0] ** (1.0 / spec.p) + s[:, 1] ** (1.0 / spec.q))

    if spec.tag == "bmo":
        tree = virtual_tree(indices)
        if len(tree[0]) * len(indices) > INCIDENCE_CAP:
            raise FeasibilityError("bmo weight matrix too large for the batch engine")
        rows, = bmo_weights(tree, [v**spec.r for v in values])
        # (nodes x n) in C order, the layout the matmul has always read
        cmat = np.ascontiguousarray(rows.T)
        _check_finite(cmat)
        return BatchNorm(cmat.T, lambda masks: masks @ cmat.T,
                         lambda s: np.max(s, axis=1) ** (1.0 / spec.r))

    # refuse an incidence past its cap before the square function is built:
    # the cover has one cell per cube, or the cells of the rectangles' grid
    cells = len(indices)
    if spec.universe == "rect" and len(indices):
        cells = math.prod(len(b) - 1 for b in rect_grid(indices)[0])
    if cells * len(indices) > INCIDENCE_CAP:
        raise FeasibilityError("square-function incidence too large for the batch engine")
    r, scale_exp = spec.square_exponents
    f = square_function(Sequence(dict(zip(indices, values)), spec.universe), r, scale_exp)
    # the cover's indices are in canonical order; its columns go back to the given order
    order = sorted(range(len(indices)), key=lambda i: canonical_key(indices[i]))
    ln_meas, im = f.ln_measures, _incidence(f, len(indices))[:, np.argsort(order)]
    if spec.tag in ("fpr", "hyp"):
        meas, pr = np.exp(ln_meas), spec.p / r

        def outer(s):
            s **= pr
            return np.einsum("ij,j->i", s, meas) ** (1.0 / spec.p)

    else:
        def kernel(ln_v):
            if spec.tag == "lpq":
                return lorentz_rows(ln_meas, ln_v, spec.p, spec.q)
            return luxemburg_rows(ln_meas, ln_v, spec.orlicz)[0]

        def outer(s):
            # an atom a subset leaves uncovered has ln value -inf; a norm past
            # the float range comes out inf and is caught by _check_finite
            with np.errstate(divide="ignore", over="ignore"):
                np.log(s, out=s)
                s *= 0.5
                return np.exp(kernel(s))

    return BatchNorm(im.T, lambda masks: masks @ im.T, outer, spec.tag in ("lpq", "orlicz"))
