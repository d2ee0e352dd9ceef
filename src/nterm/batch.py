"""Vectorized subset-norm evaluators.

A batch evaluator is built once per (space, support) and then maps a boolean
selection matrix (one row per subset of the support) to the corresponding
quasi-norms. The combinatorial engines (exact N-term search, greedy tie
enumeration, exhaustive democracy scans) all run on top of this layer; its
agreement with the scalar evaluators in spaces.py is asserted by tests.

The inner sums (p-th powers, r-th power square-function sums, bmo means) are
taken in linear float range and checked finite; a support whose weights leave
that range raises NumericError. The L^{p,q} and Orlicz-Luxemburg outer norms
then run in log scale through the kernels the scalar path uses,
spaces.lorentz_rows (closed form per rearranged piece) and
spaces.luxemburg_rows (safeguarded Newton on ln lam, step tolerance
1e-12 max(1, |ln lam|)), so lpq and orlicz rows reach any value range the inner
sums do. fpr and hyp keep their linear outer sums.
"""
from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .errors import NumericError
from .geometry import cube_parents, rect_grid
from .indices import canonical_key
from .sequences import Sequence
from .spaces import (
    LN2, SpaceSpec, bmo_weights, lorentz_rows, luxemburg_rows, square_function,
)

# subset rows per block of an exhaustive scan; it bounds the mask matrix, and the
# block shape fixes the matmul batch shapes, so changing it can move results by an ulp
MASK_CHUNK = 1 << 16
# rows per call of the log-scale kernels: their temporaries then stay in cache;
# each row's float is independent of the rows around it
KERNEL_ROWS = 1 << 12


class BatchNorm:
    """Callable mapping subset-selection rows to norms."""

    def __init__(self, indices, fn):
        self.indices = list(indices)
        self.pos = {idx: i for i, idx in enumerate(self.indices)}
        self._fn = fn

    def __len__(self):
        return len(self.indices)

    def norms(self, masks):
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[1] != len(self.indices):
            raise ValueError("mask matrix shape mismatch")
        out = self._fn(masks.astype(float))
        _check_finite(out)
        return out

    def subset_norms(self, cols, kept, complement=False):
        """Norms of the subsets given as equal-length rows of positions into
        the column map cols, or of their complements."""
        kept = np.asarray(kept, dtype=np.intp)
        m = kept.shape[0]
        masks = np.full((m, len(self.indices)), float(complement))
        rows = np.repeat(np.arange(m), kept.shape[1])
        masks[rows, cols[kept.reshape(-1)]] = float(not complement)
        return self.norms(masks)

    def subset_extrema(self, cols, N, complement=False):
        """Exhaustive min and max of subset_norms over every N-subset of the
        positions 0..len(cols)-1, scanned in blocks of MASK_CHUNK.

        Returns (min, max, argmin, argmax); the arg tuples are the first
        extremizers in combination order."""
        lo, hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
        it = combinations(range(len(cols)), N)
        while block := list(islice(it, MASK_CHUNK)):
            out = self.subset_norms(cols, block, complement)
            i, j = int(np.argmin(out)), int(np.argmax(out))
            if out[i] < lo:
                lo, arg_lo = float(out[i]), block[i]
            if out[j] > hi:
                hi, arg_hi = float(out[j]), block[j]
        return lo, hi, arg_lo, arg_hi


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError(
                "batch evaluator gave non-finite values (out of linear float "
                "range); use the scalar path"
            )


def _cube_incidence(spec, indices, values, inner_r, scale_exp):
    """ln measures of the atoms of the full-support refinement plus the
    (atom x index) matrix of r-th power weight contributions."""
    seq = Sequence(dict(zip(indices, values)), spec.universe)
    f = square_function(seq, inner_r, scale_exp)
    if f.regions is None:
        raise AssertionError("cube path must carry regions")
    atom_cubes = f.regions
    n = len(indices)
    pos = {idx: i for i, idx in enumerate(indices)}
    ln_w = np.array(
        [scale_exp * idx.log2_measure * LN2 + math.log(abs(values[i]))
         for i, idx in enumerate(indices)]
    )
    with np.errstate(over="ignore"):
        wr = np.exp(inner_r * ln_w)
    parent = cube_parents(indices)
    im = np.zeros((len(atom_cubes), n))
    for a, cube in enumerate(atom_cubes):
        i = pos[cube]
        while i >= 0:
            im[a, i] = wr[i]
            i = parent[i]
    _check_finite(im)
    return f.ln_measures, im


def _rect_incidence(spec, indices, values, inner_r, scale_exp):
    breaks, slices = rect_grid(indices)
    shape = tuple(len(b) - 1 for b in breaks)
    cells = int(np.prod(shape))
    n = len(indices)
    if cells * n > 5 * 10**7:
        raise NumericError("rectangle incidence too large for the batch engine")
    im = np.zeros((cells, n))
    meas = np.array([1.0])
    for b in breaks:
        meas = np.multiply.outer(meas, np.diff(b))
    meas = meas.reshape(-1)
    grid = np.zeros(shape)
    for i, (rect, sl) in enumerate(zip(indices, slices)):
        with np.errstate(over="ignore"):
            wr = float(np.exp(
                inner_r * (scale_exp * rect.log2_measure * LN2 + math.log(abs(values[i])))
            ))
        grid[...] = 0.0
        grid[sl] = wr
        im[:, i] = grid.reshape(-1)
    _check_finite(meas, im)
    return meas, im


def batch_evaluator(spec: SpaceSpec, indices, values) -> BatchNorm:
    """Build a subset-norm evaluator for raw coefficients `values` at `indices`.

    The index order of the selection columns is the canonical order.
    """
    order = sorted(range(len(indices)), key=lambda i: canonical_key(indices[i]))
    indices = [indices[i] for i in order]
    values = np.asarray([abs(values[i]) for i in order], dtype=float)
    if np.any(values == 0.0):
        raise ValueError("batch evaluator needs nonzero coefficients")

    # the additive paths reduce with (masks * w).sum(axis=1) rather than a BLAS
    # matmul: pairwise reduction over a fixed axis length is independent of the
    # batch shape, so the same subset row gives the same float in every call
    if spec.tag == "lp":
        pw = values**spec.p
        _check_finite(pw)

        def fn(masks):
            return (masks * pw).sum(axis=1) ** (1.0 / spec.p)

    elif spec.tag == "lplq":
        comp = np.array([idx.component for idx in indices])
        pwa = np.where(comp == 0, values**spec.p, 0.0)
        pwb = np.where(comp == 1, values**spec.q, 0.0)
        _check_finite(pwa, pwb)

        def fn(masks):
            return (masks * pwa).sum(axis=1) ** (1.0 / spec.p) + (
                masks * pwb
            ).sum(axis=1) ** (1.0 / spec.q)

    elif spec.tag == "fpr":
        ln_meas, im = _cube_incidence(spec, indices, values, spec.r, -spec.s / spec.d - 0.5)
        meas = np.exp(ln_meas)
        pr = spec.p / spec.r

        def fn(masks):
            inner = masks @ im.T
            return (inner**pr @ meas) ** (1.0 / spec.p)

    elif spec.tag in ("lpq", "orlicz"):
        ln_meas, im = _cube_incidence(spec, indices, values, 2.0, -0.5)
        if spec.tag == "lpq":
            def kernel(ln_v):
                return lorentz_rows(ln_meas, ln_v, spec.p, spec.q)
        else:
            def kernel(ln_v):
                return luxemburg_rows(ln_meas, ln_v, spec.orlicz)[0]

        def fn(masks):
            # an atom a subset leaves uncovered has ln value -inf; a norm past
            # the float range comes out inf and is caught by _check_finite
            with np.errstate(divide="ignore", over="ignore"):
                ln_v = 0.5 * np.log(masks @ im.T)
                return np.exp(np.concatenate([
                    kernel(ln_v[i : i + KERNEL_ROWS])
                    for i in range(0, max(len(ln_v), 1), KERNEL_ROWS)]))

    elif spec.tag == "hyp":
        meas, im = _rect_incidence(spec, indices, values, 2.0, -0.5)
        p2 = spec.p / 2.0

        def fn(masks):
            inner = masks @ im.T
            return (inner**p2 @ meas) ** (1.0 / spec.p)

    elif spec.tag == "bmo":
        cmat = np.column_stack(list(bmo_weights(indices, [v**spec.r for v in values])))
        _check_finite(cmat)

        def fn(masks):
            return np.max(masks @ cmat.T, axis=1) ** (1.0 / spec.r)

    else:
        raise AssertionError(spec.tag)

    return BatchNorm(indices, fn)
