"""Dyadic nesting by one sorted sweep, and the rectangle refinement grid.

In Z-order (Morton order) with each cube placed before the cubes inside it,
the cubes of any dyadic set nest as intervals: a cube is followed by exactly
its descendants in the set, then by cubes disjoint from it. One stack sweep in
that order therefore finds every cube's nearest ancestor in the set, without
probing the levels in between.
"""
from __future__ import annotations

from functools import cmp_to_key

import numpy as np

from .errors import NumericError
from .indices import Cube

# coarsest level a bmo virtual tree may reach for its common dyadic root
MIN_ROOT_LEVEL = -1100


def _z_order(cubes):
    """Positions of the cubes in Z-order, each cube before the cubes inside it."""
    d = cubes[0].d
    if any(c.d != d for c in cubes):
        raise ValueError("mixed cube dimensions")
    # Python ints throughout: the shifts reach a thousand bits
    J = int(max(c.j for c in cubes))
    if d == 1:
        return sorted(range(len(cubes)),
                      key=lambda i: (int(cubes[i].k[0]) << (J - int(cubes[i].j)), cubes[i].j))
    # lower corners at the deepest level J; the most significant differing bit
    # of the XOR compares Morton codes without interleaving, which needs
    # nonnegative coordinates, so each axis is shifted by a whole number of
    # cubes of the coarsest level (this keeps every cube of the set dyadic)
    j0 = int(min(c.j for c in cubes))
    corners = [[int(x) << (J - int(c.j)) for x in c.k] for c in cubes]
    for axis in range(d):
        base = min(x[axis] for x in corners) >> (J - j0) << (J - j0)
        for x in corners:
            x[axis] -= base

    def cmp(p, q):
        x, y = corners[p], corners[q]
        top, axis = 0, 0
        for a in range(d):
            b = (x[a] ^ y[a]).bit_length()
            if b > top:
                top, axis = b, a
        if top == 0:
            return cubes[p].j - cubes[q].j
        return -1 if x[axis] < y[axis] else 1

    return sorted(range(len(cubes)), key=cmp_to_key(cmp))


def cube_sweep(cubes):
    """Each of the distinct cubes' parent position (-1 at a root) and the
    Z-order span [start, end) of its subtree: cubes[u] lies in (or is) cubes[v]
    exactly when start[v] <= start[u] < end[v]. No cubes give empty lists."""
    if not cubes:
        return [], [], []
    order = _z_order(cubes)
    parent = [-1] * len(cubes)
    start = [0] * len(cubes)
    end = [len(cubes)] * len(cubes)
    stack = []
    for rank, i in enumerate(order):
        cube = cubes[i]
        while stack and not cubes[stack[-1]].contains(cube):
            end[stack.pop()] = rank
        if stack:
            if cubes[stack[-1]] == cube:
                raise ValueError(f"duplicate cube {cube}")
            parent[i] = stack[-1]
        start[i] = rank
        stack.append(i)
    return parent, start, end


def _lca(a, b):
    """Smallest dyadic interval containing both intervals, or None when they lie
    on opposite sides of 0 and share no dyadic ancestor."""
    m = int(min(a.j, b.j))
    ka, kb = int(a.k[0]) >> (int(a.j) - m), int(b.k[0]) >> (int(b.j) - m)
    if (ka ^ kb) < 0:
        return None
    s = (ka ^ kb).bit_length()
    return Cube(m - s, (ka >> s,))


def virtual_tree(intervals):
    """The virtual tree of a set of distinct dyadic intervals: the intervals
    followed by the lowest common ancestor of each pair of Z-order neighbours
    not already among them. Every lowest common ancestor of a subset is a node.

    Returns (nodes, start, end): nodes[v] contains nodes[u] exactly when
    start[v] <= start[u] < end[v] (the Z-order span of the subtree of v).
    Raises NumericError when the common dyadic root lies below MIN_ROOT_LEVEL
    or does not exist.
    """
    if any(iv.d != 1 for iv in intervals):
        raise ValueError("virtual tree needs one-dimensional intervals")
    nodes = list(intervals)
    seen = set(nodes)
    order = _z_order(nodes)
    for a, b in zip(order, order[1:]):
        lca = _lca(nodes[a], nodes[b])
        if lca is None or lca.j < MIN_ROOT_LEVEL:
            raise NumericError("support too spread out for a common dyadic root")
        if lca not in seen:
            seen.add(lca)
            nodes.append(lca)
    _, start, end = cube_sweep(nodes)
    return nodes, np.array(start), np.array(end)


def rect_grid(rects):
    """Per-axis breakpoints of the refinement grid of dyadic rectangles, and per
    axis the cell bounds (lo, hi) of the rectangles: rectangle i covers the
    cells lo[i] <= c < hi[i] along that axis."""
    if any(r.d != rects[0].d for r in rects):
        raise ValueError("mixed rectangle dimensions")
    breaks, bounds = [], []
    for axis in range(rects[0].d):
        lohi = [r.intervals[axis].support()[0] for r in rects]
        breaks.append(np.array(sorted({x for pair in lohi for x in pair})))
        bounds.append(tuple(np.searchsorted(breaks[-1], lohi).T))
    return breaks, bounds
