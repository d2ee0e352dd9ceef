import functools
import itertools
import math
import operator

import numpy as np

from nterm import _kernels


def test_subset_sums_against_direct_enumeration(rng):
    # bitwise: entry m adds vals[b] over the bits of m left to right, lowest first
    for _ in range(20):
        n = int(rng.integers(0, 11))
        vals = rng.standard_normal(n)
        sums = _kernels.subset_sums(np.ascontiguousarray(vals))
        assert len(sums) == 2**n
        for mask in range(2**n):
            direct = functools.reduce(
                operator.add, [vals[b] for b in range(n) if mask >> b & 1], 0.0)
            assert sums[mask] == direct


def test_extrema_by_popcount(rng):
    n = 9
    vals = rng.standard_normal(n)
    sums = _kernels.subset_sums(np.ascontiguousarray(vals))
    mins, maxs = _kernels.extrema_by_popcount(sums, n)
    for k in range(n + 1):
        best = [sum(vals[list(c)]) for c in itertools.combinations(range(n), k)]
        assert math.isclose(mins[k], min(best), rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(maxs[k], max(best), rel_tol=1e-12, abs_tol=1e-12)
