import itertools
import math

import numpy as np

from nterm import _kernels


def test_subset_sums_against_direct_enumeration(rng):
    for _ in range(20):
        n = int(rng.integers(0, 11))
        vals = rng.standard_normal(n)
        sums = _kernels.subset_sums(np.ascontiguousarray(vals))
        assert len(sums) == 2**n
        for mask in range(2**n):
            direct = sum(vals[b] for b in range(n) if mask >> b & 1)
            assert math.isclose(sums[mask], direct, rel_tol=1e-12, abs_tol=1e-12)


def test_extrema_by_popcount(rng):
    n = 9
    vals = rng.standard_normal(n)
    sums = _kernels.subset_sums(np.ascontiguousarray(vals))
    mins, maxs = _kernels.extrema_by_popcount(sums, n)
    for k in range(n + 1):
        best = [sum(vals[list(c)]) for c in itertools.combinations(range(n), k)]
        assert math.isclose(mins[k], min(best), rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(maxs[k], max(best), rel_tol=1e-12, abs_tol=1e-12)
