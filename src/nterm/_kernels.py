"""Numpy kernels over all 2^n bitmasks of n elements, for the exact l^p sweep
only: the subset sums that give every l^p residual's p-th power sum, and the
per-popcount reduction that turns that table into every sigma_N at once."""
import numpy as np

BACKEND = "python"  # the only backend; perfbench/worker.py records it


def subset_sums(vals):
    """Sums of vals over all bitmask subsets; entry m = sum of vals[b] for bits b
    of m, with bit b added after all lower bits."""
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    n = len(vals)
    if n > 26:
        raise ValueError("subset_sums limited to 26 elements")
    out = np.zeros(1 << n)
    for b in range(n):  # masks with top bit b extend those below 2^b
        out[1 << b : 2 << b] = out[: 1 << b] + vals[b]
    return out


def extrema_by_popcount(sums, n):
    """Min and max of sums[m] grouped by popcount(m), for masks over n bits."""
    sums = np.asarray(sums, dtype=np.float64)
    if sums.shape[0] != (1 << n):
        raise ValueError("sums length must be 2**n")
    pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))  # uint8
    mins = np.full(n + 1, np.inf)
    maxs = np.full(n + 1, -np.inf)
    np.minimum.at(mins, pc, sums)
    np.maximum.at(maxs, pc, sums)
    return mins, maxs
