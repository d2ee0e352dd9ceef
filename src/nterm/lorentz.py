"""Weighted discrete Lorentz quasi-norms on decreasing rearrangements.

With eta(k) = k^(1/tau) these reduce to the classical Lorentz sequence
quasi-norms l^{tau,q}.
"""
from __future__ import annotations

import math

import numpy as np

from .sequences import Sequence, rearrange
from .weights import Weight, classify


def lorentz_norm(seq: Sequence, w: Weight, q):
    """[sum_k (eta(k) s*_k)^q / k]^(1/q) over the support; sup form for q = inf.

    The finite-q sum runs in magnitude-descending order with exact (fsum)
    accumulation since terms can span many decades.
    """
    if not q > 0:
        raise ValueError("q must be positive")
    vals = rearrange(seq).values
    n = len(vals)
    if n == 0:
        return 0.0
    k = np.arange(1, n + 1)
    terms = w(k) * vals
    if math.isinf(q):
        return float(np.max(terms))
    return math.fsum(t**q / kk for t, kk in zip(terms, k)) ** (1.0 / q)


def lorentz_norm_dyadic(seq: Sequence, w: Weight, q, kappa=2):
    """[sum_{j>=0} (eta(kappa^j) s*_{kappa^j})^q]^(1/q), truncated at the support."""
    if not q > 0:
        raise ValueError("q must be positive")
    if kappa < 2:
        raise ValueError("kappa must be an integer >= 2")
    vals = rearrange(seq).values
    n = len(vals)
    if n == 0:
        return 0.0
    ks = []
    kj = 1
    while kj <= n:
        ks.append(kj)
        kj *= kappa
    terms = [w(k) * vals[k - 1] for k in ks]
    if math.isinf(q):
        return max(terms)
    return math.fsum(t**q for t in terms) ** (1.0 / q)


def fundamental_function_check(w: Weight, q, N_list):
    """Ratios ||1_Gamma||_{l^q_eta} / eta(N) for |Gamma| = N in N_list.

    For q = inf the ratio is exactly 1. For finite q the ratio sits in a
    bounded band provided the weight has a certified positive dilation index;
    rows are flagged when that certificate is absent.
    """
    warn = False
    if not math.isinf(q):
        cls = classify(w, K=min(10**5, max(N_list) * 16))
        warn = not cls.positive_dilation
    rows = []
    for N in N_list:
        seq = Sequence({k: 1.0 for k in range(1, N + 1)}, "integer")
        ratio = lorentz_norm(seq, w, q) / w(N)
        rows.append({"N": N, "ratio": ratio, "weight_warning": warn})
    return rows
