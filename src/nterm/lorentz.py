"""Weighted discrete Lorentz quasi-norms on decreasing rearrangements.

With eta(k) = k^(1/tau) these reduce to the classical Lorentz sequence
quasi-norms l^{tau,q}. The same weighted l^q sum (weighted_lq) gives the tail
of the approximation-space quasi-norms over an error profile.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .sequences import Sequence, rearrange
from .weights import Weight, classify


def weighted_lq(vals, w: Weight, q, kappa=None):
    """[sum_{k=1}^n (w(k) v_k)^q / k]^(1/q) over the n = len(vals) entries; with
    an integer kappa >= 2 the dyadic form [sum_{kappa^j <= n} (w(kappa^j)
    v_{kappa^j})^q]^(1/q); the sup of the terms for q = inf.

    The finite-q sum is accumulated exactly (fsum), term by term, since terms
    can span many decades.
    """
    if not q > 0:
        raise ValueError("q must be positive")
    if kappa is not None and not (isinstance(kappa, numbers.Integral) and kappa >= 2):
        raise ValueError("kappa must be an integer >= 2")
    n = len(vals)
    if kappa is None:
        k = den = np.arange(1, n + 1)
    else:
        k = np.array([kappa**j for j in range(n.bit_length()) if kappa**j <= n], dtype=int)
        den = np.ones_like(k)
    terms = w(k) * vals[k - 1]
    if math.isinf(q):
        return float(np.max(terms, initial=0.0))
    return math.fsum(t**q / d for t, d in zip(terms, den)) ** (1.0 / q)


def lorentz_norm(seq: Sequence, w: Weight, q):
    """[sum_k (eta(k) s*_k)^q / k]^(1/q) over the support; sup form for q = inf."""
    return weighted_lq(rearrange(seq).values, w, q)


def lorentz_norm_dyadic(seq: Sequence, w: Weight, q, kappa=2):
    """[sum_{j>=0} (eta(kappa^j) s*_{kappa^j})^q]^(1/q), truncated at the support."""
    return weighted_lq(rearrange(seq).values, w, q, kappa)


def fundamental_function_check(w: Weight, q, N_list):
    """Ratios ||1_Gamma||_{l^q_eta} / eta(N) for |Gamma| = N in N_list.

    For q = inf the ratio is exactly 1. For finite q the ratio sits in a
    bounded band provided the weight has a certified positive dilation index;
    rows are flagged when that certificate is absent.
    """
    warn = not math.isinf(q) and not classify(w, K=min(10**5, max(N_list) * 16)).positive_dilation
    return [{"N": N, "ratio": weighted_lq(np.ones(N), w, q) / w(N), "weight_warning": warn}
            for N in N_list]
