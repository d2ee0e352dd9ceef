"""Admissible weight sequences and their finite-range classification.

A weight is a positive nondecreasing sequence eta(k), k >= 1. The admissible
class requires eta nondecreasing, unbounded and doubling; the strict subclass
additionally has sup_k eta(k)/eta(m*k) < 1 for some integer m > 1, which is
equivalent to a positive lower dilation index. All suprema are replaced by
maxima over 1 <= k <= K for a documented range cap K.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, NumericError, ParseError, finite

DEFAULT_RANGE_CAP = 10**6
DILATION_M_MAX = 16
# A kappa certificate requires the range max of eta(k)/eta(kappa k) to stay
# below 1 - margin. A slowly varying weight (whose true sup is 1) reaches
# 1 - ln(kappa)/ln(K) at range cap K, so the margin must scale the same way;
# the factor 1.5 keeps such weights out while admitting genuine power growth
# k^a down to a of order 1/ln K.
MARGIN_FACTOR = 1.5
MARGIN_FLOOR = 1e-3


def strict_margin(m, K):
    return max(MARGIN_FLOOR, MARGIN_FACTOR * math.log(m) / math.log(max(K, 3)))


class Weight:
    """Evaluable weight sequence eta(k) = k^a log^b(k+1), times table[k-1] when
    a table is given (table weights are defined for k up to its length)."""

    def __init__(self, a=0.0, b=0.0, table=None):
        self.a, self.b = a, b
        self.table = None if table is None else np.asarray(table, dtype=float)
        if self.table is not None:
            if len(self.table) == 0:
                raise ParseError("table weight needs at least one value")
            if np.any(self.table <= 0):
                raise ParseError("table weight values must be positive")

    @classmethod
    def power_log(cls, a, b=0.0):
        return cls(a, b)

    @classmethod
    def from_table(cls, values):
        return cls(table=values)

    def scaled(self, alpha):
        """The weight k^alpha * eta(k)."""
        return Weight(self.a + alpha, self.b, self.table)

    @property
    def range_limit(self):
        """Largest k this weight can be evaluated at (None if unlimited)."""
        return None if self.table is None else len(self.table)

    def __call__(self, k):
        """Evaluate eta at integer k >= 1 (scalar or array)."""
        karr = np.asarray(k, dtype=float)
        if np.any(karr < 1):
            raise ValueError("weights are defined for k >= 1")
        out = karr**self.a * np.log(karr + 1.0) ** self.b
        if self.table is not None:
            ki = np.asarray(k, dtype=np.int64)
            if np.any(ki > len(self.table)):
                raise FeasibilityError(f"weight range too short: table weight of length "
                                       f"{len(self.table)} queried at k = {int(np.max(ki))}")
            out = out * self.table[ki - 1]
        return float(out) if np.ndim(k) == 0 else out

    def label(self):
        power = f"pow:{self.a:g},{self.b:g}"
        if self.table is None:
            return power
        table = f"table[{len(self.table)}]"
        return table if self.a == self.b == 0 else f"{power}*{table}"

    def __repr__(self):
        return f"Weight({self.label()})"


def parse_weight(text):
    """Parse "pow:a,b" or "pow:a" (k^a log^b(k+1)) or "table:<path>" (one value
    per line); every number must be finite."""
    head, _, rest = text.partition(":")
    if head == "pow":
        parts = rest.split(",")
        if len(parts) > 2:
            raise ParseError(f"weight {text!r} takes pow:a or pow:a,b")
        return Weight.power_log(*(finite(x, name) for name, x in zip("ab", parts)))
    if head == "table":
        try:
            with open(rest) as fh:
                lines = [line.strip() for line in fh if line.strip()]
        except (OSError, ValueError) as exc:  # ValueError: not text
            raise ParseError(f"cannot parse weight {text!r}: {exc}") from exc
        return Weight.from_table([finite(line, "table value") for line in lines])
    raise ParseError(f"unknown weight form {text!r} (expected pow:a,b or table:path)")


def _effective_cap(w, cap, m=1):
    lim = w.range_limit
    if lim is not None:
        cap = min(cap, lim // m)
    if cap < 1:
        raise FeasibilityError("weight range too short for requested evaluation")
    return cap


def ratio_sup(w, m, K=DEFAULT_RANGE_CAP):
    """max over 1 <= k <= K of eta(k)/eta(m k): finite-range surrogate of the
    dilation ratio supremum; always <= 1 for nondecreasing eta."""
    if m < 2:
        raise ValueError("m must be >= 2")
    K = _effective_cap(w, K, m)
    k = np.arange(1, K + 1, dtype=np.int64)
    return float(np.max(w(k) / w(m * k)))


def _ratio_sups(w, K):
    """m -> ratio_sup(w, m, K) for 2 <= m <= DILATION_M_MAX, with m at most the
    weight's range limit (ratio_sup reads eta at m k)."""
    lim = w.range_limit
    top = DILATION_M_MAX if lim is None else min(DILATION_M_MAX, lim)
    return {m: ratio_sup(w, m, K) for m in range(2, top + 1)}


def _dilation_index(ratios):
    return max([math.log(r) / (-math.log(m)) for m, r in ratios.items()] + [0.0])


def lower_dilation_index(w, K=DEFAULT_RANGE_CAP):
    """max over 2 <= m <= DILATION_M_MAX (and m within the weight's range) of
    log ratio_sup(m) / (-log m), at least 0."""
    return _dilation_index(_ratio_sups(w, K))


@dataclass
class Classification:
    """Finite-range certificate for a weight."""

    doubling_constant: float
    ratio_table: dict  # m -> max_k eta(k)/eta(mk)
    dilation_index: float
    kappa: int | None  # smallest integer > 1 with ratio_sup(kappa) < 1 - margin
    range_cap: int

    @property
    def positive_dilation(self):
        """True when some kappa certifies a strictly positive dilation index."""
        return self.kappa is not None


def classify(w, K=DEFAULT_RANGE_CAP):
    """Classify a weight on the range 1..K.

    Raises NumericError naming the first violation if the weight is not
    nondecreasing on the evaluated range.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    Keff = _effective_cap(w, K)
    vals = w(np.arange(1, Keff + 1, dtype=np.int64))
    bad = np.nonzero(np.diff(vals) < 0)[0]
    if len(bad):
        k = int(bad[0]) + 1
        raise NumericError(
            f"weight not nondecreasing on range: eta({k})={vals[k-1]:g} > "
            f"eta({k+1})={vals[k]:g}"
        )
    half = Keff // 2
    doubling = float(np.max(vals[2 * np.arange(1, half + 1) - 1] / vals[: half])) if half else 1.0
    ratios = _ratio_sups(w, Keff)
    return Classification(
        doubling_constant=doubling,
        ratio_table={m: ratios[m] for m in (2, 3, 4, 8, 16) if m in ratios},
        dilation_index=_dilation_index(ratios),
        kappa=next((m for m, r in ratios.items() if r < 1.0 - strict_margin(m, Keff)), None),
        range_cap=Keff,
    )


def geometric_sum_check(w, kappa, n_max):
    """max over 0 <= n <= n_max of sum_{j<=n} eta(kappa^j) / eta(kappa^n).

    For weights with a certified kappa this stabilizes below 1/(1 - ratio);
    for slowly varying weights it grows with n, which is reported as-is.
    Returns (best_constant, per_n_values).
    """
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    if kappa**n_max > 2**62:
        raise NumericError("kappa**n_max exceeds integer range")
    lim = w.range_limit
    if lim is not None and kappa**n_max > lim:
        raise NumericError("kappa**n_max beyond table range")
    powers = kappa ** np.arange(0, n_max + 1, dtype=np.int64)
    vals = w(powers)
    ratios = np.cumsum(vals) / vals
    return float(np.max(ratios)), ratios
