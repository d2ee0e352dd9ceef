"""Left/right democracy functions: exhaustive scans over finite universes and
structured extremizer families, the half-subset stability check, and the
democracy functions induced on the approximation spaces."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .batch import batch_evaluator
from .errors import FeasibilityError, ParseError
from .greedy import aspace_norm
from .indices import Cube, Pair, Rect, interval
from .sequences import indicator
from .spaces import SpaceSpec, ambient_norm, element_norm

EXHAUSTIVE_CAP = 500_000
ORLICZ_LEVEL_RANGE = 61  # levels probed when optimizing the same-size family
PROPERTY_H_BAND = 4.0


# ---------------------------------------------------------------------------
# universes
# ---------------------------------------------------------------------------

@dataclass
class Universe:
    kind: str
    indices: list
    label: str = ""

    def __len__(self):
        return len(self.indices)


def default_universe(spec: SpaceSpec, size=None):
    """Finite surrogate index family per space universe.

    integers 1..64; cubes of levels 0..J in [0,1)^d with |U| <= 4096;
    intervals of [0,1) to depth 12; rectangles of [0,1)^2 with level sum <= 10;
    paired streams of 32 + 32. Dyadic universes run level by level
    (_cubes_at, _rects_at), the order the structured families slice.
    Cached per (universe kind, dimension, size); treat the returned index
    list as read-only.
    """
    uni = _default_universe_cached(spec.universe, spec.d, size)
    if not uni.indices:
        raise FeasibilityError(f"size {size} leaves the {spec.universe} universe empty")
    return uni


def _cubes_at(d, level, count=None):
    """The first `count` cubes of one level (the whole level by default), the
    first coordinate varying fastest."""
    size = 2 ** (level * d)
    count = size if count is None else count
    if count > size:
        raise FeasibilityError(f"cannot place {count} disjoint cubes at level {level}")
    mask, shifts = 2**level - 1, [level * i for i in range(d)]
    return [Cube(level, tuple([flat >> s & mask for s in shifts])) for flat in range(count)]


def _rects_at(total):
    """The rectangles of [0,1)^2 with level sum `total`, in (j1, k1, k2) order."""
    return [Rect((interval(j1, k1), interval(total - j1, k2)))
            for j1 in range(total + 1) for k1 in range(2**j1) for k2 in range(2 ** (total - j1))]


@lru_cache(maxsize=64)
def _default_universe_cached(kind, d, size):
    if kind == "integer":
        n = 64 if size is None else size
        return Universe(kind, list(range(1, n + 1)), f"integers 1..{n}")
    if kind == "pair":
        n = 32 if size is None else size
        idx = [Pair(0, k) for k in range(1, n + 1)] + [Pair(1, k) for k in range(1, n + 1)]
        return Universe(kind, idx, f"pair streams 1..{n}")
    if kind == "interval":
        depth = 12 if size is None else size
        idx = [c for j in range(depth + 1) for c in _cubes_at(1, j)]
        return Universe(kind, idx, f"intervals to depth {depth}")
    if kind == "cube":
        cap = 4096 if size is None else size
        idx, j = [], 0
        while len(idx) + 2 ** (j * d) <= cap:
            idx += _cubes_at(d, j)
            j += 1
        return Universe(kind, idx, f"cubes to level {j-1} in [0,1)^{d}")
    if kind == "rect":
        if d != 2:
            raise FeasibilityError("default rectangle universe is two-dimensional")
        cap = 10 if size is None else size
        idx = [r for total in range(cap + 1) for r in _rects_at(total)]
        return Universe(kind, idx, f"rectangles with level sum <= {cap}")
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# structured extremizer families
# ---------------------------------------------------------------------------

def structured_family(spec: SpaceSpec, N, family):
    """Index set of the named extremizer family at size N.

    Families (family_catalog lists each space's): same-size-disjoint,
    different-sizes, nested-tower, full-tree (the level-order prefix),
    level-optimized (Orlicz same-size at the ratio-maximizing level),
    fixed-size-rects (all rectangles of one size, sliced to N canonically),
    stream-a / stream-b / balanced (paired-stream universes).
    """
    catalog = family_catalog(spec)
    if family not in catalog:
        raise ParseError(
            f"family {family!r} not available for {spec.label()} (choose from {', '.join(catalog)})"
        )
    kind = spec.universe
    if kind == "integer":
        return list(range(1, N + 1))
    if kind == "pair":
        b = {"stream-a": 0, "stream-b": N, "balanced": N // 2}[family]
        return [Pair(0, k) for k in range(1, N - b + 1)] + [Pair(1, k) for k in range(1, b + 1)]
    if kind == "rect":
        if spec.d != 2:
            raise FeasibilityError("rectangle families are two-dimensional")
        if family == "fixed-size-rects":
            n = 0
            while (n + 1) * 2**n < N:  # (n + 1) 2^n rectangles have level sum n
                n += 1
            return _rects_at(n)[:N]
        return [Rect((c, interval(0, 0))) for c in _dyadic_family(spec, 1, N, family)]
    return _dyadic_family(spec, spec.d if kind == "cube" else 1, N, family)


def _dyadic_family(spec, d, N, family):
    """A cube family in [0,1)^d; rectangle families take its d = 1 form.
    level-optimized takes the first of levels 0..ORLICZ_LEVEL_RANGE-1 maximizing
    phi(N|Q|)/phi(|Q|), or the coarsest level holding N cubes if finer; log-type
    families (ulogu, powlog with g > 0) still gain at the last level and sit there."""
    if family == "different-sizes":
        return [Cube(i, (1,) + (0,) * (d - 1)) for i in range(1, N + 1)]
    if family == "nested-tower":
        return [Cube(i, (0,) * d) for i in range(N)]
    if family == "full-tree":
        out, j = [], 0
        while len(out) < N:
            out += _cubes_at(d, j, min(2 ** (j * d), N - len(out)))
            j += 1
        return out
    level = math.ceil(math.log2(max(N, 2)) / d)  # the coarsest level that holds N cubes
    if family == "level-optimized":
        phi = spec.orlicz.fundamental
        ratios = [phi(N * 2.0 ** (-lev * d)) / phi(2.0 ** (-lev * d))
                  for lev in range(ORLICZ_LEVEL_RANGE)]
        level = max(level, ratios.index(max(ratios)))
    return _cubes_at(d, level, N)


FAMILY_CATALOG = {
    "integer": ["same-size-disjoint"],
    "pair": ["stream-a", "stream-b", "balanced"],
    "cube": ["same-size-disjoint", "different-sizes", "nested-tower", "full-tree"],
    "interval": ["same-size-disjoint", "different-sizes", "nested-tower", "full-tree"],
    "rect": ["same-size-disjoint", "different-sizes", "fixed-size-rects"],
}


def family_catalog(spec: SpaceSpec):
    cat = list(FAMILY_CATALOG[spec.universe])
    if spec.tag == "orlicz":
        cat.append("level-optimized")
    return cat


def normalized_indicator_norm(spec, indices):
    """||sum_Gamma e_k/||e_k|| || for the index set Gamma."""
    return ambient_norm(spec, indicator(indices, spec.universe))


def h_structured(spec, N, family):
    """Democracy value of the canonical representative of a structured family."""
    return normalized_indicator_norm(spec, structured_family(spec, N, family))


def structured_values(spec, N):
    """family -> h_structured at N for each catalog family feasible at N;
    FeasibilityError when none is."""
    vals = {}
    for family in family_catalog(spec):
        try:
            vals[family] = h_structured(spec, N, family)
        except FeasibilityError:
            pass
    if not vals:
        raise FeasibilityError(f"no structured family of {spec.label()} feasible at N={N}")
    return vals


def _check_subset_count(universe, N):
    """FeasibilityError unless the universe holds N indices and at most
    EXHAUSTIVE_CAP subsets of size N."""
    if N > len(universe):
        raise FeasibilityError(f"N = {N} exceeds the universe size |U| = {len(universe)}")
    if (count := math.comb(len(universe), N)) > EXHAUSTIVE_CAP:
        raise FeasibilityError(f"C({len(universe)},{N}) = {count} subsets exceeds the "
                               "exhaustive cap; use structured families")


def h_exhaustive(spec, universe: Universe, N):
    """Exact min/max of the normalized indicator norm over all size-N subsets.

    Returns (h_ell, h_r, argmin set, argmax set); the argument sets are the
    first extremizers in the universe's combination order.
    """
    _check_subset_count(universe, N)
    idx = universe.indices
    vals = [1.0 / element_norm(spec, i) for i in idx]
    h_ell, h_r, arg_min, arg_max = batch_evaluator(spec, idx, vals).subset_extrema(N)
    return h_ell, h_r, [idx[i] for i in arg_min], [idx[i] for i in arg_max]


@dataclass
class DemocracyRow:
    N: int
    h_ell: float
    h_r: float
    method: str  # exhaustive | structured
    bound_direction: str
    attaining: dict = field(default_factory=dict)


@dataclass
class DemocracyProfile:
    spec_label: str
    rho: float
    rows: list
    checks: dict = field(default_factory=dict)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])


def democracy_profile(spec, N_list, strategy="auto", universe=None):
    """Democracy functions over N_list with structural checks.

    strategy: exhaustive | structured | auto (exhaustive where the subset count
    permits and the batch evaluator over the universe can be built; otherwise
    structured). Exhaustive rows are exact over the finite universe;
    structured rows bound h_ell from above and h_r from below.
    """
    if strategy not in ("auto", "exhaustive", "structured"):
        raise ParseError(f"unknown strategy {strategy!r} (auto, exhaustive or structured)")
    rows = []
    if universe is None and strategy != "structured":
        universe = default_universe(spec)
    for N in N_list:
        use_exh = strategy == "exhaustive" or (
            strategy == "auto"
            and universe is not None
            and N <= len(universe)
            and math.comb(len(universe), N) <= EXHAUSTIVE_CAP
        )
        if use_exh:
            try:
                h_ell, h_r, arg_min, arg_max = h_exhaustive(spec, universe, N)
            except FeasibilityError:
                # the subset count fits, so the evaluator could not be built
                # (e.g. a square-function incidence past its cap)
                if strategy == "exhaustive":
                    raise
                use_exh = False
        if use_exh:
            rows.append(
                DemocracyRow(
                    N, h_ell, h_r, "exhaustive", "exact-on-universe",
                    {"min": arg_min, "max": arg_max},
                )
            )
        else:
            vals = structured_values(spec, N)
            fmin = min(vals, key=vals.get)
            fmax = max(vals, key=vals.get)
            rows.append(
                DemocracyRow(
                    N, vals[fmin], vals[fmax], "structured",
                    "h_ell:upper,h_r:lower",
                    {"min": fmin, "max": fmax, "values": vals},
                )
            )
    prof = DemocracyProfile(spec.label(), spec.rho, rows)
    prof.checks = _structure_checks(prof)
    return prof


def _structure_checks(prof: DemocracyProfile):
    Ns = prof.column("N")
    he = prof.column("h_ell")
    hr = prof.column("h_r")
    rho = prof.rho
    bounds_ok = bool(np.all((1.0 - 1e-9 <= he) & (he <= hr * (1 + 1e-12)))
                     and np.all(hr <= Ns ** (1.0 / rho) * (1 + 1e-9)))
    exact = np.array([r.method == "exhaustive" for r in prof.rows])
    mono_ok = True
    if exact.any():
        idx = np.nonzero(exact)[0]
        mono_ok = bool(
            np.all(np.diff(he[idx]) >= -1e-9) and np.all(np.diff(hr[idx]) >= -1e-9)
        )
    doubling = []
    for i, N in enumerate(Ns):
        j = np.nonzero(Ns == 2 * N)[0]
        if len(j):
            doubling.append(hr[j[0]] / hr[i])
    step = []
    for i, N in enumerate(Ns):
        j = np.nonzero(Ns == N + 1)[0]
        if len(j):
            step.append(he[j[0]] / he[i])
    return {
        "bounds_ok": bounds_ok,
        "monotone_ok": mono_ok,
        "h_r_doubling_constant": max(doubling) if doubling else None,
        "h_ell_step_constant": max(step) if step else None,
    }


# ---------------------------------------------------------------------------
# half-subset stability (the extremizer-family robustness check)
# ---------------------------------------------------------------------------

def default_stable_family(spec, n):
    """The family used for the half-subset check at size 2^n, following the
    extremizer structure of each space."""
    family = {"orlicz": "level-optimized", "hyp": "fixed-size-rects", "lplq": "stream-a"}.get(
        spec.tag, "same-size-disjoint")
    if spec.tag == "lpq" and spec.p > spec.q:
        family = "different-sizes"
    return structured_family(spec, 2**n, family)


def property_h_check(spec, n, gamma_set=None, samples=200, rng=None):
    """Evaluate normalized indicator norms over half-subsets of a size-2^n set.

    Passes when the spread max/min over tested half-subsets is within
    PROPERTY_H_BAND. Also reports the ratio band against the structured
    right-democracy estimate at 2^(n-1).
    """
    rng = rng or np.random.default_rng(0)
    gamma_set = gamma_set if gamma_set is not None else default_stable_family(spec, n)
    size = len(gamma_set)
    if size % 2:
        raise ParseError("the tested set must have even size")
    half = size // 2
    subsets = [gamma_set[:half], gamma_set[half:], gamma_set[::2]]
    total = math.comb(size, half)
    if total <= samples:
        subsets = [list(c) for c in combinations(gamma_set, half)]
    else:
        for _ in range(samples):
            pick = rng.choice(size, size=half, replace=False)
            subsets.append([gamma_set[i] for i in sorted(pick)])
    vals = np.array([normalized_indicator_norm(spec, s) for s in subsets])
    href = max(structured_values(spec, half).values())
    spread = float(vals.max() / vals.min())
    return {
        "n": n,
        "set_size": size,
        "tested": len(subsets),
        "min": float(vals.min()),
        "max": float(vals.max()),
        "spread": spread,
        "h_r_reference": href,
        "ratio_to_reference": [float(vals.min() / href), float(vals.max() / href)],
        "passed": spread <= PROPERTY_H_BAND,
        "values": vals.tolist(),
    }


# ---------------------------------------------------------------------------
# democracy functions of the approximation spaces
# ---------------------------------------------------------------------------

def induced_h(spec, alpha, q, mode, universe: Universe, N):
    """Min/max over |Gamma| = N of the approximation-space quasi-norm of the
    normalized indicator (sigma-built for mode "aspace", gamma-built for
    mode "gclass")."""
    if mode not in ("aspace", "gclass"):
        raise ParseError("mode must be aspace or gclass")
    _check_subset_count(universe, N)
    kind = "sigma" if mode == "aspace" else "gamma"
    best_min, best_max = math.inf, -math.inf
    for kept in combinations(universe.indices, N):
        seq = indicator(kept, spec.universe)
        val = aspace_norm(seq, alpha, q, spec, error_kind=kind)
        best_min = min(best_min, val)
        best_max = max(best_max, val)
    return best_min, best_max
