import math

import numpy as np
import pytest

from conftest import ALL_SPACE_LABELS
from nterm import greedy
from nterm.errors import FeasibilityError, NumericError
from nterm.experiments import canonical_indices
from nterm.greedy import (
    aspace_norm,
    gamma_n,
    gamma_profile,
    greedy_sets,
    sigma_n_exact,
    sigma_n_upper,
    sigma_profile,
)
from nterm.indices import Cube
from nterm.sequences import Sequence, indicator
from nterm.spaces import ambient_norm, parse_space

L1 = parse_space("lp:1")
L2 = parse_space("lp:2")


def test_greedy_sets_examples():
    s = Sequence({1: 3.0, 2: 2.0, 3: 1.0})
    sets, exact = greedy_sets(s, 2)
    assert sets == [frozenset({1, 2})] and exact

    tied = Sequence({1: 2.0, 2: 2.0, 3: 2.0})
    sets, exact = greedy_sets(tied, 1)
    assert sorted(map(sorted, sets)) == [[1], [2], [3]] and exact

    s = Sequence({1: 3.0, 2: 2.0, 3: 2.0, 4: 1.0})
    sets, _ = greedy_sets(s, 2)
    assert sorted(map(sorted, sets)) == [[1, 2], [1, 3]]


def test_greedy_sets_match_ordering_enumeration(rng):
    # oracle: first-N prefixes over all magnitude-nonincreasing orderings
    import itertools

    for _ in range(20):
        n = int(rng.integers(1, 7))
        vals = rng.choice([1.0, 2.0, 3.0], size=n)
        s = Sequence(dict(enumerate(vals, start=1)))
        for N in range(n + 1):
            want = set()
            for perm in itertools.permutations(range(1, n + 1)):
                mags = [abs(s.entries[i]) for i in perm]
                if all(mags[i] >= mags[i + 1] for i in range(n - 1)):
                    want.add(frozenset(perm[:N]))
            got, exact = greedy_sets(s, N)
            assert exact and set(got) == want


def test_greedy_sets_sampled_beyond_cap():
    s = Sequence({k: 1.0 for k in range(1, 40)})
    sets, exact = greedy_sets(s, 19)
    assert not exact
    assert len(sets) <= 10_000
    assert all(len(x) == 19 for x in sets)


def test_gamma_examples():
    assert gamma_n(Sequence({1: 1.0}), 1, L2).value == 0.0
    s = Sequence({1: 3.0, 2: 2.0, 3: 1.0})
    assert gamma_n(s, 1, L2).value == pytest.approx(math.sqrt(5))


def test_gamma_two_block_witness(any_space):
    # doubled-coefficient construction: the greedy error at the block size is
    # exactly the norm of the unit-coefficient block
    from nterm.experiments import canonical_indices

    spec = any_space
    N = 3
    idx = canonical_indices(spec, 2 * N)
    ones, twos = idx[:N], idx[N:]
    x = Sequence(
        {**{i: 1.0 for i in ones}, **{i: 2.0 for i in twos}}, spec.universe
    )
    from nterm.spaces import ambient_norm

    want = ambient_norm(spec, Sequence({i: 1.0 for i in ones}, spec.universe))
    assert gamma_n(x, N, spec).value == pytest.approx(want, rel=1e-10)


def test_sigma_examples():
    e1 = Sequence({1: 1.0})
    assert sigma_n_exact(e1, 0, L2).value == 1.0  # sigma_0 = ||x||
    s = Sequence({1: 3.0, 2: 2.0, 3: 1.0})
    assert sigma_n_exact(s, 1, L2).value == pytest.approx(math.sqrt(5))
    assert sigma_n_exact(Sequence({1: 1.0, 2: 1.0}), 1, L1).value == 1.0
    assert sigma_n_upper(e1, 1, L2).value == 0.0
    s = Sequence({1: 3.0, 2: 2.0, 3: 2.0, 4: 1.0})
    assert sigma_n_upper(s, 2, L1).value == 3.0


def test_sigma_cap_error():
    s = Sequence({k: float(k) for k in range(1, 40)})
    with pytest.raises(FeasibilityError, match="sigma_n_upper"):
        sigma_n_exact(s, 19, L2)


def test_greedy_optimality_in_lp(rng):
    for _ in range(60):
        n = int(rng.integers(1, 13))
        seq = Sequence(dict(zip(range(1, n + 1), rng.standard_normal(n) * 3)))
        for p in (1.0, 1.5, 2.0):
            spec = parse_space(f"lp:{p}")
            for N in range(n + 1):
                assert sigma_n_exact(seq, N, spec).value == sigma_n_upper(seq, N, spec).value


def test_sigma_le_gamma_all_spaces(any_space, rng):
    from nterm.experiments import canonical_indices

    spec = any_space
    for _ in range(5):
        n = int(rng.integers(1, 10))
        seq = Sequence(
            dict(zip(canonical_indices(spec, n), rng.standard_normal(n) * 2)),
            spec.universe,
        )
        sp = sigma_profile(seq, spec)
        gp = gamma_profile(seq, spec)
        assert np.all(sp.values <= gp.values * (1 + 1e-12) + 1e-15)
        assert np.all(np.diff(sp.values) <= 1e-12)
        assert np.all(np.diff(gp.values) <= 1e-12)
        assert sp.values[-1] == 0.0 and gp.values[-1] == 0.0


def _spread_sequence(spec, n, rng):
    idx = canonical_indices(spec, n)
    vals = rng.uniform(0.05, 4.0, n) * rng.choice([-1.0, 1.0], n)
    return Sequence(dict(zip(idx, vals)), spec.universe)


def test_kernel_profile_matches_enumeration(rng):
    # the one-sweep profile against the per-N exhaustive scan in every space:
    # bitwise, except l^p, whose kernel adds the p-th powers in magnitude order
    # where the scan adds them in canonical index order
    for label in ALL_SPACE_LABELS:
        spec = parse_space(label)
        for n in range(1, 12):
            seq = _spread_sequence(spec, n, rng)
            prof = sigma_profile(seq, spec, method="exact")
            want = [sigma_n_exact(seq, N, spec).value for N in range(n)] + [0.0]
            if spec.tag == "lp":
                assert prof.values == pytest.approx(want, rel=1e-12)
            else:
                assert prof.values.tolist() == want, (label, n)


def test_sweep_matches_scan_across_mask_blocks():
    # C(19, 9) = 92,378 kept sets span two MASK_CHUNK blocks, and a matmul row
    # can move by an ulp with its offset in the block, so each popcount class
    # must be cut into the per-N scan's blocks. With OpenBLAS, a sweep that
    # reorders the masks of a class fails on the first input, and one that
    # mixes popcounts in a block fails on the second
    for label, seed in (("fpr:0,2,2,1", 3), ("fpr:0.3,2,1.5,1", 1)):
        spec = parse_space(label)
        seq = _spread_sequence(spec, 19, np.random.default_rng(seed))
        prof = sigma_profile(seq, spec, method="exact")
        want = [sigma_n_exact(seq, N, spec).value for N in range(19)] + [0.0]
        assert prof.values.tolist() == want, label


@pytest.mark.parametrize("label", ["lp:2", "lplq:2,1"])
def test_sigma_profile_feasibility_rule(monkeypatch, rng, label):
    # exact refuses when some C(n, N) exceeds the cap; auto sweeps while
    # 2^n <= 2 * cap, in l^p as in every other space
    spec = parse_space(label)
    cap = 20
    monkeypatch.setattr(greedy, "SUBSET_CAP", cap)
    for n in range(1, 10):
        seq = _spread_sequence(spec, n, rng)
        if max(math.comb(n, N) for N in range(n)) > cap:
            with pytest.raises(FeasibilityError, match="method='greedy'"):
                sigma_profile(seq, spec, method="exact")
        else:
            assert sigma_profile(seq, spec, method="exact").flags == ["exact"] * (n + 1)
        auto = sigma_profile(seq, spec).flags[:n]
        assert set(auto) == ({"exact"} if 2**n <= 2 * cap else {"greedy"}), n


def _tower(gap):
    return Sequence({Cube(gap * i, (0,)): 1.0 + 0.1 * i for i in range(6)}, "cube")


def test_gap120_tower_is_finite_in_every_engine():
    # levels 0..600: the batch inner sums stay in linear float range and the
    # L^{p,q} outer norm runs in log scale, so every engine agrees with the
    # scalar path
    spec = parse_space("lpq:2,4")
    seq = _tower(120)
    sigma = sigma_profile(seq, spec, method="exact").values
    gamma = gamma_profile(seq, spec).values
    assert np.all(np.isfinite(sigma)) and np.all(np.isfinite(gamma))
    assert np.isfinite(float(sigma_n_exact(seq, 2, spec)))
    ambient = ambient_norm(spec, seq)
    assert gamma[0] == pytest.approx(ambient, rel=1e-12)
    assert sigma[0] == pytest.approx(ambient, rel=1e-12)


def test_deep_tower_raises_in_every_engine():
    # levels 0..1250: the r-th power weights 2^j of _cube_incidence overflow, so
    # every batch engine raises a typed error while the log-scale scalar path
    # stays finite
    spec = parse_space("lpq:2,4")
    seq = _tower(250)
    assert math.isfinite(ambient_norm(spec, seq))
    for run in (
        lambda: sigma_profile(seq, spec, method="exact"),
        lambda: gamma_profile(seq, spec),
        lambda: sigma_n_exact(seq, 2, spec),
    ):
        with pytest.raises(NumericError, match="non-finite"):
            run()


def test_profile_flags_greedy_on_large_support(rng):
    seq = Sequence(dict(zip(range(1, 40), rng.standard_normal(39))))
    prof = sigma_profile(seq, parse_space("lp:1.3"))
    assert "greedy" in prof.flags


def test_aspace_examples():
    e1 = Sequence({1: 1.0})
    for spec in (L1, L2):
        assert aspace_norm(e1, 1.0, math.inf, spec) == 1.0
        assert aspace_norm(e1, 0.5, 2.0, spec) == 1.0
    s = Sequence({1: 1.0, 2: 1.0})
    assert aspace_norm(s, 1.0, math.inf, L1) == pytest.approx(3.0)


def test_aspace_parameter_validation():
    with pytest.raises(ValueError):
        aspace_norm(Sequence({1: 1.0}), -1.0, 2.0, L2)
    with pytest.raises(ValueError):
        aspace_norm(Sequence({1: 1.0}), 1.0, 0.0, L2)


def test_aspace_dyadic_full_band(rng):
    ratios = []
    for _ in range(30):
        n = int(rng.integers(2, 20))
        seq = Sequence(dict(zip(range(1, n + 1), rng.standard_normal(n))))
        full = aspace_norm(seq, 0.5, 1.0, L2, form="full")
        dyad = aspace_norm(seq, 0.5, 1.0, L2, form="dyadic")
        ratios.append(dyad / full)
    assert max(ratios) / min(ratios) < 4.0


def test_trivial_bernstein_stability(rng):
    # ||x||_{G} <= C N^alpha ||x|| on N-sparse x with stable measured C
    alpha, q = 0.7, 2.0
    worst = {}
    for N in (4, 8, 16, 32):
        best = 0.0
        for _ in range(10):
            vals = np.abs(rng.standard_normal(N)) + 0.05
            x = Sequence(dict(enumerate(vals, start=1)))
            ratio = aspace_norm(x, alpha, q, L2, error_kind="gamma") / (
                N**alpha * math.sqrt((vals**2).sum())
            )
            best = max(best, ratio)
        worst[N] = best
    vals = list(worst.values())
    assert max(vals) / min(vals) < 3.0


def test_stechkin_identity_band(rng):
    # A-norm comparable to the classical Lorentz norm with 1/tau = alpha + 1/2
    from nterm.lorentz import lorentz_norm
    from nterm.weights import Weight

    alpha, q = 0.5, 1.0
    w = Weight.power_log(alpha + 0.5)
    ratios = []
    for _ in range(40):
        n = int(rng.integers(2, 30))
        vals = np.abs(rng.standard_normal(n)) + 1e-6
        x = Sequence(dict(enumerate(vals, start=1)))
        ratios.append(aspace_norm(x, alpha, q, L2) / lorentz_norm(x, w, q))
    assert max(ratios) / min(ratios) < 10.0


def test_gamma_profile_indicator_cube_space():
    # gamma of a normalized indicator of nested cubes is exact and decreasing
    spec = parse_space("fpr:0,2,2,1")
    seq = indicator([Cube(j, (0,)) for j in range(6)], "cube")
    prof = gamma_profile(seq, spec)
    assert prof.values[-1] == 0.0
    assert all(f in ("exact", "sampled") for f in prof.flags)
