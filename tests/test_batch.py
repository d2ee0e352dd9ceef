import itertools

import numpy as np
import pytest

from nterm.batch import batch_evaluator
from nterm.democracy import default_universe, h_exhaustive, normalized_indicator_norm
from nterm.errors import NumericError
from nterm.experiments import canonical_indices
from nterm.greedy import sigma_n_exact
from nterm.indices import Cube
from nterm.sequences import Sequence, indicator
from nterm.spaces import ambient_norm, parse_space, space_norm

# small default universes: 8 integers, 4+4 pairs, 15 cubes or intervals, 17 rectangles
SCAN_SIZE = {"integer": 8, "pair": 4, "cube": 16, "interval": 3, "rect": 2}


def test_batch_matches_scalar_on_random_subsets(any_space, rng):
    spec = any_space
    n = 9
    idx = canonical_indices(spec, n)
    vals = rng.uniform(0.05, 4.0, n)
    ev = batch_evaluator(spec, idx, vals)
    vmap = dict(zip(idx, vals))
    masks = rng.integers(0, 2, size=(40, n)).astype(float)
    got = ev.norms(masks)
    for row, g in zip(masks, got):
        sub = Sequence(
            {ev.indices[i]: vmap[ev.indices[i]] for i in range(n) if row[i]},
            spec.universe,
        )
        want = space_norm(spec, sub)
        assert g == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_batch_column_order_is_canonical(rng):
    spec = parse_space("lp:2")
    idx = [3, 1, 2]
    ev = batch_evaluator(spec, idx, [1.0, 2.0, 3.0])
    assert ev.indices == [1, 2, 3]
    # the value follows its index: the row selecting index 1 has norm 2
    assert ev.norms(np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(2.0)


def test_batch_rejects_zero_values(rng):
    with pytest.raises(ValueError):
        batch_evaluator(parse_space("lp:2"), [1, 2], [1.0, 0.0])


def test_batch_out_of_range_raises():
    spec = parse_space("lpq:2,4")
    idx = [Cube(i, (1,)) for i in range(1, 1200, 80)]
    with pytest.raises(NumericError):
        batch_evaluator(spec, idx, [1.0] * len(idx))


def test_batch_empty_subset_is_zero(any_space, rng):
    spec = any_space
    idx = canonical_indices(spec, 4)
    ev = batch_evaluator(spec, idx, [1.0, 2.0, 0.5, 1.5])
    assert ev.norms(np.zeros((1, 4)))[0] == 0.0


@pytest.mark.parametrize("N", [2, 3])
def test_exhaustive_scan_matches_scalar_democracy(any_space, N):
    spec = any_space
    rtol = 1e-12
    uni = default_universe(spec, SCAN_SIZE[spec.universe])
    h_ell, h_r, arg_min, arg_max = h_exhaustive(spec, uni, N)
    assert len(arg_min) == len(arg_max) == N
    assert normalized_indicator_norm(spec, arg_min) == pytest.approx(h_ell, rel=rtol)
    assert normalized_indicator_norm(spec, arg_max) == pytest.approx(h_r, rel=rtol)
    brute = [ambient_norm(spec, indicator(c, spec.universe))
             for c in itertools.combinations(uni.indices, N)]
    assert min(brute) == pytest.approx(h_ell, rel=rtol)
    assert max(brute) == pytest.approx(h_r, rel=rtol)


def test_exhaustive_scan_matches_scalar_sigma(any_space, rng):
    spec = any_space
    n = 8
    idx = canonical_indices(spec, n)
    vals = rng.uniform(0.05, 4.0, n) * rng.choice([-1.0, 1.0], n)
    seq = Sequence(dict(zip(idx, vals)), spec.universe)
    for N in range(n):
        brute = min(ambient_norm(spec, Sequence(
                        {i: v for i, v in seq.entries.items() if i not in kept},
                        spec.universe))
                    for kept in itertools.combinations(idx, N))
        assert sigma_n_exact(seq, N, spec).value == pytest.approx(
            brute, rel=1e-12)


def test_exhaustive_scan_reports_first_extremizers():
    # every 4-subset of l^2 has norm 2, so both extremizers are the first subset
    # in combination order; the C(40, 4) subsets span two scan blocks
    spec = parse_space("lp:2")
    h_ell, h_r, arg_min, arg_max = h_exhaustive(spec, default_universe(spec, 40), 4)
    assert h_ell == h_r == 2.0
    assert arg_min == arg_max == [1, 2, 3, 4]
