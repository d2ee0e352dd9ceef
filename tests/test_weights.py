import math

import numpy as np
import pytest

from nterm.errors import FeasibilityError, NumericError, ParseError
from nterm.weights import (
    Weight,
    classify,
    geometric_sum_check,
    lower_dilation_index,
    parse_weight,
    ratio_sup,
)


def test_eval_examples():
    assert Weight.power_log(0.5)(4) == 2.0
    assert abs(Weight.power_log(0, 1)(1) - math.log(2)) < 1e-15
    assert Weight.power_log(1)(7) == 7.0


def test_table_weight_range_error(tmp_path):
    w = Weight.from_table([1.0, 2.0, 3.0])
    assert w(3) == 3.0
    with pytest.raises(FeasibilityError, match="weight range too short"):
        w(4)
    path = tmp_path / "w.txt"
    path.write_text("1.0\n2.0\n3.0\n")
    w2 = parse_weight(f"table:{path}")
    assert w2(2) == 2.0
    for bad in ("1.0\nnan\n", "1.0\ninf\n", "1.0\n2.0 x\n"):
        path.write_text(bad)
        with pytest.raises(ParseError):
            parse_weight(f"table:{path}")


def test_parse_weight():
    w = parse_weight("pow:0.5,1")
    assert abs(w(4) - 2 * math.log(5)) < 1e-15
    for bad in ("exp:1", "pow:nan", "pow:0.5,inf", "pow:0.5,1,2", "pow:x"):
        with pytest.raises(ParseError):
            parse_weight(bad)


def test_ratio_sup_examples():
    # power weight: ratio is m^-a independent of k
    assert abs(ratio_sup(Weight.power_log(0.5), 4, 100) - 0.5) < 1e-14
    assert abs(ratio_sup(Weight.power_log(1), 3, 100) - 1 / 3) < 1e-15
    # slowly varying: range max approaches 1 from below
    r = ratio_sup(Weight.power_log(0, 1), 2, 10**6)
    assert 0.9 < r < 1.0


def test_ratio_sup_at_most_one_for_nondecreasing(rng):
    for a, b in [(0.5, 0.0), (1.0, 1.0), (0.0, 1.0), (0.2, 0.5)]:
        w = Weight.power_log(a, b)
        for m in (2, 3, 8):
            assert ratio_sup(w, m, 10**4) <= 1.0 + 1e-15


def test_lower_dilation_index():
    assert abs(lower_dilation_index(Weight.power_log(0.5), K=10**5) - 0.5) < 1e-6
    assert abs(lower_dilation_index(Weight.power_log(1.0), K=10**5) - 1.0) < 1e-6
    # slowly varying: true index 0; finite-range estimate carries a small bias
    assert lower_dilation_index(Weight.power_log(0, 1), K=10**6) < 0.1


def test_classify_examples():
    c = classify(Weight.power_log(0.5), 10**5)
    assert c.positive_dilation and c.kappa == 2
    c = classify(Weight.power_log(0, 1), 10**6)
    assert not c.positive_dilation and c.kappa is None
    c = classify(Weight.power_log(0.1, 1), 10**6)
    assert c.positive_dilation
    # kappa present implies positive estimated index
    assert c.dilation_index > 0


def test_classify_evaluates_each_ratio_once(monkeypatch):
    import nterm.weights as weights

    calls = []

    def counted(w, m, K=weights.DEFAULT_RANGE_CAP):
        calls.append(m)
        return ratio_sup(w, m, K)

    w = Weight.power_log(0.5)
    want = classify(w, 10**5)
    monkeypatch.setattr(weights, "ratio_sup", counted)
    assert classify(w, 10**5) == want
    assert sorted(calls) == list(range(2, weights.DILATION_M_MAX + 1))
    assert want.ratio_table == {m: ratio_sup(w, m, 10**5) for m in (2, 3, 4, 8, 16)}
    assert want.dilation_index == lower_dilation_index(w, K=10**5)


def test_classify_ratio_table_bounded():
    c = classify(Weight.power_log(0.3), 10**4)
    assert all(v <= 1.0 + 1e-15 for v in c.ratio_table.values())


def test_classify_monotone_in_range_cap():
    # the range max over a larger range is never smaller
    w = Weight.power_log(0.2, 0.5)
    for m in (2, 4):
        assert ratio_sup(w, m, 10**5) >= ratio_sup(w, m, 10**3) - 1e-15


def test_classify_rejects_non_monotone():
    w = Weight.from_table([1.0, 3.0, 2.0])
    with pytest.raises(NumericError, match="eta"):
        classify(w, 3)


def test_geometric_sum_check_examples():
    best, _ = geometric_sum_check(Weight.power_log(1), 2, 20)
    assert abs(best - 2.0) < 1e-5
    # running max is 2 - 2^-n, so the n_max=15 vs n_max=20 gap is 2^-15 - 2^-20
    best15, _ = geometric_sum_check(Weight.power_log(0.5), 4, 15)
    best20, _ = geometric_sum_check(Weight.power_log(0.5), 4, 20)
    assert abs(best15 - 2.0) < 1e-4
    assert abs(best20 - best15) == pytest.approx(2.0**-15 - 2.0**-20, rel=1e-6)
    # slowly varying weight: the running ratio grows linearly with n
    _, ratios = geometric_sum_check(Weight.power_log(0, 1), 2, 20)
    ns = np.arange(5, 21)
    slope = np.polyfit(ns, ratios[5:], 1)[0]
    assert 0.35 <= slope <= 0.65


def test_geometric_sum_power_bound():
    # certified weights stay below 1/(1 - ratio_sup(kappa))
    w = Weight.power_log(0.5)
    best, _ = geometric_sum_check(w, 2, 30)
    assert best <= 1.0 / (1.0 - 2**-0.5) + 1e-9


def test_geometric_sum_range_errors():
    with pytest.raises(NumericError):
        geometric_sum_check(Weight.power_log(1), 2, 100)
    with pytest.raises(NumericError):
        geometric_sum_check(Weight.from_table([1, 2, 3, 4]), 2, 10)


def test_scaled_weight():
    w = Weight.power_log(0.5).scaled(1.0)
    assert abs(w(4) - 8.0) < 1e-14
    t = Weight.from_table([1.0, 2.0]).scaled(1.0)
    assert t(2) == 4.0
    assert t.range_limit == 2


@pytest.mark.parametrize("n", [2, 5, 15])
def test_classify_short_tables(n):
    # ratio_sup(w, m) reads eta at m, so a table of n values has ratios only for
    # m <= n; the scan stops there instead of refusing the whole weight
    w = Weight.from_table(np.arange(1.0, n + 1))
    c = classify(w, 10**5)
    assert c.range_cap == n and c.doubling_constant == 2.0
    assert c.ratio_table == {m: 1.0 / m for m in (2, 3, 4, 8, 16) if m <= n}
    assert c.dilation_index == pytest.approx(1.0) == lower_dilation_index(w, K=10**5)
    assert c.kappa == (2 if n == 15 else None)


def test_classify_table_range_edges():
    one = classify(Weight.from_table([1.0]), 10**5)
    assert (one.ratio_table, one.dilation_index, one.kappa, one.range_cap) == ({}, 0.0, None, 1)
    sixteen = classify(Weight.from_table(np.arange(1.0, 17)), 10**5)
    assert sixteen.ratio_table == {m: 1.0 / m for m in (2, 3, 4, 8, 16)}
    assert sixteen.kappa == 2 and sixteen.range_cap == 16
