"""Generalized cost, curve crossings, and the paired t-test."""

from __future__ import annotations

import math
from decimal import Decimal

import pytest

from odt_lab.efficiency import (CAPACITY_FLAG, GCPoint, InsufficientDataError,
                                generalized_cost, gc_point, paired_t_test, sweep,
                                switching_points)


def test_generalized_cost_frozen():
    # (0 + 8 + 10)/60 h * 177 trips * 365 d * 15 CAD/h + 500000
    got = generalized_cost(0.0, 8.0, 10.0, 177, 15.0, Decimal("500000"))
    assert got == Decimal("790722.50")


def test_generalized_cost_collapses_to_nac_when_nothing_served():
    got = generalized_cost(5.0, 8.0, 10.0, 0, 15.0, Decimal("123456.78"))
    assert got == Decimal("123456.78")


def test_gc_point_flags_capacity():
    p = gc_point("sys", 100, 1.0, 0.0, 5.0, 10.0, 40, 15.0, Decimal("1000"),
                 served_fraction=0.5)
    assert p.flag == CAPACITY_FLAG
    ok = gc_point("sys", 100, 1.0, 0.0, 5.0, 10.0, 40, 15.0, Decimal("1000"),
                  served_fraction=0.9)
    assert ok.flag == ""


def _line_curve(name, slope, intercept, xs, flags=None):
    pts = []
    for i, x in enumerate(xs):
        gc = Decimal(str(intercept + slope * x)).quantize(Decimal("0.01"))
        flag = (flags or {}).get(i, "")
        pts.append(GCPoint(name, 100 + i, float(x), gc, served_per_day=0,
                           served_fraction=1.0, flag=flag))
    return pts


def test_switching_point_on_synthetic_lines():
    xs = list(range(11))
    a = _line_curve("a", 10.0, 100.0, xs)   # 100 + 10x
    b = _line_curve("b", 0.0, 160.0, xs)    # flat 160
    points = switching_points(a, b)
    assert len(points) == 1
    assert points[0].density == pytest.approx(6.0, abs=1e-9)
    assert points[0].bracket_lo <= 6.0 <= points[0].bracket_hi


def test_identical_curves_have_no_crossing():
    xs = list(range(5))
    a = _line_curve("a", 2.0, 10.0, xs)
    b = _line_curve("b", 2.0, 10.0, xs)
    assert switching_points(a, b) == []


def test_crossing_exactly_on_grid_reported_once():
    xs = [0, 2, 4, 6, 8]
    a = _line_curve("a", 10.0, 100.0, xs)
    b = _line_curve("b", 0.0, 140.0, xs)  # equal at x=4, a cheaper before
    points = switching_points(a, b)
    assert len(points) == 1
    assert points[0].density == pytest.approx(4.0)
    assert points[0].bracket_lo == points[0].bracket_hi == pytest.approx(4.0)


def test_flagged_points_break_the_grid():
    xs = list(range(11))
    # the sign change sits between x=5 and x=6, but 5 and 6 are flagged on
    # one side, so no adjacent comparable pair brackets the crossing
    a = _line_curve("a", 10.0, 100.0, xs, flags={5: CAPACITY_FLAG, 6: CAPACITY_FLAG})
    b = _line_curve("b", 0.0, 155.0, xs)
    assert switching_points(a, b) == []


def test_insufficient_comparable_points():
    a = _line_curve("a", 1.0, 0.0, [0, 1, 2])
    b = _line_curve("b", 1.0, 5.0, [5, 6, 7])  # disjoint densities
    with pytest.raises(InsufficientDataError):
        switching_points(a, b)
    with pytest.raises(InsufficientDataError):
        switching_points(a[:1], a[:1])


def test_an_empty_curve_has_no_crossing_analysis():
    a = _line_curve("a", 1.0, 0.0, [0, 1, 2])
    for pair in ((a, []), ([], a)):
        with pytest.raises(InsufficientDataError, match="empty curve"):
            switching_points(*pair)


def test_multiple_crossings_all_found():
    xs = list(range(7))
    gc_a = {0: 0.0, 1: 2.0, 2: 0.5, 3: 3.0, 4: 1.0, 5: 5.0, 6: 6.0}
    a = [GCPoint("a", 100 + x, float(x), Decimal(str(gc_a[x])), served_per_day=0,
                 served_fraction=1.0) for x in xs]
    b = [GCPoint("b", 100 + x, float(x), Decimal("1.5"), served_per_day=0,
                 served_fraction=1.0) for x in xs]
    points = switching_points(a, b)
    # a - b changes sign in (0,1), (1,2), (2,3), (3,4), (4,5)
    assert len(points) == 5
    densities = [p.density for p in points]
    assert densities == sorted(densities)


def test_sweep_groups_and_rejects_duplicates():
    entries = [
        gc_point(system="x", demand_level_pct=100, demand_density=1.0, walk_min=0.0,
                 wait_min=5.0, ivtt_min=10.0, served_per_day=10, value_of_time=15.0,
                 net_annual_cost=Decimal("100"), served_fraction=1.0),
        gc_point(system="x", demand_level_pct=200, demand_density=2.0, walk_min=0.0,
                 wait_min=5.0, ivtt_min=10.0, served_per_day=20, value_of_time=15.0,
                 net_annual_cost=Decimal("100"), served_fraction=1.0),
    ]
    curves = sweep(entries)
    assert [p.demand_density for p in curves["x"]] == [1.0, 2.0]
    entries.append(entries[0])
    with pytest.raises(ValueError):
        sweep(entries)


def test_paired_t_test_matches_reference_example():
    # build 170 paired differences with sample mean -0.60 and sample sd 7.52
    n = 170
    c = math.sqrt((n - 1) / n)  # normalize +/-1 pattern to sample sd 1
    diffs = [-0.60 + 7.52 * (c if i % 2 == 0 else -c) for i in range(n)]
    a = diffs
    b = [0.0] * n
    res = paired_t_test(a, b)
    assert res.n == n
    assert res.mean_diff == pytest.approx(-0.60, abs=1e-9)
    assert res.sd_diff == pytest.approx(7.52, rel=1e-9)
    assert 1.03 <= abs(res.t) <= 1.06
    assert res.critical == pytest.approx(1.96)
    assert not res.significant_95


def test_paired_t_test_small_sample_uses_t_table():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    res = paired_t_test(a, b)
    assert res.n == 5
    assert res.critical == pytest.approx(2.776, abs=1e-3)  # df = 4
    assert res.significant_95  # t = 3/(sqrt(2.5)/sqrt(5)) ~ 4.24


def test_paired_t_test_degenerate_spread():
    res = paired_t_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert res.t == 0.0
    assert not res.significant_95
    shifted = paired_t_test([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
    assert math.isinf(shifted.t)
    assert shifted.significant_95
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0])
