"""Lorenz/Gini tests: exact textbook cases, oracle equivalence, invariances."""

from __future__ import annotations

from random import Random

import pytest

from odt_lab.engine import TripRecord
from odt_lab.equity import (LorenzCurve, ZonalOutcome, equity_report, gini,
                            group_weight, lorenz, zonal_outcomes)
from odt_lab.network import Zone, ZONE_ATTRIBUTES

from oracles import gini_mean_difference


def _outcomes(pairs):
    return [ZonalOutcome(f"z{i}", o, w) for i, (w, o) in enumerate(pairs)]


def _gini(pairs) -> float:
    return gini(lorenz(_outcomes(pairs)))


def test_equal_rates_give_zero():
    assert _gini([(1.0, 5.0), (1.0, 5.0), (1.0, 5.0)]) == pytest.approx(0.0, abs=1e-12)
    assert _gini([(2.0, 4.0), (6.0, 12.0)]) == pytest.approx(0.0, abs=1e-12)


def test_four_zone_single_winner_is_exactly_three_quarters():
    assert _gini([(1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0)]) == 0.75


def test_two_zone_one_three_is_exactly_one_quarter():
    assert _gini([(1.0, 1.0), (1.0, 3.0)]) == 0.25


def test_matches_mean_difference_oracle():
    rng = Random(4)
    for _ in range(400):
        k = rng.randint(2, 8)
        pairs = [(rng.uniform(0.5, 50.0), rng.uniform(0.0, 20.0)) for _ in range(k)]
        if sum(o for _, o in pairs) <= 0:
            continue
        expect = gini_mean_difference([w for w, _ in pairs], [o for _, o in pairs])
        assert _gini(pairs) == pytest.approx(expect, abs=1e-9)


def test_scale_invariance():
    rng = Random(11)
    for _ in range(1000):
        k = rng.randint(2, 6)
        pairs = [(rng.uniform(1.0, 30.0), rng.uniform(0.1, 9.0)) for _ in range(k)]
        base = _gini(pairs)
        outcome_scale = rng.uniform(0.01, 100.0)
        weight_scale = rng.uniform(0.01, 100.0)
        scaled = _gini([(w * weight_scale, o * outcome_scale) for w, o in pairs])
        assert scaled == pytest.approx(base, abs=1e-9)


def test_permutation_invariance():
    rng = Random(12)
    for _ in range(1000):
        k = rng.randint(2, 7)
        pairs = [(rng.uniform(1.0, 10.0), rng.uniform(0.0, 5.0)) for _ in range(k)]
        if sum(o for _, o in pairs) <= 0:
            continue
        base = _gini(pairs)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert _gini(shuffled) == pytest.approx(base, abs=1e-9)


def test_split_invariance():
    # halving a zone into two identical-rate parts must not move the index
    rng = Random(13)
    for _ in range(1000):
        k = rng.randint(2, 5)
        pairs = [(rng.uniform(1.0, 10.0), rng.uniform(0.1, 5.0)) for _ in range(k)]
        base = _gini(pairs)
        idx = rng.randrange(k)
        w, o = pairs[idx]
        split = pairs[:idx] + [(w / 2, o / 2), (w / 2, o / 2)] + pairs[idx + 1:]
        assert _gini(split) == pytest.approx(base, abs=1e-9)


def test_transfer_toward_richer_zone_never_decreases_gini():
    rng = Random(14)
    for _ in range(500):
        k = rng.randint(2, 6)
        pairs = [(1.0, rng.uniform(0.5, 5.0)) for _ in range(k)]
        base = _gini(pairs)
        rates = [o / w for w, o in pairs]
        lo = min(range(k), key=lambda i: rates[i])
        hi = max(range(k), key=lambda i: rates[i])
        if lo == hi:
            continue
        delta = pairs[lo][1] * rng.uniform(0.1, 0.9)
        moved = list(pairs)
        moved[lo] = (1.0, pairs[lo][1] - delta)
        moved[hi] = (1.0, pairs[hi][1] + delta)
        assert _gini(moved) >= base - 1e-9


def test_bounds_hold_everywhere():
    rng = Random(15)
    for _ in range(1000):
        k = rng.randint(2, 9)
        pairs = [(rng.uniform(0.5, 20.0), rng.choice([0.0, rng.uniform(0.0, 10.0)]))
                 for _ in range(k)]
        if sum(o for _, o in pairs) <= 0:
            continue
        g = _gini(pairs)
        assert 0.0 <= g <= 1.0


def test_lorenz_curve_shape():
    crv = lorenz(_outcomes([(1.0, 1.0), (1.0, 3.0)]))
    assert crv.points[0] == (0.0, 0.0)
    assert crv.points[-1] == (1.0, 1.0)
    xs = [p[0] for p in crv.points]
    ys = [p[1] for p in crv.points]
    assert xs == sorted(xs) and ys == sorted(ys)
    # convexity: sorted ascending by rate, shares lag weights
    for x, y in crv.points:
        assert y <= x + 1e-12


def test_gini_validates_curve():
    with pytest.raises(ValueError):
        gini(LorenzCurve(((0.0, 0.0), (0.5, 0.2))))  # no (1,1) anchor
    with pytest.raises(ValueError):
        gini(LorenzCurve(((0.0, 0.0), (0.6, 0.2), (0.4, 0.3), (1.0, 1.0))))


def test_lorenz_needs_outcome_mass():
    with pytest.raises(ValueError):
        lorenz(_outcomes([(1.0, 0.0), (2.0, 0.0)]))
    with pytest.raises(ValueError):
        lorenz([])


def test_lorenz_refuses_a_negative_weight():
    with pytest.raises(ValueError, match="outcomes and weights must be non-negative"):
        lorenz(_outcomes([(2.0, 2.0), (-1.0, 3.0)]))


# -- zone aggregation --------------------------------------------------------------


def _zone(zid, population, share=0.5):
    return Zone(zid, population, {a: share for a in ZONE_ATTRIBUTES})


def _trip(rid, zone, served=True, wait=5.0, ivtt=10.0):
    return TripRecord(rid, "darp", served, walk_min=0.0,
                      wait_min=wait if served else None,
                      ivtt_min=ivtt if served else None,
                      length_km=2.0 if served else None,
                      origin_zone=zone, dest_zone=zone,
                      reject_reason=None if served else "no_feasible_insertion")


def test_group_weight_semantics():
    z = _zone("A", 1000.0, share=0.3)
    assert group_weight(z, "income") == pytest.approx(300.0)
    # density is zone-level, not a share: weight by full population
    assert group_weight(z, "pop_density") == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        group_weight(Zone("B", 10.0, {}), "income")


def test_zonal_outcomes_counts_and_means():
    zones = {"A": _zone("A", 100.0), "B": _zone("B", 300.0)}
    trips = [_trip(0, "A", wait=4.0), _trip(1, "A", wait=6.0),
             _trip(2, "B", wait=10.0), _trip(3, "B", served=False),
             _trip(4, None)]
    usage = {o.zone_id: o.outcome for o in zonal_outcomes(trips, zones, "usage", "income")}
    assert usage == {"A": 2.0, "B": 1.0}
    wait = {o.zone_id: o.outcome for o in zonal_outcomes(trips, zones, "wait", "income")}
    assert wait == {"A": pytest.approx(5.0), "B": pytest.approx(10.0)}


def test_zones_without_trips_stay_in_usage_but_not_times():
    zones = {"A": _zone("A", 100.0), "B": _zone("B", 100.0)}
    trips = [_trip(0, "A")]
    usage = zonal_outcomes(trips, zones, "usage", "income")
    assert {o.zone_id for o in usage} == {"A", "B"}
    wait = zonal_outcomes(trips, zones, "wait", "income")
    assert {o.zone_id for o in wait} == {"A"}


def test_zonal_outcomes_refuses_an_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'fare'"):
        zonal_outcomes([_trip(0, "A")], {"A": _zone("A", 100.0)}, "fare", "income")


def test_equity_report_skips_degenerate_combinations():
    zones = {"A": _zone("A", 100.0), "B": _zone("B", 100.0)}
    trips = [_trip(0, "A"), _trip(1, "B")]
    results = equity_report(trips, zones)
    combos = {(r.attribute, r.metric) for r in results}
    assert ("income", "usage") in combos
    for r in results:
        assert 0.0 <= r.gini <= 1.0
        assert gini(r.curve) == r.gini
        assert r.curve.points[-1] == (1.0, 1.0)
    # nothing served at all: no rows rather than fake zeros
    assert equity_report([_trip(0, "A", served=False)], zones) == []
