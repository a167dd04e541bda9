"""Fleet GHG model tests: calibration numbers, blending, and the car baseline."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from odt_lab.demand import RideRequest
from odt_lab.emissions import (ELECTRIFICATION_LEVELS, EmissionFactors,
                               electric_yearly_ghg, ghg_at_electrification,
                               per_passenger_metrics, private_vehicle_baseline,
                               yearly_ghg)
from odt_lab.network import Network, Node, NoPathError, _make_edge, generate_grid


def test_yearly_ghg_frozen():
    # 0.000237 t/km * 1000 km/day * 365 = 86.505 t
    assert yearly_ghg(0.000237, 1000.0) == pytest.approx(86.505)
    assert yearly_ghg(0.000237, 0.0) == 0.0
    with pytest.raises(ValueError):
        yearly_ghg(0.000237, -1.0)


def test_electric_yearly_ghg_frozen():
    # 25 g/kWh * 0.18 kWh/km = 4.5 g/km -> 4.5 kg/day per 1000 km -> 1.6425 t/yr
    assert electric_yearly_ghg(1000.0) == pytest.approx(1.6425)


def test_full_electrification_cuts_ghg_98_percent():
    gas = ghg_at_electrification(0.0, 1000.0)
    ev = ghg_at_electrification(1.0, 1000.0)
    reduction_pct = (1.0 - ev / gas) * 100.0
    assert reduction_pct == pytest.approx(98.1, abs=0.1)


def test_partial_electrification_cuts_ghg_proportionally():
    gas = ghg_at_electrification(0.0, 1000.0)
    partial = ghg_at_electrification(0.2, 1000.0)
    reduction_pct = (1.0 - partial / gas) * 100.0
    assert reduction_pct == pytest.approx(19.6, abs=0.1)


def test_blend_is_linear_across_ladder():
    gas = ghg_at_electrification(0.0, 500.0)
    ev = ghg_at_electrification(1.0, 500.0)
    for level in ELECTRIFICATION_LEVELS:
        expect = (1.0 - level) * gas + level * ev
        assert ghg_at_electrification(level, 500.0) == pytest.approx(expect)
    with pytest.raises(ValueError):
        ghg_at_electrification(1.5, 500.0)
    with pytest.raises(ValueError):
        ghg_at_electrification(-0.1, 500.0)


def test_factor_overrides():
    f = replace(EmissionFactors(), grid_g_per_kwh=500.0)  # coal-heavy grid
    dirty = electric_yearly_ghg(1000.0, f)
    assert dirty == pytest.approx(1.6425 * 20)
    with pytest.raises(TypeError):
        replace(EmissionFactors(), nope=1.0)


def test_private_baseline_uses_direct_paths():
    net = generate_grid(3, 3, 500.0, 10.0)
    reqs = [RideRequest(0, 100.0, 0, 8),   # two grid corners: 2000 m
            RideRequest(1, 200.0, 0, 2)]   # 1000 m
    (rep,) = private_vehicle_baseline({100: reqs}, net).values()
    km_day = 3.0
    assert rep.total_yearly_ghg_t == pytest.approx(0.000192 * km_day * 365)
    assert rep.vkm_per_passenger == pytest.approx(1.5)
    # on direct trips every vehicle-km carries its passenger: 0.000192 t/km
    # is exactly 192 g per passenger-km
    assert rep.ghg_g_per_passenger_km == pytest.approx(192.0, rel=1e-9)
    assert rep.excluded_requests == 0


def test_baseline_sums_each_levels_metres_in_request_order(monkeypatch):
    # a one-way ring of uneven legs, node 5 with a way out and none in, and
    # node 6, a dead end: riders to 5 and from 6 have no route
    rng = Random(3)
    legs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (5, 0), (2, 6)]
    lengths = [rng.uniform(0.1, 1000.0) for _ in legs]
    nodes = [Node(i, float(i), float(i % 2)) for i in range(7)]

    def network():
        return Network(nodes, [_make_edge(k, a, b, m, 10.0) for k, ((a, b), m)
                               in enumerate(zip(legs, lengths))], area_km2=1.0)

    ends = [(o, d) for o in range(7) for d in range(7) if o != d]
    days = {lvl: [RideRequest(k, 0.0, *rng.choice(ends)) for k in range(n)]
            for lvl, n in ((50, 20), (100, 40), (500, 200))}
    reference = network()
    net = network()
    searched = []
    search = Network._search
    monkeypatch.setattr(Network, "_search",
                        lambda self, s, targets=None: searched.append(s) or search(self, s, targets))
    reports = private_vehicle_baseline(days, net)
    assert net._dist_to == {}
    assert sorted(searched) == sorted({net._slot[r.destination]
                                       for day in days.values() for r in day})
    factors = EmissionFactors()
    for lvl, day in days.items():
        total_m, excluded = 0.0, 0
        for r in day:
            try:
                total_m += reference.distance_m(r.origin, r.destination)
            except NoPathError:
                excluded += 1
        km = total_m / 1000.0
        rep = reports[lvl]
        assert excluded > 0 and rep.excluded_requests == excluded
        assert rep.total_yearly_ghg_t == yearly_ghg(factors.ghg_km_private, km)
        assert rep.vkm_per_passenger == km / (len(day) - excluded)
    assert list(reports) == [50, 100, 500]


def test_per_passenger_metrics_and_empty_service():
    rep = per_passenger_metrics(120.0, 40, 100.0, electrification_level=0.0)
    assert rep.vkm_per_passenger == pytest.approx(3.0)
    assert rep.total_yearly_ghg_t == pytest.approx(0.000237 * 120 * 365)
    assert rep.ghg_g_per_passenger_km == pytest.approx(
        rep.total_yearly_ghg_t * 1e6 / (100.0 * 365))

    nothing = per_passenger_metrics(50.0, 0, 0.0)
    assert nothing.vkm_per_passenger is None
    assert nothing.ghg_g_per_passenger_km is None
    assert nothing.total_yearly_ghg_t > 0  # the fleet still drove
