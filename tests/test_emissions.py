"""Fleet GHG model tests: calibration numbers, blending, and the car baseline."""

from __future__ import annotations

from dataclasses import replace

import pytest

from odt_lab.demand import RideRequest
from odt_lab.emissions import (ELECTRIFICATION_LEVELS, EmissionFactors,
                               electric_yearly_ghg, ghg_at_electrification,
                               per_passenger_metrics, private_vehicle_baseline,
                               yearly_ghg)
from odt_lab.network import generate_grid


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
    rep = private_vehicle_baseline(reqs, net)
    km_day = 3.0
    assert rep.total_yearly_ghg_t == pytest.approx(0.000192 * km_day * 365)
    assert rep.vkm_per_passenger == pytest.approx(1.5)
    # on direct trips every vehicle-km carries its passenger: 0.000192 t/km
    # is exactly 192 g per passenger-km
    assert rep.ghg_g_per_passenger_km == pytest.approx(192.0, rel=1e-9)
    assert rep.excluded_requests == 0


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
