"""Greenhouse gas accounting for simulated fleets and the private-car baseline.

Yearly emissions scale the fleet's daily driven distance by a per-km factor.
Electric vehicles are charged from the grid, so their footprint is the grid
carbon intensity times consumption per km; partial electrification blends
the two linearly by the share of electrified distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

from .costing import DAYS_PER_YEAR, PRICEABLE
from .demand import RideRequest
from .network import Network

GRAMS_PER_TON = 1e6

ELECTRIFICATION_LEVELS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FACTOR = Annotated[float, PRICEABLE]


@dataclass(frozen=True)
class EmissionFactors:
    ghg_km_transit: FACTOR = 0.000237   # tons CO2e per km, gasoline transit vehicle
    ghg_km_private: FACTOR = 0.000192   # tons CO2e per km, representative private car
    ev_kwh_per_km: FACTOR = 0.18        # electricity drawn per km
    grid_g_per_kwh: FACTOR = 25.0       # grid carbon intensity, grams CO2e per kWh


@dataclass(frozen=True)
class EmissionsReport:
    total_yearly_ghg_t: float
    vkm_per_passenger: float | None
    ghg_g_per_passenger_km: float | None
    excluded_requests: int = 0


def yearly_ghg(ghg_per_km_t: float, km_per_day: float) -> float:
    """Tons of CO2e per year for a fleet driving km_per_day every day."""
    if km_per_day < 0:
        raise ValueError("daily distance cannot be negative")
    return ghg_per_km_t * km_per_day * DAYS_PER_YEAR


def electric_yearly_ghg(km_per_day: float, factors: EmissionFactors = EmissionFactors()) -> float:
    """Tons of CO2e per year if the same distance were driven electrically."""
    grams = factors.grid_g_per_kwh * factors.ev_kwh_per_km * km_per_day * DAYS_PER_YEAR
    return grams / GRAMS_PER_TON


def ghg_at_electrification(level: float, km_per_day: float,
                           factors: EmissionFactors = EmissionFactors()) -> float:
    """Yearly fleet GHG (tons) with a share of the distance driven electric.

    level 0 is the all-gasoline fleet, 1 the fully electric one; the blend
    is linear in the electrified distance share.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError("electrification level must lie in [0, 1]")
    gas = yearly_ghg(factors.ghg_km_transit, km_per_day)
    ev = electric_yearly_ghg(km_per_day, factors)
    return (1.0 - level) * gas + level * ev


def private_vehicle_baseline(days: dict[int, list[RideRequest]], net: Network,
                             factors: EmissionFactors = EmissionFactors()
                             ) -> dict[int, EmissionsReport]:
    """Footprint of each level's day if every request drove itself: one
    car, origin to destination, by level.

    No deadheading and no detours, just the shortest path per request, its
    metres summed in request order. Each destination of the sweep is
    searched once, only as far as its farthest origin. Requests without a
    network route are excluded and counted; the caller reports them.
    """
    origins: dict[int, dict[int, None]] = {}  # dest -> its origins, in first-seen order
    for day in days.values():
        for r in day:
            origins.setdefault(r.destination, {})[r.origin] = None
    metres = {}  # (origin, dest) -> metres, inf where there is no route
    for dest, starts in origins.items():
        metres.update(zip([(o, dest) for o in starts], net.distances_into(dest, starts)))
    reports = {}
    for level, day in days.items():
        total_m = 0.0
        excluded = 0
        for r in day:
            d = metres[r.origin, r.destination]
            if d == math.inf:
                excluded += 1
            else:
                total_m += d
        km_per_day = total_m / 1000.0
        served = len(day) - excluded
        ghg_t = yearly_ghg(factors.ghg_km_private, km_per_day)
        if served == 0:
            reports[level] = EmissionsReport(ghg_t, None, None, excluded)
            continue
        yearly_pax_km = km_per_day * DAYS_PER_YEAR  # every on-board km equals a driven km here
        g_per_pax_km = ghg_t * GRAMS_PER_TON / yearly_pax_km if yearly_pax_km > 0 else None
        reports[level] = EmissionsReport(ghg_t, km_per_day / served, g_per_pax_km, excluded)
    return reports


def per_passenger_metrics(total_km_day: float, served_per_day: int,
                          passenger_km_day: float, electrification_level: float = 0.0,
                          factors: EmissionFactors = EmissionFactors()) -> EmissionsReport:
    """Fleet emissions normalized per passenger and per passenger-km.

    passenger_km_day is the sum of served on-board trip lengths for one day.
    With nothing served the ratios are undefined and reported as missing
    rather than zero.
    """
    ghg_t = ghg_at_electrification(electrification_level, total_km_day, factors)
    if served_per_day <= 0 or passenger_km_day <= 0:
        return EmissionsReport(ghg_t, None, None)
    vkm_per_pax = total_km_day / served_per_day
    g_per_pax_km = ghg_t * GRAMS_PER_TON / (passenger_km_day * DAYS_PER_YEAR)
    return EmissionsReport(ghg_t, vkm_per_pax, g_per_pax_km)
