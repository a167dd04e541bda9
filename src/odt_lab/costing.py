"""Annualized service cost model, evaluated in exact decimal currency.

Net annual cost is capital cost plus net yearly operating cost. Operating
cost formulas differ by service design: crowdsourced fleets pay per-trip
fees against fare revenue, dedicated fleets pay hourly vehicle rates, and
fixed routes pay per-kilometre plus driver wages. All arithmetic runs in
Decimal and results are quantized to cents, so identical inputs give
identical cents on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Annotated

from .rules import Rule

CENT = Decimal("0.01")
DAYS_PER_YEAR = 365
# Money at or above this cannot be priced in cents: Decimal keeps 28 digits
MAX_MAGNITUDE = 1e12
PRICEABLE = Rule(lambda v: abs(v) < MAX_MAGNITUDE, "must be below 1e12 in magnitude")
MONEY = Annotated[Decimal, PRICEABLE]


def as_money(value) -> Decimal:
    """Convert a number to Decimal via its string form, keeping typed digits."""
    if isinstance(value, Decimal):
        return value
    return Decimal(str(value))


def to_cents(value: Decimal) -> Decimal:
    return value.quantize(CENT, rounding=ROUND_HALF_UP)


@dataclass(frozen=True)
class CostParameters:
    """Operating-cost constants, CAD."""

    fixed_fees_exclusive: MONEY = Decimal("5.25")  # booking + base + service, solo ride
    fixed_fees_shared: MONEY = Decimal("4.25")     # pooled rides forgo the base fee
    per_minute: MONEY = Decimal("0.18")
    per_km: MONEY = Decimal("0.81")
    fare: MONEY = Decimal("4.00")                  # flat fare collected per trip
    vehicle_price: MONEY = Decimal("41050")        # purchase price per dedicated vehicle
    hourly_vehicle_cost: MONEY = Decimal("83.95")  # dedicated fleet, per vehicle-hour
    frt_cost_per_km: MONEY = Decimal("0.73")
    driver_wage: MONEY = Decimal("15.00")          # fixed-route driver, per hour
    other_costs: MONEY = Decimal("200000")         # yearly administration overhead


def capital_cost(vehicle_count: int, params: CostParameters = CostParameters()) -> Decimal:
    """Fleet purchase cost; zero for crowdsourced services which own no vehicles."""
    if vehicle_count < 0:
        raise ValueError("vehicle count cannot be negative")
    return to_cents(Decimal(vehicle_count) * params.vehicle_price)


def per_trip_compensation(avg_ivtt_min, avg_trip_km, params: CostParameters,
                          shared: bool = False) -> Decimal:
    """Driver compensation net of fare for one crowdsourced trip, unquantized."""
    fees = params.fixed_fees_shared if shared else params.fixed_fees_exclusive
    return (fees
            + params.per_minute * as_money(avg_ivtt_min)
            + params.per_km * as_money(avg_trip_km)
            - params.fare)


def crowdsourced_operating_cost(avg_ivtt_min, avg_trip_km, served_per_day,
                                params: CostParameters = CostParameters(),
                                shared: bool = False, surge_pct: int = 0) -> Decimal:
    """Yearly net operating cost of a crowdsourced fleet.

    Per-trip driver compensation (fixed fees plus time and distance rates,
    minus the fare) scales by daily served demand and 365 days; a surge
    percentage inflates the whole figure. A negative result means fares
    exceed compensation and is passed through; `runner.cost_curves` warns
    of it once per sweep.
    """
    per_trip = per_trip_compensation(avg_ivtt_min, avg_trip_km, params, shared)
    yearly = per_trip * as_money(served_per_day) * DAYS_PER_YEAR
    yearly *= (1 + Decimal(surge_pct) / 100)
    return to_cents(yearly)


def dedicated_operating_cost(avg_vehicles, operating_hours, served_per_day,
                             params: CostParameters = CostParameters()) -> Decimal:
    """Yearly net operating cost of a dedicated (owned) on-demand fleet.

    Hourly vehicle costs cover the average fleet across the operating span;
    fare revenue offsets daily costs; administration overhead adds once a
    year.
    """
    daily = (params.hourly_vehicle_cost * as_money(avg_vehicles) * as_money(operating_hours)
             - params.fare * as_money(served_per_day))
    return to_cents(daily * DAYS_PER_YEAR + params.other_costs)


def fixed_route_operating_cost(vehicle_count, vehicle_km_per_day, operating_hours,
                               served_per_day,
                               params: CostParameters = CostParameters(),
                               km_is_per_vehicle: bool = True) -> Decimal:
    """Yearly net operating cost of a fixed-route service.

    Costs accrue per driven kilometre and per driver hour for each vehicle;
    fares offset daily. vehicle_km_per_day is the daily distance of one
    vehicle by default; pass km_is_per_vehicle=False when handing in the
    whole fleet's daily km.
    """
    n = Decimal(vehicle_count)
    km = as_money(vehicle_km_per_day)
    fleet_km = n * km if km_is_per_vehicle else km
    daily = (params.frt_cost_per_km * fleet_km
             + n * as_money(operating_hours) * params.driver_wage
             - params.fare * as_money(served_per_day))
    return to_cents(daily * DAYS_PER_YEAR + params.other_costs)


def net_annual_cost(capital: Decimal, operating: Decimal) -> Decimal:
    """Capital plus operating; the capital outlay is charged in full, not annualized."""
    return to_cents(as_money(capital) + as_money(operating))
