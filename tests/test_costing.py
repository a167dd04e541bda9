"""Cost model tests against hand-computed frozen values, all in exact Decimal."""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal

import pytest

from odt_lab.costing import (CostParameters, as_money, capital_cost,
                             crowdsourced_operating_cost, dedicated_operating_cost,
                             fixed_route_operating_cost, net_annual_cost,
                             per_trip_compensation, to_cents)

# Worked example inputs: simulated averages of the base scenario
IVTT_MIN = 11.39
TRIP_KM = 9.76
SERVED = 177


def test_per_trip_compensation_exclusive_frozen():
    # 5.25 + 0.18*11.39 + 0.81*9.76 - 4 = 11.2058, no rounding anywhere
    got = per_trip_compensation(IVTT_MIN, TRIP_KM, CostParameters())
    assert got == Decimal("11.2058")


def test_per_trip_compensation_shared_uses_lower_fees():
    excl = per_trip_compensation(IVTT_MIN, TRIP_KM, CostParameters())
    shared = per_trip_compensation(IVTT_MIN, TRIP_KM, CostParameters(), shared=True)
    assert excl - shared == Decimal("1.00")


def test_crowdsourced_annual_frozen():
    got = crowdsourced_operating_cost(IVTT_MIN, TRIP_KM, SERVED)
    # 11.2058 * 177 * 365 = 723950.709, cents-rounded; reference figure 723,951
    assert got == Decimal("723950.71")
    assert abs(got - Decimal("723951")) <= 1


def test_crowdsourced_surge_multiplies_whole_cost():
    base = crowdsourced_operating_cost(IVTT_MIN, TRIP_KM, SERVED)
    for surge in (20, 40, 50):
        got = crowdsourced_operating_cost(IVTT_MIN, TRIP_KM, SERVED, surge_pct=surge)
        exact = to_cents(per_trip_compensation(IVTT_MIN, TRIP_KM, CostParameters())
                         * 177 * 365 * (1 + Decimal(surge) / 100))
        assert got == exact
        assert got > base


def test_negative_compensation_passes_with_warning():
    # a high fare beating the driver payout: passed through, not clamped; a
    # sweep warns of it once (test_cli)
    rich_fare = replace(CostParameters(), fare=Decimal(10))
    got = crowdsourced_operating_cost(1.0, 0.5, 10, rich_fare, shared=True)
    assert got < 0


def test_dedicated_annual_frozen():
    # (83.95*3*24 - 4*177)*365 + 200000 = 2,147,786
    got = dedicated_operating_cost(3, 24, SERVED)
    assert got == Decimal("2147786.00")


def test_fixed_route_annual_frozen():
    # (0.73*2*280 + 2*14*15 - 4*100)*365 + 200000 = 356,512
    got = fixed_route_operating_cost(2, 280, 14, 100)
    assert got == Decimal("356512.00")
    # same number fed as whole-fleet km
    alt = fixed_route_operating_cost(2, 560, 14, 100, km_is_per_vehicle=False)
    assert alt == got


def test_capital_and_net_annual():
    assert capital_cost(2) == Decimal("82100.00")
    assert capital_cost(3) == Decimal("123150.00")
    assert capital_cost(0) == Decimal("0.00")
    with pytest.raises(ValueError):
        capital_cost(-1)
    assert net_annual_cost(Decimal("82100.00"), Decimal("356512.00")) == \
        Decimal("438612.00")


def test_decimal_arithmetic_is_exact_not_float():
    # the classic float trap: 0.1 + 0.2; money math must not inherit it
    p = replace(CostParameters(), per_km=Decimal("0.1"), per_minute=Decimal("0.2"),
                fixed_fees_exclusive=Decimal("0"), fare=Decimal("0"))
    got = per_trip_compensation(1.0, 1.0, p)
    assert got == Decimal("0.3")


def test_parameter_overrides_validated():
    # a scenario's costs are read, and their values checked, by the config
    # reader (tests/test_cli.py); here an override names a field or fails
    p = replace(CostParameters(), fare=as_money(5))
    assert p.fare == Decimal("5")
    with pytest.raises(TypeError):
        replace(CostParameters(), not_a_field=1)


def test_to_cents_rounds_half_up():
    assert to_cents(Decimal("1.005")) == Decimal("1.01")
    assert to_cents(Decimal("1.004")) == Decimal("1.00")
    assert to_cents(Decimal("-1.005")) == Decimal("-1.01")
