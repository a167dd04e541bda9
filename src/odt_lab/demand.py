"""Ride demand and vehicle supply: loading, synthesis, and level scaling.

A day of base demand is rescaled to percentage levels of itself: below 100%
by seeded subsampling, above 100% by bootstrap resampling with jittered
request times and origin/destination pairs redrawn from the base set's
hourly O-D frequencies. Supply follows demand through a configurable slope.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Annotated

from .network import CsvParseError, Network, read_keyed
from .rules import NOT_NEGATIVE, Rule

log = logging.getLogger(__name__)

DAY_S = 86400.0
JITTER_S = 600.0  # +/- 10 minutes on bootstrapped request times

# the request and supply tables' columns, read by network.read_table
TIME_OF_DAY = Rule(lambda v: 0 <= v < DAY_S, "must be in [0, 86400)")
REQUEST_COLUMNS = {"id": int, "time_s": Annotated[float, TIME_OF_DAY], "origin": int,
                   "destination": int}
SUPPLY_COLUMNS = {"hour": Annotated[int, Rule(lambda v: 0 <= v < 24, "must be in 0..23")],
                  "vehicles": Annotated[int, NOT_NEGATIVE]}


@dataclass(frozen=True)
class RideRequest:
    id: int
    request_time: float  # seconds from midnight, [0, 86400)
    origin: int
    destination: int

    def __post_init__(self):
        if not 0.0 <= self.request_time < DAY_S:
            raise ValueError(f"request {self.id}: time {self.request_time} outside the day")
        if self.origin == self.destination:
            raise ValueError(f"request {self.id}: origin equals destination")


@dataclass
class SupplySchedule:
    """Hourly active-vehicle counts over the 24 hours of the service day."""

    hourly_counts: list[int]

    def __post_init__(self):
        if len(self.hourly_counts) != 24:
            raise ValueError("supply schedule needs exactly 24 hourly counts")
        if any(c < 0 for c in self.hourly_counts):
            raise ValueError("hourly vehicle counts cannot be negative")


def round_half_up(value: Fraction | float) -> int:
    """Round to nearest integer, halves away from zero toward +inf."""
    f = Fraction(value) if not isinstance(value, Fraction) else value
    return int((2 * f.numerator + f.denominator) // (2 * f.denominator)) if f >= 0 \
        else -round_half_up(-f)


def scaled_count(base_count: int, level_pct: int) -> int:
    return round_half_up(Fraction(base_count * level_pct, 100))


def check_level_sizes(base_count: int, levels) -> None:
    """Refuse an empty base day, which no level can scale, and two demand
    levels that scale a base day of base_count requests to the same size:
    their runs would share one demand density."""
    if not base_count:
        raise ValueError("base demand is empty: the base day has no requests")
    first = {}  # day size -> the lowest level scaled to it
    for lvl in sorted(set(levels)):
        n = scaled_count(base_count, lvl)
        if n in first:
            raise ValueError(f"demand levels {first[n]}% and {lvl}% both scale the base "
                             f"day of {base_count} requests to {n}")
        first[n] = lvl


def scale_demand(base: list[RideRequest], level_pct: int, seed) -> list[RideRequest]:
    """Rescale a base day of requests to level_pct of its size, sorted by
    (time, id).

    level < 100 subsamples without replacement; level > 100 keeps the base
    and adds bootstrap copies whose times are jittered by up to +/-10 min
    (clamped to the day) and whose O-D pair is redrawn from the base
    requests of the same hour, under fresh ids. Deterministic for a given
    seed.
    """
    if not 50 <= level_pct <= 500:
        raise ValueError(f"demand level {level_pct}% outside the supported 50..500 range")
    if not base:
        raise ValueError("base demand is empty")
    target = scaled_count(len(base), level_pct)
    rng = Random(f"{seed}/demand/L{level_pct}")

    if target == len(base):
        return sorted(base, key=lambda r: (r.request_time, r.id))
    if target < len(base):
        picked = rng.sample(base, target)
        picked.sort(key=lambda r: (r.request_time, r.id))
        return picked

    by_hour: dict[int, list[RideRequest]] = {}
    for r in base:
        by_hour.setdefault(int(r.request_time // 3600), []).append(r)
    next_id = max(r.id for r in base) + 1
    out = list(base)
    for k in range(target - len(base)):
        src = rng.choice(base)
        t = src.request_time + rng.uniform(-JITTER_S, JITTER_S)
        t = min(max(t, 0.0), DAY_S - 1e-3)
        pool = by_hour.get(int(t // 3600)) or base
        od = rng.choice(pool)
        out.append(RideRequest(next_id + k, t, od.origin, od.destination))
    out.sort(key=lambda r: (r.request_time, r.id))
    return out


def scale_supply(base: SupplySchedule, demand_change_pct: float, alpha: float) -> SupplySchedule:
    """Scale hourly vehicle counts by (1 + alpha * demand_change / 100).

    Counts round half-up and never drop below one vehicle in any hour the
    base schedule staffed, so a running service cannot be scaled out of
    existence.
    """
    mult = 1 + Fraction(alpha) * Fraction(demand_change_pct) / 100
    if mult < 0:
        raise ValueError("supply multiplier fell below zero")
    scaled = []
    for c in base.hourly_counts:
        n = round_half_up(c * mult)
        if c >= 1:
            n = max(n, 1)
        scaled.append(n)
    return SupplySchedule(scaled)


def demand_density(requests_per_day: float, area_km2: float) -> float:
    """Daily requests per square kilometre of service area, full precision."""
    if area_km2 <= 0:
        raise ValueError("service area must be positive")
    return requests_per_day / area_km2


def generate_synthetic_demand(net: Network, count: int, hourly_profile: list[float],
                              seed) -> list[RideRequest]:
    """Draw a day of requests on the network.

    Request hours follow the 24-weight profile, times are uniform within the
    hour, and O-D pairs are uniform over distinct node pairs.
    """
    if count < 0:
        raise ValueError("request count cannot be negative")
    if len(hourly_profile) != 24:
        raise ValueError("hourly profile needs exactly 24 weights")
    if any(w < 0 for w in hourly_profile) or sum(hourly_profile) <= 0:
        raise ValueError("hourly profile weights must be non-negative with a positive sum")
    ids = sorted(net.nodes)
    if len(ids) < 2:
        raise ValueError("network needs at least 2 nodes for synthetic demand")
    rng = Random(f"{seed}/synthetic-demand")
    out = []
    for i in range(count):
        hour = rng.choices(range(24), weights=hourly_profile)[0]
        t = hour * 3600.0 + rng.uniform(0.0, 3600.0)
        t = min(t, DAY_S - 1e-3)
        o = rng.randrange(len(ids))
        d = rng.randrange(len(ids) - 1)
        if d >= o:  # skip the origin to stay uniform over distinct pairs
            d += 1
        out.append(RideRequest(i, t, ids[o], ids[d]))
    out.sort(key=lambda r: (r.request_time, r.id))
    return out


def load_requests(path: str) -> list[RideRequest]:
    """Read requests from the columns REQUEST_COLUMNS names; ids must be
    unique, and a request's origin and destination differ."""
    out = []
    for line_no, row in read_keyed(path, REQUEST_COLUMNS, "id", "request id"):
        try:
            out.append(RideRequest(row["id"], row["time_s"], row["origin"],
                                   row["destination"]))
        except ValueError as exc:
            raise CsvParseError(path, line_no, str(exc)) from None
    return out


def load_supply(path: str) -> SupplySchedule:
    """Read an hourly schedule from the columns SUPPLY_COLUMNS names."""
    counts = [0] * 24
    for _, row in read_keyed(path, SUPPLY_COLUMNS, "hour", "hour"):
        counts[row["hour"]] = row["vehicles"]
    return SupplySchedule(counts)
