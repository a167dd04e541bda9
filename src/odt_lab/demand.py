"""Ride demand and vehicle supply: loading, synthesis, and level scaling.

A day of base demand is rescaled to percentage levels of itself: below 100%
by seeded subsampling, above 100% by bootstrap resampling with jittered
request times and origin/destination pairs redrawn from the base set's
hourly O-D frequencies. Supply follows demand through a configurable slope.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .network import CsvParseError, Network

log = logging.getLogger(__name__)

DAY_S = 86400.0
JITTER_S = 600.0  # +/- 10 minutes on bootstrapped request times


@dataclass(frozen=True)
class RideRequest:
    id: int
    request_time: float  # seconds from midnight, [0, 86400)
    origin: int
    destination: int
    party_size: int = 1

    def __post_init__(self):
        if not 0.0 <= self.request_time < DAY_S:
            raise ValueError(f"request {self.id}: time {self.request_time} outside the day")
        if self.origin == self.destination:
            raise ValueError(f"request {self.id}: origin equals destination")
        if self.party_size != 1:
            raise ValueError(f"request {self.id}: party size must be 1")


@dataclass
class DemandSet:
    """One day of requests at a given percentage of the base demand."""

    requests: list[RideRequest]
    level_pct: int = 100

    def __post_init__(self):
        ids = {r.id for r in self.requests}
        if len(ids) != len(self.requests):
            raise ValueError("duplicate request ids in demand set")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)


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


def scale_demand(base: list[RideRequest] | DemandSet, level_pct: int, seed) -> DemandSet:
    """Rescale a base day of requests to level_pct of its size.

    level < 100 subsamples without replacement; level > 100 keeps the base
    and adds bootstrap copies whose times are jittered by up to +/-10 min
    (clamped to the day) and whose O-D pair is redrawn from the base
    requests of the same hour. Deterministic for a given seed.
    """
    reqs = list(base.requests if isinstance(base, DemandSet) else base)
    if not 50 <= level_pct <= 500:
        raise ValueError(f"demand level {level_pct}% outside the supported 50..500 range")
    if not reqs:
        raise ValueError("base demand is empty")
    target = scaled_count(len(reqs), level_pct)
    rng = Random(f"{seed}/demand/L{level_pct}")

    if target == len(reqs):
        return DemandSet(sorted(reqs, key=lambda r: (r.request_time, r.id)), level_pct)
    if target < len(reqs):
        picked = rng.sample(reqs, target)
        picked.sort(key=lambda r: (r.request_time, r.id))
        return DemandSet(picked, level_pct)

    by_hour: dict[int, list[RideRequest]] = {}
    for r in reqs:
        by_hour.setdefault(int(r.request_time // 3600), []).append(r)
    next_id = max(r.id for r in reqs) + 1
    out = list(reqs)
    for k in range(target - len(reqs)):
        src = rng.choice(reqs)
        t = src.request_time + rng.uniform(-JITTER_S, JITTER_S)
        t = min(max(t, 0.0), DAY_S - 1e-3)
        pool = by_hour.get(int(t // 3600)) or reqs
        od = rng.choice(pool)
        out.append(RideRequest(next_id + k, t, od.origin, od.destination))
    out.sort(key=lambda r: (r.request_time, r.id))
    return DemandSet(out, level_pct)


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
        o = ids[rng.randrange(len(ids))]
        d = ids[rng.randrange(len(ids) - 1)]
        if d >= o:  # skip the origin to stay uniform over distinct pairs
            d = ids[ids.index(d) + 1]
        out.append(RideRequest(i, t, o, d))
    out.sort(key=lambda r: (r.request_time, r.id))
    return out


def load_requests(path: str) -> list[RideRequest]:
    """Read requests from CSV columns id,time_s,origin,destination."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            try:
                req = RideRequest(int(row["id"]), float(row["time_s"]),
                                  int(row["origin"]), int(row["destination"]))
            except (KeyError, TypeError):
                raise CsvParseError(path, line_no, "missing field") from None
            except ValueError as exc:
                raise CsvParseError(path, line_no, str(exc)) from None
            out.append(req)
    return out


def save_requests(requests: list[RideRequest], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("id,time_s,origin,destination\n")
        for r in sorted(requests, key=lambda r: (r.request_time, r.id)):
            fh.write(f"{r.id},{r.request_time:.3f},{r.origin},{r.destination}\n")


def load_supply(path: str) -> SupplySchedule:
    """Read an hourly schedule from CSV columns hour,vehicles."""
    counts = [0] * 24
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            try:
                hour = int(row["hour"])
                vehicles = int(row["vehicles"])
            except (KeyError, TypeError, ValueError):
                raise CsvParseError(path, line_no, "bad hour/vehicles row") from None
            if not 0 <= hour < 24:
                raise CsvParseError(path, line_no, f"hour {hour} outside 0..23")
            if hour in seen:
                raise CsvParseError(path, line_no, f"duplicate hour {hour}")
            seen.add(hour)
            counts[hour] = vehicles
    return SupplySchedule(counts)
