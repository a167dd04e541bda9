"""Generalized cost curves, switching points between services, and validation stats.

Generalized cost folds rider time (walk + wait + in-vehicle, priced at a
value of time) into the yearly service cost, giving one comparable number
per service and demand level. Curves over a demand-density grid are then
scanned for the densities where the cheapest service changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from statistics import fmean, stdev

from .costing import DAYS_PER_YEAR, as_money, to_cents

SERVED_FRACTION_THRESHOLD = 0.8
CAPACITY_FLAG = "capacity_exceeded"

# Two-sided 95% critical values of Student's t, df 1..30. Larger samples
# use the normal 1.96.
_T_CRIT_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


class InsufficientDataError(ValueError):
    """Fewer than two comparable curve points; no crossing analysis possible."""


@dataclass(frozen=True)
class GCPoint:
    system: str
    demand_level_pct: int
    demand_density: float  # requests per day per km^2
    gc: Decimal
    served_per_day: int
    served_fraction: float
    flag: str = ""  # CAPACITY_FLAG when the service kept up with < threshold of demand


@dataclass(frozen=True)
class SwitchingPoint:
    system_a: str
    system_b: str
    density: float
    bracket_lo: float
    bracket_hi: float


@dataclass(frozen=True)
class TTestResult:
    mean_diff: float
    sd_diff: float
    n: int
    t: float
    critical: float
    significant_95: bool


def generalized_cost(walk_min, wait_min, ivtt_min, served_per_day, value_of_time,
                     net_annual_cost) -> Decimal:
    """Yearly generalized cost: rider time monetized plus net annual cost.

    Time terms are per-trip averages in minutes; the time block is
    (walk + wait + ivtt) / 60 * served_per_day * DAYS_PER_YEAR * value_of_time.
    """
    hours = (as_money(walk_min) + as_money(wait_min) + as_money(ivtt_min)) / 60
    time_cost = hours * as_money(served_per_day) * DAYS_PER_YEAR * as_money(value_of_time)
    return to_cents(time_cost + as_money(net_annual_cost))


def gc_point(system: str, demand_level_pct: int, demand_density: float,
             walk_min, wait_min, ivtt_min, served_per_day, value_of_time,
             net_annual_cost, served_fraction: float,
             threshold: float = SERVED_FRACTION_THRESHOLD) -> GCPoint:
    gc = generalized_cost(walk_min, wait_min, ivtt_min, served_per_day,
                          value_of_time, net_annual_cost)
    flag = CAPACITY_FLAG if served_fraction < threshold else ""
    return GCPoint(system, demand_level_pct, demand_density, gc, served_per_day,
                   served_fraction, flag)


def sweep(points) -> dict[str, list[GCPoint]]:
    """Group generalized-cost points into one curve per system, each sorted
    by density; two points of a system at one density are refused. A missing
    level simply stays absent and later crossing analysis will not
    interpolate over the gap.
    """
    curves: dict[str, list[GCPoint]] = {}
    for p in points:
        curves.setdefault(p.system, []).append(p)
    for pts in curves.values():
        pts.sort(key=lambda p: p.demand_density)
        for p, q in zip(pts, pts[1:]):
            if p.demand_density == q.demand_density:
                raise ValueError(f"duplicate density {p.demand_density} for {p.system}")
    return curves


def switching_points(curve_a: list[GCPoint], curve_b: list[GCPoint]) -> list[SwitchingPoint]:
    """Densities where two generalized-cost curves cross.

    Both curves must be sampled on a shared density grid. Capacity-flagged
    points are excluded, and a crossing is only searched between adjacent
    grid densities where both curves are comparable; sign changes locate a
    crossing by linear interpolation, an exact tie at a grid density is
    reported at that density, and identical curves report nothing.
    """
    if not curve_a or not curve_b:
        raise InsufficientDataError("empty curve")
    name_a, name_b = curve_a[0].system, curve_b[0].system
    a_by_x = {p.demand_density: p for p in curve_a}
    b_by_x = {p.demand_density: p for p in curve_b}
    grid = sorted(set(a_by_x) | set(b_by_x))
    comparable = [x for x in grid
                  if x in a_by_x and x in b_by_x
                  and not a_by_x[x].flag and not b_by_x[x].flag]
    if len(comparable) < 2:
        raise InsufficientDataError(
            f"only {len(comparable)} comparable points between {name_a} and {name_b}")
    xs = comparable
    diffs = [float(a_by_x[x].gc - b_by_x[x].gc) for x in xs]
    if all(d == 0.0 for d in diffs):
        return []
    grid_index = {x: i for i, x in enumerate(grid)}

    out = []
    for i, x in enumerate(xs):
        if diffs[i] == 0.0:
            out.append(SwitchingPoint(name_a, name_b, x, x, x))
    for i in range(len(xs) - 1):
        lo, hi = xs[i], xs[i + 1]
        if grid_index[hi] - grid_index[lo] != 1:
            continue  # gap in the shared grid; do not interpolate across it
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 * d1 < 0.0:
            x = lo + d0 * (hi - lo) / (d0 - d1)
            out.append(SwitchingPoint(name_a, name_b, x, lo, hi))
    out.sort(key=lambda s: s.density)
    return out


def paired_t_test(sample_a: list[float], sample_b: list[float]) -> TTestResult:
    """Paired two-sided t-test at the 95% level.

    t = mean(d) / (sd(d) / sqrt(n)) with the sample standard deviation.
    Identical samples give t = 0. Significance uses 1.96 for n > 30 and the
    exact Student critical value for smaller samples.
    """
    if len(sample_a) != len(sample_b):
        raise ValueError("paired samples must have equal length")
    n = len(sample_a)
    if n < 2:
        raise ValueError("need at least two pairs")
    diffs = [a - b for a, b in zip(sample_a, sample_b)]
    mean_d = fmean(diffs)
    sd_d = stdev(diffs)
    if sd_d == 0.0:
        t = 0.0 if mean_d == 0.0 else math.copysign(math.inf, mean_d)
    else:
        t = mean_d / (sd_d / math.sqrt(n))
    critical = 1.96 if n > 30 else _T_CRIT_95[n - 1]
    return TTestResult(mean_d, sd_d, n, t, critical, abs(t) > critical)
