"""Distributional analysis: zonal outcomes, Lorenz curves, and Gini indices.

Service outcomes (usage counts, mean waits, mean ride times) are aggregated
per origin zone, weighted by how many residents of a demographic group live
there, and summarized by the Gini index of the resulting Lorenz curve. A
Gini of 0 means the outcome is spread exactly proportionally to the group's
population; 1 means a single zone holds everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

from .network import ZONE_ATTRIBUTES, Zone

EQUITY_METRICS = ("usage", "wait", "ivtt")


@dataclass(frozen=True)
class ZonalOutcome:
    zone_id: str
    outcome: float   # usage count or mean minutes, by metric
    weight: float    # residents of the analyzed group in the zone


@dataclass(frozen=True)
class LorenzCurve:
    points: tuple[tuple[float, float], ...]  # (cum weight share, cum outcome share)


@dataclass(frozen=True)
class GiniResult:
    attribute: str
    metric: str
    gini: float
    curve: LorenzCurve  # the curve the index was taken from


def group_weight(zone: Zone, attribute: str) -> float:
    """Resident count of the attribute's group in a zone.

    Demographic attributes hold the group's population share, so the weight
    is share times population. Population density is a zone-level value
    rather than a share; its analysis weights zones by plain population.
    A zones file refuses a share outside [0, 1] at its cell.
    """
    if attribute == "pop_density":
        return zone.population
    share = zone.attrs.get(attribute)
    if share is None:
        raise ValueError(f"zone {zone.zone_id} lacks attribute '{attribute}'")
    return share * zone.population


def zonal_outcomes(trips, zones: dict[str, Zone], metric: str,
                   attribute: str) -> list[ZonalOutcome]:
    """Aggregate served trips into per-zone outcomes for one metric.

    Trips are attributed to their origin zone. usage counts served trips;
    wait and ivtt average the respective minutes over served trips. Zones
    without a served trip keep a zero usage outcome but are excluded from
    the time metrics, where their mean is undefined. Trips starting at
    unzoned nodes are skipped.
    """
    if metric not in EQUITY_METRICS:
        raise ValueError(f"unknown metric '{metric}'")
    per_zone: dict[str, list] = {z: [] for z in zones}
    for t in trips:
        if t.served and t.origin_zone in per_zone:
            per_zone[t.origin_zone].append(t)
    out = []
    for zone_id in sorted(zones):
        trips_here = per_zone[zone_id]
        weight = group_weight(zones[zone_id], attribute)
        if metric == "usage":
            out.append(ZonalOutcome(zone_id, float(len(trips_here)), weight))
        elif trips_here:
            vals = [t.wait_min if metric == "wait" else t.ivtt_min for t in trips_here]
            out.append(ZonalOutcome(zone_id, fmean(vals), weight))
        # zones with no served trips drop out of the time metrics
    return out


def lorenz(outcomes: list[ZonalOutcome]) -> LorenzCurve:
    """Lorenz curve of outcomes over weights, anchored at (0,0) and (1,1).

    Zones are ordered by outcome per unit weight ascending, the standard
    Lorenz ordering, so the curve is convex and lies on or below the
    diagonal. Zero-weight zones sort last (their per-unit rate is infinite)
    unless their outcome is zero too, in which case they contribute nothing
    and are dropped.
    """
    total_w = sum(o.weight for o in outcomes)
    total_o = sum(o.outcome for o in outcomes)
    if total_w <= 0:
        raise ValueError("total weight must be positive")
    if total_o < 0 or any(o.outcome < 0 or o.weight < 0 for o in outcomes):
        raise ValueError("outcomes and weights must be non-negative")
    if total_o == 0:
        raise ValueError("all outcomes are zero; Lorenz curve undefined")

    def rate(o: ZonalOutcome) -> float:
        return o.outcome / o.weight if o.weight > 0 else float("inf")

    kept = [o for o in outcomes if not (o.weight == 0 and o.outcome == 0)]
    kept.sort(key=lambda o: (rate(o), o.zone_id))
    points = [(0.0, 0.0)]
    cw = co = 0.0
    for o in kept:
        cw += o.weight
        co += o.outcome
        points.append((cw / total_w, co / total_o))
    points[-1] = (1.0, 1.0)  # pin the endpoint against accumulation noise
    return LorenzCurve(tuple(points))


def gini(curve: LorenzCurve) -> float:
    """Gini index: one minus twice the area under the Lorenz curve.

    The trapezoid-rule area is exact for the piecewise-linear curve. Tiny
    negative values from float accumulation clamp to the [0, 1] range the
    index lives in.
    """
    pts = curve.points
    if len(pts) < 2 or pts[0] != (0.0, 0.0) or pts[-1] != (1.0, 1.0):
        raise ValueError("curve must run from (0,0) to (1,1)")
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 < x0:
            raise ValueError("curve x-coordinates must be non-decreasing")
        area += (x1 - x0) * (y0 + y1) / 2.0
    g = 1.0 - 2.0 * area
    return min(1.0, max(0.0, g))


def equity_report(trips, zones: dict[str, Zone]) -> list[GiniResult]:
    """Gini index for every attribute and metric combination.

    Combinations without enough data (no zones with served trips, or all
    outcomes zero) are skipped rather than reported as spurious zeros.
    """
    out = []
    for attribute in ZONE_ATTRIBUTES:
        for metric in EQUITY_METRICS:
            outcomes = zonal_outcomes(trips, zones, metric, attribute)
            try:
                curve = lorenz(outcomes)
                g = gini(curve)
            except ValueError:
                continue
            out.append(GiniResult(attribute, metric, g, curve))
    return out
