"""Vehicle state, dispatch policies, and the matching/insertion logic.

Four ways of putting riders on vehicles live here: exclusive greedy
nearest-vehicle assignment, pooled greedy matching onto occupied vehicles,
schedule insertion for a dedicated door-to-door fleet, and timetable
boarding on a fixed route. All distance reasoning walks the same canonical
network paths the vehicles later drive, edge by edge in the same order, so
a feasibility prediction and the realized trip agree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .costing import (crowdsourced_operating_cost, dedicated_operating_cost,
                      fixed_route_operating_cost)
from .demand import RideRequest
from .network import Network

DEFAULT_SEATS = 8
MAX_DETOUR_FACTOR = 2.0
MAX_WAIT_S = 1800.0
BATCH_INTERVAL_S = 30.0
WALK_SPEED_KMH = 5.0

PICKUP = "pickup"
DROPOFF = "dropoff"

# service tags used by the hybrid router and trip records
FRT = "FRT"
CROWDSOURCED = "CROWDSOURCED"
DEDICATED = "DEDICATED"


def walk_minutes(dist_m: float, speed_kmh: float = WALK_SPEED_KMH) -> float:
    return dist_m / (speed_kmh * 1000.0 / 60.0)


def walk_seconds(dist_m: float, speed_kmh: float = WALK_SPEED_KMH) -> float:
    return dist_m / (speed_kmh * 1000.0 / 3600.0)


def catchment_m(minutes: float, speed_kmh: float = WALK_SPEED_KMH) -> float:
    return minutes * speed_kmh * 1000.0 / 60.0


@dataclass(frozen=True)
class Stop:
    node: int
    action: str  # PICKUP or DROPOFF
    request_id: int


@dataclass
class Vehicle:
    """One vehicle and its full runtime state inside a scenario run.

    While driving, `position` still names the tail of the edge in flight;
    `inflight` carries the edge and `next_node_time` the arrival at its
    head. Dispatch decisions anchor on that head node: whatever is decided,
    the vehicle first finishes the edge it is on.
    """

    id: int
    position: int
    shift_start_s: float
    shift_end_s: float
    capacity: int = DEFAULT_SEATS
    schedule: list[Stop] = field(default_factory=list)
    odometer_m: float = 0.0
    aboard_m: dict[int, float] = field(default_factory=dict)  # request -> metres ridden
    inflight: object = None  # Edge while driving
    next_node_time: float = 0.0
    in_service: bool = False
    retiring: bool = False
    service_end_s: float | None = None
    passenger_seconds: float = 0.0

    def anchor(self) -> int:
        return self.inflight.to if self.inflight is not None else self.position

    def anchor_time(self, now: float) -> float:
        return self.next_node_time if self.inflight is not None else now

    def inflight_m(self) -> float:
        return self.inflight.length_m if self.inflight is not None else 0.0

    def is_idle(self) -> bool:
        return (self.in_service and not self.retiring
                and not self.schedule and self.inflight is None)

    def assigned_requests(self) -> set[int]:
        return set(self.aboard_m) | {s.request_id for s in self.schedule}


# -- dispatch policies ---------------------------------------------------------
#
# A policy is one of the four fleets a service design is built from: how its
# riders are put on vehicles, how many vehicles it owns, and what it costs a
# year. `kind` tags its trip records. The on-demand policies' `assign`
# yields (request, vehicle, new schedule) one decision at a time, with no
# vehicle for a rejected request; the engine applies each decision before
# drawing the next. A reactive policy dispatches as soon as a request
# arrives or a vehicle frees up instead of waiting for the batch; a reactive
# shared one also when a vehicle serves a stop and drives on, since it may
# now host a pooled rider.


class _Crowdsourced:
    """Hired drivers in their own cars, paid per trip plus any surge."""

    reactive = True
    shared = False

    def vehicles_owned(self, supply) -> int:
        return 0

    def operating_cost(self, r, params, surge_pct: int):
        return crowdsourced_operating_cost(r.avg_ivtt_min, r.avg_trip_km, r.served, params,
                                           shared=self.shared, surge_pct=surge_pct)


@dataclass(frozen=True)
class GreedyExclusive(_Crowdsourced):
    kind: str = "greedy_exclusive"

    def assign(self, net, vehicles, waiting, requests, now):
        idle = [v for v in vehicles if v.is_idle()]
        for req, veh in greedy_assign(net, idle, waiting):
            yield req, veh, ride_stops(req)


@dataclass(frozen=True)
class SharedGreedy(_Crowdsourced):
    max_detour: float = MAX_DETOUR_FACTOR
    kind: str = "shared_greedy"
    shared = True

    def assign(self, net, vehicles, waiting, requests, now):
        for m in shared_greedy_match(net, vehicles, waiting, requests, now,
                                     self.max_detour):
            yield m.request, m.vehicle, list(m.new_schedule)


@dataclass(frozen=True)
class DarpInsertion:
    max_detour: float = MAX_DETOUR_FACTOR
    max_wait_s: float = MAX_WAIT_S
    kind: str = "darp"
    reactive = False

    def assign(self, net, vehicles, waiting, requests, now):
        for req in waiting:
            res = darp_insert(net, vehicles, req, requests, now,
                              self.max_detour, self.max_wait_s)
            if not res.accepted:
                yield req, None, None
                continue
            v = vehicles[res.vehicle_id]
            schedule = list(v.schedule)
            schedule.insert(res.pickup_index, Stop(req.origin, PICKUP, req.id))
            schedule.insert(res.dropoff_index, Stop(req.destination, DROPOFF, req.id))
            yield req, v, schedule

    def vehicles_owned(self, supply) -> int:
        return max(supply.hourly_counts)

    def operating_cost(self, r, params, surge_pct: int):
        return dedicated_operating_cost(r.avg_vehicles, r.operating_hours, r.served, params)


@dataclass(frozen=True)
class FixedRoute:
    spec: "RouteSpec" = None
    vehicles: int = 2
    kind: str = "frt"

    def vehicles_owned(self, supply) -> int:
        return self.vehicles

    def operating_cost(self, r, params, surge_pct: int):
        return fixed_route_operating_cost(self.vehicles, r.total_km, r.operating_hours,
                                          r.served, params, km_is_per_vehicle=False)


# -- plan tracing --------------------------------------------------------------


@dataclass
class PlanTrace:
    arrivals: list[float]          # arrival time at each stop, plan order
    final_m: dict[int, float]      # request -> on-board metres at its dropoff
    pickup_times: dict[int, float]
    plan_m: float                  # metres driven from the anchor through all stops
    max_load: int


def trace_plan(net: Network, anchor: int, start_time: float, stops: list[Stop],
               aboard_m: dict[int, float], inflight_m: float = 0.0) -> PlanTrace:
    """Walk a stop sequence edge by edge and predict times and distances.

    Accumulation mirrors the engine's per-hop bookkeeping exactly: one edge
    at a time, left to right, so predicted on-board distances and arrival
    times are bit-identical to what the vehicle will realize if the plan is
    not disturbed. Passengers currently aboard still have the in-flight
    edge ahead of them, hence the inflight_m head start.
    """
    t = start_time
    pos = anchor
    onboard = {r: m + inflight_m for r, m in aboard_m.items()}
    final_m: dict[int, float] = {}
    pickup_times: dict[int, float] = {}
    arrivals: list[float] = []
    plan_m = 0.0
    load = len(onboard)
    max_load = load
    for stop in stops:
        while pos != stop.node:
            e = net.next_edge(pos, stop.node)
            t += e.travel_time_s
            plan_m += e.length_m
            for r in onboard:
                onboard[r] += e.length_m
            pos = e.to
        arrivals.append(t)
        if stop.action == PICKUP:
            onboard[stop.request_id] = 0.0
            pickup_times[stop.request_id] = t
            load += 1
            max_load = max(max_load, load)
        else:
            final_m[stop.request_id] = onboard.pop(stop.request_id)
            load -= 1
    return PlanTrace(arrivals, final_m, pickup_times, plan_m, max_load)


# -- greedy exclusive ----------------------------------------------------------


def greedy_assign(net: Network, idle_vehicles: list[Vehicle],
                  waiting_queue: list[RideRequest]) -> list[tuple[RideRequest, Vehicle]]:
    """First come, first served: each waiting request takes the nearest idle vehicle.

    Distance is driven network distance from the vehicle's position to the
    request origin; ties go to the lowest vehicle id. Requests beyond the
    idle fleet stay queued.
    """
    idle = sorted(idle_vehicles, key=lambda v: v.id)
    assignments = []
    for req in waiting_queue:
        if not idle:
            break
        best = min(idle, key=lambda v: (net.distance_m(v.position, req.origin), v.id))
        idle.remove(best)
        assignments.append((req, best))
    return assignments


def ride_stops(req: RideRequest) -> list[Stop]:
    return [Stop(req.origin, PICKUP, req.id), Stop(req.destination, DROPOFF, req.id)]


# -- shared greedy -------------------------------------------------------------


@dataclass(frozen=True)
class SharedAssignment:
    request: RideRequest
    vehicle: Vehicle
    new_schedule: tuple[Stop, ...]
    added_m: float


def shared_greedy_match(net: Network, vehicles: list[Vehicle],
                        waiting_queue: list[RideRequest],
                        requests: dict[int, RideRequest], now: float,
                        max_detour: float = MAX_DETOUR_FACTOR) -> list[SharedAssignment]:
    """Greedy matching with one pooled pickup allowed per occupied vehicle.

    A waiting request may take an idle vehicle, or join a vehicle carrying
    exactly one passenger toward that passenger's destination, provided both
    riders' total on-board distances stay within max_detour times their own
    direct distances. Among feasible hosts the one adding the least driving
    wins; ties go to the lower vehicle id. A vehicle never carries more
    than two concurrent requests.
    """
    idle = sorted((v for v in vehicles if v.is_idle()), key=lambda v: v.id)
    hosts = sorted((v for v in vehicles
                    if v.in_service and not v.retiring
                    and len(v.aboard_m) == 1 and len(v.schedule) == 1
                    and v.schedule[0].action == DROPOFF),
                   key=lambda v: v.id)
    out = []
    for req in waiting_queue:
        direct_new = net.distance_m(req.origin, req.destination)
        best = None  # (added_m, vehicle_id, order_rank, schedule, vehicle)
        for v in idle:
            plan = ride_stops(req)
            tr = trace_plan(net, v.position, now, plan, {})
            cand = (tr.plan_m, v.id, 0, tuple(plan), v)
            if best is None or cand[:3] < best[:3]:
                best = cand
        for v in hosts:
            old_drop = v.schedule[0]
            rider = old_drop.request_id
            base = trace_plan(net, v.anchor(), v.anchor_time(now),
                              v.schedule, v.aboard_m, v.inflight_m())
            direct_old = net.distance_m(requests[rider].origin,
                                        requests[rider].destination)
            pickup = Stop(req.origin, PICKUP, req.id)
            drop = Stop(req.destination, DROPOFF, req.id)
            for rank, cand_sched in enumerate(
                    ([pickup, drop, old_drop], [pickup, old_drop, drop])):
                tr = trace_plan(net, v.anchor(), v.anchor_time(now),
                                cand_sched, v.aboard_m, v.inflight_m())
                if tr.final_m[req.id] > max_detour * direct_new:
                    continue
                if tr.final_m[rider] > max_detour * direct_old:
                    continue
                added = tr.plan_m - base.plan_m
                cand = (added, v.id, rank + 1, tuple(cand_sched), v)
                if best is None or cand[:3] < best[:3]:
                    best = cand
        if best is not None:
            added, _vid, _rank, sched, veh = best
            out.append(SharedAssignment(req, veh, sched, added))
            if veh in idle:
                idle.remove(veh)
            else:
                hosts.remove(veh)  # now carries two concurrent requests
    return out


# -- dedicated fleet insertion ---------------------------------------------------


@dataclass(frozen=True)
class InsertionResult:
    accepted: bool
    vehicle_id: int | None = None
    pickup_index: int | None = None
    dropoff_index: int | None = None
    added_m: float | None = None
    predicted_wait_s: float | None = None
    predicted_ride_m: float | None = None


def darp_insert(net: Network, vehicles: list[Vehicle], request: RideRequest,
                requests: dict[int, RideRequest], now: float,
                max_detour: float = MAX_DETOUR_FACTOR,
                max_wait_s: float = MAX_WAIT_S) -> InsertionResult:
    """Cheapest feasible insertion of a request into the fleet's schedules.

    Every (pickup, dropoff) position pair in every vehicle's stop sequence
    is enumerated. An insertion is feasible when the new rider would wait
    no longer than max_wait_s from request time, no affected rider's pickup
    slips past its own wait bound, every rider's on-board distance stays
    within max_detour times its direct distance, and seats never run out.
    The insertion adding the least fleet driving wins; ties prefer the
    lower vehicle id, then the earlier pickup, then the earlier dropoff.
    If nothing is feasible the request is rejected.
    """
    pickup = Stop(request.origin, PICKUP, request.id)
    drop = Stop(request.destination, DROPOFF, request.id)
    best = None  # (added_m, vehicle_id, i, j, trace, vehicle)
    for v in sorted(vehicles, key=lambda v: v.id):
        if not v.in_service or v.retiring:
            continue
        base = trace_plan(net, v.anchor(), v.anchor_time(now),
                          v.schedule, v.aboard_m, v.inflight_m())
        n = len(v.schedule)
        for i in range(n + 1):
            for j in range(i + 1, n + 2):
                cand = list(v.schedule)
                cand.insert(i, pickup)
                cand.insert(j, drop)
                tr = trace_plan(net, v.anchor(), v.anchor_time(now),
                                cand, v.aboard_m, v.inflight_m())
                if tr.max_load > v.capacity:
                    continue
                if not _waits_ok(tr, request, requests, max_wait_s):
                    continue
                if not _detours_ok(net, tr, requests, max_detour):
                    continue
                added = tr.plan_m - base.plan_m
                key = (added, v.id, i, j)
                if best is None or key < best[0]:
                    best = (key, tr, v)
    if best is None:
        return InsertionResult(accepted=False)
    (added, vid, i, j), tr, _v = best
    return InsertionResult(True, vid, i, j, added,
                           tr.pickup_times[request.id] - request.request_time,
                           tr.final_m[request.id])


def _waits_ok(tr: PlanTrace, new_request: RideRequest,
              requests: dict[int, RideRequest], max_wait_s: float) -> bool:
    for rid, t_pick in tr.pickup_times.items():
        req_time = (new_request.request_time if rid == new_request.id
                    else requests[rid].request_time)
        if t_pick - req_time > max_wait_s:
            return False
    return True


def _detours_ok(net: Network, tr: PlanTrace, requests: dict[int, RideRequest],
                max_detour: float) -> bool:
    for rid, ridden in tr.final_m.items():
        r = requests[rid]
        if ridden > max_detour * net.distance_m(r.origin, r.destination):
            return False
    return True


# -- fixed route ---------------------------------------------------------------


@dataclass(frozen=True)
class RouteSpec:
    """A fixed corridor service: ordered stops, window, and staffing rule."""

    stops: tuple[int, ...]
    cruise_speed_mps: float = 11.1
    window: tuple[float, float] = (7 * 3600.0, 21 * 3600.0)
    catchment_min: float = 7.0
    vehicles_base: int = 2
    vehicles_high: int = 3
    high_demand_threshold_pct: float = 300.0
    dwell_s: float = 20.0

    def __post_init__(self):
        if len(self.stops) < 2:
            raise ValueError("route needs at least two stops")
        if len(set(self.stops)) != len(self.stops):
            raise ValueError("route stops must be distinct")
        if self.window[0] >= self.window[1]:
            raise ValueError("route window must be a forward interval")

    def vehicle_count(self, demand_level_pct: float) -> int:
        return (self.vehicles_high if demand_level_pct >= self.high_demand_threshold_pct
                else self.vehicles_base)


@dataclass(frozen=True)
class TimetableRun:
    vehicle: int
    direction: int              # +1 outbound (stop order as listed), -1 inbound
    stop_seq: tuple[int, ...]   # route stop indices in travel order
    arrivals: tuple[float, ...]
    departures: tuple[float, ...]
    length_m: float


@dataclass(frozen=True)
class Timetable:
    spec: RouteSpec
    n_vehicles: int
    leg_m_out: tuple[float, ...]   # metres between consecutive stops, outbound
    leg_m_in: tuple[float, ...]    # metres between consecutive stops of the reversed order
    cycle_s: float
    headway_s: float
    runs: tuple[TimetableRun, ...]

    def route_length_m(self) -> float:
        return sum(self.leg_m_out)


def build_timetable(net: Network, spec: RouteSpec, n_vehicles: int) -> Timetable:
    """Lay out every run each vehicle drives inside the service window.

    Vehicles loop the corridor end to end and back, dwelling at each stop;
    starts are staggered by the headway (cycle time over fleet size). A run
    begun before the window closes is completed past it so nobody is
    stranded mid-line.
    """
    if n_vehicles < 1:
        raise ValueError("need at least one vehicle")
    n = len(spec.stops)
    leg_m_out = tuple(net.shortest_path(spec.stops[k], spec.stops[k + 1]).total_length_m
                      for k in range(n - 1))
    leg_m_in = tuple(net.shortest_path(spec.stops[k + 1], spec.stops[k]).total_length_m
                     for k in reversed(range(n - 1)))
    leg_s_out = tuple(m / spec.cruise_speed_mps for m in leg_m_out)
    leg_s_in = tuple(m / spec.cruise_speed_mps for m in leg_m_in)
    # one-way block: drive every leg, dwell at every stop reached
    block_out = sum(leg_s_out) + spec.dwell_s * (n - 1)
    block_in = sum(leg_s_in) + spec.dwell_s * (n - 1)
    cycle = block_out + block_in
    headway = cycle / n_vehicles
    w0, w1 = spec.window

    runs = []
    for v in range(n_vehicles):
        t = w0 + v * headway
        direction = +1
        while t < w1:
            legs = leg_s_out if direction > 0 else leg_s_in
            length = sum(leg_m_out) if direction > 0 else sum(leg_m_in)
            seq = tuple(range(n)) if direction > 0 else tuple(reversed(range(n)))
            arr = [t]
            dep = [t]
            for leg in legs:
                a = dep[-1] + leg
                arr.append(a)
                dep.append(a + spec.dwell_s)
            runs.append(TimetableRun(v, direction, seq, tuple(arr), tuple(dep), length))
            t = dep[-1]  # last dwell doubles as the turnaround
            direction = -direction
    runs.sort(key=lambda r: (r.departures[0], r.vehicle))
    return Timetable(spec, n_vehicles, leg_m_out, leg_m_in, cycle, headway, tuple(runs))


@dataclass(frozen=True)
class BoardingPlan:
    board_stop: int            # route stop index
    alight_stop: int
    run_index: int             # index into timetable.runs
    departure_s: float
    walk_min: float            # both ends together
    wait_min: float            # at the stop, after walking
    ivtt_min: float
    ride_km: float


@dataclass(frozen=True)
class Ineligible:
    reason: str


def nearest_stop(net: Network, spec: RouteSpec, node: int) -> tuple[int, float]:
    """Closest route stop by straight-line walk; returns (stop index, metres)."""
    best = min(range(len(spec.stops)),
               key=lambda k: (net.straight_line_m(node, spec.stops[k]), k))
    return best, net.straight_line_m(node, spec.stops[best])


def frt_board(net: Network, request: RideRequest, spec: RouteSpec,
              timetable: Timetable, start_run: int = 0) -> BoardingPlan | Ineligible:
    """Plan a fixed-route trip: walk, wait for the next departure, ride, walk.

    Eligible only when both trip ends are within the walking catchment of a
    stop and the request falls inside the service window. The rider walks
    to the nearest stop, takes the first departure in the right direction
    at or after arriving, and walks from the alighting stop. start_run lets
    capacity-aware callers resume the search at a later departure.
    """
    w0, w1 = spec.window
    if not w0 <= request.request_time < w1:
        return Ineligible("outside_window")
    reach = catchment_m(spec.catchment_min)
    bi, walk_o = nearest_stop(net, spec, request.origin)
    ai, walk_d = nearest_stop(net, spec, request.destination)
    if walk_o > reach or walk_d > reach:
        return Ineligible("walk_too_far")
    if bi == ai:
        return Ineligible("same_stop")
    direction = +1 if bi < ai else -1
    ready = request.request_time + walk_seconds(walk_o)
    for idx in range(start_run, len(timetable.runs)):
        run = timetable.runs[idx]
        if run.direction != direction:
            continue
        pos = run.stop_seq.index(bi)
        dep = run.departures[pos]
        if dep < ready:
            continue
        pos_out = run.stop_seq.index(ai)
        ivtt_s = run.arrivals[pos_out] - dep
        lo, hi = min(bi, ai), max(bi, ai)
        legs = timetable.leg_m_out[lo:hi] if direction > 0 else \
            tuple(reversed(timetable.leg_m_in))[lo:hi]
        ride_m = sum(legs)
        return BoardingPlan(bi, ai, idx, dep,
                            walk_minutes(walk_o) + walk_minutes(walk_d),
                            (dep - ready) / 60.0, ivtt_s / 60.0, ride_m / 1000.0)
    return Ineligible("no_departure")


# -- hybrid routing ------------------------------------------------------------


def in_corridor(net: Network, spec: RouteSpec, node: int) -> bool:
    """Whether a node lies inside the walking catchment of any route stop."""
    reach = catchment_m(spec.catchment_min)
    return any(net.straight_line_m(node, s) <= reach for s in spec.stops)


def hybrid_route(net: Network, request: RideRequest, spec: RouteSpec,
                 mode: str) -> str:
    """Decide which component of a hybrid system serves a request.

    frt_based sends corridor-eligible riders to the fixed route and
    everyone else to the crowdsourced fleet; odt_based sends riders whose
    trip stays inside the corridor catchment during the service window to
    the dedicated door-to-door fleet instead.
    """
    w0, w1 = spec.window
    in_window = w0 <= request.request_time < w1
    if mode == "frt_based":
        if not in_window:
            return CROWDSOURCED
        reach = catchment_m(spec.catchment_min)
        bi, walk_o = nearest_stop(net, spec, request.origin)
        ai, walk_d = nearest_stop(net, spec, request.destination)
        if walk_o <= reach and walk_d <= reach and bi != ai:
            return FRT
        return CROWDSOURCED
    if mode == "odt_based":
        if in_window and in_corridor(net, spec, request.origin) \
                and in_corridor(net, spec, request.destination):
            return DEDICATED
        return CROWDSOURCED
    raise ValueError(f"unknown hybrid mode '{mode}'")
