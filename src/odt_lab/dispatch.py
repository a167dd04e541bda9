"""Vehicle state, dispatch policies, and the matching/insertion logic.

Four ways of putting riders on vehicles live here: exclusive greedy
nearest-vehicle assignment, timetable boarding on a fixed route, and two
fleets that share one cheapest-insertion search, `_cheapest_insertion`.
The on-demand ones are lent the vehicles the engine has on duty and its
queue of waiting riders, neither copied; whether a vehicle is on duty is
decided in the engine alone, and here an idle vehicle is one with an empty
schedule. The exclusive fleet's pass ends at once when none is idle.
Pooled crowdsourced matching offers the search the idle vehicles and
single-rider hosts, with pickup-first slots and no wait bound, and leaves
a request no vehicle can take queued. The dedicated door-to-door fleet
offers every slot of every vehicle, bounds waits, and rejects such a
request. The search screens each slot in O(1) from leg distances and
per-vehicle tables of its current plan, which follow the plan as the
vehicle drives and serves stops, or, for an idle vehicle's one slot, from
its anchor alone, then walks the survivors best-first by estimated added
metres, and stops once no estimate left can beat the best walk. The walk,
`trace_plan`, is the only exact feasibility check. It drives the same legs
the vehicles later drive, each the cached canonical path
`Network.shortest_path` gives, with clock and odometer summed edge by edge
as the engine sums a vehicle's leg, and reads ridden metres off one plan
odometer as the engine does, so a feasibility prediction and the realized
trip agree to the last bit. It checks seats and waits at each pickup and
the detour cap at each dropoff, and stops at the first broken promise.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache

from .config import CorridorConfig
from .costing import (crowdsourced_operating_cost, dedicated_operating_cost,
                      fixed_route_operating_cost)
from .demand import RideRequest
from .network import _EPS, Network

DEFAULT_SEATS = 8
MAX_DETOUR_FACTOR = 2.0
MAX_WAIT_S = 1800.0
BATCH_INTERVAL_S = 30.0
WALK_SPEED_KMH = 5.0

PICKUP = "pickup"
DROPOFF = "dropoff"


def walk_minutes(dist_m: float) -> float:
    return dist_m / (WALK_SPEED_KMH * 1000.0 / 60.0)


def walk_seconds(dist_m: float) -> float:
    return dist_m / (WALK_SPEED_KMH * 1000.0 / 3600.0)


def catchment_m(minutes: float) -> float:
    return minutes * WALK_SPEED_KMH * 1000.0 / 60.0


@dataclass(frozen=True)
class Stop:
    node: int
    action: str  # PICKUP or DROPOFF
    request_id: int


@dataclass
class Vehicle:
    """One vehicle's position, plan and riders inside a scenario run.

    A vehicle drives exactly when its schedule is non-empty, along its leg:
    the canonical path to its next stop, kept as the clock and odometer on
    reaching each edge's head, summed edge by edge, and stored last edge
    first so that passing an edge pops the list's end. Dispatch decisions
    anchor on the head of the edge in flight, which the vehicle finishes
    whatever is decided. A rider's ridden metres are the odometer at dropoff
    minus the reading kept in `picked_at_m` at pickup. `base_plan` keeps the
    insertion search's tables of the current plan, keyed by the state they
    were built from; non-empty plans only, since the search screens an
    empty plan's one slot straight from the anchor.
    """

    id: int
    position: int
    capacity: int = DEFAULT_SEATS
    schedule: list[Stop] = field(default_factory=list)
    odometer_m: float = 0.0  # metres driven so far
    picked_at_m: dict[int, float] = field(default_factory=dict)  # rider aboard -> pickup odometer
    leg: list = field(default_factory=list)  # (clock_s, odometer_m, Edge) per edge ahead
    base_plan: "_BasePlan | None" = field(default=None, repr=False, compare=False)

    def anchor(self, now: float) -> tuple[int, float, float]:
        """(node, clock, odometer) at the head of the edge in flight at now,
        or where the vehicle stands; nodes reached by now are passed."""
        while self.leg and self.leg[-1][0] <= now:
            _t, self.odometer_m, e = self.leg.pop()
            self.position = e.to
        if not self.leg:
            return self.position, now, self.odometer_m
        t, odo, e = self.leg[-1]
        return e.to, t, odo


# -- dispatch policies ---------------------------------------------------------
#
# A policy is one of the four fleets a service design is built from: how its
# riders are put on vehicles, how many vehicles it owns, and what it costs a
# year. `kind` tags its trip records. The on-demand policies' `assign` is
# offered the engine's on-duty roster, in id order, and its queue of waiting
# riders, first come first served, and yields (request, vehicle, new schedule)
# one decision at a time, with no vehicle for a rejected request; the engine
# applies each decision before drawing the next. Both are lent, not copied:
# applying a decision takes its rider off the queue, so a policy reads
# `waiting` in full before its first yield, or takes its own snapshot.
# `batch_s` is the policy's batch interval: the engine runs a pass at the
# first multiple of it at or after each event that can enable a match (a
# request arrives, a shift starts with riders waiting, a vehicle serves a
# stop and stays on duty), or at once when it is 0.


class Crowdsourced:
    """Hired drivers in their own cars, paid per trip plus any surge: the
    one kind of fleet whose cost moves with surge pricing."""

    batch_s = 0.0
    shared = False  # pooled fare, read when costing

    def vehicles_owned(self, supply) -> int:
        return 0

    def operating_cost(self, r, params, surge_pct: int):
        return crowdsourced_operating_cost(r.avg_ivtt_min, r.avg_trip_km, r.served, params,
                                           shared=self.shared, surge_pct=surge_pct)


@dataclass(frozen=True)
class GreedyExclusive(Crowdsourced):
    kind = "greedy_exclusive"

    def assign(self, net, vehicles, waiting, requests, now):
        idle = [v for v in vehicles if not v.schedule]
        if not idle:
            return
        for req, veh in greedy_assign(net, idle, waiting):
            yield req, veh, ride_stops(req)


@dataclass(frozen=True)
class SharedGreedy(Crowdsourced):
    max_detour: float = MAX_DETOUR_FACTOR
    kind = "shared_greedy"
    shared = True

    def assign(self, net, vehicles, waiting, requests, now):
        for m in shared_greedy_match(net, vehicles, waiting, requests, now,
                                     self.max_detour):
            yield m.request, m.vehicle, list(m.new_schedule)


@dataclass(frozen=True)
class DarpInsertion:
    max_detour: float = MAX_DETOUR_FACTOR
    max_wait_s: float = MAX_WAIT_S
    kind = "darp"
    batch_s = BATCH_INTERVAL_S

    def assign(self, net, vehicles, waiting, requests, now):
        by_id = {v.id: v for v in vehicles}
        for req in list(waiting):  # each decision below leaves the queue
            res = darp_insert(net, vehicles, req, requests, now,
                              self.max_detour, self.max_wait_s)
            if not res.accepted:
                yield req, None, None
                continue
            yield req, by_id[res.vehicle_id], list(res.schedule)

    def vehicles_owned(self, supply) -> int:
        return max(supply.hourly_counts)

    def operating_cost(self, r, params, surge_pct: int):
        return dedicated_operating_cost(r.avg_vehicles, r.operating_hours, r.served, params)


@dataclass(frozen=True)
class FixedRoute:
    spec: CorridorConfig
    vehicles: int
    kind = "frt"

    def vehicles_owned(self, supply) -> int:
        return self.vehicles

    def operating_cost(self, r, params, surge_pct: int):
        return fixed_route_operating_cost(self.vehicles, r.total_km, r.operating_hours,
                                          r.served, params, km_is_per_vehicle=False)


# -- plan tracing --------------------------------------------------------------


@dataclass
class PlanTrace:
    arrivals: list[float]          # arrival time at each stop, plan order
    odometers: list[float]         # odometer on reaching each stop
    final_m: dict[int, float]      # request -> on-board metres at its dropoff
    pickup_times: dict[int, float]
    plan_m: float                  # metres driven from the anchor through all stops


def trace_plan(net: Network, anchor: int, start_time: float, stops: list[Stop],
               picked_at_m: dict[int, float], odometer_m: float = 0.0,
               promises: tuple | None = None) -> PlanTrace | None:
    """Walk a stop sequence and predict times and distances.

    Each leg is the cached canonical path `net.shortest_path` returns, its
    edges added one at a time, left to right, exactly as the engine sums
    the clock and the odometer of a vehicle's leg; a rider's ridden metres
    are the odometer at dropoff minus the odometer at pickup. Predicted
    times and on-board distances are therefore bit-identical to what the
    vehicle will realize if the plan is not disturbed. picked_at_m holds
    the pickup odometer of each rider aboard, and odometer_m the reading
    on reaching the anchor, as `Vehicle.anchor` gives it.

    promises, when given, is (requests, seats, max_wait_s, max_detour), and
    the walk returns None at the first stop that breaks one: a pickup that
    overfills the seats or comes more than max_wait_s after its request, or
    a dropoff whose ride exceeds max_detour times the direct distance.
    Riders aboard never exceed the seats, so checking at pickups suffices.
    """
    if promises is not None:
        requests, seats, max_wait_s, max_detour = promises
    t = start_time
    odo = odometer_m
    pos = anchor
    picked = dict(picked_at_m)
    final_m: dict[int, float] = {}
    pickup_times: dict[int, float] = {}
    arrivals: list[float] = []
    odometers: list[float] = []
    for stop in stops:
        if pos != stop.node:
            for e in net.shortest_path(pos, stop.node):
                t += e.travel_time_s
                odo += e.length_m
            pos = stop.node
        arrivals.append(t)
        odometers.append(odo)
        rid = stop.request_id
        if stop.action == PICKUP:
            picked[rid] = odo
            pickup_times[rid] = t
            if promises is not None and (len(picked) > seats
                                         or t - requests[rid].request_time > max_wait_s):
                return None
        else:
            ridden = final_m[rid] = odo - picked.pop(rid)
            if promises is not None:
                # A ride is summed forward along its path, the direct
                # distance backward by the network's reverse tree search; the
                # network's "same length" slack absorbs the difference in
                # rounding, so a direct ride meets a cap of 1.0.
                r = requests[rid]
                cap = max_detour * net.distance_m(r.origin, r.destination)
                if ridden - cap > _EPS * (cap if cap > 1.0 else 1.0):
                    return None
    return PlanTrace(arrivals, odometers, final_m, pickup_times, odo - odometer_m)


# -- greedy exclusive ----------------------------------------------------------


def greedy_assign(net: Network, idle_vehicles: list[Vehicle],
                  waiting_queue: list[RideRequest]) -> list[tuple[RideRequest, Vehicle]]:
    """First come, first served: each waiting request takes the nearest idle vehicle.

    Distance is driven network distance from the vehicle's position to the
    request origin; ties go to the lowest vehicle id. A vehicle with no route
    there is no candidate; a request beyond the idle fleet's reach stays queued.
    """
    idle = list(idle_vehicles)
    slot = net._slot
    assignments = []
    for req in waiting_queue:
        if not idle:
            break
        to_o = net._distances_to(req.origin)
        best = min(idle, key=lambda v: (to_o[slot[v.position]], v.id))
        if to_o[slot[best.position]] < math.inf:
            idle.remove(best)
            assignments.append((req, best))
    return assignments


def ride_stops(req: RideRequest) -> list[Stop]:
    return [Stop(req.origin, PICKUP, req.id), Stop(req.destination, DROPOFF, req.id)]


# -- shared greedy -------------------------------------------------------------

# the pickup-first slots of an idle vehicle and of a single-rider host
_PICKUP_FIRST = (((0, 1),), ((0, 1), (0, 2)))


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
    direct distances. The pickup comes first and there is no wait bound.
    Among feasible hosts the one adding the least driving wins; ties go to
    the lower vehicle id, then the earlier dropoff. A vehicle never carries
    more than two concurrent requests.
    """
    # idle vehicles and single-rider hosts, fixed for the pass; each leaves
    # the pool once matched
    pool = {v.id: (v, _PICKUP_FIRST[len(v.schedule)])
            for v in vehicles
            if not v.schedule or (len(v.picked_at_m) == 1 and len(v.schedule) == 1
                                  and v.schedule[0].action == DROPOFF)}
    out = []
    for req in waiting_queue:
        if not pool:
            break
        best = _cheapest_insertion(net, pool.values(), req, requests, now,
                                   max_detour, math.inf)
        if best is not None:
            (added, vid, _i, _j), _tr, veh, schedule = best
            out.append(SharedAssignment(req, veh, tuple(schedule), added))
            del pool[vid]
    return out


# -- dedicated fleet insertion ---------------------------------------------------


@cache
def _every_slot(n: int) -> tuple[tuple[int, int], ...]:
    """Every (pickup, dropoff) index pair of a new rider in an n-stop plan,
    one shared tuple per plan length."""
    return tuple((i, j) for i in range(n + 1) for j in range(i + 1, n + 2))


@dataclass(frozen=True)
class InsertionResult:
    accepted: bool
    vehicle_id: int | None = None
    pickup_index: int | None = None
    dropoff_index: int | None = None
    added_m: float | None = None
    predicted_wait_s: float | None = None
    schedule: tuple[Stop, ...] | None = None


def darp_insert(net: Network, vehicles: list[Vehicle], request: RideRequest,
                requests: dict[int, RideRequest], now: float,
                max_detour: float = MAX_DETOUR_FACTOR,
                max_wait_s: float = MAX_WAIT_S) -> InsertionResult:
    """Cheapest feasible insertion of a request into the fleet's schedules.

    Every (pickup, dropoff) position pair in every vehicle's stop sequence
    is a candidate, under the wait bound max_wait_s and the detour cap
    max_detour; `_cheapest_insertion` holds the feasibility rule and the tie
    order, and walks only the pairs its screen cannot rule out. If nothing
    is feasible the request is rejected.
    """
    fleet = ((v, _every_slot(len(v.schedule))) for v in vehicles)
    best = _cheapest_insertion(net, fleet, request, requests, now,
                               max_detour, max_wait_s)
    if best is None:
        return InsertionResult(accepted=False)
    (added, vid, i, j), tr, _v, schedule = best
    return InsertionResult(True, vid, i, j, added,
                           tr.pickup_times[request.id] - request.request_time,
                           tuple(schedule))


def _cheapest_insertion(net: Network, candidates, request: RideRequest,
                        requests: dict[int, RideRequest], now: float,
                        max_detour: float, max_wait_s: float):
    """The insertion heuristic shared by pooled matching and DARP.

    candidates yields (vehicle, [(i, j), ...]): the new pickup goes to
    index i and its dropoff to index j of the vehicle's new schedule. A
    slot is feasible when its `trace_plan` walk keeps the vehicle's seats,
    max_wait_s and max_detour at every stop; requests must hold every
    rider, the new one included. The slot adding the least driving wins;
    ties prefer the lower vehicle id, then the earlier pickup, then the
    earlier dropoff. Returns (key, trace, vehicle, schedule) of the
    winner, key being (added_m, vehicle id, i, j), or None when no slot is
    feasible.

    Screen, then best-first, then the exact walk. Each slot's added metres
    are estimated in O(1) from the vehicle's `_BasePlan` and the distances
    into and out of the new stops; an empty plan builds no tables, and its
    one slot, (0, 1), is the drive from the anchor plus the ride. The
    estimate differs from the walk's sums only by rounding, far inside a
    slack of 1e-6 times the odometer at the plan's end plus the new rider's
    cap. A slot is skipped only when it provably breaks a promise: a full
    seat on a leg the new rider would ride, a pickup after a stop already
    too late for the new rider's wait, or a ride, the new rider's or one
    aboard on a changed leg, over its cap by more than the slack, one
    comparison per ride. The estimate is checked finite first; then each
    term's metres are finite and each table entry finite or inf, so no term
    is NaN and passing every one is passing their max. A slot that needs a
    leg with no route, estimated at inf, is infeasible like one that
    overfills a seat, and is never walked. The survivors are walked in
    increasing (estimate, vehicle id, i, j) order, and the search stops
    once an estimate exceeds the best exact added_m by more than the slack,
    so the winner and its key are those of walking every slot.
    """
    so, sd = net._slot[request.origin], net._slot[request.destination]
    to_o, to_d = net._distances_to(request.origin), net._distances_to(request.destination)
    direct = to_d[so]
    cap = max_detour * direct
    bound = cap + _EPS * (cap if cap > 1.0 else 1.0)  # the walk's own bound on the new ride
    queue = []  # (estimate, vehicle id, i, j, vehicle, where its walk starts)
    cut = 0.0  # the widest slack of the vehicles searched
    for v, slots in candidates:
        if not v.schedule:
            # an empty plan's one slot, (0, 1): to the pickup, then the ride
            anchor, clock, odometer_m = v.anchor(now)
            slack = 1e-6 * (end if (end := odometer_m + cap) > 1.0 else 1.0)
            if slack > cut:
                cut = slack
            est = to_o[net._slot[anchor]] + direct
            if (est < math.inf and direct - bound <= slack and len(v.picked_at_m) < v.capacity
                    and clock - request.request_time <= max_wait_s):
                queue.append((est, v.id, 0, 1, v, (anchor, clock, odometer_m, 0.0)))
            continue
        b = _base_plan(net, v, now, requests, max_detour)
        slack = 1e-6 * (end if (end := b.odo[-1] + cap) > 1.0 else 1.0)
        if slack > cut:
            cut = slack
        at, legs, into, riders, odo = b.slots, b.legs, b.trees, b.rider_slack, b.odo
        for i, j in slots:
            # metres added around leg i by the pickup and leg k by the
            # dropoff, and each ride they stretch against its bound
            k = j - 1
            if k == i:
                est = to_o[at[i]] + direct + into[i][sd] - legs[i]
                fits = est < math.inf and est - riders[i][j] <= slack and direct - bound <= slack
            else:
                o_next = into[i][so]
                add_o = to_o[at[i]] + o_next - legs[i]
                add_d = to_d[at[k]] + into[k][sd] - legs[k]
                est = add_o + add_d
                fits = (est < math.inf and add_o - riders[i][i + 1] <= slack
                        and add_d - riders[k][j] <= slack and est - riders[i][j] <= slack
                        and o_next + odo[k] - odo[i + 1] + to_d[at[k]] - bound <= slack)
            if (fits and b.full_from[i] >= j
                    and b.arrivals[i] - request.request_time <= max_wait_s):
                queue.append((est, v.id, i, j, v, b.start))
    if not queue:
        return None
    pickup = Stop(request.origin, PICKUP, request.id)
    drop = Stop(request.destination, DROPOFF, request.id)
    best = None
    queue.sort()  # (estimate, vehicle id, i, j) is unique: no vehicle is compared
    for est, vid, i, j, v, start in queue:
        if best is not None and est - best[0][0] > cut:
            break
        anchor, clock, odometer_m, _plan_m = start
        cand = list(v.schedule)
        cand.insert(i, pickup)
        cand.insert(j, drop)
        tr = trace_plan(net, anchor, clock, cand, v.picked_at_m, odometer_m,
                        (requests, v.capacity, max_wait_s, max_detour))
        if tr is not None:
            key = (tr.plan_m - start[3], vid, i, j)
            if best is None or key < best[0]:
                best = (key, tr, v, cand)
    return best


class _End:
    """Distances into the open end of a plan: nothing is driven after the last stop."""

    def __getitem__(self, slot: int) -> float:
        return 0.0


@dataclass
class _BasePlan:
    """A vehicle's current plan as the insertion screen reads it.

    Position 0 is the anchor and position k the k-th of n stops. Leg k runs
    from position k to k + 1; leg n is the open end after the last stop,
    0 m long, into `_End`. Built from one `trace_plan` walk, or derived from
    the vehicle's last tables as it drives and serves stops (`_base_plan`),
    and kept on the vehicle while `key` holds.
    """

    key: tuple          # (anchor, clock, odometer, stops, riders aboard, max_detour)
    start: tuple        # (anchor, clock, odometer, metres of the plan): where a walk starts
    slots: list[int]    # network slot of each position's node
    trees: list         # per leg: distances into its end, by slot
    odo: list[float]    # odometer on reaching each position
    arrivals: list[float]  # clock on reaching each position
    legs: list[float]   # metres of each leg
    full_from: list[int]  # first leg at or after k whose riders fill the seats, n + 1 if none
    # [i][j]: least detour slack in metres, the walk's tolerance included,
    # of the riders on leg i dropped at position j or later; inf with none
    rider_slack: list[list[float]]


def _base_plan(net: Network, v: Vehicle, now: float, requests: dict[int, RideRequest],
               max_detour: float) -> _BasePlan:
    """v's base plan tables, for a non-empty schedule, kept while its anchor,
    clock, odometer, schedule, riders aboard and the detour cap stay, and
    derived from the last ones when the vehicle has only driven along its leg
    and served the first s stops of their plan (s >= 0).

    Derived means: the schedule is the old one less its first s stops, the
    riders aboard are the old ones after those stops (a pickup adds its rider
    at the odometer the tables give it), and the leg ends at the clock and
    odometer the tables give stop s + 1. Then a walk from the anchor drives
    the rest of the leg, the canonical path from any node on it, to the same
    floats, and every position after the anchor is the old chain: the
    tables are the old ones shifted by s, with the anchor's own entries read
    afresh. Anything else, such as a host that picked up and dropped a second
    rider and came back to the same schedule on a different leg, is built
    from one `trace_plan` walk."""
    anchor, clock, odometer_m = v.anchor(now)
    key = (anchor, clock, odometer_m, tuple(v.schedule), tuple(v.picked_at_m.items()),
           max_detour)
    old = v.base_plan
    if old is not None:
        if old.key == key:
            return old
        done = old.key[3]
        s = len(done) - len(key[3])
        if (s >= 0 and v.leg and v.leg[0][:2] == (old.arrivals[s + 1], old.odo[s + 1])
                and old.key[5] == max_detour and done[s:] == key[3]):
            aboard = dict(old.key[4])
            for k, stop in enumerate(done[:s], 1):
                if stop.action == PICKUP:
                    aboard[stop.request_id] = old.odo[k]
                else:
                    del aboard[stop.request_id]
            if aboard == v.picked_at_m:
                v.base_plan = _BasePlan(
                    key, (anchor, clock, odometer_m, old.odo[-1] - odometer_m),
                    [net._slot[anchor], *old.slots[s + 1:]], old.trees[s:],
                    [odometer_m, *old.odo[s + 1:]], [clock, *old.arrivals[s + 1:]],
                    [old.odo[s + 1] - odometer_m, *old.legs[s + 1:]],
                    [f - s for f in old.full_from[s:]],
                    [row[s:] for row in old.rider_slack[s:]] if s else old.rider_slack)
                return v.base_plan
    stops = v.schedule
    n = len(stops)
    tr = trace_plan(net, anchor, clock, stops, v.picked_at_m, odometer_m)
    odo, arrivals = [odometer_m, *tr.odometers], [clock, *tr.arrivals]
    # leg n, the open end after the last stop, is 0 m long and nobody rides it
    slots, trees, legs = [net._slot[anchor]], [], []
    loads = [len(v.picked_at_m)]
    rider_slack = [[math.inf] * (n + 2) for _ in range(n + 1)]
    boarded = dict.fromkeys(v.picked_at_m, 0)
    for k, s in enumerate(stops, 1):
        slots.append(net._slot[s.node])
        trees.append(net._distances_to(s.node))
        legs.append(odo[k] - odo[k - 1])
        if s.action == PICKUP:
            loads.append(loads[-1] + 1)
            boarded[s.request_id] = k
            continue
        loads.append(loads[-1] - 1)
        r = requests[s.request_id]
        cap = max_detour * net.distance_m(r.origin, r.destination)
        left = cap + _EPS * (cap if cap > 1.0 else 1.0) - tr.final_m[s.request_id]
        for leg in range(boarded.pop(s.request_id), k):
            if left < rider_slack[leg][k]:
                rider_slack[leg][k] = left
    full_from = [n + 1] * (n + 2)
    for k in range(n, -1, -1):
        full_from[k] = k if loads[k] >= v.capacity else full_from[k + 1]
    for row in rider_slack[:n]:
        for j in range(n, -1, -1):
            if row[j + 1] < row[j]:
                row[j] = row[j + 1]
    v.base_plan = _BasePlan(key, (anchor, clock, odometer_m, odo[-1] - odometer_m), slots,
                            trees + [_END], odo, arrivals, legs + [0.0], full_from, rider_slack)
    return v.base_plan


_END = _End()


# -- fixed route ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # a run is its own key in a loads map
class TimetableRun:
    vehicle: int
    arrivals: tuple[float, ...]  # by stop position in travel order
    departures: tuple[float, ...]
    length_m: float


@dataclass(frozen=True)
class Timetable:
    """Each direction, outbound (stops as listed) then inbound, as one line
    in travel order: its legs' metres, and its runs by (first departure,
    vehicle)."""

    leg_m: tuple[tuple[float, ...], tuple[float, ...]]
    runs: tuple[tuple[TimetableRun, ...], tuple[TimetableRun, ...]]


def build_timetable(net: Network, spec: CorridorConfig, vehicles: int) -> Timetable:
    """Lay out every run each vehicle drives inside the service window.

    Vehicles loop the corridor end to end and back, dwelling at each stop;
    starts are staggered by the headway (cycle time over fleet size). A run
    begun before the window closes is completed past it so nobody is
    stranded mid-line. A run that does not advance the clock, such as one
    whose legs and dwells take less than its rounding, is refused: the
    window would never close.
    """
    if vehicles < 1:
        raise ValueError("need at least one vehicle")
    stops = spec.stops
    n = len(stops)
    # each leg's edges summed left to right
    leg_m = tuple(tuple(sum(e.length_m for e in net.shortest_path(a, b))
                        for a, b in zip(line, line[1:]))
                  for line in (stops, stops[::-1]))
    leg_s = [tuple(m / spec.cruise_speed_mps for m in legs) for legs in leg_m]
    # one-way block: drive every leg, dwell at every stop reached
    block_out, block_in = (sum(legs) + spec.dwell_s * (n - 1) for legs in leg_s)
    headway = (block_out + block_in) / vehicles
    w0, w1 = spec.window

    runs = ([], [])
    for v in range(vehicles):
        t = w0 + v * headway
        d = 0
        while t < w1:
            arr = [t]
            dep = [t]
            for leg in leg_s[d]:
                a = dep[-1] + leg
                arr.append(a)
                dep.append(a + spec.dwell_s)
            if not dep[-1] > t:
                raise ValueError(f"a corridor run leaving at {t} s does not advance the clock")
            runs[d].append(TimetableRun(v, tuple(arr), tuple(dep), sum(leg_m[d])))
            t = dep[-1]  # last dwell doubles as the turnaround
            d = 1 - d
    return Timetable(leg_m, tuple(tuple(sorted(line, key=lambda r: (r.departures[0], r.vehicle)))
                                  for line in runs))


@dataclass(frozen=True)
class BoardingPlan:
    board_stop: int            # route stop index
    alight_stop: int
    run: TimetableRun
    departure_s: float
    walk_min: float            # both ends together
    wait_min: float            # at the stop, after walking
    ivtt_min: float
    ride_km: float


@dataclass(frozen=True)
class Ineligible:
    reason: str


def _corridor_ends(net: Network, spec: CorridorConfig,
                   request: RideRequest) -> tuple[int, float, int, float] | Ineligible:
    """The corridor's gates on a trip, in order: the service window, the
    walking catchment at both ends, and distinct boarding and alighting
    stops. Returns (board stop, walk m, alight stop, walk m) or why not."""
    w0, w1 = spec.window
    if not w0 <= request.request_time < w1:
        return Ineligible("outside_window")
    reach = catchment_m(spec.catchment_min)
    bi, walk_o = net.nearest_stop(request.origin, spec.stops)
    ai, walk_d = net.nearest_stop(request.destination, spec.stops)
    if walk_o > reach or walk_d > reach:
        return Ineligible("walk_too_far")
    if bi == ai:
        return Ineligible("same_stop")
    return bi, walk_o, ai, walk_d


def frt_board(net: Network, request: RideRequest, spec: CorridorConfig, timetable: Timetable,
              loads: dict[TimetableRun, list[int]]) -> BoardingPlan | Ineligible:
    """Plan a fixed-route trip and take its seats: walk, wait for the next
    departure with a free seat, ride, walk.

    Eligible only when both trip ends are within the walking catchment of a
    stop and the request falls inside the service window. The rider walks
    to the nearest stop, takes the first departure in the right direction
    at or after arriving that has a seat on every leg ridden, and walks
    from the alighting stop. loads maps a run to its riders per leg in
    travel order; the seats of the run returned are added to it.

    The search bisects the rider's direction to its first departure at or
    after the rider is ready, then walks forward past full runs. That is
    exact: every run of a direction applies the same float additions to its
    first departure, and rounding is monotone, so its departure from any
    stop is non-decreasing in the direction's run order.
    """
    ends = _corridor_ends(net, spec, request)
    if isinstance(ends, Ineligible):
        return ends
    bi, walk_o, ai, walk_d = ends
    n = len(spec.stops)
    d = int(bi > ai)  # 0 outbound, 1 inbound
    pb, pa = (n - 1 - bi, n - 1 - ai) if d else (bi, ai)  # stop positions in travel order
    ready = request.request_time + walk_seconds(walk_o)
    runs = timetable.runs[d]
    for run in runs[bisect_left(runs, ready, key=lambda r: r.departures[pb]):]:
        taken = loads.setdefault(run, [0] * (n - 1))
        if any(taken[k] >= DEFAULT_SEATS for k in range(pb, pa)):
            continue
        for k in range(pb, pa):
            taken[k] += 1
        dep = run.departures[pb]
        legs = timetable.leg_m[d][pb:pa]  # added in stop order as listed: it fixes the last bits
        return BoardingPlan(bi, ai, run, dep, walk_minutes(walk_o) + walk_minutes(walk_d),
                            (dep - ready) / 60.0, (run.arrivals[pa] - dep) / 60.0,
                            sum(legs[::-1] if d else legs) / 1000.0)
    return Ineligible("no_departure")


# -- hybrid routing ------------------------------------------------------------


def hybrid_route(net: Network, request: RideRequest, spec: CorridorConfig,
                 two_stops: bool) -> bool:
    """Whether a hybrid's corridor fleet takes a request; its crowdsourced
    fleet takes the rest.

    The corridor fleet takes a trip that passes the corridor's gates: the
    service window and the walking catchment at both ends. A fixed route
    (two_stops) also needs distinct boarding and alighting stops; a
    dedicated door-to-door fleet does not.
    """
    ends = _corridor_ends(net, spec, request)
    return not isinstance(ends, Ineligible) or (not two_stops and ends.reason == "same_stop")
