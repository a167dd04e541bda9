"""Continuous-time scenario engine: events, trip records, and run summaries.

One run simulates a single day. The engine alone owns each vehicle's shift,
planned from the hourly supply schedule: a shift start puts the vehicle on
the on-duty roster, the only vehicles a dispatch policy is offered, and the
shift end takes it off. A vehicle off the roster finishes its schedule, and
its service ends at its last stop. Vehicles drive each leg to their next
stop as one cached canonical path with one arrival event at its end, and
execute stop schedules maintained by the dispatch policy. Time advances
through a priority event queue, where only events that can enable a match
queue a dispatch pass. Identical inputs and seed replay the identical event
sequence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from heapq import heappop, heappush
from random import Random
from statistics import fmean

from . import dispatch as dp
from .demand import DAY_S, RideRequest, SupplySchedule
from .network import Network

log = logging.getLogger(__name__)

# event kinds, in the order simultaneous events resolve, then by entity id
VEHICLE_ARRIVES, SHIFT_START, SHIFT_END, REQUEST_ARRIVAL, BATCH_DISPATCH = range(5)

REASON_HORIZON = "waiting_at_horizon"
REASON_NO_SLOT = "no_feasible_insertion"


@dataclass
class TripRecord:
    request_id: int
    mode: str
    served: bool
    walk_min: float | None = None
    wait_min: float | None = None
    ivtt_min: float | None = None
    length_km: float | None = None
    origin_zone: str | None = None
    dest_zone: str | None = None
    reject_reason: str | None = None


@dataclass
class VehicleLog:
    vehicle_id: int
    service_hours: float
    km: float
    avg_occupancy: float
    start_s: float
    end_s: float
    passenger_seconds: float


@dataclass
class VehicleSnapshot:
    vehicle_id: int
    anchor: int
    ready_time: float
    inflight_m: float
    capacity: int
    schedule: tuple[dp.Stop, ...]
    aboard_m: dict[int, float]  # rider -> metres ridden, edge in flight excluded


@dataclass
class RejectionSnapshot:
    """Fleet state at the moment a request was turned down, for re-audit."""

    request_id: int
    decision_time: float
    vehicles: list[VehicleSnapshot]
    request_times: dict[int, float]
    request_ends: dict[int, tuple[int, int]]  # request -> (origin, destination)


@dataclass
class SimulationResult:
    trips: list[TripRecord]
    fleet: list[VehicleLog]
    demand_total: int
    served: int
    rejected: int
    waiting: int
    total_km: float
    avg_walk_min: float
    avg_wait_min: float
    avg_ivtt_min: float
    avg_trip_km: float
    avg_occupancy: float
    avg_vehicles: float
    operating_hours: float
    rejections: list[RejectionSnapshot] = field(default_factory=list)

    @property
    def served_fraction(self) -> float:
        return self.served / self.demand_total if self.demand_total else 1.0


def _trip(net: Network, r: RideRequest, mode: str, served: bool, walk_min=None,
          wait_min=None, ivtt_min=None, length_km=None, reason=None) -> TripRecord:
    return TripRecord(r.id, mode, served, walk_min, wait_min, ivtt_min, length_km,
                      net.zone_of(r.origin), net.zone_of(r.destination), reason)


def _vehicle_log(vid: int, start: float, end: float, km: float, pax_s: float) -> VehicleLog:
    """A vehicle's day: occupancy is passenger-seconds over its service span."""
    dur = end - start
    occ = pax_s / dur if dur > 0 else 0.0
    return VehicleLog(vid, dur / 3600.0, km, occ, start, end, pax_s)


def plan_shifts(supply: SupplySchedule) -> list[tuple[float, float]]:
    """Turn hourly counts into per-vehicle shift intervals.

    When the hourly count steps up, fresh vehicles enter; when it steps
    down, the longest-serving vehicles leave first. Whatever is active
    after hour 23 ends its shift at midnight.
    """
    shifts: list[list[float]] = []
    active: list[int] = []  # vehicle indices, spawn order
    for hour, want in enumerate(supply.hourly_counts):
        t = hour * 3600.0
        while len(active) < want:
            active.append(len(shifts))
            shifts.append([t, DAY_S])
        while len(active) > want:
            vid = active.pop(0)
            shifts[vid][1] = t
    return [(s, e) for s, e in shifts]


def summarize(trips: list[TripRecord], fleet: list[VehicleLog], demand_total: int,
              rejections: list[RejectionSnapshot] | None = None) -> SimulationResult:
    """Aggregate trip and fleet logs into the run-level figures.

    Averages cover served trips only; with nothing served they report as
    zero. Occupancy is passenger-seconds over in-service vehicle-seconds,
    and the operating span is the union of vehicle service intervals.
    """
    served = [t for t in trips if t.served]
    rejected = sum(1 for t in trips if not t.served and t.reject_reason != REASON_HORIZON)
    waiting = sum(1 for t in trips if not t.served and t.reject_reason == REASON_HORIZON)

    def mean_of(vals):
        vals = list(vals)
        return fmean(vals) if vals else 0.0

    total_km = sum(v.km for v in fleet)
    service_s = sum(v.end_s - v.start_s for v in fleet)
    pax_s = sum(v.passenger_seconds for v in fleet)
    intervals = sorted((v.start_s, v.end_s) for v in fleet)
    union_s = 0.0
    cur_start, cur_end = None, None
    for s, e in intervals:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                union_s += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        union_s += cur_end - cur_start
    oh = union_s / 3600.0
    return SimulationResult(
        trips=trips,
        fleet=fleet,
        demand_total=demand_total,
        served=len(served),
        rejected=rejected,
        waiting=waiting,
        total_km=total_km,
        avg_walk_min=mean_of(t.walk_min for t in served),
        avg_wait_min=mean_of(t.wait_min for t in served),
        avg_ivtt_min=mean_of(t.ivtt_min for t in served),
        avg_trip_km=mean_of(t.length_km for t in served),
        avg_occupancy=(pax_s / service_s) if service_s > 0 else 0.0,
        avg_vehicles=(service_s / union_s) if union_s > 0 else 0.0,
        operating_hours=oh,
        rejections=list(rejections or []),
    )


class _Run:
    """Mutable state of one on-demand scenario while its event queue drains."""

    def __init__(self, net: Network, demand: list[RideRequest], supply: SupplySchedule,
                 policy, seed, spawn_nodes=None):
        self.net = net
        self.policy = policy
        self.requests = {r.id: r for r in demand}
        self.trips: list[TripRecord] = []
        self.rejections: list[RejectionSnapshot] = []
        self.queue: dict[int, RideRequest] = {}  # unassigned requests, FCFS order
        self.pickup_time: dict[int, float] = {}
        self.mode_tag = policy.kind

        rng = Random(f"{seed}/spawn")
        pool = spawn_nodes if spawn_nodes else sorted(net.nodes)
        pool = list(pool)
        self.shifts = plan_shifts(supply)  # (start, end) by vehicle id
        self.vehicles = [dp.Vehicle(vid, rng.choice(pool)) for vid in range(len(self.shifts))]
        # the on-duty roster: shift started and not ended, in id order, since
        # shifts start in (time, id) order and ids follow start hours
        self.on_duty: dict[int, dp.Vehicle] = {}
        self.service_end = [end for _start, end in self.shifts]  # later if busy at shift end
        self.passenger_s = [0.0] * len(self.shifts)

        # (time, kind, entity): two equal events make the same handler call,
        # so their order among themselves cannot matter
        self._heap: list[tuple[float, int, int]] = []
        for vid, (start, end) in enumerate(self.shifts):
            self._push(start, SHIFT_START, vid)
            self._push(end, SHIFT_END, vid)
        for r in demand:
            self._push(r.request_time, REQUEST_ARRIVAL, r.id)

    # -- event plumbing --

    def _push(self, time: float, kind: int, entity: int):
        heappush(self._heap, (time, kind, entity))

    def _queue_pass(self, t: float):
        """Queue a dispatch pass at the policy's first batch boundary at or
        after t, if a rider waits and that boundary comes before midnight."""
        b = self.policy.batch_s
        t = -(-t // b) * b if b else t
        if self.queue and t < DAY_S:
            self._push(t, BATCH_DISPATCH, 0)

    # -- main loop --

    def run(self) -> SimulationResult:
        handlers = (self._on_arrive, self._on_shift_start, self._on_shift_end,
                    self._on_request, self._on_dispatch)  # by kind
        while self._heap:
            time, kind, entity = heappop(self._heap)
            handlers[kind](time, entity)
        for r in self.queue.values():  # still unassigned at midnight
            self.trips.append(_trip(self.net, r, self.mode_tag, False,
                                    wait_min=(DAY_S - r.request_time) / 60.0,
                                    reason=REASON_HORIZON))
        self.trips.sort(key=lambda t: t.request_id)
        fleet = [_vehicle_log(v.id, self.shifts[v.id][0], self.service_end[v.id],
                              v.odometer_m / 1000.0, self.passenger_s[v.id])
                 for v in self.vehicles]
        return summarize(self.trips, fleet, len(self.requests), self.rejections)

    # -- handlers --

    def _on_arrive(self, t: float, vid: int):
        v = self.vehicles[vid]
        if v.leg and v.leg[0][0] == t:  # else stale: the leg was re-routed
            # the whole leg is passed at once: its clocks never decrease
            _t, v.odometer_m, e = v.leg[0]
            v.position = e.to
            v.leg.clear()
            self._advance(v, t)

    def _drive(self, v: dp.Vehicle, t: float):
        """Finish the edge in flight, then take the canonical path to the next stop."""
        head, clock, odo = v.anchor(t)
        ahead = []
        for e in self.net.shortest_path(head, v.schedule[0].node):
            clock += e.travel_time_s
            odo += e.length_m
            ahead.append((clock, odo, e))
        ahead.reverse()
        v.leg[:-1] = ahead  # the leg is kept last edge first
        self._push(clock, VEHICLE_ARRIVES, v.id)

    def _advance(self, v: dp.Vehicle, t: float):
        """Serve the stops where a standing vehicle is, then drive or re-route."""
        progressed = False
        while not v.leg and v.schedule and v.schedule[0].node == v.position:
            stop = v.schedule.pop(0)
            self._execute_stop(v, stop, t)
            progressed = True
        on_duty = v.id in self.on_duty
        if v.schedule:
            self._drive(v, t)
        elif not on_duty:  # off duty: service ends at its last stop
            self.service_end[v.id] = t
        if progressed and on_duty:
            self._queue_pass(t)  # freed, or maybe a new single-rider host

    def _execute_stop(self, v: dp.Vehicle, stop: dp.Stop, t: float):
        r = self.requests[stop.request_id]
        if stop.action == dp.PICKUP:
            if len(v.picked_at_m) >= v.capacity:
                raise RuntimeError(f"vehicle {v.id} over capacity at t={t}")
            v.picked_at_m[r.id] = v.odometer_m
            self.pickup_time[r.id] = t
        else:
            ridden_m = v.odometer_m - v.picked_at_m.pop(r.id)
            picked = self.pickup_time[r.id]
            self.passenger_s[v.id] += t - picked
            self.trips.append(_trip(
                self.net, r, self.mode_tag, True, walk_min=0.0,
                wait_min=(picked - r.request_time) / 60.0,
                ivtt_min=(t - picked) / 60.0,
                length_km=ridden_m / 1000.0))

    def _on_shift_start(self, t: float, vid: int):
        self.on_duty[vid] = self.vehicles[vid]
        self._queue_pass(t)

    def _on_shift_end(self, t: float, vid: int):
        del self.on_duty[vid]

    def _on_request(self, t: float, rid: int):
        self.queue[rid] = self.requests[rid]
        self._queue_pass(t)

    def _on_dispatch(self, t: float, _entity: int):
        if not self.queue:
            return
        for req, v, schedule in self.policy.assign(self.net, self.on_duty.values(),
                                                   self.queue.values(), self.requests, t):
            del self.queue[req.id]
            if v is None:
                self.rejections.append(self._snapshot(req, t))
                self.trips.append(_trip(self.net, req, self.mode_tag, False,
                                        reason=REASON_NO_SLOT))
                continue
            # a driving vehicle whose next stop stays keeps its leg: the
            # canonical path from any node on it is the rest of it
            keep = v.leg and v.schedule[0].node == schedule[0].node
            v.schedule = schedule
            if not keep:
                self._advance(v, t)

    def _snapshot(self, req: RideRequest, t: float) -> RejectionSnapshot:
        involved = {req.id}
        vehicles = []
        for v in self.on_duty.values():
            involved.update(v.picked_at_m, (s.request_id for s in v.schedule))
            anchor, ready, _odometer_m = v.anchor(t)
            vehicles.append(VehicleSnapshot(
                v.id, anchor, ready, v.leg[-1][2].length_m if v.leg else 0.0, v.capacity,
                tuple(v.schedule),
                {rid: v.odometer_m - m for rid, m in v.picked_at_m.items()}))
        times = {rid: self.requests[rid].request_time for rid in involved}
        ends = {rid: (self.requests[rid].origin, self.requests[rid].destination)
                for rid in involved}
        return RejectionSnapshot(req.id, t, vehicles, times, ends)


def _run_fixed_route(net: Network, demand: list[RideRequest], policy) -> SimulationResult:
    """Timetable service: riders walk to stops and board scheduled departures.

    Departures follow the timetable exactly; a full vehicle pushes the
    rider to the next feasible departure. Runs begun inside the window are
    completed past its end.
    """
    spec = policy.spec
    timetable = dp.build_timetable(net, spec, policy.vehicles)
    trips: list[TripRecord] = []
    loads: dict[dp.TimetableRun, list[int]] = {}
    pax_s_by_vehicle = [0.0] * policy.vehicles
    for r in sorted(demand, key=lambda r: (r.request_time, r.id)):
        plan = dp.frt_board(net, r, spec, timetable, loads)
        if isinstance(plan, dp.Ineligible):
            trips.append(_trip(net, r, policy.kind, False, reason=plan.reason))
            continue
        pax_s_by_vehicle[plan.run.vehicle] += plan.ivtt_min * 60.0
        trips.append(_trip(net, r, policy.kind, True, plan.walk_min, plan.wait_min,
                           plan.ivtt_min, plan.ride_km))
    trips.sort(key=lambda t: t.request_id)

    fleet = []
    w0, w1 = spec.window
    for vid in range(policy.vehicles):
        my_runs = sorted((run for line in timetable.runs for run in line if run.vehicle == vid),
                         key=lambda run: run.departures[0])  # km added as driven
        km = sum(run.length_m for run in my_runs) / 1000.0
        end = max([w1] + [run.arrivals[-1] for run in my_runs])
        fleet.append(_vehicle_log(vid, w0, end, km, pax_s_by_vehicle[vid]))
    return summarize(trips, fleet, len(demand))


def run_scenario(net: Network, demand: list[RideRequest], supply: SupplySchedule | None,
                 policy, seed=0, spawn_nodes=None) -> SimulationResult:
    """Simulate one day of one service design over the given demand.

    On-demand policies run the event engine against the hourly supply
    schedule; the fixed-route policy runs its timetable analytically. The
    seed only feeds vehicle spawn positions, drawn from spawn_nodes, or
    from every node when none are given.
    """
    if isinstance(policy, dp.FixedRoute):
        return _run_fixed_route(net, demand, policy)
    if supply is None:
        raise ValueError("on-demand policies need a supply schedule")
    return _Run(net, demand, supply, policy, seed, spawn_nodes).run()
