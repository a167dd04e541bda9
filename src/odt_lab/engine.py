"""Continuous-time scenario engine: events, trip records, and run summaries.

One run simulates a single day. Vehicles enter and leave per the hourly
supply schedule, drive canonical shortest paths edge by edge, and execute
stop schedules maintained by the configured dispatch policy. Time advances
through a priority event queue; nothing ticks except the 30-second dispatch
batching. Identical inputs and seed replay the identical event sequence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from heapq import heappop, heappush
from random import Random
from statistics import fmean

from . import dispatch as dp
from .demand import DAY_S, DemandSet, RideRequest, SupplySchedule
from .network import Network

log = logging.getLogger(__name__)

# simultaneous events resolve in this order, then by entity id
_PRIO = {
    "vehicle_arrives": 0,
    "shift_start": 1,
    "shift_end": 2,
    "request_arrival": 3,
    "batch_dispatch": 4,
}

REASON_HORIZON = "waiting_at_horizon"
REASON_NO_SLOT = "no_feasible_insertion"


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: str
    entity_id: int


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
    aboard_m: dict[int, float]


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
    events: list[SimEvent] = field(default_factory=list)

    @property
    def served_fraction(self) -> float:
        return self.served / self.demand_total if self.demand_total else 1.0


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
              rejections: list[RejectionSnapshot] | None = None,
              events: list[SimEvent] | None = None) -> SimulationResult:
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
        events=list(events or []),
    )


class _Run:
    """Mutable state of one on-demand scenario while its event queue drains."""

    def __init__(self, net: Network, demand, supply: SupplySchedule, policy,
                 seed, spawn_nodes=None, record_events=False):
        self.net = net
        self.policy = policy
        self.requests: dict[int, RideRequest] = {}
        reqs = list(demand.requests if isinstance(demand, DemandSet) else demand)
        for r in reqs:
            self.requests[r.id] = r
        self.record_events = record_events
        self.events: list[SimEvent] = []
        self.trips: list[TripRecord] = []
        self.rejections: list[RejectionSnapshot] = []
        self.queue: list[int] = []  # unassigned request ids, FCFS order
        self.pickup_time: dict[int, float] = {}
        self.mode_tag = policy.kind

        rng = Random(f"{seed}/spawn")
        pool = spawn_nodes if spawn_nodes else sorted(net.nodes)
        pool = list(pool)
        self.vehicles: list[dp.Vehicle] = []
        for vid, (start, end) in enumerate(plan_shifts(supply)):
            node = rng.choice(pool)
            self.vehicles.append(dp.Vehicle(vid, node, start, end))

        self._heap: list = []
        self._seq = 0
        for v in self.vehicles:
            self._push(v.shift_start_s, "shift_start", v.id)
            self._push(v.shift_end_s, "shift_end", v.id)
        for r in reqs:
            self._push(r.request_time, "request_arrival", r.id)
        t = 0.0
        while t < DAY_S:
            self._push(t, "batch_dispatch", 0)
            t += dp.BATCH_INTERVAL_S

    # -- event plumbing --

    def _push(self, time: float, kind: str, entity: int):
        self._seq += 1
        heappush(self._heap, (time, _PRIO[kind], entity, self._seq, kind))

    def _log(self, time: float, kind: str, entity: int):
        if self.record_events:
            self.events.append(SimEvent(time, kind, entity))

    # -- main loop --

    def run(self) -> SimulationResult:
        handlers = {
            "vehicle_arrives": self._on_hop,
            "shift_start": self._on_shift_start,
            "shift_end": self._on_shift_end,
            "request_arrival": self._on_request,
            "batch_dispatch": self._on_dispatch,
        }
        while self._heap:
            time, _prio, entity, _seq, kind = heappop(self._heap)
            handlers[kind](time, entity)
        for rid in self.queue:  # still unassigned at midnight
            r = self.requests[rid]
            self.trips.append(self._trip(r, self.mode_tag, served=False,
                                         wait_min=(DAY_S - r.request_time) / 60.0,
                                         reason=REASON_HORIZON))
        self.trips.sort(key=lambda t: t.request_id)
        fleet = []
        for v in self.vehicles:
            end = v.service_end_s if v.service_end_s is not None else v.shift_end_s
            dur = end - v.shift_start_s
            occ = v.passenger_seconds / dur if dur > 0 else 0.0
            fleet.append(VehicleLog(v.id, dur / 3600.0, v.odometer_m / 1000.0,
                                    occ, v.shift_start_s, end, v.passenger_seconds))
        return summarize(self.trips, fleet, len(self.requests),
                         self.rejections, self.events)

    def _trip(self, r: RideRequest, mode: str, served: bool, walk_min=None,
              wait_min=None, ivtt_min=None, length_km=None, reason=None) -> TripRecord:
        return TripRecord(r.id, mode, served, walk_min, wait_min, ivtt_min, length_km,
                          self.net.zone_of(r.origin), self.net.zone_of(r.destination),
                          reason)

    # -- handlers --

    def _on_hop(self, t: float, vid: int):
        v = self.vehicles[vid]
        e = v.inflight
        if e is None:  # defensive; hop events are never stale by construction
            return
        v.inflight = None
        v.odometer_m += e.length_m
        for rid in v.aboard_m:
            v.aboard_m[rid] += e.length_m
        v.position = e.to
        self._log(t, "vehicle_arrives", vid)
        self._advance(v, t)

    def _advance(self, v: dp.Vehicle, t: float):
        progressed = False
        while v.schedule and v.schedule[0].node == v.position:
            stop = v.schedule.pop(0)
            self._execute_stop(v, stop, t)
            progressed = True
        if v.schedule:
            e = self.net.next_edge(v.position, v.schedule[0].node)
            v.inflight = e
            v.next_node_time = t + e.travel_time_s
            self._push(v.next_node_time, "vehicle_arrives", v.id)
            if progressed and self.policy.reactive and self.policy.shared:
                self._push(t, "batch_dispatch", 0)  # new single-occupancy host, maybe
        elif v.retiring:
            self._finalize(v, t)
        elif progressed and self.policy.reactive:
            self._push(t, "batch_dispatch", 0)  # vehicle freed mid-interval

    def _execute_stop(self, v: dp.Vehicle, stop: dp.Stop, t: float):
        r = self.requests[stop.request_id]
        if stop.action == dp.PICKUP:
            if len(v.aboard_m) >= v.capacity:
                raise RuntimeError(f"vehicle {v.id} over capacity at t={t}")
            v.aboard_m[r.id] = 0.0
            self.pickup_time[r.id] = t
            self._log(t, "pickup_complete", r.id)
        else:
            ridden_m = v.aboard_m.pop(r.id)
            picked = self.pickup_time[r.id]
            v.passenger_seconds += t - picked
            self.trips.append(self._trip(
                r, self.mode_tag, served=True, walk_min=0.0,
                wait_min=(picked - r.request_time) / 60.0,
                ivtt_min=(t - picked) / 60.0,
                length_km=ridden_m / 1000.0))
            self._log(t, "dropoff_complete", r.id)

    def _finalize(self, v: dp.Vehicle, t: float):
        v.in_service = False
        v.service_end_s = max(t, v.shift_start_s)

    def _on_shift_start(self, t: float, vid: int):
        v = self.vehicles[vid]
        if v.shift_end_s <= v.shift_start_s:
            return
        v.in_service = True
        self._log(t, "shift_start", vid)
        if self.policy.reactive and self.queue:
            self._push(t, "batch_dispatch", 0)

    def _on_shift_end(self, t: float, vid: int):
        v = self.vehicles[vid]
        v.retiring = True
        self._log(t, "shift_end", vid)
        if v.in_service and not v.schedule and v.inflight is None:
            self._finalize(v, t)

    def _on_request(self, t: float, rid: int):
        self.queue.append(rid)
        self._log(t, "request_arrival", rid)
        if self.policy.reactive:
            self._push(t, "batch_dispatch", 0)

    def _on_dispatch(self, t: float, _entity: int):
        if not self.queue:
            return
        self._log(t, "batch_dispatch", 0)
        waiting = [self.requests[rid] for rid in self.queue]
        for req, v, schedule in self.policy.assign(self.net, self.vehicles, waiting,
                                                   self.requests, t):
            self.queue.remove(req.id)
            if v is None:
                self.rejections.append(self._snapshot(req, t))
                self.trips.append(self._trip(req, self.mode_tag, served=False,
                                             reason=REASON_NO_SLOT))
                continue
            v.schedule = schedule
            if v.inflight is None:
                self._advance(v, t)

    def _snapshot(self, req: RideRequest, t: float) -> RejectionSnapshot:
        involved = {req.id}
        vehicles = []
        for v in self.vehicles:
            if not v.in_service or v.retiring:
                continue
            involved |= v.assigned_requests()
            vehicles.append(VehicleSnapshot(
                v.id, v.anchor(), v.anchor_time(t), v.inflight_m(), v.capacity,
                tuple(v.schedule), dict(v.aboard_m)))
        times = {rid: self.requests[rid].request_time for rid in involved}
        ends = {rid: (self.requests[rid].origin, self.requests[rid].destination)
                for rid in involved}
        return RejectionSnapshot(req.id, t, vehicles, times, ends)


def _run_fixed_route(net: Network, demand, policy, record_events=False) -> SimulationResult:
    """Timetable service: riders walk to stops and board scheduled departures.

    Departures follow the timetable exactly; a full vehicle pushes the
    rider to the next feasible departure. Runs begun inside the window are
    completed past its end.
    """
    spec = policy.spec
    timetable = dp.build_timetable(net, spec, policy.vehicles)
    reqs = list(demand.requests if isinstance(demand, DemandSet) else demand)
    trips: list[TripRecord] = []
    events: list[SimEvent] = []
    # seat occupancy per run, per leg position within the run
    loads: dict[int, list[int]] = {}
    pax_s_by_vehicle = [0.0] * policy.vehicles
    n = len(spec.stops)

    def zone(nid):
        return net.zone_of(nid)

    ordered = sorted(reqs, key=lambda r: (r.request_time, r.id))
    for r in ordered:
        plan = dp.frt_board(net, r, spec, timetable)
        while not isinstance(plan, dp.Ineligible):
            run = timetable.runs[plan.run_index]
            pb = run.stop_seq.index(plan.board_stop)
            pa = run.stop_seq.index(plan.alight_stop)
            legs = loads.setdefault(plan.run_index, [0] * (n - 1))
            if all(legs[k] < dp.DEFAULT_SEATS for k in range(pb, pa)):
                for k in range(pb, pa):
                    legs[k] += 1
                pax_s_by_vehicle[run.vehicle] += plan.ivtt_min * 60.0
                trips.append(TripRecord(r.id, policy.kind, True, plan.walk_min,
                                        plan.wait_min, plan.ivtt_min, plan.ride_km,
                                        zone(r.origin), zone(r.destination)))
                if record_events:
                    events.append(SimEvent(plan.departure_s, "pickup_complete", r.id))
                break
            plan = dp.frt_board(net, r, spec, timetable, start_run=plan.run_index + 1)
        else:
            trips.append(TripRecord(r.id, policy.kind, False, origin_zone=zone(r.origin),
                                    dest_zone=zone(r.destination),
                                    reject_reason=plan.reason))
    trips.sort(key=lambda t: t.request_id)

    fleet = []
    w0, w1 = spec.window
    for vid in range(policy.vehicles):
        my_runs = [run for run in timetable.runs if run.vehicle == vid]
        km = sum(run.length_m for run in my_runs) / 1000.0
        end = max([w1] + [run.arrivals[-1] for run in my_runs])
        dur = end - w0
        occ = pax_s_by_vehicle[vid] / dur if dur > 0 else 0.0
        fleet.append(VehicleLog(vid, dur / 3600.0, km, occ, w0, end,
                                pax_s_by_vehicle[vid]))
    return summarize(trips, fleet, len(reqs), events=events)


def run_scenario(net: Network, demand, supply: SupplySchedule | None, policy,
                 seed=0, spawn_nodes=None, record_events=False) -> SimulationResult:
    """Simulate one day of one service design over the given demand.

    On-demand policies run the event engine against the hourly supply
    schedule; the fixed-route policy runs its timetable analytically. The
    seed only feeds vehicle spawn positions, which are drawn from the base
    demand's origin distribution by default.
    """
    if isinstance(policy, dp.FixedRoute):
        return _run_fixed_route(net, demand, policy, record_events)
    if supply is None:
        raise ValueError("on-demand policies need a supply schedule")
    return _Run(net, demand, supply, policy, seed, spawn_nodes, record_events).run()
