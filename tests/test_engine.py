"""Event engine tests: exact timings, conservation, shifts, and the timetable run.

Engineered single-vehicle cases pin down waits and distances to the exact
edge arithmetic (500 m edges at 10 m/s: 50 s per edge); broader seeded runs
check the bookkeeping invariants that must hold whatever the dispatch
policy does.
"""

from __future__ import annotations

import pytest

from odt_lab import dispatch, engine
from odt_lab.config import CorridorConfig
from odt_lab.demand import (RideRequest, SupplySchedule, generate_synthetic_demand)
from odt_lab.dispatch import DarpInsertion, FixedRoute, GreedyExclusive, SharedGreedy
from odt_lab.engine import (REASON_HORIZON, REASON_NO_SLOT, SimulationResult,
                            VehicleLog, plan_shifts, run_scenario, summarize)
from odt_lab.network import Network, generate_grid

FLAT = [1.0] * 24


@pytest.fixture(scope="module")
def net5():
    return generate_grid(5, 5, 500.0, 10.0)


def supply(counts) -> SupplySchedule:
    return SupplySchedule(list(counts))


def all_day(n: int) -> SupplySchedule:
    return supply([n] * 24)


# -- shift planning -----------------------------------------------------------------


def test_plan_shifts_steps_and_fifo_retirement():
    s = supply([0] * 6 + [2] * 14 + [1] * 4)
    assert plan_shifts(s) == [(21600.0, 72000.0), (21600.0, 86400.0)]
    # on a step down the longest-serving vehicle leaves first
    s = supply([1, 0, 2] + [2] * 21)
    assert plan_shifts(s) == [(0.0, 3600.0), (7200.0, 86400.0), (7200.0, 86400.0)]


def test_plan_shifts_empty_schedule():
    assert plan_shifts(supply([0] * 24)) == []


# -- exact single-vehicle timing ------------------------------------------------------


def test_exclusive_trip_times_exact(net5):
    # vehicle spawns at node 0; origin 4 is four hops away, ride is four back
    req = RideRequest(0, 1000.0, 4, 0)
    res = run_scenario(net5, [req], all_day(1), GreedyExclusive(),
                       seed=1, spawn_nodes=[0])
    (trip,) = res.trips
    assert trip.served and trip.mode == "greedy_exclusive"
    assert trip.wait_min == 200.0 / 60.0
    assert trip.ivtt_min == 200.0 / 60.0
    assert trip.length_km == 2.0
    assert trip.walk_min == 0.0
    assert res.total_km == 4.0
    assert res.fleet[0].passenger_seconds == 200.0
    assert res.avg_occupancy == 200.0 / 86400.0
    assert res.served_fraction == 1.0


def arrival_events(monkeypatch) -> list[float]:
    """The times of the arrival events the engine queues from now on."""
    times = []
    push = engine._Run._push

    def counted(self, time, kind, entity):
        if kind == engine.VEHICLE_ARRIVES:
            times.append(time)
        push(self, time, kind, entity)

    monkeypatch.setattr(engine._Run, "_push", counted)
    return times


def test_each_leg_is_one_cached_path_and_one_event(monkeypatch):
    """A vehicle drives each leg as the network's cached canonical path with
    one arrival event at its end, so replaying the day routes nothing."""
    net = generate_grid(5, 5, 500.0, 10.0)
    # spawn at 0, pick up at 4 and drop off back at 0: two legs of four edges
    req = RideRequest(0, 1000.0, 4, 0)
    routed = []
    next_edge = Network.next_edge

    def counted(self, current, dest):
        routed.append((current, dest))
        return next_edge(self, current, dest)

    monkeypatch.setattr(Network, "next_edge", counted)
    arrivals = arrival_events(monkeypatch)
    first = run_scenario(net, [req], all_day(1), GreedyExclusive(), seed=1, spawn_nodes=[0])
    assert routed  # the first run builds the two paths
    routed.clear()
    arrivals.clear()
    again = run_scenario(net, [req], all_day(1), GreedyExclusive(), seed=1, spawn_nodes=[0])
    assert routed == []
    assert arrivals == [1200.0, 1400.0]
    assert again == first


def test_rerouted_leg_leaves_its_old_event_unhandled(monkeypatch, net5):
    # A rides 0 -> 4, due at 300. B appears at node 7 at 150, while the
    # vehicle is on edge 1 -> 2; it finishes that edge and turns to 7 (250),
    # then drives 7 -> 4 (400). The event still queued for 300 is stale and
    # must not drive the leg again, so no further event is queued.
    arrivals = arrival_events(monkeypatch)
    a = RideRequest(0, 100.0, 0, 4)
    b = RideRequest(1, 150.0, 7, 4)
    res = run_scenario(net5, [a, b], all_day(1), SharedGreedy(), seed=3, spawn_nodes=[0])
    assert arrivals == [300.0, 250.0, 400.0]
    ta, tb = res.trips
    assert (ta.wait_min, ta.ivtt_min, ta.length_km) == (0.0, 300.0 / 60.0, 3.0)
    assert (tb.wait_min, tb.ivtt_min, tb.length_km) == (100.0 / 60.0, 150.0 / 60.0, 1.5)
    assert res.total_km == 3.0


def test_insertion_behind_the_next_stop_keeps_the_leg(monkeypatch, net5):
    # A (0 -> 4) is picked up at the 120 s batch, and the vehicle heads for
    # node 4, due at 320. At 180 DARP places B (4 -> 9) with its pickup at
    # node 4 too, so the next stop's node stays: the leg and its one event
    # stand. Driving the leg again would queue a second event for 320.
    arrivals = arrival_events(monkeypatch)
    a = RideRequest(0, 100.0, 0, 4)
    b = RideRequest(1, 150.0, 4, 9)
    res = run_scenario(net5, [a, b], all_day(1), DarpInsertion(), seed=3, spawn_nodes=[0])
    assert arrivals == [320.0, 370.0]
    ta, tb = res.trips
    assert (ta.wait_min, ta.ivtt_min, ta.length_km) == (20.0 / 60.0, 200.0 / 60.0, 2.0)
    assert (tb.wait_min, tb.ivtt_min, tb.length_km) == (170.0 / 60.0, 50.0 / 60.0, 0.5)
    assert res.total_km == 2.5


def test_pickup_at_spawn_node_has_zero_wait(net5):
    req = RideRequest(0, 1000.0, 7, 8)
    res = run_scenario(net5, [req], all_day(1), GreedyExclusive(),
                       seed=1, spawn_nodes=[7])
    assert res.trips[0].wait_min == 0.0


def test_shared_pooling_on_the_way(net5):
    # rider A boards at the spawn node heading to 4; B appears at node 2 on
    # A's path while the vehicle is mid-edge, adds nothing, and pools in
    a = RideRequest(0, 100.0, 0, 4)
    b = RideRequest(1, 150.0, 2, 4)
    res = run_scenario(net5, [a, b], all_day(1), SharedGreedy(),
                       seed=3, spawn_nodes=[0])
    ta, tb = res.trips
    assert ta.served and tb.served
    assert (ta.wait_min, ta.ivtt_min, ta.length_km) == (0.0, 200.0 / 60.0, 2.0)
    assert (tb.wait_min, tb.ivtt_min, tb.length_km) == (50.0 / 60.0, 100.0 / 60.0, 1.0)
    assert res.total_km == 2.0  # no extra driving for the second rider
    assert res.fleet[0].passenger_seconds == 300.0


def test_shared_redispatches_when_a_pickup_makes_a_host():
    # 25 s hops, shorter than the 30 s batch interval. A is assigned at 1005
    # but only boards at node 2 at 1055; B, waiting at node 3 since 1015,
    # cannot pool before that. The pickup itself triggers a dispatch pass,
    # so the vehicle stops for B on its way through node 3 at 1080. Without
    # it the next pass (1080) finds the vehicle already leaving node 3, and
    # it comes back from node 4: A rides 2 km and B waits 115 s.
    net = generate_grid(5, 5, 500.0, 20.0)
    a = RideRequest(0, 1005.0, 2, 4)
    b = RideRequest(1, 1015.0, 3, 4)
    res = run_scenario(net, [a, b], all_day(1), SharedGreedy(),
                       seed=3, spawn_nodes=[0])
    ta, tb = res.trips
    assert ta.served and tb.served
    assert ta.length_km == 1.0
    assert tb.wait_min == 65.0 / 60.0


def test_darp_rejection_snapshot(net5):
    # a 400 s drive cannot satisfy a 100 s wait bound; decided at the next
    # 30 s boundary
    req = RideRequest(5, 1000.0, 24, 0)
    res = run_scenario(net5, [req], all_day(1),
                       DarpInsertion(max_wait_s=100.0), seed=2, spawn_nodes=[0])
    (trip,) = res.trips
    assert not trip.served and trip.reject_reason == REASON_NO_SLOT
    assert res.rejected == 1 and res.waiting == 0
    (snap,) = res.rejections
    assert snap.request_id == 5
    assert snap.decision_time == 1020.0
    (veh,) = snap.vehicles
    assert (veh.anchor, veh.inflight_m, veh.schedule) == (0, 0.0, ())
    assert veh.ready_time == 1020.0
    assert snap.request_ends[5] == (24, 0)
    assert snap.request_times[5] == 1000.0


def test_crowdsourced_day_dispatches_only_on_events(monkeypatch, net5):
    # nothing polls: the request's arrival and the vehicle serving its two
    # stops are the only events that can queue a pass, and only the first
    # finds a rider waiting
    passes = []
    dispatch_pass = engine._Run._on_dispatch

    def counted(self, t, entity):
        passes.append(t)
        dispatch_pass(self, t, entity)

    monkeypatch.setattr(engine._Run, "_on_dispatch", counted)
    req = RideRequest(0, 1000.0, 4, 0)
    res = run_scenario(net5, [req], all_day(1), GreedyExclusive(),
                       seed=1, spawn_nodes=[0])
    assert res.served == 1
    assert passes == [1000.0]


def test_darp_decides_at_the_next_batch_boundary(net5):
    # nobody is on duty before 06:00, so each request is turned down at the
    # first 30 s boundary at or after its arrival
    reqs = [RideRequest(0, 45.0, 0, 4), RideRequest(1, 60.0, 0, 4),
            RideRequest(2, 60.001, 0, 4)]
    res = run_scenario(net5, reqs, supply([0] * 6 + [1] * 18), DarpInsertion(),
                       seed=1, spawn_nodes=[0])
    assert res.rejected == 3
    assert [(s.request_id, s.decision_time) for s in res.rejections] == [
        (0, 60.0), (1, 60.0), (2, 90.0)]


def test_darp_request_after_the_last_boundary_waits_out_the_day(net5):
    # the next boundary is midnight, when the day is over
    req = RideRequest(0, 86385.0, 0, 4)
    res = run_scenario(net5, [req], all_day(1), DarpInsertion(), seed=1, spawn_nodes=[0])
    (trip,) = res.trips
    assert not trip.served and trip.reject_reason == REASON_HORIZON
    assert res.waiting == 1 and res.rejections == []


def test_shift_end_finishes_accepted_work(net5):
    # shift ends at 3600 mid-ride; the dropoff still happens and the log
    # runs through the actual service end
    req = RideRequest(0, 3500.0, 4, 24)
    late = RideRequest(1, 80000.0, 0, 1)
    res = run_scenario(net5, [req, late], supply([1] + [0] * 23),
                       GreedyExclusive(), seed=0, spawn_nodes=[0])
    first, second = res.trips
    assert first.served
    assert first.ivtt_min == 200.0 / 60.0
    log = res.fleet[0]
    assert log.start_s == 0.0
    assert log.end_s == 3900.0  # 200 s to reach the rider, 200 s of ride
    assert log.km == 4.0
    # nobody was on duty for the late request: it waits out the day
    assert not second.served and second.reject_reason == REASON_HORIZON
    assert second.wait_min == (86400.0 - 80000.0) / 60.0
    assert res.waiting == 1 and res.rejected == 0


def test_darp_vehicle_past_its_shift_end_takes_no_new_request(net5):
    # The one shift ends at 3600 while the vehicle drives 0 -> 4 for A
    # (decided at 3510, pickup 3710, dropoff at 24 at 3910). B, decided at 3660, would ride
    # along at no added metres, but only vehicles on duty are offered it.
    a = RideRequest(0, 3500.0, 4, 24)
    b = RideRequest(1, 3650.0, 4, 24)
    res = run_scenario(net5, [a, b], supply([1] + [0] * 23), DarpInsertion(),
                       seed=0, spawn_nodes=[0])
    first, second = res.trips
    assert first.served and first.wait_min == 210.0 / 60.0
    assert not second.served and second.reject_reason == REASON_NO_SLOT
    (snap,) = res.rejections
    assert (snap.request_id, snap.decision_time, snap.vehicles) == (1, 3660.0, [])
    assert (res.fleet[0].start_s, res.fleet[0].end_s) == (0.0, 3910.0)


def test_roster_and_snapshots_list_on_duty_vehicles_in_id_order(net5):
    # Steps down retire the longest-serving vehicles, so from 06:00 the
    # vehicles on duty are 3 and 4, not a prefix of the ids.
    hours = supply([2, 2, 1, 3, 3, 1, 2] + [0] * 17)
    shifts = plan_shifts(hours)
    rosters = []

    class Recording(DarpInsertion):
        def assign(self, net, vehicles, waiting, requests, now):
            rosters.append((now, [v.id for v in vehicles]))
            return super().assign(net, vehicles, waiting, requests, now)

    def on_duty(t):
        return [vid for vid, (start, end) in enumerate(shifts) if start <= t < end]

    reqs = generate_synthetic_demand(net5, 200, [1.0] * 7 + [0.0] * 17, seed=4)
    res = run_scenario(net5, reqs, hours, Recording(max_wait_s=120.0), seed=4)
    assert [ids for _t, ids in rosters] == [on_duty(t) for t, _ids in rosters]
    assert {tuple(ids) for _t, ids in rosters} == {(0, 1), (1,), (1, 2, 3), (3,), (3, 4)}
    assert [[v.vehicle_id for v in s.vehicles] for s in res.rejections] == [
        on_duty(s.decision_time) for s in res.rejections]
    assert len({len(s.vehicles) for s in res.rejections}) == 3


def test_queue_keeps_arrival_order(net5):
    # B, C and D queue while the one vehicle carries A (0 -> 4, dropped at
    # 3200). The exclusive fleet serves them first come, first served, though
    # C and D start one hop from node 4 and B four: B boards at 3400 (drop
    # at 20 at 3600), C at 3950 (drop at 14 at 4000), D at 4150.
    a, b, c, d = (RideRequest(0, 3000.0, 0, 4), RideRequest(1, 3010.0, 24, 20),
                  RideRequest(2, 3020.0, 9, 14), RideRequest(3, 3030.0, 3, 2))
    # E keeps the vehicle busy past its 7200 shift end; F and G wait out the day
    e, f, g = (RideRequest(4, 7150.0, 24, 0), RideRequest(5, 7160.0, 1, 2),
               RideRequest(6, 7170.0, 3, 4))
    res = run_scenario(net5, [a, b, c, d, e, f, g], supply([1, 1] + [0] * 22),
                       GreedyExclusive(), seed=0, spawn_nodes=[0])
    assert [t.wait_min for t in res.trips[:4]] == [0.0, 390.0 / 60.0, 930.0 / 60.0,
                                                   1120.0 / 60.0]
    assert res.trips[4].served
    assert [(t.served, t.reject_reason, t.wait_min) for t in res.trips[5:]] == [
        (False, REASON_HORIZON, (86400.0 - 7160.0) / 60.0),
        (False, REASON_HORIZON, (86400.0 - 7170.0) / 60.0)]

    # Pooling takes C from the middle of the queue [B, C, D] when A boards at
    # node 0 (1100): C's ride lies on A's way. B and D keep their order: when
    # A leaves at node 4 (1300), B takes the vehicle from four hops away,
    # boards at 1500, and D, two hops away, boards only after B's dropoff.
    a, b, c, d = (RideRequest(0, 1000.0, 0, 4), RideRequest(1, 1010.0, 24, 20),
                  RideRequest(2, 1020.0, 2, 3), RideRequest(3, 1030.0, 14, 19))
    res = run_scenario(net5, [a, b, c, d], all_day(1), SharedGreedy(),
                       seed=0, spawn_nodes=[10])
    assert [t.wait_min for t in res.trips] == [100.0 / 60.0, 490.0 / 60.0,
                                               180.0 / 60.0, 970.0 / 60.0]


def test_a_pass_with_no_idle_vehicle_runs_no_search_and_keeps_the_queue(net5, monkeypatch):
    # The day of test_queue_keeps_arrival_order, up to D: the passes at B's,
    # C's and D's arrivals and at B's and C's pickups find the one vehicle
    # busy. Each ends before the greedy search and leaves the queue in
    # arrival order; only the passes at A's arrival and at each dropoff,
    # when the vehicle is idle, search.
    searches, passes = [], []
    greedy, on_dispatch = dispatch.greedy_assign, engine._Run._on_dispatch

    def counting(net, idle, waiting):
        searches.append([r.id for r in waiting])
        return greedy(net, idle, waiting)

    def recording(run, t, entity):
        idle = any(not v.schedule for v in run.on_duty.values())
        before = list(run.queue)
        on_dispatch(run, t, entity)
        passes.append((t, idle, before, list(run.queue)))

    monkeypatch.setattr(dispatch, "greedy_assign", counting)
    monkeypatch.setattr(engine._Run, "_on_dispatch", recording)
    a, b, c, d = (RideRequest(0, 3000.0, 0, 4), RideRequest(1, 3010.0, 24, 20),
                  RideRequest(2, 3020.0, 9, 14), RideRequest(3, 3030.0, 3, 2))
    run_scenario(net5, [a, b, c, d], supply([1, 1] + [0] * 22), GreedyExclusive(),
                 seed=0, spawn_nodes=[0])
    assert [(t, before, after) for t, idle, before, after in passes if not idle] == [
        (3010.0, [1], [1]), (3020.0, [1, 2], [1, 2]), (3030.0, [1, 2, 3], [1, 2, 3]),
        (3400.0, [2, 3], [2, 3]), (3950.0, [3], [3])]
    assert [t for t, idle, _before, _after in passes if idle] == [3000.0, 3200.0, 3600.0,
                                                                 4000.0]
    assert searches == [[0], [1, 2, 3], [2, 3], [3]]


# -- invariants over seeded runs ------------------------------------------------------


POLICIES = [GreedyExclusive(), SharedGreedy(), DarpInsertion()]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
def test_requests_conserved_and_replayable(net5, policy):
    demand = generate_synthetic_demand(net5, 60, FLAT, seed=11)
    runs = [run_scenario(net5, demand, all_day(2), policy, seed=7)
            for _ in range(2)]
    for res in runs:
        assert len(res.trips) == 60
        assert [t.request_id for t in res.trips] == sorted(r.id for r in demand)
        assert res.served + res.rejected + res.waiting == 60
        for t in res.trips:
            if t.served:
                assert t.wait_min >= 0.0 and t.ivtt_min > 0.0 and t.length_km > 0.0
    assert runs[0].trips == runs[1].trips
    assert runs[0].fleet == runs[1].fleet


def test_on_demand_requires_supply(net5):
    with pytest.raises(ValueError):
        run_scenario(net5, [], None, GreedyExclusive())


def test_zero_demand_runs_clean(net5):
    res = run_scenario(net5, [], all_day(1), GreedyExclusive(), seed=0)
    assert res.trips == []
    assert res.demand_total == 0
    assert res.served_fraction == 1.0
    assert res.total_km == 0.0
    assert res.avg_vehicles == 1.0
    assert res.operating_hours == 24.0


# -- summary arithmetic ---------------------------------------------------------------


def test_summarize_overlapping_service_union():
    # overlapping shifts (0-2 h and 1-3 h), then disjoint ones (6-8 h and 10-12 h)
    # whose gap is not operating time: dedicated and fixed-route costs are
    # priced from these hours
    for (a, b), (c, d), hours, avg in [((0.0, 7200.0), (3600.0, 10800.0), 3.0, 4.0 / 3.0),
                                       ((21600.0, 28800.0), (36000.0, 43200.0), 4.0, 1.0)]:
        fleet = [VehicleLog(0, 2.0, 10.0, 0.0, a, b, 0.0),
                 VehicleLog(1, 2.0, 5.0, 0.0, c, d, 0.0)]
        res = summarize([], fleet, demand_total=0)
        assert res.operating_hours == hours
        assert res.avg_vehicles == pytest.approx(avg, abs=1e-12)
        assert res.total_km == 15.0
        assert res.served_fraction == 1.0


# -- fixed-route day ------------------------------------------------------------------


CORRIDOR = CorridorConfig(stops=[10, 12, 14], cruise_speed_mps=10.0,
                          window_h=[7, 21], catchment_min=7.0,
                          vehicles_base=2, dwell_s=20.0)


def test_fixed_route_day_with_capacity_spill(net5):
    # nine identical riders target the 26400 departure; eight seats force the
    # ninth onto the next outbound run at 26640
    riders = [RideRequest(i, 26000.0 + i, 11, 14) for i in range(9)]
    walker = RideRequest(9, 26000.0, 0, 14)  # beyond the stop catchment
    res = run_scenario(net5, riders + [walker], None, FixedRoute(CORRIDOR, 2))
    assert res.demand_total == 10
    assert res.served == 9 and res.rejected == 1
    served = [t for t in res.trips if t.served]
    assert all(t.mode == "frt" for t in served)
    assert all(t.ivtt_min == 220.0 / 60.0 for t in served)
    assert all(t.length_km == 2.0 for t in served)
    waits = {t.request_id: t.wait_min for t in served}
    for i in range(8):  # ready at ~26360+i, boarding at 26400
        assert waits[i] == pytest.approx((40.0 - i) / 60.0, abs=1e-6)
    assert waits[8] == pytest.approx(272.0 / 60.0, abs=1e-6)
    assert sum(1 for t in served if t.wait_min > 4.0) == 1
    rejected = [t for t in res.trips if not t.served]
    assert rejected[0].reject_reason == "walk_too_far"
    # 210 runs for vehicle 0 and 209 for vehicle 1, 2 km each
    assert res.total_km == 838.0
    assert {v.vehicle_id: v.km for v in res.fleet} == {0: 420.0, 1: 418.0}
    assert res.fleet[0].start_s == 25200.0


def test_fixed_route_needs_its_route():
    with pytest.raises(TypeError):
        FixedRoute()


def test_fixed_route_ignores_supply_argument(net5):
    riders = [RideRequest(0, 26000.0, 11, 14)]
    a = run_scenario(net5, riders, None, FixedRoute(CORRIDOR, 2))
    b = run_scenario(net5, riders, all_day(5), FixedRoute(CORRIDOR, 2))
    assert a.trips == b.trips
    assert a.total_km == b.total_km


def test_fixed_route_occupancy_accounting(net5):
    riders = [RideRequest(i, 26000.0 + i, 11, 14) for i in range(3)]
    res = run_scenario(net5, riders, None, FixedRoute(CORRIDOR, 2))
    pax_s = sum(v.passenger_seconds for v in res.fleet)
    assert pax_s == pytest.approx(3 * 220.0, abs=1e-9)
    assert res.avg_occupancy > 0.0
