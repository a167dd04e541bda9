"""Dispatch policy tests: exhaustive oracles, frozen timetables, boarding gates.

Random instances use only dyadic values (times in half seconds, metres in
multiples of 250) on a uniform 500 m / 10 m/s grid, so the per-edge
accumulation inside trace_plan and the per-leg arithmetic in the oracles
produce bit-identical floats and every comparison below can be exact.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
import yaml

from odt_lab import dispatch, runner
from odt_lab.config import CorridorConfig, parse_config
from odt_lab.demand import RideRequest
from odt_lab.dispatch import (DROPOFF, Ineligible, PICKUP, Stop, Vehicle,
                              build_timetable, catchment_m, darp_insert, frt_board,
                              greedy_assign, hybrid_route, ride_stops,
                              shared_greedy_match, trace_plan, walk_minutes,
                              walk_seconds)
from odt_lab.network import Edge, Network, generate_grid

from oracles import (darp_oracle, distance_matrix, greedy_oracle,
                     make_darp_instance, make_greedy_instance, plan_walk,
                     shared_oracle)

SPEED = 10.0
NOW = 36000.0
ODOMETER_M = 40000.0  # a mid-run vehicle's reading before its edge in flight


@pytest.fixture(scope="module")
def net5():
    return generate_grid(5, 5, 500.0, SPEED)


@pytest.fixture(scope="module")
def dist5(net5):
    return distance_matrix(net5)


def make_vehicle(vid, anchor, ready, inflight_m, capacity, stops, aboard,
                 now=NOW) -> Vehicle:
    """Vehicle in mid-run state matching the oracle's tuple form exactly.

    A rider who has ridden m metres was picked up at odometer ODOMETER_M - m.
    """
    v = Vehicle(id=vid, position=anchor, capacity=capacity,
                schedule=[Stop(*s) for s in stops],
                odometer_m=ODOMETER_M, picked_at_m=picked_at(aboard))
    if ready > now or inflight_m > 0:
        # a one-edge leg on a synthetic edge ending where it starts:
        # anchor(now) reproduces the given state
        v.leg = [(ready, ODOMETER_M + inflight_m,
                  Edge(-1, anchor, anchor, inflight_m, SPEED, inflight_m / SPEED))]
    return v


def picked_at(aboard: dict[int, float]) -> dict[int, float]:
    """Pickup odometers of riders who have ridden the given metres."""
    return {rid: ODOMETER_M - m for rid, m in aboard.items()}


def idle_vehicle(vid: int, node: int) -> Vehicle:
    return Vehicle(id=vid, position=node)


# -- plan tracing ----------------------------------------------------------------


def test_trace_plan_hand_case(net5):
    # 0 -> pickup at 1 (one 500 m hop) -> dropoff at 3 (two more hops)
    stops = [Stop(1, PICKUP, 7), Stop(3, DROPOFF, 7)]
    tr = trace_plan(net5, 0, 1000.0, stops, {})
    assert tr.arrivals == [1050.0, 1150.0]
    assert tr.plan_m == 1500.0
    assert tr.pickup_times == {7: 1050.0}
    assert tr.final_m == {7: 1000.0}


def test_trace_plan_counts_inflight_for_aboard_riders(net5):
    # rider 9 has ridden 750 m and the vehicle is mid-edge with 250 m left;
    # two more hops to node 10 puts the rider at 2000 m total
    tr = trace_plan(net5, 0, 500.0, [Stop(10, DROPOFF, 9)], picked_at({9: 750.0}),
                    ODOMETER_M + 250.0)
    assert tr.final_m == {9: 2000.0}
    assert tr.plan_m == 1000.0
    assert tr.arrivals == [600.0]


def test_trace_plan_matches_leg_walker(net5, dist5):
    """Per-edge accumulation equals per-leg arithmetic on random schedules."""
    for seed in range(120):
        rng = Random(f"trace/{seed}")
        vehicles, _reqs, _new = make_darp_instance(rng, 25, NOW)
        for vid, anchor, ready, inflight_m, _cap, stops, aboard in vehicles:
            tr = trace_plan(net5, anchor, ready, [Stop(*s) for s in stops],
                            picked_at(aboard), ODOMETER_M + inflight_m)
            plan_m, pickups, finals, _max_load, arrivals = plan_walk(
                dist5, SPEED, anchor, ready, stops, aboard, inflight_m)
            assert tr.plan_m == plan_m
            assert tr.arrivals == arrivals
            assert tr.pickup_times == pickups
            assert tr.final_m == finals


def test_trace_plan_reuses_cached_paths(monkeypatch):
    """Tracing a plan again routes nothing: every leg is a cached path, so
    a return to per-edge routing shows as next_edge calls."""
    net = generate_grid(5, 5, 500.0, SPEED)
    stops = [Stop(24, PICKUP, 1), Stop(3, PICKUP, 2), Stop(20, DROPOFF, 1),
             Stop(12, DROPOFF, 2)]
    calls = []
    next_edge = Network.next_edge

    def counted(self, current, dest):
        calls.append((current, dest))
        return next_edge(self, current, dest)

    monkeypatch.setattr(Network, "next_edge", counted)
    first = trace_plan(net, 0, NOW, stops, {})
    assert calls  # the first trace builds the paths
    calls.clear()
    again = trace_plan(net, 0, NOW, stops, {})
    assert calls == []
    assert again == first


# -- greedy exclusive --------------------------------------------------------------


def test_greedy_matches_oracle(net5, dist5):
    multi = 0
    for seed in range(300):
        rng = Random(f"greedy/{seed}")
        idle_t, queue_t = make_greedy_instance(rng, 25)
        vehicles = [idle_vehicle(vid, node) for vid, node in idle_t]
        queue = [RideRequest(rid, 1000.0 + rid, origin, (origin + 1) % 25)
                 for rid, origin in queue_t]
        got = [(r.id, v.id) for r, v in greedy_assign(net5, vehicles, queue)]
        assert got == greedy_oracle(dist5, idle_t, queue_t)
        if len(got) > 1:
            multi += 1
    assert multi > 100  # the sample actually exercises sequential removal


def test_greedy_tie_prefers_lower_vehicle_id(net5):
    vehicles = [idle_vehicle(3, 2), idle_vehicle(1, 10)]  # both 1000 m from 0
    req = RideRequest(0, 100.0, 0, 4)
    ((_, chosen),) = greedy_assign(net5, vehicles, [req])
    assert chosen.id == 1


def test_greedy_assigns_alike_whatever_the_order_of_the_idle_list(net5):
    # the grid's equal distances make ties, which go to the lowest id in any order
    for seed in range(100):
        rng = Random(f"greedy-order/{seed}")
        idle_t, queue_t = make_greedy_instance(rng, 25)
        vehicles = sorted((idle_vehicle(vid, node) for vid, node in idle_t),
                          key=lambda v: v.id)
        queue = [RideRequest(rid, 1000.0 + rid, origin, (origin + 1) % 25)
                 for rid, origin in queue_t]
        want = [(r.id, v.id) for r, v in greedy_assign(net5, vehicles, queue)]
        shuffled = vehicles[:]
        rng.shuffle(shuffled)
        given = shuffled[:]
        assert [(r.id, v.id) for r, v in greedy_assign(net5, shuffled, queue)] == want
        assert shuffled == given  # the caller's list is left as it was


def test_greedy_leaves_overflow_queued(net5):
    vehicles = [idle_vehicle(0, 5)]
    queue = [RideRequest(i, 100.0 + i, i, i + 1) for i in range(3)]
    out = greedy_assign(net5, vehicles, queue)
    assert [(r.id, v.id) for r, v in out] == [(0, 0)]


# -- dedicated insertion -----------------------------------------------------------


def test_darp_matches_exhaustive_oracle(net5, dist5):
    accepted = rejected = 0
    for seed in range(300):
        rng = Random(f"darp/{seed}")
        veh_t, reqs_t, new_t = make_darp_instance(rng, 25, NOW)
        requests = {rid: RideRequest(*tup) for rid, tup in reqs_t.items()}
        new = RideRequest(*new_t)
        requests[new.id] = new
        vehicles = [make_vehicle(*vt) for vt in veh_t]
        res = darp_insert(net5, vehicles, new, requests, NOW)
        exp = darp_oracle(dist5, SPEED, veh_t, new, requests, NOW)
        if exp is None:
            assert not res.accepted
            rejected += 1
        else:
            added_m, vid, i, j = exp
            assert res.accepted
            assert (res.vehicle_id, res.pickup_index, res.dropoff_index) == (vid, i, j)
            assert res.added_m == added_m
            assert res.predicted_wait_s <= 1800.0
            accepted += 1
    # both outcomes must be genuinely exercised
    assert accepted >= 100
    assert rejected >= 20


def test_darp_tie_prefers_lower_vehicle_then_earlier_slots(net5):
    vehicles = [make_vehicle(2, 0, NOW, 0.0, 8, [], {}),
                make_vehicle(1, 0, NOW, 0.0, 8, [], {})]
    res = darp_insert(net5, vehicles, RideRequest(50, NOW, 3, 4),
                      {50: RideRequest(50, NOW, 3, 4)}, NOW)
    assert res.accepted
    assert (res.vehicle_id, res.pickup_index, res.dropoff_index) == (1, 0, 1)


def test_darp_seat_capacity_defers_pickup(net5):
    # full vehicle: the pickup must wait until a seat frees up, even though
    # an immediate pickup would add no driving at all
    stops = [(3, DROPOFF, 60), (4, DROPOFF, 61)]
    reqs = {60: RideRequest(60, NOW, 0, 3), 61: RideRequest(61, NOW, 0, 4),
            62: RideRequest(62, NOW, 1, 2)}
    roomy = make_vehicle(0, 0, NOW, 0.0, 8, stops, {60: 0.0, 61: 0.0})
    res = darp_insert(net5, [roomy], reqs[62], reqs, NOW)
    assert (res.pickup_index, res.dropoff_index, res.added_m) == (0, 1, 0.0)
    full = make_vehicle(0, 0, NOW, 0.0, 2, stops, {60: 0.0, 61: 0.0})
    res = darp_insert(net5, [full], reqs[62], reqs, NOW)
    assert res.accepted
    assert (res.pickup_index, res.dropoff_index) == (1, 2)
    assert res.added_m == 2000.0


def test_darp_rejects_when_wait_bound_exceeded(net5):
    v = make_vehicle(0, 0, NOW, 0.0, 8, [], {})
    # origin is 8 hops away: 400 s drive, but the rider already waited 1500 s
    req = RideRequest(50, NOW - 1500.0, 24, 0)
    res = darp_insert(net5, [v], req, {50: req}, NOW, max_wait_s=1800.0)
    assert not res.accepted
    ok = RideRequest(51, NOW - 1400.0, 24, 0)
    assert darp_insert(net5, [v], ok, {51: ok}, NOW, max_wait_s=1800.0).accepted


def promised_traces(monkeypatch) -> list[list[Stop]]:
    """The plans that `trace_plan` walks with promises from now on."""
    walked = []
    trace = dispatch.trace_plan

    def counted(net, anchor, start, stops, picked_at_m, odometer_m=0.0, promises=None):
        if promises is not None:
            walked.append(list(stops))
        return trace(net, anchor, start, stops, picked_at_m, odometer_m, promises)

    monkeypatch.setattr(dispatch, "trace_plan", counted)
    return walked


@pytest.mark.parametrize("odometer_m, ridden_m, accepted, walks", [
    (ODOMETER_M, 2500.5, False, 0),
    (600000.0, 2500.5, False, 1),
    (ODOMETER_M, 2500.000001, True, 1),
], ids=["half-metre-over", "half-metre-over-far-into-the-day", "within-relative-slack"])
def test_detour_slack_is_relative_not_a_metre(monkeypatch, net5, odometer_m, ridden_m,
                                              accepted, walks):
    """Rider 9 (0 -> 4, cap 2 x 2000 m) has ridden ridden_m when its host, at
    node 1, is offered one slot: pick up at 2 and drop off at 3 on the way,
    which adds 1500 m to the ride. Half a metre over the cap is refused: by
    the screen when its 1e-6 relative slack is a few centimetres, and by the
    walk when 600 km on the odometer widen that slack past 0.5 m. 1e-6 m
    over the cap is inside the walk's 1e-9 relative slack and is accepted.
    A flat 1 m slack, in the screen or the walk, fails a case."""
    walked = promised_traces(monkeypatch)
    requests = {9: RideRequest(9, NOW - 300.0, 0, 4), 10: RideRequest(10, NOW, 2, 3)}
    host = Vehicle(0, 1, schedule=[Stop(4, DROPOFF, 9)], odometer_m=odometer_m,
                   picked_at_m={9: odometer_m - ridden_m})
    best = dispatch._cheapest_insertion(net5, [(host, [(0, 1)])], requests[10], requests,
                                        NOW, 2.0, math.inf)
    assert (best is not None) == accepted
    assert len(walked) == walks
    if accepted:
        assert best[0] == (0.0, 0, 0, 1)
        assert 0.0 < best[1].final_m[9] - 4000.0 < 4e-6


def test_darp_walks_only_up_to_the_first_feasible_slot(monkeypatch, net5):
    """Slots are walked in increasing estimate of added metres: when the
    cheapest is feasible it is the only plan walked with promises."""
    walked = promised_traces(monkeypatch)
    requests = {20: RideRequest(20, NOW - 60.0, 2, 4), 21: RideRequest(21, NOW, 1, 3)}
    far = make_vehicle(0, 24, NOW, 0.0, 8, [], {})
    along = make_vehicle(1, 0, NOW, 0.0, 8, [(2, PICKUP, 20), (4, DROPOFF, 20)], {})
    near = make_vehicle(2, 7, NOW, 0.0, 8, [], {})
    res = darp_insert(net5, [far, along, near], requests[21], requests, NOW)
    assert (res.vehicle_id, res.pickup_index, res.dropoff_index, res.added_m) == (1, 0, 2, 0.0)
    assert walked == [list(res.schedule)]


def test_insertion_work_on_the_readme_day_is_pinned(monkeypatch):
    """The README town day at levels 50 and 500: the number of `trace_plan`
    calls of each shared and DARP run, as (walks with promises, base plans
    traced). Both are deterministic; a change that walks or tabulates more
    or fewer plans must update the pin and say why. A base plan is traced
    only when it cannot be derived from the vehicle's last tables, which
    follow it as it drives and serves stops."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    town = next(b for b in re.findall(r"```yaml\n(.*?)```", readme, re.S)
                if b.startswith("name: town"))
    cfg = parse_config(yaml.safe_load(town)).config
    calls, run = Counter(), []
    run_one, trace = runner.run_one, dispatch.trace_plan

    def labelled(net, cfg, system, level, *args):
        run[:] = [f"{system.type}@{level}"]
        return run_one(net, cfg, system, level, *args)

    def counted(net, anchor, start, stops, picked_at_m, odometer_m=0.0, promises=None):
        calls[run[0], promises is not None] += 1
        return trace(net, anchor, start, stops, picked_at_m, odometer_m, promises)

    monkeypatch.setattr(runner, "run_one", labelled)
    monkeypatch.setattr(dispatch, "trace_plan", counted)
    runner.simulate(cfg, [50, 500])
    got = {name: (calls[name, True], calls[name, False]) for name, _walk in calls}
    assert got == {"crowdsourced_shared@50": (46, 15), "crowdsourced_shared@500": (859, 289),
                   "dedicated_darp@50": (33, 6), "dedicated_darp@500": (1177, 273)}


def test_tables_shift_past_a_pickup_only_at_the_odometer_they_give_it(monkeypatch):
    """A vehicle that served the first stop of its tables' plan, a pickup,
    and drives a leg that ends where the tables put the next stop, gets the
    tables shifted past that stop, with no walk, when the rider was picked
    up at the odometer the tables give. Picked up at another reading, the
    rider's ride, and so its detour slack, differ, and the plan is walked
    afresh."""
    net = generate_grid(5, 5, 500.0, 10.0)  # nodes 0-4 along the first row, 50 s an edge
    requests = {1: RideRequest(1, NOW - 60.0, 2, 4)}
    e23, e34 = (next(e for e in net.out_edges[a] if e.to == a + 1) for a in (2, 3))
    trace, walks = dispatch.trace_plan, []
    monkeypatch.setattr(dispatch, "trace_plan",
                        lambda *args: walks.append(args) or trace(*args))
    for picked_m, walked in ((ODOMETER_M + 1000.0, 0), (ODOMETER_M + 900.0, 1)):
        v = Vehicle(0, 0, schedule=[Stop(2, PICKUP, 1), Stop(4, DROPOFF, 1)],
                    odometer_m=ODOMETER_M)
        old = dispatch._base_plan(net, v, NOW, requests, 2.0)
        assert old.odo == [ODOMETER_M, ODOMETER_M + 1000.0, ODOMETER_M + 2000.0]
        # the pickup at node 2 is served, and the vehicle is on the edge 2 -> 3
        v.schedule.pop(0)
        v.position, v.odometer_m, v.picked_at_m = 2, ODOMETER_M + 1000.0, {1: picked_m}
        v.leg = [(old.arrivals[2], old.odo[2], e34), (NOW + 150.0, ODOMETER_M + 1500.0, e23)]
        walks.clear()
        got = dispatch._base_plan(net, v, NOW + 120.0, requests, 2.0)
        assert len(walks) == walked
        fresh = dispatch._base_plan(net, replace(v, leg=list(v.leg), base_plan=None),
                                    NOW + 120.0, requests, 2.0)
        assert got == fresh
        assert (got.rider_slack[0][1] == old.rider_slack[1][2]) == (not walked)


# -- shared greedy ------------------------------------------------------------------


def shared_instance(rng, n_nodes: int):
    """Random idle vehicles plus single-rider hosts, in oracle tuple form."""
    idle_t, hosts_t = [], []
    requests = {}
    vid, rid = 0, 500
    for _ in range(rng.randint(0, 2)):
        idle_t.append((vid, rng.randrange(n_nodes), NOW))
        vid += 1
    for _ in range(rng.randint(0, 2)):
        o = rng.randrange(n_nodes)
        d = rng.randrange(n_nodes)
        while d == o:
            d = rng.randrange(n_nodes)
        requests[rid] = RideRequest(rid, max(0.0, NOW - rng.randint(0, 1200) * 0.5), o, d)
        hosts_t.append((vid, rng.randrange(n_nodes), NOW + rng.randint(0, 120),
                        rng.choice([0.0, 250.0, 500.0]), rid,
                        rng.randrange(0, 9) * 250.0, d))
        vid += 1
        rid += 1
    o = rng.randrange(n_nodes)
    d = rng.randrange(n_nodes)
    while d == o:
        d = rng.randrange(n_nodes)
    new = RideRequest(rid, max(0.0, NOW - rng.randint(0, 1200) * 0.5), o, d)
    return idle_t, hosts_t, requests, new


def test_shared_matches_oracle(net5, dist5):
    pooled = solo = skipped = 0
    for seed in range(200):
        rng = Random(f"shared/{seed}")
        idle_t, hosts_t, requests, new = shared_instance(rng, 25)
        vehicles = [idle_vehicle(vid, node) for vid, node, _ in idle_t]
        old_drops = {}
        for vid, anchor, ready, inflight_m, old_rid, aboard_m, drop in hosts_t:
            vehicles.append(make_vehicle(vid, anchor, ready, inflight_m, 8,
                                         [(drop, DROPOFF, old_rid)],
                                         {old_rid: aboard_m}))
            old_drops[vid] = Stop(drop, DROPOFF, old_rid)
        requests = dict(requests)
        requests[new.id] = new
        out = shared_greedy_match(net5, vehicles, [new], requests, NOW)
        exp = shared_oracle(dist5, SPEED, idle_t, hosts_t, new, requests, NOW)
        if exp is None:
            assert out == []
            skipped += 1
            continue
        added_m, vid, rank = exp
        (a,) = out
        assert (a.vehicle.id, a.added_m) == (vid, added_m)
        pickup = Stop(new.origin, PICKUP, new.id)
        drop = Stop(new.destination, DROPOFF, new.id)
        if rank == 0:
            assert a.new_schedule == (pickup, drop)
            solo += 1
        elif rank == 1:
            assert a.new_schedule == (pickup, drop, old_drops[vid])
            pooled += 1
        else:
            assert a.new_schedule == (pickup, old_drops[vid], drop)
            pooled += 1
    assert solo >= 40 and pooled >= 20 and skipped >= 5


def test_shared_host_leaves_pool_after_first_match(net5):
    # one host, two waiting requests along its path: only the first may pool
    host_req = RideRequest(9, NOW - 60.0, 0, 4)
    host = make_vehicle(0, 1, NOW, 0.0, 8, [(4, DROPOFF, 9)], {9: 500.0})
    r1 = RideRequest(10, NOW - 30.0, 2, 4)
    r2 = RideRequest(11, NOW - 20.0, 3, 4)
    requests = {9: host_req, 10: r1, 11: r2}
    out = shared_greedy_match(net5, [host], [r1, r2], requests, NOW)
    assert [a.request.id for a in out] == [10]
    assert out[0].vehicle.id == 0


def test_shared_detour_bound_protects_current_rider(net5):
    # host heads 0 -> 4; a rider wanting the opposite corner would stretch the
    # current rider past twice their direct distance, so only an idle cab works
    host_req = RideRequest(9, NOW - 60.0, 0, 4)
    host = make_vehicle(0, 0, NOW, 0.0, 8, [(4, DROPOFF, 9)], {9: 1500.0})
    idle = idle_vehicle(1, 22)
    new = RideRequest(10, NOW, 20, 24)
    requests = {9: host_req, 10: new}
    out = shared_greedy_match(net5, [host, idle], [new], requests, NOW)
    (a,) = out
    assert a.vehicle.id == 1
    assert a.new_schedule == tuple(ride_stops(new))


def test_shared_has_no_wait_bound(net5):
    # the rider asked 40 min ago, past the dedicated fleet's 30 min promise;
    # a pooled ride is still offered
    host_req = RideRequest(9, NOW - 60.0, 0, 4)
    host = make_vehicle(0, 1, NOW, 0.0, 8, [(4, DROPOFF, 9)], {9: 500.0})
    new = RideRequest(10, NOW - 2400.0, 2, 4)
    requests = {9: host_req, 10: new}
    (a,) = shared_greedy_match(net5, [host], [new], requests, NOW)
    assert a.vehicle.id == 0
    assert a.new_schedule == (Stop(2, PICKUP, 10), Stop(4, DROPOFF, 10),
                              Stop(4, DROPOFF, 9))
    assert not darp_insert(net5, [host], new, requests, NOW).accepted


def test_shared_host_never_picks_up_after_its_riders_dropoff(net5):
    # host drives 0 -> 4 along the top row, the new rider wants 20 -> 24 along
    # the bottom: only dropping the current rider first keeps both detours,
    # which dedicated insertion may do but pooling may not
    host_req = RideRequest(9, NOW - 60.0, 0, 4)
    host = make_vehicle(0, 0, NOW, 0.0, 8, [(4, DROPOFF, 9)], {9: 0.0})
    new = RideRequest(10, NOW, 20, 24)
    requests = {9: host_req, 10: new}
    assert shared_greedy_match(net5, [host], [new], requests, NOW) == []
    res = darp_insert(net5, [host], new, requests, NOW)
    assert res.accepted
    assert (res.pickup_index, res.dropoff_index) == (1, 2)


# -- fixed-route timetable -----------------------------------------------------------


CORRIDOR = CorridorConfig(stops=[10, 12, 14], cruise_speed_mps=10.0,
                          window_h=[7, 21], catchment_min=7.0,
                          vehicles_base=2, vehicles_high=3,
                          high_demand_threshold_pct=300.0, dwell_s=20.0)


@pytest.fixture(scope="module")
def timetable(net5):
    return build_timetable(net5, CORRIDOR, 2)


def test_timetable_frozen_geometry(timetable):
    tt = timetable
    assert tt.leg_m == ((1000.0, 1000.0), (1000.0, 1000.0))
    # block = 2 legs * 100 s + 2 dwells = 240 s each way: a vehicle's
    # outbound runs leave a 480 s cycle apart, and the two vehicles' runs
    # are staggered by a 240 s headway
    outbound = {v: [run.departures[0] for run in tt.runs[0] if run.vehicle == v][:2]
                for v in (0, 1)}
    assert outbound == {0: [25200.0, 25680.0], 1: [25440.0, 25920.0]}


@pytest.mark.parametrize("speed", [math.inf, 1e300], ids=["infinite", "below-one-ulp"])
def test_timetable_refuses_a_run_that_does_not_advance_the_clock(net5, speed):
    # with no dwell, 1000 m legs take 0 s, or less than one ulp of the clock;
    # laying out such runs would never reach the end of the window
    stalled = CorridorConfig(stops=[10, 12, 14], cruise_speed_mps=speed,
                             window_h=[7, 21], dwell_s=0.0)
    with pytest.raises(ValueError, match="does not advance the clock"):
        build_timetable(net5, stalled, 2)


def test_timetable_legs_are_kept_in_travel_order(net5):
    # legs of 1000 m and 500 m: inbound leg k runs from stop 2 - k to stop 1 - k
    tt = build_timetable(net5, replace(CORRIDOR, stops=[10, 12, 13]), 1)
    assert tt.leg_m == ((1000.0, 500.0), (500.0, 1000.0))
    assert [line[0].length_m for line in tt.runs] == [1500.0, 1500.0]


def test_timetable_frozen_first_runs(timetable):
    outbound, inbound = timetable.runs
    first = outbound[0]
    assert first.vehicle == 0
    assert first.arrivals == (25200.0, 25300.0, 25420.0)
    assert first.departures == (25200.0, 25320.0, 25440.0)
    assert first.length_m == 2000.0
    # next departures: vehicle 0 turns at 25440, vehicle 1 starts one headway in
    second, third = inbound[0], outbound[1]
    assert (second.vehicle, second.departures[0]) == (0, 25440.0)
    assert (third.vehicle, third.departures[0]) == (1, 25440.0)


def test_timetable_alternates_and_covers_window(timetable):
    # starts every 240 s until the window closes: 210 runs for vehicle 0
    # (25200 + 240k < 75600) and 209 for vehicle 1
    assert sum(map(len, timetable.runs)) == 419
    for line in timetable.runs:  # each direction by (first departure, vehicle)
        keys = [(r.departures[0], r.vehicle) for r in line]
        assert keys == sorted(keys)
    for v, n_runs in ((0, 210), (1, 209)):
        runs = sorted(((r.departures[0], d) for d, line in enumerate(timetable.runs)
                       for r in line if r.vehicle == v))
        assert len(runs) == n_runs
        assert [d for _start, d in runs[:4]] == [0, 1, 0, 1]  # out, back, out, back
        starts = [start for start, _d in runs]
        assert all(b - a == 240.0 for a, b in zip(starts, starts[1:]))
    assert max(line[-1].departures[0] for line in timetable.runs) < 75600.0


def test_timetable_rejects_empty_fleet(net5):
    with pytest.raises(ValueError):
        build_timetable(net5, CORRIDOR, 0)


def test_route_spec_validation():
    # the corridor's checks are validate's (test_cli.py); here its staffing rule
    assert CORRIDOR.vehicle_count(250.0) == 2
    assert CORRIDOR.vehicle_count(300.0) == 3


# -- fixed-route boarding -------------------------------------------------------------


def test_nearest_stop_tie_prefers_earlier_stop(net5):
    # node 13 sits exactly between stops 12 and 14
    assert net5.nearest_stop(13, CORRIDOR.stops) == (1, 500.0)
    assert net5.nearest_stop(11, CORRIDOR.stops) == (0, 500.0)
    assert net5.nearest_stop(14, CORRIDOR.stops) == (2, 0.0)


def test_walk_helpers_agree():
    reach = catchment_m(7.0)
    assert reach == pytest.approx(583.3333333, abs=1e-6)
    assert walk_minutes(reach) == pytest.approx(7.0, abs=1e-12)
    assert walk_seconds(500.0) == pytest.approx(360.0, abs=1e-9)


def test_frt_board_frozen_outbound(net5, timetable):
    # walk 500 m to stop 0, ready 26360, first outbound departure 26400
    req = RideRequest(1, 26000.0, 11, 14)
    loads = {}
    plan = frt_board(net5, req, CORRIDOR, timetable, loads)
    assert loads == {plan.run: [1, 1]}
    assert (plan.board_stop, plan.alight_stop) == (0, 2)
    assert plan.departure_s == 26400.0
    assert plan.run.vehicle == 1 and plan.run in timetable.runs[0]
    assert plan.ride_km == 2.0
    assert plan.walk_min == pytest.approx(6.0, abs=1e-9)
    assert plan.wait_min == pytest.approx(40.0 / 60.0, abs=1e-9)
    assert plan.ivtt_min == pytest.approx(220.0 / 60.0, abs=1e-12)


def test_frt_board_frozen_inbound(net5, timetable):
    req = RideRequest(2, 26000.0, 19, 11)
    plan = frt_board(net5, req, CORRIDOR, timetable, {})
    assert (plan.board_stop, plan.alight_stop) == (2, 0)
    assert plan.departure_s == 26400.0
    assert plan.run.vehicle == 0 and plan.run in timetable.runs[1]
    assert plan.ride_km == 2.0


def test_frt_board_skips_a_full_run(net5, timetable):
    """A run full on any leg the rider rides is passed over for the next
    departure; one full only on legs the rider does not ride is boarded.
    Legs count in travel order, so inbound the first leg leaves stop 2."""
    seats = dispatch.DEFAULT_SEATS
    req = RideRequest(1, 26000.0, 11, 14)
    first = frt_board(net5, req, CORRIDOR, timetable, {}).run
    loads = {first: [seats - 1, seats]}
    retry = frt_board(net5, req, CORRIDOR, timetable, loads)
    assert retry.departure_s == 26640.0
    assert retry.run.vehicle == 0
    assert loads == {first: [seats - 1, seats], retry.run: [1, 1]}

    def boards(req, taken):
        run = frt_board(net5, req, CORRIDOR, timetable, {}).run
        loads = {run: list(taken)}
        return frt_board(net5, req, CORRIDOR, timetable, loads).run is run

    # outbound from stop 1 and to stop 1
    assert boards(RideRequest(2, 26300.0, 12, 14), [seats, 0])
    assert not boards(RideRequest(2, 26300.0, 12, 14), [0, seats])
    assert boards(RideRequest(3, 26000.0, 11, 12), [0, seats])
    assert not boards(RideRequest(3, 26000.0, 11, 12), [seats, 0])
    # inbound from stop 1 to stop 0 rides the run's second leg
    assert boards(RideRequest(4, 26000.0, 12, 10), [seats, 0])
    assert not boards(RideRequest(4, 26000.0, 12, 10), [0, seats])


def test_frt_board_gates(net5, timetable):
    def reason(req, loads=None):
        out = frt_board(net5, req, CORRIDOR, timetable, {} if loads is None else loads)
        assert isinstance(out, Ineligible)
        return out.reason

    assert reason(RideRequest(1, 25199.5, 11, 14)) == "outside_window"
    assert reason(RideRequest(2, 75600.0, 11, 14)) == "outside_window"
    # node 0 is 1000 m from the closest stop, past the 583 m catchment
    assert reason(RideRequest(3, 26000.0, 0, 14)) == "walk_too_far"
    assert reason(RideRequest(4, 26000.0, 11, 0)) == "walk_too_far"
    # nodes 5 and 15 both map to stop 0
    assert reason(RideRequest(5, 26000.0, 5, 15)) == "same_stop"
    # in window but every remaining departure leaves before the rider is ready
    assert reason(RideRequest(6, 75599.0, 11, 14)) == "no_departure"
    # or every run is full
    full = {run: [dispatch.DEFAULT_SEATS] * 2 for line in timetable.runs for run in line}
    assert reason(RideRequest(7, 26000.0, 11, 14), full) == "no_departure"
    # window start itself is eligible
    assert not isinstance(frt_board(net5, RideRequest(8, 25200.0, 11, 14),
                                    CORRIDOR, timetable, {}), Ineligible)


# -- hybrid routing -----------------------------------------------------------------


def test_hybrid_frt_based_split(net5):
    # the fixed route takes corridor-eligible riders
    assert hybrid_route(net5, RideRequest(1, 26000.0, 11, 19), CORRIDOR, True)
    # same-stop pairs cannot ride the corridor
    assert not hybrid_route(net5, RideRequest(2, 26000.0, 5, 15), CORRIDOR, True)
    assert not hybrid_route(net5, RideRequest(3, 1000.0, 11, 19), CORRIDOR, True)
    assert not hybrid_route(net5, RideRequest(4, 26000.0, 0, 19), CORRIDOR, True)


def test_hybrid_odt_based_split(net5):
    assert hybrid_route(net5, RideRequest(1, 26000.0, 11, 19), CORRIDOR, False)
    # door-to-door corridor service has no same-stop exclusion
    assert hybrid_route(net5, RideRequest(2, 26000.0, 5, 15), CORRIDOR, False)
    assert not hybrid_route(net5, RideRequest(3, 1000.0, 11, 19), CORRIDOR, False)
    assert not hybrid_route(net5, RideRequest(4, 26000.0, 0, 19), CORRIDOR, False)


@pytest.mark.parametrize("two_stops", [True, False])
def test_hybrid_route_matches_the_catchment_rule_on_every_pair(net5, two_stops):
    """Every ordered node pair of the grid, inside and outside the window,
    against the split computed straight from its definition: in the
    window, some stop within the walking catchment of each end by straight
    line, and for the fixed route two distinct nearest stops."""
    reach = catchment_m(CORRIDOR.catchment_min)

    def nearest(node):
        return min(CORRIDOR.stops, key=lambda s: (net5.straight_line_m(node, s),
                                                  CORRIDOR.stops.index(s)))

    def covered(node):
        return any(net5.straight_line_m(node, s) <= reach for s in CORRIDOR.stops)

    taken = 0
    for t in (26000.0, 80000.0):
        in_window = CORRIDOR.window[0] <= t < CORRIDOR.window[1]
        for o in net5.nodes:
            for d in net5.nodes:
                if o == d:
                    continue
                want = in_window and covered(o) and covered(d) and \
                    (not two_stops or nearest(o) != nearest(d))
                assert hybrid_route(net5, RideRequest(0, t, o, d), CORRIDOR,
                                    two_stops) == want, (t, o, d)
                taken += want
    assert 0 < taken < len(net5.nodes) ** 2  # both answers occur
