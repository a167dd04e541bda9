"""Dispatch and engine on networks where the order of float additions matters.

The other suites run on uniform grids whose 500 m legs add up exactly in
any order. Here edges follow random geometry: lengths are a node pair's
straight-line distance stretched by U(1, 1.7) plus 1 m, and speeds are
non-integer, so a sum taken leg by leg, or from the other end, can differ
in the last bits from the engine's edge-by-edge sums. The last test takes
a grid with a node that no edge leads to.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import astuple, replace
from functools import partial
from itertools import permutations
from random import Random

import pytest

from odt_lab import dispatch, engine
from odt_lab.config import CorridorConfig
from odt_lab.demand import DAY_S, RideRequest, SupplySchedule
from odt_lab.dispatch import (BATCH_INTERVAL_S, DEFAULT_SEATS, DROPOFF, PICKUP, DarpInsertion,
                              FixedRoute, GreedyExclusive, SharedGreedy, Stop,
                              Vehicle, build_timetable, darp_insert, frt_board,
                              greedy_assign, shared_greedy_match, trace_plan)
from odt_lab.engine import run_scenario
from odt_lab.network import _EPS, Edge, Network, Node, NoPathError, generate_grid

from oracles import frt_board_scan, insertion_screen
from test_dispatch import NOW, ODOMETER_M, make_vehicle


def irregular_network(seed: int, n: int = 30) -> Network:
    """A strongly connected directed network: a one-way ring plus random chords."""
    rng = Random(f"irregular/{seed}")
    nodes = [Node(i, rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0)) for i in range(n)]
    pairs = {(i, (i + 1) % n) for i in range(n)}
    while len(pairs) < 3 * n:
        pairs.add(tuple(rng.sample(range(n), 2)))
    edges = []
    for eid, (a, b) in enumerate(sorted(pairs)):
        na, nb = nodes[a], nodes[b]
        length = math.hypot(na.x - nb.x, na.y - nb.y) * rng.uniform(1.0, 1.7) + 1.0
        speed = rng.uniform(6.0, 15.0)
        edges.append(Edge(eid, a, b, length, speed, length / speed))
    net = Network(nodes, edges)
    assert net.outside_component == ()
    return net


def _requests(rng: Random, net: Network, count: int, end_h: int = 10) -> list[RideRequest]:
    """count requests between random node pairs, uniform from 08:00 to end_h."""
    ids = sorted(net.nodes)
    times = sorted(rng.uniform(8 * 3600.0, end_h * 3600.0) for _ in range(count))
    return [RideRequest(k, t, *rng.sample(ids, 2)) for k, t in enumerate(times)]


@pytest.mark.parametrize("policy", [DarpInsertion(), SharedGreedy()],
                         ids=["darp", "shared"])
def test_prediction_equals_realization(monkeypatch, policy):
    """The winning insertion's trace predicts every served trip to the bit:
    pickup time, dropoff time and metres ridden. Each day also keeps the
    service invariants: every request is served, rejected or waiting,
    a served DARP rider waits at most max_wait_s, and a served ride is at
    most max_detour times the direct distance, within the network's slack."""
    pickups: dict[int, float] = {}
    drops: dict[int, tuple[float, float]] = {}  # request -> (time, metres ridden)
    search = dispatch._cheapest_insertion

    def spy(*args, **kwargs):
        best = search(*args, **kwargs)
        if best is not None:
            _key, tr, _veh, schedule = best
            pickups.update(tr.pickup_times)
            for stop, t in zip(schedule, tr.arrivals):
                if stop.action == DROPOFF:
                    drops[stop.request_id] = (t, tr.final_m[stop.request_id])
        return best

    monkeypatch.setattr(dispatch, "_cheapest_insertion", spy)
    served = detoured = 0
    for seed in range(6):
        net = irregular_network(seed)
        rng = Random(f"predict/{seed}")
        reqs = _requests(rng, net, 40)
        supply = SupplySchedule([0] * 8 + [3] * 4 + [0] * 12)
        pickups.clear()
        drops.clear()
        res = run_scenario(net, reqs, supply, policy, seed=seed)
        assert res.served + res.rejected + res.waiting == res.demand_total == len(reqs)
        for trip in res.trips:
            if not trip.served:
                continue
            r = reqs[trip.request_id]
            picked = pickups[r.id]
            dropped, ridden = drops[r.id]
            assert (picked - r.request_time) / 60.0 == trip.wait_min
            assert (dropped - picked) / 60.0 == trip.ivtt_min
            assert ridden / 1000.0 == trip.length_km
            assert picked - r.request_time <= getattr(policy, "max_wait_s", math.inf)
            cap = policy.max_detour * net.distance_m(r.origin, r.destination)
            assert ridden - cap <= _EPS * max(1.0, cap)
            served += 1
            detoured += ridden > net.distance_m(r.origin, r.destination) * (1 + 1e-6)
    assert served > 150 and detoured > 20  # pooled detours are exercised


def test_direct_ride_meets_a_detour_cap_of_one():
    """An idle vehicle at the origin driving straight to the destination
    rides exactly the shortest path, which a cap of 1.0 must accept however
    its forward edge sum rounds against the reverse-Dijkstra distance."""
    refused = []
    for seed in range(10):
        net = irregular_network(seed)
        rng = Random(f"direct/{seed}")
        ids = sorted(net.nodes)
        for k in range(100):
            req = RideRequest(k, 1000.0, *rng.sample(ids, 2))
            requests = {k: req}
            idle = [Vehicle(0, req.origin)]
            darp = darp_insert(net, idle, req, requests, 1000.0, max_detour=1.0)
            pooled = shared_greedy_match(net, idle, [req], requests, 1000.0,
                                         max_detour=1.0)
            if not darp.accepted or not pooled:
                refused.append((seed, req.origin, req.destination))
    assert refused == []


PIN_ROUTE = FixedRoute(CorridorConfig(stops=[0, 5, 10, 15, 20, 25], cruise_speed_mps=9.7,
                                      window_h=[8, 10], catchment_min=15.0,
                                      dwell_s=17.5), 2)


@pytest.mark.parametrize("policy, seats, digest", [
    (DarpInsertion(), DEFAULT_SEATS,
     "eeaf6cc207bbda12fc4d0c817c5ba888d75f5b2b9512b2799239ad469220a94c"),
    (SharedGreedy(), DEFAULT_SEATS,
     "94770c9946f48260dcbfc8e6cd40db0d2308a92a6543760d6bdbd33d28e4c7e3"),
    (PIN_ROUTE, DEFAULT_SEATS,
     "8dd91d8f778be3fb87b31e6e3015db257413a8750b90415950296abaff230c6c"),
    (PIN_ROUTE, 2, "9823e64472954c4366c0e76afb3041fc25c7bd214459d28e35c4a3f85c3450b7"),
], ids=["darp", "shared", "frt", "frt-2-seats"])
def test_engine_outputs_are_pinned(monkeypatch, policy, seats, digest):
    """The trip and fleet logs of one day, every float as repr prints it,
    end times and kilometres included. Each on-demand day hands 34 new
    schedules to vehicles already driving; 2 (darp) and 34 (shared) of them
    change the next stop, so the vehicle re-routes from the head of its
    edge. The fixed route's stops are a corridor of unequal legs, so its
    ride metres and run lengths depend on the order they are summed in; at
    8 seats it serves 17 riders and 5 of them first meet a full run, and at
    2 seats it serves 8."""
    monkeypatch.setattr(dispatch, "DEFAULT_SEATS", seats)
    net = irregular_network(2)
    reqs = _requests(Random("pin/2"), net, 60)
    res = run_scenario(net, reqs, SupplySchedule([0] * 8 + [3] * 4 + [0] * 12), policy,
                       seed=1)
    rows = [astuple(t) for t in res.trips] + [astuple(v) for v in res.fleet]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def _boarded(plan):
    """frt_board's answer in the form of the reference scan's."""
    if isinstance(plan, dispatch.Ineligible):
        return plan.reason
    return plan.run, plan.departure_s, plan.wait_min, plan.ivtt_min, plan.ride_km


BOARD_ROUTE = replace(PIN_ROUTE.spec, window_h=[6, 22])


def test_boarding_matches_a_scan_of_every_run():
    """frt_board picks the run, departure, wait, ride time and ride metres
    that a scan of the day's runs from the first picks, and books the same
    seats. PIN_ROUTE's corridor has unequal legs; here it runs three
    vehicles from 06:00 to 22:00, and loads are pre-filled at random, so
    that some runs are full on some legs."""
    net = irregular_network(2)
    spec = BOARD_ROUTE
    tt = build_timetable(net, spec, 3)
    rng = Random("board/2")
    loads = {run: [rng.choice([0, 0, 3, DEFAULT_SEATS - 1, DEFAULT_SEATS])
                   for _ in spec.stops[1:]] for line in tt.runs for run in line}
    scan_loads = {run: list(taken) for run, taken in loads.items()}
    outcomes = Counter()
    for req in _requests(rng, net, 300, end_h=22):
        want = frt_board_scan(net, req, spec, tt, scan_loads)
        assert _boarded(frt_board(net, req, spec, tt, loads)) == want
        if isinstance(want, str):
            outcomes[want] += 1
        else:  # the first run in reach, had it a seat
            outcomes["boarded", frt_board_scan(net, req, spec, tt, {})[0] is want[0]] += 1
    assert loads == scan_loads
    # 77 boardings pass over a run full on a leg ridden, 39 do not
    assert outcomes == {("boarded", False): 77, ("boarded", True): 39, "no_departure": 47,
                        "walk_too_far": 94, "same_stop": 43}
    for o, d in permutations(spec.stops, 2):  # every ride, from a stop to a stop
        req = RideRequest(0, 30000.0, o, d)
        assert _boarded(frt_board(net, req, spec, tt, {})) == frt_board_scan(net, req, spec,
                                                                             tt, {})


def test_boarding_at_and_just_after_a_departure():
    """A rider standing at a stop, so ready as the request is made, boards
    a run that leaves at that instant; one ready a float later waits for
    the line's next run, and after the line's last run finds none."""
    net = irregular_network(2)
    spec = BOARD_ROUTE
    tt = build_timetable(net, spec, 3)
    stops = spec.stops
    outbound, inbound = tt.runs
    # between the second stop and the fifth, each the second in its travel order
    for line, o, d in ((outbound, stops[1], stops[4]), (inbound, stops[4], stops[1])):
        for run, after in zip(line, line[1:]):
            dep = run.departures[1]
            plan = frt_board(net, RideRequest(0, dep, o, d), spec, tt, {})
            assert (plan.run, plan.departure_s, plan.wait_min) == (run, dep, 0.0)
            late = math.nextafter(dep, math.inf)
            plan = frt_board(net, RideRequest(0, late, o, d), spec, tt, {})
            assert (plan.run, plan.departure_s) == (after, after.departures[1])
    # from the first stop, whose departures all fall inside the window
    last = outbound[-1].departures[0]
    late = RideRequest(0, math.nextafter(last, math.inf), stops[0], stops[3])
    assert late.request_time < spec.window[1]
    assert frt_board(net, late, spec, tt, {}) == dispatch.Ineligible("no_departure")


@pytest.mark.parametrize("policy", [SharedGreedy(), SharedGreedy(max_detour=1.0),
                                    GreedyExclusive()], ids=["shared", "shared-direct",
                                                             "exclusive"])
def test_no_pass_between_events_would_match(monkeypatch, policy):
    """Crowdsourced fleets dispatch only when a request arrives, a shift
    starts or a vehicle serves a stop. A pass between those events would
    match nobody: an idle vehicle stands still, and a pooling host's added
    metres for a new rider cannot fall as it drives toward its next stop.
    Probe a copy of the on-duty roster the engine offers its passes, and
    the queue, at every 30 s boundary where riders wait and no pass ran."""
    probes = matched = 0
    passes = set()
    dispatch_pass = engine._Run._on_dispatch
    init = engine._Run.__init__
    pop = engine.heappop
    state = {}

    def on_dispatch(self, t, entity):
        passes.add(t)
        dispatch_pass(self, t, entity)

    def start(self, *args, **kwargs):
        init(self, *args, **kwargs)
        state.update(run=self, boundary=0.0)

    def probing_pop(heap):
        nonlocal probes, matched
        run, b = state["run"], state["boundary"]
        while b < min(heap[0][0], DAY_S):  # every event up to b has run
            if run.queue and b not in passes:
                # a copy of each vehicle's mutable state; requests, stops,
                # edges and plan tables are never written in place
                vehicles = [replace(v, schedule=list(v.schedule), leg=list(v.leg),
                                    picked_at_m=dict(v.picked_at_m))
                            for v in run.on_duty.values()]
                waiting = list(run.queue.values())
                probes += 1
                matched += sum(1 for _r, v, _s in policy.assign(
                    run.net, vehicles, waiting, run.requests, b) if v is not None)
            b += BATCH_INTERVAL_S
        state["boundary"] = b
        return pop(heap)

    monkeypatch.setattr(engine._Run, "_on_dispatch", on_dispatch)
    monkeypatch.setattr(engine._Run, "__init__", start)
    monkeypatch.setattr(engine, "heappop", probing_pop)
    for seed in range(6):
        net = irregular_network(seed)
        reqs = _requests(Random(f"probe/{seed}"), net, 200, 20)
        passes.clear()
        run_scenario(net, reqs, SupplySchedule([0] * 8 + [3] * 12 + [0] * 4), policy,
                     seed=seed)
    assert matched == 0 and probes > 6000, (matched, probes)


def reference_insertion(net, candidates, request, requests, now, max_detour, max_wait_s):
    """The cheapest feasible slot found by tracing every slot in full and
    only then checking seats, waits and the detour slack: (key, schedule),
    or None. A slot with a leg of no route is infeasible."""
    best = None
    for v, slots in candidates:
        anchor, start, odometer_m = v.anchor(now)
        base_m = trace_plan(net, anchor, start, v.schedule, v.picked_at_m, odometer_m).plan_m
        for i, j in slots:
            cand = list(v.schedule)
            cand.insert(i, Stop(request.origin, PICKUP, request.id))
            cand.insert(j, Stop(request.destination, DROPOFF, request.id))
            try:
                tr = trace_plan(net, anchor, start, cand, v.picked_at_m, odometer_m)
            except NoPathError:
                continue
            load = peak = len(v.picked_at_m)
            for stop in cand:
                load += 1 if stop.action == PICKUP else -1
                peak = max(peak, load)
            if peak > v.capacity:
                continue
            if any(t - requests[rid].request_time > max_wait_s
                   for rid, t in tr.pickup_times.items()):
                continue
            caps = {rid: max_detour * net.distance_m(requests[rid].origin,
                                                     requests[rid].destination)
                    for rid in tr.final_m}
            if any(m - caps[rid] > _EPS * max(1.0, caps[rid]) for rid, m in tr.final_m.items()):
                continue
            key = (tr.plan_m - base_m, v.id, i, j)
            if best is None or key < best[0]:
                best = (key, cand)
    return best


@pytest.mark.parametrize("policy, seats, count, end_h, searches, found", [
    (DarpInsertion(), DEFAULT_SEATS, 40, 10, 80, 55),
    (DarpInsertion(max_detour=1.2, max_wait_s=600.0), DEFAULT_SEATS, 40, 10, 80, 25),
    (SharedGreedy(), DEFAULT_SEATS, 200, 20, 2500, 70),
    (SharedGreedy(max_detour=1.0), DEFAULT_SEATS, 200, 20, 8000, 70),
    (DarpInsertion(), 2, 40, 10, 80, 45),
], ids=["darp", "darp-tight", "shared", "shared-direct", "darp-2-seats"])
def test_winner_matches_full_trace_reference(monkeypatch, policy, seats, count, end_h,
                                             searches, found):
    """Every insertion search picks the same winner, key and schedule, as a
    reference that traces each slot to its end before checking any promise.
    With 2 seats, full legs rule out slots the detours alone would allow.
    Pooled matching searches only when a request arrives or a vehicle serves
    a stop, so its cases take a 12-hour day of 200 requests per seed to run
    as many searches as the floors ask."""
    search = dispatch._cheapest_insertion
    seen = []
    monkeypatch.setattr(dispatch, "Vehicle", partial(Vehicle, capacity=seats))

    def spy(net, candidates, request, requests, now, max_detour, max_wait_s):
        candidates = [(v, list(slots)) for v, slots in candidates]  # darp passes a generator
        best = search(net, candidates, request, requests, now, max_detour, max_wait_s)
        winner = None if best is None else (best[0], best[3])  # (key, schedule)
        assert winner == reference_insertion(net, candidates, request, requests, now,
                                             max_detour, max_wait_s)
        seen.append(best is not None)
        return best

    monkeypatch.setattr(dispatch, "_cheapest_insertion", spy)
    for seed in range(2):
        net = irregular_network(seed)
        reqs = _requests(Random(f"predict/{seed}"), net, count, end_h)
        hours = [0] * 8 + [3] * (end_h - 8) + [0] * (24 - end_h)
        run_scenario(net, reqs, SupplySchedule(hours), policy, seed=seed)
    assert len(seen) >= searches and sum(seen) >= found, (len(seen), sum(seen))


def with_dead_ends(net: Network) -> Network:
    """net plus node n, whose only edge leaves it for node 0, so nothing can
    drive to it, and node n + 1, whose only edge comes from node 1, so
    nothing can drive from it."""
    n, e = len(net.nodes), len(net.edges)
    a, b = net.nodes[0], net.nodes[1]
    nodes = [*net.nodes.values(), Node(n, a.x + 600.0, a.y), Node(n + 1, b.x, b.y + 800.0)]
    edges = [*net.edges.values(), Edge(e, n, 0, 900.0, 10.0, 90.0),
             Edge(e + 1, 1, n + 1, 1000.0, 10.0, 100.0)]
    return Network(nodes, edges)


@pytest.mark.parametrize("policy, seats, count, end_h, searches, walked, deep", [
    (DarpInsertion(), DEFAULT_SEATS, 80, 10, 200, 400, 100),
    (DarpInsertion(max_detour=1.2, max_wait_s=600.0), 2, 80, 10, 200, 300, 100),
    (SharedGreedy(), DEFAULT_SEATS, 200, 20, 40000, 200, 5),
], ids=["darp", "darp-tight-2-seats", "shared"])
def test_search_walks_the_slots_the_max_form_screen_passes(monkeypatch, policy, seats, count,
                                                           end_h, searches, walked, deep):
    """Every insertion search walks exactly the slots that a reference
    screen, bounding each slot's rides by their `max` over tables built
    from their definitions, lets through, in (estimate, vehicle id, i, j)
    order, up to the same stopping rule. The days run on irregular networks
    with a node nothing drives to and one nothing drives from, so requests,
    and vehicles stranded at the second, give legs of no route, whose terms
    are inf or NaN. Each DARP search is checked again under a detour cap of
    0.9, which no ride meets, so that the new rider's direct ride is the
    only bound an appended slot breaks. deep counts searches that walk two
    slots or more."""
    search, trace = dispatch._cheapest_insertion, dispatch.trace_plan
    walks = []  # (riders aboard, stops) of each promise-checking walk
    seen = []

    def spy_trace(net, anchor, start, stops, picked_at_m, odometer_m=0.0, promises=None):
        if promises is not None:
            walks.append((picked_at_m, stops))
        return trace(net, anchor, start, stops, picked_at_m, odometer_m, promises)

    def checked(net, candidates, request, requests, now, max_detour, max_wait_s):
        walks.clear()
        best = search(net, candidates, request, requests, now, max_detour, max_wait_s)
        vid = {id(v.picked_at_m): v.id for v, _slots in candidates}
        got = []
        for aboard, stops in walks:
            at = [k for k, stop in enumerate(stops) if stop.request_id == request.id]
            got.append((vid[id(aboard)], *at))
        passed, cut = insertion_screen(net, candidates, request, requests, now,
                                       max_detour, max_wait_s)
        want, least = [], math.inf
        for est, v_id, i, j, v, (anchor, clock, odometer_m, plan_m) in passed:
            if est - least > cut:
                break
            want.append((v_id, i, j))
            cand = list(v.schedule)
            cand.insert(i, Stop(request.origin, PICKUP, request.id))
            cand.insert(j, Stop(request.destination, DROPOFF, request.id))
            tr = trace(net, anchor, clock, cand, v.picked_at_m, odometer_m,
                       (requests, v.capacity, max_wait_s, max_detour))
            if tr is not None:
                least = min(least, tr.plan_m - plan_m)
        assert got == want
        return best, got

    def spy(net, candidates, request, requests, now, max_detour, max_wait_s):
        candidates = [(v, list(slots)) for v, slots in candidates]  # darp passes a generator
        best, got = checked(net, candidates, request, requests, now, max_detour, max_wait_s)
        seen.append(len(got))
        if isinstance(policy, DarpInsertion):
            checked(net, candidates, request, requests, now, 0.9, max_wait_s)
        return best

    monkeypatch.setattr(dispatch, "Vehicle", partial(Vehicle, capacity=seats))
    monkeypatch.setattr(dispatch, "trace_plan", spy_trace)
    monkeypatch.setattr(dispatch, "_cheapest_insertion", spy)
    for seed in range(3):
        net = with_dead_ends(irregular_network(seed))
        reqs = _requests(Random(f"screen/{seed}"), net, count, end_h)
        hours = [0] * 8 + [3] * (end_h - 8) + [0] * (24 - end_h)
        run_scenario(net, reqs, SupplySchedule(hours), policy, seed=seed)
    counts = (len(seen), sum(seen), sum(n > 1 for n in seen))
    assert all(got >= floor for got, floor in zip(counts, (searches, walked, deep))), counts


@pytest.mark.parametrize("policy, seats, count, end_h, floors", [
    (DarpInsertion(), DEFAULT_SEATS, 40, 10, {"driven": 20, "served": 30}),
    (DarpInsertion(), 2, 40, 10, {"driven": 20, "served": 30}),
    (SharedGreedy(), DEFAULT_SEATS, 200, 20, {"driven": 20, "another leg": 20}),
], ids=["darp", "darp-2-seats", "shared"])
def test_plan_tables_follow_the_vehicle_as_a_fresh_build(monkeypatch, policy, seats, count,
                                                         end_h, floors):
    """Every `_base_plan` result equals, in every field, the tables built
    from one walk of the vehicle's plan as it stands. Tables are derived
    without a walk when the vehicle has only driven along its leg
    ("driven") or also served the first stops of the last tables' plan
    ("served"). A vehicle back on the schedule and riders of its last
    tables, on a leg that ends elsewhere ("another leg"), such as a pooled
    host that picked up and dropped a second rider in between, is walked
    afresh. Pooled matching tabulates only a host's one-stop plan, so it
    serves no stop between two tables of one plan."""
    base_plan, trace = dispatch._base_plan, dispatch.trace_plan
    walks = []
    cases = Counter()

    def counted(net, anchor, start, stops, picked_at_m, odometer_m=0.0, promises=None):
        if promises is None:
            walks.append(stops)
        return trace(net, anchor, start, stops, picked_at_m, odometer_m, promises)

    def checked(net, v, now, requests, max_detour):
        old = v.base_plan
        walks.clear()
        got = base_plan(net, v, now, requests, max_detour)
        walked = len(walks)
        fresh = base_plan(net, replace(v, leg=list(v.leg), base_plan=None), now, requests,
                          max_detour)
        assert got == fresh
        if old is None or old is got:
            return got
        done = old.key[3]
        s = len(done) - len(v.schedule)
        aboard = {rid for rid, _m in old.key[4]}
        for stop in done[:max(s, 0)]:
            (aboard.add if stop.action == PICKUP else aboard.remove)(stop.request_id)
        if s < 0 or done[s:] != tuple(v.schedule) or aboard != set(v.picked_at_m):
            cases["rebuilt"] += 1
        elif v.leg[0][:2] == (old.arrivals[s + 1], old.odo[s + 1]):
            assert walked == 0
            cases["served" if s else "driven"] += 1
        else:
            assert walked == 1
            cases["another leg"] += 1
        return got

    monkeypatch.setattr(dispatch, "Vehicle", partial(Vehicle, capacity=seats))
    monkeypatch.setattr(dispatch, "trace_plan", counted)
    monkeypatch.setattr(dispatch, "_base_plan", checked)
    for seed in range(2):
        net = irregular_network(seed)
        reqs = _requests(Random(f"predict/{seed}"), net, count, end_h)
        hours = [0] * 8 + [3] * (end_h - 8) + [0] * (24 - end_h)
        run_scenario(net, reqs, SupplySchedule(hours), policy, seed=seed)
    assert all(cases[name] >= floor for name, floor in floors.items()), cases


def test_empty_plans_are_screened_from_the_anchor_without_tables():
    """An idle vehicle's one slot is screened from `Vehicle.anchor`, standing
    or mid-edge, and builds no `_BasePlan`; the search still picks the
    full-trace reference's winner, key and schedule."""
    net = generate_grid(5, 5, 500.0, 10.0)
    # A rider at node 12 has waited 1700 s of 1800. Vehicle 0 is on a
    # synthetic edge ending at 12 that it finishes only at NOW + 150, too
    # late; vehicle 1 is on the edge 11 -> 12 and reaches 12 at NOW + 25;
    # vehicle 2 stands at 12. Read at (position, NOW) instead of the anchor,
    # vehicle 0 would win, or vehicle 1 would be 500 m worse than vehicle 2.
    req = RideRequest(0, NOW - 1700.0, 12, 14)
    late = make_vehicle(0, 12, NOW + 150.0, 1500.0, DEFAULT_SEATS, [], {})
    edge = next(e for e in net.out_edges[11] if e.to == 12)
    on_edge = Vehicle(1, 11, odometer_m=ODOMETER_M,
                      leg=[(NOW + 25.0, ODOMETER_M + edge.length_m, edge)])
    fleet = [late, on_edge, Vehicle(2, 12)]
    args = (net, [(v, [(0, 1)]) for v in fleet], req, {0: req}, NOW, 2.0, 1800.0)
    best = dispatch._cheapest_insertion(*args)
    assert (best[0], best[3]) == reference_insertion(*args)
    assert best[0] == (1000.0, 1, 0, 1) and best[1].pickup_times == {0: NOW + 25.0}
    assert [v.base_plan for v in fleet] == [None] * 3

    # Random idle fleets on irregular networks, half of them mid-edge, under
    # a wait bound that both admits and refuses them.
    found = refused = 0
    for seed in range(6):
        net = irregular_network(seed)
        rng = Random(f"idle/{seed}")
        ids = sorted(net.nodes)
        fleet = []
        for vid in range(6):
            e = rng.choice(sorted(net.edges.values(), key=lambda e: e.id))
            v = Vehicle(vid, e.frm, odometer_m=rng.uniform(0.0, 1e5))
            if vid % 2:  # the anchor is the edge's head, reached after now
                v.leg = [(NOW + rng.uniform(1.0, e.travel_time_s),
                          v.odometer_m + e.length_m, e)]
            fleet.append(v)
        for k in range(20):
            req = RideRequest(k, NOW - rng.uniform(0.0, 600.0), *rng.sample(ids, 2))
            args = (net, [(v, [(0, 1)]) for v in fleet], req, {k: req}, NOW, 1.5, 700.0)
            best = dispatch._cheapest_insertion(*args)
            assert (None if best is None else (best[0], best[3])) == reference_insertion(*args)
            found += best is not None
            refused += best is None
        assert [v.base_plan for v in fleet] == [None] * 6
    assert found > 20 and refused > 20, (found, refused)


def test_an_empty_plan_that_cannot_reach_the_pickup_is_no_candidate():
    """An idle vehicle with no route to the pickup has no feasible slot,
    whether or not the rider has waited past the bound: the search finds
    nothing, as the reference does, and raises nothing."""
    net = grid_with_dead_end()
    for waited_s in (60.0, 2000.0):
        req = RideRequest(0, NOW - waited_s, 25, 3)  # nothing drives to node 25
        args = (net, [(Vehicle(0, 12), [(0, 1)])], req, {0: req}, NOW, 2.0, 1800.0)
        assert reference_insertion(*args) is None
        assert dispatch._cheapest_insertion(*args) is None


def grid_with_dead_end() -> Network:
    """The 5x5 500 m grid plus node 25, east of node 4, whose only edge is
    25 -> 4: nothing can drive to node 25."""
    grid = generate_grid(5, 5, 500.0, 10.0)
    nodes = [*grid.nodes.values(), Node(25, 2500.0, 0.0)]
    edges = [*grid.edges.values(), Edge(len(grid.edges), 25, 4, 500.0, 10.0, 50.0)]
    return Network(nodes, edges, area_km2=grid.area_km2)


def test_greedy_passes_over_an_idle_vehicle_with_no_route_to_the_pickup():
    """Only vehicle 1, standing at node 25, can reach a pickup there, so it
    wins over vehicle 0 with its lower id; the next rider at node 25 stays
    queued, since vehicle 0 cannot reach it, and a later rider takes vehicle 0."""
    net = grid_with_dead_end()
    queue = [RideRequest(0, NOW, 25, 3), RideRequest(1, NOW, 25, 8),
             RideRequest(2, NOW, 8, 3)]
    got = greedy_assign(net, [Vehicle(0, 12), Vehicle(1, 25)], queue)
    assert [(r.id, v.id) for r, v in got] == [(0, 1), (2, 0)]


@pytest.mark.parametrize("origin, destination, found", [
    (3, 25, False), (25, 3, False), (3, 8, True),
], ids=["to-dead-end", "from-dead-end", "routable"])
def test_unroutable_slots_are_infeasible_like_the_reference(origin, destination, found):
    """A slot whose legs include one with no route is infeasible, so the
    search finds what tracing every slot finds: no slot when every one
    needs such a leg, and otherwise the same winner."""
    net = grid_with_dead_end()
    now = 36000.0
    aboard = RideRequest(1, now - 100.0, 10, 14)
    req = RideRequest(2, now - 60.0, origin, destination)
    requests = {1: aboard, 2: req}
    idle = Vehicle(0, 12)
    host = Vehicle(1, 11, schedule=[Stop(14, DROPOFF, 1)], picked_at_m={1: -500.0})
    candidates = [(idle, [(0, 1)]), (host, [(0, 1), (0, 2), (1, 2)])]
    args = (net, candidates, req, requests, now, 2.0, 1800.0)
    best = dispatch._cheapest_insertion(*args)
    assert (best is not None) == found
    assert (None if best is None else (best[0], best[3])) == reference_insertion(*args)
