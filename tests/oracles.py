"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than the
production code: forward Dijkstra instead of reverse, Floyd-Warshall for
all-pairs distances, exhaustive plan enumeration instead of incremental
tracing, and the pairwise mean-difference form of the Gini index instead
of Lorenz trapezoids. Agreement between the two sides is then meaningful.
"""

from __future__ import annotations

import heapq
from array import array

INF = float("inf")


# -- shortest paths -------------------------------------------------------------


def dijkstra_from(net, source: int) -> dict[int, float]:
    """Forward Dijkstra over edge lengths; plain lists, no caching."""
    dist = {nid: INF for nid in net.nodes}
    dist[source] = 0.0
    pq = [(0.0, source)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for e in net.out_edges[u]:
            nd = d + e.length_m
            if nd < dist[e.to]:
                dist[e.to] = nd
                heapq.heappush(pq, (nd, e.to))
    return dist


def reverse_dijkstra(net, dest: int) -> array:
    """Metres from every node into dest, by node in id order.

    The independent heap reference for Network's trees: reverse Dijkstra
    with a heap of (metres, node id), over each node's in-edges as Edge
    objects in edge-id order. Network's trees come from Delta-stepping over
    a slot-indexed in-adjacency instead, and must equal this bit for bit.
    """
    into = {nid: [] for nid in net.nodes}
    for e in sorted(net.edges.values(), key=lambda e: e.id):
        into[e.to].append(e)
    slot = {nid: k for k, nid in enumerate(sorted(net.nodes))}
    dist = array("d", [INF]) * len(slot)
    dist[slot[dest]] = 0.0
    pq = [(0.0, dest)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[slot[u]]:
            continue
        for e in into[u]:
            nd = d + e.length_m
            if nd < dist[slot[e.frm]]:
                dist[slot[e.frm]] = nd
                heapq.heappush(pq, (nd, e.frm))
    return dist


def distance_matrix(net) -> dict[int, dict[int, float]]:
    return {nid: dijkstra_from(net, nid) for nid in net.nodes}


def floyd_warshall(net) -> dict[int, dict[int, float]]:
    ids = sorted(net.nodes)
    dist = {a: {b: (0.0 if a == b else INF) for b in ids} for a in ids}
    for e in net.edges.values():
        if e.length_m < dist[e.frm][e.to]:
            dist[e.frm][e.to] = e.length_m
    for k in ids:
        dk = dist[k]
        for a in ids:
            dak = dist[a][k]
            if dak == INF:
                continue
            da = dist[a]
            for b in ids:
                alt = dak + dk[b]
                if alt < da[b]:
                    da[b] = alt
    return dist


def lexicographic_shortest_edges(net, origin: int, dest: int) -> list[int]:
    """Smallest edge-id sequence among all shortest paths, by brute force.

    Depth-first enumeration over edges that stay on some shortest path,
    always trying lower edge ids first; the first complete path found is
    the lexicographic minimum.
    """
    dist_to = {nid: dijkstra_from(net, nid)[dest] for nid in net.nodes}
    path = []

    def walk(node: int) -> bool:
        if node == dest:
            return True
        for e in sorted(net.out_edges[node], key=lambda e: e.id):
            if abs(e.length_m + dist_to[e.to] - dist_to[node]) <= 1e-9 * max(
                    1.0, dist_to[node]):
                path.append(e.id)
                if walk(e.to):
                    return True
                path.pop()
        return False

    if dist_to[origin] == INF:
        raise ValueError("no path")
    walk(origin)
    return path


# -- dispatch decisions ----------------------------------------------------------


def greedy_oracle(dist, idle_vehicles, queue):
    """FCFS nearest-idle matching; returns [(request_id, vehicle_id)].

    dist: all-pairs matrix from distance_matrix/floyd_warshall.
    idle_vehicles: [(vehicle_id, node)]; queue: [(request_id, origin)].
    """
    free = dict(idle_vehicles)
    out = []
    for rid, origin in queue:
        if not free:
            break
        best = min(free.items(), key=lambda kv: (dist[kv[1]][origin], kv[0]))
        if dist[best[1]][origin] == INF:
            continue
        out.append((rid, best[0]))
        del free[best[0]]
    return out


def plan_walk(dist, speed, anchor, start_time, stops, aboard_m, inflight_m=0.0):
    """Re-derive a plan's timings and per-rider distances from distances alone.

    Valid on uniform-speed networks, where travel time is distance/speed.
    stops: [(node, action, request_id)]. Returns (plan_m, pickup_times,
    final_m, max_load, arrival_times).
    """
    onboard = {rid: m + inflight_m for rid, m in aboard_m.items()}
    t, node, plan_m = start_time, anchor, 0.0
    pickups, finals, arrivals = {}, {}, []
    max_load = len(onboard)
    for stop_node, action, rid in stops:
        leg = dist[node][stop_node]
        plan_m += leg
        t += leg / speed
        for r in onboard:
            onboard[r] += leg
        node = stop_node
        arrivals.append(t)
        if action == "pickup":
            onboard[rid] = 0.0
            pickups[rid] = t
            max_load = max(max_load, len(onboard))
        else:
            finals[rid] = onboard.pop(rid)
    return plan_m, pickups, finals, max_load, arrivals


def darp_oracle(dist, speed, vehicles, request, requests, now,
                max_detour=2.0, max_wait_s=1800.0):
    """Exhaustive cheapest-insertion search, independent of the package.

    vehicles: [(vehicle_id, anchor, ready_time, inflight_m, capacity,
    stops, aboard_m)] with stops as [(node, action, request_id)]. Returns
    None when infeasible, else (added_m, vehicle_id, i, j).
    """
    best = None
    for vid, anchor, ready, inflight_m, cap, stops, aboard in vehicles:
        base_m, _, _, _, _ = plan_walk(dist, speed, anchor, ready, stops,
                                       aboard, inflight_m)
        n = len(stops)
        for i in range(n + 1):
            for j in range(i + 1, n + 2):
                cand = list(stops)
                cand.insert(i, (request.origin, "pickup", request.id))
                cand.insert(j, (request.destination, "dropoff", request.id))
                plan_m, pickups, finals, load, _ = plan_walk(
                    dist, speed, anchor, ready, cand, aboard, inflight_m)
                if load > cap:
                    continue
                feasible = True
                for rid, t_pick in pickups.items():
                    rt = request.request_time if rid == request.id \
                        else requests[rid].request_time
                    if t_pick - rt > max_wait_s:
                        feasible = False
                        break
                if feasible:
                    for rid, ridden in finals.items():
                        r = requests.get(rid, request)
                        if rid == request.id:
                            r = request
                        if ridden > max_detour * dist[r.origin][r.destination]:
                            feasible = False
                            break
                if not feasible:
                    continue
                key = (plan_m - base_m, vid, i, j)
                if best is None or key < best:
                    best = key
    return best


def insertion_screen(net, candidates, request, requests, now, max_detour, max_wait_s):
    """The cheapest-insertion screen with each slot's ride bounds taken
    together by `max`, over plan tables built here from their definitions.

    candidates is [(vehicle, [(i, j), ...])], as the search takes it.
    Returns the slots that pass, as (estimate, vehicle id, i, j, vehicle,
    walk start) in walk order, and the widest slack; walk start is (anchor,
    clock, odometer, metres of the current plan). A slot is refused when its
    estimate is not finite, when its largest ride bound exceeds the slack
    (`max` keeps its first argument against a NaN later one, so the finite
    check comes first), when a leg the new rider rides is full, or when its
    pickup leg starts past the new rider's wait.
    """
    from odt_lab.dispatch import PICKUP, trace_plan
    from odt_lab.network import _EPS

    so, sd = net._slot[request.origin], net._slot[request.destination]
    to_o, to_d = net._distances_to(request.origin), net._distances_to(request.destination)
    direct = to_d[so]
    cap = max_detour * direct
    bound = cap + _EPS * max(1.0, cap)
    zeros = [0.0] * len(net._slot)  # nothing is driven after the last stop
    passed, cut = [], 0.0
    for v, slots in candidates:
        anchor, clock, odometer_m = v.anchor(now)
        stops = v.schedule
        n = len(stops)
        tr = trace_plan(net, anchor, clock, stops, v.picked_at_m, odometer_m)
        odo, arrivals = [odometer_m, *tr.odometers], [clock, *tr.arrivals]
        at = [net._slot[anchor]] + [net._slot[s.node] for s in stops]
        into = [net._distances_to(s.node) for s in stops] + [zeros]  # per leg
        legs = [odo[k + 1] - odo[k] for k in range(n)] + [0.0]
        slack = 1e-6 * max(1.0, odo[-1] + cap)
        cut = max(cut, slack)
        # riders[i][j]: least detour slack of a rider on leg i who still
        # rides leg j - 1; loads[k]: riders on leg k
        riders = [[INF] * (n + 2) for _ in range(n + 1)]
        loads = [len(v.picked_at_m)] * (n + 1)
        board = dict.fromkeys(v.picked_at_m, 0)
        for k, s in enumerate(stops, 1):
            if s.action == PICKUP:
                board[s.request_id] = k
                for m in range(k, n + 1):
                    loads[m] += 1
                continue
            for m in range(k, n + 1):
                loads[m] -= 1
            r = requests[s.request_id]
            rcap = max_detour * net.distance_m(r.origin, r.destination)
            left = rcap + _EPS * max(1.0, rcap) - tr.final_m[s.request_id]
            for i in range(board[s.request_id], k):
                for j in range(1, k + 1):
                    riders[i][j] = min(riders[i][j], left)
        start = (anchor, clock, odometer_m, odo[-1] - odometer_m)
        for i, j in slots:
            k = j - 1
            if k == i:
                est = to_o[at[i]] + direct + into[i][sd] - legs[i]
                over = max(est - riders[i][j], direct - bound)
            else:
                add_o = to_o[at[i]] + into[i][so] - legs[i]
                add_d = to_d[at[k]] + into[k][sd] - legs[k]
                est = add_o + add_d
                ride = into[i][so] + odo[k] - odo[i + 1] + to_d[at[k]]
                over = max(add_o - riders[i][i + 1], add_d - riders[k][j],
                           est - riders[i][j], ride - bound)
            if (est < INF and over <= slack and all(loads[m] < v.capacity for m in range(i, j))
                    and arrivals[i] - request.request_time <= max_wait_s):
                passed.append((est, v.id, i, j, v, start))
    passed.sort(key=lambda q: q[:4])
    return passed, cut


# -- fixed-route boarding ----------------------------------------------------------


def frt_board_scan(net, request, spec, timetable, loads):
    """Fixed-route boarding by scanning the day's runs from the first, in one
    flat list by (first departure, vehicle): skip a run of the other
    direction, one that leaves before the rider is ready and one full on a
    leg ridden, and book the seats of the first run left in loads. Ride
    metres add the ridden legs in stop order as listed, each leg summed
    edge by edge along the network's path in the direction driven.

    Returns (run, departure, wait min, ride min, ride km), or the gate's
    reason when the corridor refuses the trip, or "no_departure".
    """
    from odt_lab.dispatch import DEFAULT_SEATS, Ineligible, _corridor_ends, walk_seconds

    ends = _corridor_ends(net, spec, request)
    if isinstance(ends, Ineligible):
        return ends.reason
    bi, walk_o, ai, _walk_d = ends
    stops = spec.stops
    n = len(stops)
    direction = +1 if bi < ai else -1
    pb, pa = (bi, ai) if direction > 0 else (n - 1 - bi, n - 1 - ai)
    ready = request.request_time + walk_seconds(walk_o)
    flat = sorted(((run, +1 if d == 0 else -1) for d, line in enumerate(timetable.runs)
                   for run in line), key=lambda rd: (rd[0].departures[0], rd[0].vehicle))
    for run, run_direction in flat:
        if run_direction != direction:
            continue
        dep = run.departures[pb]
        if dep < ready:
            continue
        taken = loads.setdefault(run, [0] * (n - 1))
        if any(taken[k] >= DEFAULT_SEATS for k in range(pb, pa)):
            continue
        for k in range(pb, pa):
            taken[k] += 1
        ride_m = 0
        for k in range(min(bi, ai), max(bi, ai)):
            a, b = (stops[k], stops[k + 1]) if direction > 0 else (stops[k + 1], stops[k])
            ride_m += sum(e.length_m for e in net.shortest_path(a, b))
        return (run, dep, (dep - ready) / 60.0, (run.arrivals[pa] - dep) / 60.0,
                ride_m / 1000.0)
    return "no_departure"


# -- inequality ------------------------------------------------------------------


def gini_mean_difference(weights, outcomes) -> float:
    """Weighted Gini via pairwise mean absolute rate differences.

    G = sum_ij w_i w_j |o_i/w_i - o_j/w_j| / (2 W sum_o). Requires strictly
    positive weights.
    """
    if any(w <= 0 for w in weights):
        raise ValueError("positive weights only")
    total_w = sum(weights)
    total_o = sum(outcomes)
    if total_o <= 0:
        raise ValueError("no outcome mass")
    rates = [o / w for o, w in zip(outcomes, weights)]
    acc = 0.0
    for i in range(len(weights)):
        for j in range(len(weights)):
            acc += weights[i] * weights[j] * abs(rates[i] - rates[j])
    return acc / (2.0 * total_w * total_o)


# -- random dispatch instances -----------------------------------------------------
#
# All times are multiples of 0.5 s and all grid legs multiples of 500 m, so
# every accumulated float in both the production tracer and the oracle walker
# is exactly representable and the two sides cannot drift by an ulp.


def make_greedy_instance(rng, n_nodes: int):
    """Random idle fleet and waiting queue: ([(vid, node)], [(rid, origin)])."""
    nv = rng.randint(1, 3)
    nq = rng.randint(1, 5)
    idle = [(vid, rng.randrange(n_nodes)) for vid in range(nv)]
    queue = [(rid, rng.randrange(n_nodes)) for rid in range(nq)]
    return idle, queue


def make_darp_instance(rng, n_nodes: int, now: float):
    """Random fleet state plus one new request, in plain-tuple form.

    Returns (vehicles, requests, new_request_args) where vehicles are
    (vid, anchor, ready, inflight_m, capacity, stops, aboard_m) tuples the
    oracle consumes directly and the caller converts to package objects.
    stops are (node, action, request_id). Instances stay within 5 requests
    and 3 vehicles; roughly half the fleets get 2-seat vehicles so the
    load check binds.
    """
    vehicles = []
    requests = {}
    rid = 100
    total_requests = 0
    for vid in range(rng.randint(1, 3)):
        anchor = rng.randrange(n_nodes)
        ready = now + rng.randint(0, 120)  # finishing an edge shortly
        inflight_m = rng.choice([0.0, 250.0, 500.0])
        capacity = rng.choice([2, 8])
        stops = []
        aboard = {}
        for _ in range(rng.randint(0, 2)):
            if total_requests >= 4:
                break
            o = rng.randrange(n_nodes)
            d = rng.randrange(n_nodes)
            while d == o:
                d = rng.randrange(n_nodes)
            t_req = max(0.0, now - rng.randint(0, 2400) * 0.5)
            requests[rid] = (rid, t_req, o, d)
            if aboard or rng.random() < 0.5:
                stops.append((o, "pickup", rid))
                stops.append((d, "dropoff", rid))
            else:
                aboard[rid] = rng.randrange(0, 7) * 250.0
                stops.insert(rng.randrange(len(stops) + 1), (d, "dropoff", rid))
            rid += 1
            total_requests += 1
        vehicles.append((vid, anchor, ready, inflight_m, capacity, stops, aboard))
    o = rng.randrange(n_nodes)
    d = rng.randrange(n_nodes)
    while d == o:
        d = rng.randrange(n_nodes)
    new_req = (rid, max(0.0, now - rng.randint(0, 3600) * 0.5), o, d)
    return vehicles, requests, new_req


# -- shared-ride matching reference -----------------------------------------------


def shared_oracle(dist, speed, idle, hosts, request, requests, now,
                  max_detour=2.0):
    """Re-derive the one-request shared match by direct rule application.

    idle: [(vehicle_id, node, ready_time)]. hosts: [(vehicle_id, anchor,
    ready_time, inflight_m, aboard_rid, aboard_m, drop_node)] for vehicles
    carrying exactly one rider toward a single dropoff. Returns None or
    (added_m, vehicle_id, rank) with rank 0 idle, 1 drop-new-first,
    2 drop-old-first.
    """
    o, d = request.origin, request.destination
    direct_new = dist[o][d]
    best = None
    for vid, node, _ready in idle:
        added = dist[node][o] + direct_new
        key = (added, vid, 0)
        if best is None or key < best:
            best = key
    for vid, anchor, ready, inflight_m, old_rid, aboard_m, old_drop in hosts:
        old = requests[old_rid]
        direct_old = dist[old.origin][old.destination]
        base = dist[anchor][old_drop]
        for rank, order in ((1, [(o, "pickup", request.id),
                                 (d, "dropoff", request.id),
                                 (old_drop, "dropoff", old_rid)]),
                            (2, [(o, "pickup", request.id),
                                 (old_drop, "dropoff", old_rid),
                                 (d, "dropoff", request.id)])):
            plan_m, _, finals, load, _ = plan_walk(
                dist, speed, anchor, ready, order,
                {old_rid: aboard_m}, inflight_m)
            if load > 2:
                continue
            if finals[old_rid] > max_detour * direct_old:
                continue
            if finals[request.id] > max_detour * direct_new:
                continue
            key = (plan_m - base, vid, rank)
            if best is None or key < best:
                best = key
    return best
