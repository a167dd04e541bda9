"""Release gate: ten numbered criteria, each printing one PASS/FAIL line.

Each test states its tolerance next to the comparison. Criteria 4, 7, and
10 share one module-scoped sweep of a synthetic 10x10 town (base demand
100 requests/day, ten demand levels from 50% to 500%); criterion 10 is
advisory and warns instead of failing.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from collections import namedtuple
from decimal import Decimal
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from odt_lab.config import parse_config
from odt_lab.costing import (CostParameters, capital_cost,
                             crowdsourced_operating_cost, dedicated_operating_cost,
                             fixed_route_operating_cost, net_annual_cost,
                             per_trip_compensation)
from odt_lab.demand import (SupplySchedule, demand_density, generate_synthetic_demand,
                            scale_demand, scale_supply)
from odt_lab.dispatch import DarpInsertion, GreedyExclusive, SharedGreedy, Stop
from odt_lab.efficiency import (gc_point, generalized_cost, paired_t_test,
                                switching_points, sweep)
from odt_lab.emissions import ghg_at_electrification
from odt_lab.engine import run_scenario
from odt_lab.equity import ZonalOutcome, gini, lorenz
from odt_lab.network import generate_grid
from odt_lab.runner import execute

from oracles import (darp_oracle, distance_matrix, greedy_oracle,
                     make_darp_instance, make_greedy_instance)


def _criterion(num: int, title: str, problems: list[str], warn_only=False):
    ok = not problems
    status = "PASS" if ok else ("WARN" if warn_only else "FAIL")
    print(f"criterion {num:02d} {status} - {title}")
    if warn_only:
        for p in problems:
            warnings.warn(p)
    else:
        assert ok, f"{title}: " + "; ".join(problems[:5])


# -- shared town sweep (criteria 4, 7, 10) ---------------------------------------------

LEVELS = list(range(50, 501, 50))
TOWN_SEED = 23


@pytest.fixture(scope="module")
def town():
    t0 = time.perf_counter()
    net = generate_grid(10, 10, 500.0, 10.0)
    base = generate_synthetic_demand(net, 100, [1.0] * 24, seed=TOWN_SEED)
    base_supply = SupplySchedule([0] * 6 + [3] * 16 + [0] * 2)
    spawn = sorted({r.origin for r in base})
    demand, runs = {}, {}
    for lvl in LEVELS:
        d = scale_demand(base, lvl, seed=f"town{TOWN_SEED}/L{lvl}")
        demand[lvl] = d
        cs_supply = scale_supply(base_supply, lvl - 100, alpha=1.0)
        runs["exclusive", lvl] = run_scenario(
            net, d, cs_supply, GreedyExclusive(),
            seed=f"town{TOWN_SEED}/ex/L{lvl}", spawn_nodes=spawn)
        runs["shared", lvl] = run_scenario(
            net, d, cs_supply, SharedGreedy(),
            seed=f"town{TOWN_SEED}/sh/L{lvl}", spawn_nodes=spawn)
        runs["darp", lvl] = run_scenario(
            net, d, base_supply, DarpInsertion(),
            seed=f"town{TOWN_SEED}/da/L{lvl}", spawn_nodes=spawn)
    return SimpleNamespace(net=net, dist=distance_matrix(net), demand=demand,
                           runs=runs, elapsed=time.perf_counter() - t0)


# -- criterion 1: cost and density formulas --------------------------------------------


def test_criterion_01_cost_formulas():
    problems = []

    def expect(label, got, want):
        if got != want:  # exact in cents, tolerance 0
            problems.append(f"{label}: {got} != {want}")

    expect("per-trip compensation",
           per_trip_compensation(11.39, 9.76, CostParameters(), shared=False),
           Decimal("11.2058"))
    yearly = crowdsourced_operating_cost(11.39, 9.76, 177)
    expect("crowdsourced yearly", yearly, Decimal("723950.71"))
    if abs(yearly - Decimal(723951)) > 1:  # reference figure rounds to 723,951, +/- 1 CAD
        problems.append(f"crowdsourced yearly {yearly} not within 1 of 723951")
    expect("dedicated yearly", dedicated_operating_cost(3, 24, 177),
           Decimal("2147786.00"))
    expect("fixed-route yearly", fixed_route_operating_cost(2, 280, 14, 100),
           Decimal("356512.00"))
    expect("generalized cost", generalized_cost(0, 8, 10, 177, 15, 500000),
           Decimal("790722.50"))
    expect("generalized cost at zero served",
           generalized_cost(4, 8, 10, 0, 15, 500000), Decimal("500000.00"))
    # densities round to two decimals
    if round(demand_density(885, 262.4), 2) != 3.37:
        problems.append("density 885/262.4 != 3.37")
    if round(demand_density(354, 262.4), 2) != 1.35:
        problems.append("density 354/262.4 != 1.35")
    expect("capital", net_annual_cost(capital_cost(2), Decimal("356512.00")),
           Decimal("438612.00"))
    _criterion(1, "cost and density formulas reproduce worked figures exactly",
               problems)


# -- criterion 2: electrification ------------------------------------------------------


def test_criterion_02_electrification_cuts():
    problems = []
    km = 586.5  # any positive daily distance; the ratio is scale-free
    gas = ghg_at_electrification(0.0, km)
    for level, want in ((1.0, 98.1), (0.2, 19.6)):
        cut = (gas - ghg_at_electrification(level, km)) / gas * 100.0
        if abs(cut - want) > 0.1:  # +/- 0.1 percentage point
            problems.append(f"{level:.0%} electrification cuts {cut:.3f}%, want {want}")
    _criterion(2, "electrification reduces yearly GHG by 98.1% (full) / 19.6% (20%)",
               problems)


# -- criterion 3: dispatcher oracle equivalence -----------------------------------------


def test_criterion_03_dispatch_matches_bruteforce():
    t0 = time.perf_counter()
    net = generate_grid(5, 5, 500.0, 10.0)
    dist = distance_matrix(net)
    problems = []

    from test_dispatch import NOW, idle_vehicle, make_vehicle
    from odt_lab.demand import RideRequest
    from odt_lab.dispatch import darp_insert, greedy_assign

    for i in range(250):
        rng = Random(f"acc3/greedy/{i}")
        idle_t, queue_t = make_greedy_instance(rng, 25)
        vehicles = [idle_vehicle(vid, node) for vid, node in idle_t]
        queue = [RideRequest(rid, 1000.0 + rid, o, (o + 1) % 25) for rid, o in queue_t]
        got = [(r.id, v.id) for r, v in greedy_assign(net, vehicles, queue)]
        want = greedy_oracle(dist, idle_t, queue_t)
        if got != want:
            problems.append(f"greedy seed {i}: {got} != {want}")

    accepted = 0
    for i in range(250):
        rng = Random(f"acc3/darp/{i}")
        veh_t, reqs_t, new_t = make_darp_instance(rng, 25, NOW)
        requests = {rid: RideRequest(*tup) for rid, tup in reqs_t.items()}
        new = RideRequest(*new_t)
        requests[new.id] = new
        vehicles = [make_vehicle(*vt) for vt in veh_t]
        res = darp_insert(net, vehicles, new, requests, NOW)
        want = darp_oracle(dist, 10.0, veh_t, new, requests, NOW)
        if want is None:
            if res.accepted:
                problems.append(f"darp seed {i}: accepted an infeasible request")
            continue
        accepted += 1
        added, vid, pi, di = want
        got = (res.vehicle_id, res.pickup_index, res.dropoff_index, res.added_m)
        if not res.accepted or got != (vid, pi, di, added):  # identity + added metres
            problems.append(f"darp seed {i}: {got} != {(vid, pi, di, added)}")
    if accepted < 50:
        problems.append(f"only {accepted} accepted instances; sample too thin")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _criterion(3, f"500 random instances match brute force ({elapsed:.1f}s)", problems)


# -- criterion 4: service constraint invariants -----------------------------------------

_Req = namedtuple("_Req", "id request_time origin destination")


def test_criterion_04_constraints_hold_across_sweep(town):
    t0 = time.perf_counter()
    problems = []

    for (kind, lvl), res in sorted(town.runs.items()):
        n = len(town.demand[lvl])
        if res.demand_total != n or len(res.trips) != n:
            problems.append(f"{kind} L{lvl}: trip records != {n} requests")
        if res.served + res.rejected + res.waiting != res.demand_total:
            problems.append(f"{kind} L{lvl}: served+rejected+waiting != total")

    for lvl in LEVELS:
        by_id = {r.id: r for r in town.demand[lvl]}
        for t in town.runs["shared", lvl].trips:
            if not t.served:
                continue
            r = by_id[t.request_id]
            direct_km = town.dist[r.origin][r.destination] / 1000.0
            if t.length_km > 2.0 * direct_km + 1e-9:  # pooling detour bound
                problems.append(f"shared L{lvl} req {t.request_id}: "
                                f"{t.length_km} km > 2x{direct_km} km")

    rejections = 0
    for lvl in LEVELS:
        res = town.runs["darp", lvl]
        for t in res.trips:
            if t.served and t.wait_min > 30.0 + 1e-9:  # wait bound, minutes
                problems.append(f"darp L{lvl} req {t.request_id}: wait {t.wait_min}")
        for snap in res.rejections:
            rejections += 1
            vehicles = [(v.vehicle_id, v.anchor, v.ready_time, v.inflight_m,
                         v.capacity, [(s.node, s.action, s.request_id)
                                      for s in v.schedule], v.aboard_m)
                        for v in snap.vehicles]
            reqs = {rid: _Req(rid, snap.request_times[rid], *snap.request_ends[rid])
                    for rid in snap.request_times}
            verdict = darp_oracle(town.dist, 10.0, vehicles,
                                  reqs[snap.request_id], reqs, snap.decision_time)
            if verdict is not None:
                problems.append(f"darp L{lvl} req {snap.request_id}: rejected but "
                                f"re-enumeration found {verdict}")
    if rejections == 0:
        problems.append("sweep produced no rejections; certification is vacuous")
    elapsed = town.elapsed + (time.perf_counter() - t0)
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.0f}s, budget 300s")
    _criterion(4, f"detour/wait/rejection/conservation invariants "
                  f"({rejections} rejections certified, {elapsed:.0f}s)", problems)


# -- criterion 5: byte-identical reruns -------------------------------------------------

DET_SCENARIO = {
    "name": "det",
    "seed": 9,
    "network": {"grid": {"rows": 5, "cols": 5, "spacing_m": 500.0, "speed_mps": 10.0,
                         "zone_rows": 2, "zone_cols": 2, "zone_population": 250.0}},
    "demand": {"synthetic": {"count": 30, "hourly_profile": [1.0] * 24},
               "levels": [100, 200]},
    "supply": {"schedule": [1] * 24},
    "systems": [{"type": "crowdsourced_shared"}, {"type": "dedicated_darp"}],
    "analysis": {"surge_levels": [0], "electrification_levels": [0.0, 1.0],
                 "equity_levels": [100]},
}


def test_criterion_05_reruns_are_byte_identical(tmp_path):
    problems = []
    trip_sums, manifests = [], []
    for k in range(3):
        cfg = parse_config(json.loads(json.dumps(DET_SCENARIO))).config
        out = tmp_path / f"run{k}"
        execute(cfg, out_dir=str(out))
        trip_sums.append(hashlib.sha256((out / "trips.csv").read_bytes()).hexdigest())
        manifests.append(json.loads((out / "manifest.json").read_text())["files"])
    if len(set(trip_sums)) != 1:
        problems.append(f"trips.csv checksums differ: {trip_sums}")
    if any(m != manifests[0] for m in manifests[1:]):
        problems.append("manifest checksums differ between reruns")
    _criterion(5, "three reruns of one (config, seed) are byte-identical", problems)


# -- criterion 6: inequality measure ----------------------------------------------------


def _gini(pairs) -> float:
    return gini(lorenz([ZonalOutcome(f"z{i}", o, w)
                        for i, (w, o) in enumerate(pairs)]))


def test_criterion_06_gini_suite():
    problems = []
    if _gini([(1.0, 2.0)] * 4) != 0.0:  # diagonal, exact
        problems.append("equal rates did not give exactly 0")
    if _gini([(3.0, 7.5), (5.0, 12.5), (2.0, 5.0)]) != 0.0:
        problems.append("mixed-weight diagonal did not give exactly 0")
    if _gini([(1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0)]) != 0.75:  # exact
        problems.append("single-winner four zones != 0.75")
    if _gini([(1.0, 1.0), (1.0, 3.0)]) != 0.25:  # exact
        problems.append("two zones (1,3) != 0.25")

    rng = Random("acc6")
    for i in range(1000):
        k = rng.randint(2, 7)
        pairs = [(rng.uniform(0.5, 40.0), rng.uniform(0.05, 9.0)) for _ in range(k)]
        g = _gini(pairs)
        if not 0.0 <= g <= 1.0:
            problems.append(f"case {i}: gini {g} outside [0, 1]")
            continue
        sw, so = rng.uniform(0.01, 50.0), rng.uniform(0.01, 50.0)
        if abs(_gini([(w * sw, o * so) for w, o in pairs]) - g) > 1e-9:
            problems.append(f"case {i}: not scale invariant")
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        if abs(_gini(shuffled) - g) > 1e-9:
            problems.append(f"case {i}: not permutation invariant")
        w0, o0 = pairs[0]
        split = [(w0 / 2, o0 / 2), (w0 / 2, o0 / 2)] + pairs[1:]
        if abs(_gini(split) - g) > 1e-9:
            problems.append(f"case {i}: not split invariant")
    _criterion(6, "gini: exact anchors plus 1000-case invariance (tol 1e-9)", problems)


# -- criterion 7: exclusive-mode driving lower bound -------------------------------------


def test_criterion_07_exclusive_total_km_lower_bound(town):
    problems = []
    for lvl in LEVELS:
        res = town.runs["exclusive", lvl]
        by_id = {r.id: r for r in town.demand[lvl]}
        direct_km = sum(town.dist[by_id[t.request_id].origin]
                                 [by_id[t.request_id].destination]
                        for t in res.trips if t.served) / 1000.0
        if res.total_km < direct_km - 1e-9:  # fleet cannot drive less than the rides
            problems.append(f"L{lvl}: fleet {res.total_km} km < direct {direct_km} km")
    _criterion(7, "exclusive fleet km >= sum of direct O-D km at every level",
               problems)


# -- criterion 8: switching-point detection ----------------------------------------------


def _nac_curve(name: str, nac_of):
    points = [gc_point(system=name, demand_level_pct=100, demand_density=float(x),
                       walk_min=0, wait_min=0, ivtt_min=0, served_per_day=0,
                       value_of_time=15, net_annual_cost=nac_of(x),
                       served_fraction=1.0) for x in range(11)]
    return sweep(points)[name]


def test_criterion_08_switching_points():
    problems = []
    a = _nac_curve("a", lambda x: 100 + 10 * x)
    b = _nac_curve("b", lambda x: 160)
    points = switching_points(a, b)
    if len(points) != 1:
        problems.append(f"expected one crossing, got {len(points)}")
    elif abs(points[0].density - 6.0) > 1e-9:  # tol 1e-9
        problems.append(f"crossing at {points[0].density}, want 6.0")
    elif not (points[0].bracket_lo <= 6.0 <= points[0].bracket_hi):
        problems.append(f"bracket {points[0].bracket_lo}..{points[0].bracket_hi}")
    same = switching_points(a, _nac_curve("c", lambda x: 100 + 10 * x))
    if same:
        problems.append(f"identical curves reported {len(same)} crossings")
    _criterion(8, "linear-vs-flat curves cross at 6.00; identical curves do not",
               problems)


# -- criterion 9: paired t-test ----------------------------------------------------------


def test_criterion_09_paired_t_test():
    problems = []
    n, mean, sd = 170, -0.60, 7.52
    c = math.sqrt((n - 1) / n)
    diffs = [mean + sd * (c if i % 2 == 0 else -c) for i in range(n)]
    res = paired_t_test(diffs, [0.0] * n)
    if not 1.03 <= abs(res.t) <= 1.06:
        problems.append(f"|t| = {abs(res.t)}, want within [1.03, 1.06]")
    if res.significant_95:
        problems.append("difference flagged significant at the 95% level")
    _criterion(9, f"paired t-test on mean {mean}, sd {sd}, n {n} (|t|={abs(res.t):.4f})",
               problems)


# -- criterion 10 (advisory): pooling efficiency trend ------------------------------------


def test_criterion_10_shared_vkm_per_passenger_trend(town):
    problems = []
    vkm = []
    for lvl in LEVELS:
        res = town.runs["shared", lvl]
        if res.served:
            vkm.append((lvl, res.total_km / res.served))
    for (l0, v0), (l1, v1) in zip(vkm, vkm[1:]):
        if v1 > v0 * 1.05:  # allow 5% slack per step
            problems.append(f"vkm/passenger rose {v0:.3f} -> {v1:.3f} "
                            f"from L{l0} to L{l1}")
    _criterion(10, "shared vkm/passenger non-increasing over the sweep (advisory)",
               problems, warn_only=True)
