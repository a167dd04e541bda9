"""Scenario orchestration: demand sweeps, analysis tables, and output files.

A sweep is three steps. `simulate` runs every (system, level) on the
inputs `sweep_inputs` builds and checks; `tables` turns the runs into every
output file: merged trip and fleet logs, rejections, cost / emission /
generalized cost / crossing / equity tables and each run's trips;
`_publish` writes them with a manifest that holds a checksum per file.
`execute` is the three in a row. Everything is deterministic for a fixed
config and seed: each sweep input (the network, the day at each level, each
system type's spawn pools, the base supply) is built once, in
`sweep_inputs`, before any run, and read by every run, worker processes
included, as is the config's corridor section; floats are written with
fixed formats, and no timestamps appear anywhere. `validate` checks the
inputs `sweep_inputs` builds, so a sweep refuses what `validate` refuses.
`fleet_riders` is the one rule for which riders each fleet of a system
takes, read by the route checks, the spawn pools and every run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from functools import partial
from itertools import combinations
from operator import itemgetter
from pathlib import Path, PurePosixPath

from . import __version__
from . import dispatch as dp
from .config import SYSTEM_TYPES, CorridorConfig, ScenarioConfig, SystemConfig, SystemType
from .costing import CostParameters, capital_cost, net_annual_cost, per_trip_compensation
from .demand import (RideRequest, SupplySchedule, check_level_sizes, demand_density,
                     generate_synthetic_demand, load_requests, load_supply,
                     scale_demand, scale_supply)
from .efficiency import InsufficientDataError, gc_point, sweep, switching_points
from .emissions import private_vehicle_baseline, per_passenger_metrics
from .engine import SimulationResult, run_scenario, summarize
from .equity import equity_report
from .network import Network, NoPathError, generate_grid, load_network

log = logging.getLogger(__name__)


# -- input construction --------------------------------------------------------


def build_network(cfg: ScenarioConfig) -> Network:
    """Materialize the scenario network from grid parameters or CSV files."""
    nc = cfg.network
    if nc.grid is not None:
        return generate_grid(**asdict(nc.grid), area_km2=nc.area_km2)
    f = nc.files
    return load_network(f.nodes, f.edges, f.zones, area_km2=nc.area_km2)


def build_base_demand(cfg: ScenarioConfig, net: Network) -> list[RideRequest]:
    if cfg.demand.file:
        return load_requests(cfg.demand.file)
    s = cfg.demand.synthetic
    return generate_synthetic_demand(net, s.count, s.hourly_profile, cfg.seed)


def build_base_supply(cfg: ScenarioConfig) -> SupplySchedule | None:
    if cfg.supply.schedule is not None:
        return SupplySchedule(list(cfg.supply.schedule))
    if cfg.supply.file:
        return load_supply(cfg.supply.file)
    return None


class InputError(ValueError):
    """Every problem that stops a sweep's inputs being built or run, one a line."""

    def __init__(self, problems: list[str]):
        super().__init__("\n".join(problems))
        self.problems = problems


def sweep_inputs(cfg: ScenarioConfig, levels: list[int]) -> tuple[
        Network, dict[int, list[RideRequest]], dict[str, list[list[RideRequest]]],
        SupplySchedule | None]:
    """Every input of a sweep at the given demand levels, built once and
    checked with the corridor before any run: the network, the day at each
    level, each system type's spawn pools and the base supply.

    Raises InputError naming a level that is not configured, or the input
    that stops them being built, or two levels that scale the day to one
    size; or else every corridor stop and request end that is not a node;
    or else a corridor timetable that cannot be laid out, and every corridor
    leg and door-to-door trip that cannot be routed: a trip any fleet but a
    fixed route takes, on the base day or the day at a level, named by each
    base request with the same ends.
    """
    unknown = [l for l in levels if l not in cfg.demand.levels]
    if unknown:
        raise InputError([f"levels {unknown} are not configured in demand.levels"])
    try:
        net = build_network(cfg)
        base = build_base_demand(cfg, net)
        check_level_sizes(len(base), levels)
        days = {lvl: scale_demand(base, lvl, cfg.seed) for lvl in levels}
        supply = build_base_supply(cfg)
    except (OSError, ValueError) as exc:  # CsvParseError and NetworkValidationError included
        raise InputError([str(exc)]) from None
    spec = cfg.corridor
    stops = spec.stops if spec else []
    errors = [f"corridor: stop {s} is not a network node" for s in stops if s not in net.nodes]
    errors += [f"demand: request {r.id} {end} {node} is not a network node"
               for r in base for end, node in (("origin", r.origin),
                                               ("destination", r.destination))
               if node not in net.nodes]
    if errors:  # routes need known nodes
        raise InputError(errors)
    designs = {t: SYSTEM_TYPES[t] for t in dict.fromkeys(s.type for s in cfg.systems)}
    if any(d.corridor == "frt" for d in designs.values()):
        try:
            for vehicles in (spec.vehicles_base, spec.vehicles_high):
                dp.build_timetable(net, spec, vehicles)
        except ValueError as exc:
            errors.append(f"corridor: {exc}")
        except NoPathError:
            pass  # a corridor leg with no route, named below
    if net.outside_component:  # else every route exists
        legs = [*zip(stops, stops[1:]), *zip(stops[1:], stops)]  # out, then back
        errors += [f"corridor: no route from stop {a} to stop {b}"
                   for a, b in legs if not _routable(net, a, b)]
        # every fleet's riders but a fixed route's are driven door to door
        driven = {(r.origin, r.destination) for d in designs.values()
                  for day in (base, *days.values())
                  for riders in fleet_riders(net, day, d, spec)[d.corridor == "frt":]
                  for r in riders}
        errors += [f"demand: no route for request {r.id} from {r.origin} to {r.destination}"
                   for r in base if (r.origin, r.destination) in driven
                   and not _routable(net, r.origin, r.destination)]
    if errors:
        raise InputError(errors)
    # a fleet spawns among its base riders, or the whole base day if it has none
    spawn = {t: [part or base for part in fleet_riders(net, base, d, spec)]
             for t, d in designs.items()}
    return net, days, spawn, supply


def _routable(net: Network, origin: int, dest: int) -> bool:
    try:
        net.distance_m(origin, dest)
    except NoPathError:
        return False
    return True


# -- single runs ----------------------------------------------------------------


@dataclass
class ComponentOutput:
    """One fleet's share of a run: its simulation and its owned vehicles."""

    policy: object  # the fleet's dispatch policy, which also knows its costs
    result: SimulationResult
    vehicles_owned: int  # capital base; crowdsourced fleets own nothing


@dataclass
class RunOutput:
    system: str
    level: int
    combined: SimulationResult
    components: list[ComponentOutput]

    @property
    def run_id(self) -> str:
        return f"{self.system}-L{self.level}"

    @property
    def surge_priced(self) -> bool:
        """Whether one of the run's fleets is paid with surge pricing."""
        return any(isinstance(c.policy, dp.Crowdsourced) for c in self.components)


def _merge(parts: list[SimulationResult], demand_total: int) -> SimulationResult:
    """Combine the component simulations of one run into one summary.

    Fleet logs get fresh sequential vehicle ids because each component
    numbered its own vehicles from zero.
    """
    trips = sorted((t for p in parts for t in p.trips), key=lambda t: t.request_id)
    fleet = []
    for p in parts:
        for v in p.fleet:
            fleet.append(replace(v, vehicle_id=len(fleet)))
    rejections = [r for p in parts for r in p.rejections]
    return summarize(trips, fleet, demand_total, rejections)


def fleet_policy(fleet: str, system: SystemConfig, spec: CorridorConfig | None,
                 level: int):
    """The dispatch policy of a SYSTEM_TYPES fleet name, for one system at
    one demand level; "crowdsourced" rides as the system's
    crowdsourced_service says."""
    if fleet == "crowdsourced":
        fleet = f"crowdsourced_{system.crowdsourced_service}"
    if fleet == "crowdsourced_exclusive":
        return dp.GreedyExclusive()
    if fleet == "crowdsourced_shared":
        return dp.SharedGreedy(max_detour=system.max_detour)
    if fleet == "dedicated":
        return dp.DarpInsertion(max_detour=system.max_detour,
                                max_wait_s=system.max_wait_min * 60.0)
    return dp.FixedRoute(spec, spec.vehicle_count(level))


def fleet_riders(net: Network, day: list[RideRequest], design: SystemType,
                 spec: CorridorConfig | None) -> list[list[RideRequest]]:
    """A day's riders of each fleet of a SYSTEM_TYPES design, the corridor
    fleet first: the whole day for a single fleet, or a hybrid's split, in
    which dispatch.hybrid_route picks the corridor fleet's riders."""
    if not (design.area and design.corridor):
        return [day]
    parts = [[], []]
    for r in day:
        parts[not dp.hybrid_route(net, r, spec, design.corridor == "frt")].append(r)
    return parts


def run_one(net: Network, cfg: ScenarioConfig, system: SystemConfig, level: int,
            demand: list[RideRequest], spawn: list[list[RideRequest]],
            base_supply: SupplySchedule | None) -> RunOutput:
    """Simulate one system at one demand level, components included, on
    the day at that level; `spawn` is the spawn pools of the system's type,
    from `sweep_inputs`. Every input is the sweep's, and only read."""
    seed = f"{cfg.seed}/{system.name}/L{level}"
    design, spec = SYSTEM_TYPES[system.type], cfg.corridor
    fleets = []  # (policy, supply schedule), the corridor fleet first
    if design.corridor:
        fleets.append((fleet_policy(design.corridor, system, spec, level),
                       None if spec.supply is None else
                       scale_supply(SupplySchedule(list(spec.supply)), level - 100, spec.alpha)))
    if design.area:
        fleets.append((fleet_policy(design.area, system, spec, level),
                       scale_supply(base_supply, level - 100, system.alpha)))

    riders = fleet_riders(net, demand, design, spec)  # each fleet's, and its seed
    seeds = [seed] if len(riders) == 1 else [f"{seed}/corridor", f"{seed}/crowdsourced"]

    components = []
    for (policy, supply), reqs, pool, fleet_seed in zip(fleets, riders, spawn, seeds):
        res = run_scenario(net, reqs, supply, policy, fleet_seed, [r.origin for r in pool])
        components.append(ComponentOutput(policy, res, policy.vehicles_owned(supply)))
    combined = _merge([c.result for c in components], len(demand))
    return RunOutput(system.name, level, combined, components)


def _run_spec(cfg: ScenarioConfig, net: Network, spawn: dict[str, list[list[RideRequest]]],
              supply: SupplySchedule | None, days: dict[int, list[RideRequest]],
              task: tuple[int, int]) -> tuple[RunOutput, float]:
    """One (system index, level) run of a sweep and its wall seconds, in
    this or a worker process; `spawn` holds the spawn pools of each system
    type, and `days` the day at each level."""
    system_index, level = task
    system = cfg.systems[system_index]
    start = time.perf_counter()
    run = run_one(net, cfg, system, level, days[level], spawn[system.type], supply)
    return run, time.perf_counter() - start


_worker_run = None  # a worker process's `_run_spec` partial, set once by its pool


def _init_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _run_in_worker(task: tuple[int, int]) -> tuple[RunOutput, float]:
    return _worker_run(task)


# -- costing --------------------------------------------------------------------


def run_cost(run: RunOutput, params: CostParameters, surge_pct: int):
    capital = sum((capital_cost(c.vehicles_owned, params) for c in run.components),
                  Decimal("0.00"))
    operating = sum((c.policy.operating_cost(c.result, params, surge_pct)
                     for c in run.components), Decimal("0.00"))
    return capital, operating, net_annual_cost(capital, operating)


def cost_curves(runs: list[RunOutput], area_km2: float, params: CostParameters, vot,
                surge_levels, threshold: float):
    """The rows of costs.csv, gc_curve.csv and switching_points.csv for one
    set of cost parameters and value of time, `vot`. A surge-priced run is
    also costed at 0 and each surge level, on a curve tagged "<system>+s<surge>";
    curves are crossed pairwise at each of those levels, each pair once."""
    surge_levels = sorted({0, *surge_levels})
    surge_priced = {run.system for run in runs if run.surge_priced}

    def tag_for(name: str, surge: int) -> str:
        return f"{name}+s{surge}" if surge and name in surge_priced else name

    cost_rows, points = [], []
    for run in runs:
        c = run.combined
        for s in surge_levels if run.surge_priced else [0]:
            capital, operating, nac = run_cost(run, params, s)
            cost_rows.append([run.run_id, run.system, run.level, s,
                              str(capital), str(operating), str(nac)])
            points.append(gc_point(tag_for(run.system, s), run.level,
                                   demand_density(c.demand_total, area_km2),
                                   c.avg_walk_min, c.avg_wait_min, c.avg_ivtt_min,
                                   c.served, vot, nac, c.served_fraction, threshold))
    curves = sweep(points)
    gc_rows = [[p.system, p.demand_level_pct, _fmt(p.demand_density, "%.6f"), str(p.gc),
                p.served_per_day, _fmt(p.served_fraction, "%.6f"), p.flag]
               for curve in curves.values() for p in curve]

    systems = dict.fromkeys(run.system for run in runs)
    switch_rows, skipped = [], []  # skipped: "a vs b: reason" of pairs with too little data
    for a, b in dict.fromkeys((tag_for(x, s), tag_for(y, s)) for s in surge_levels
                              for x, y in combinations(systems, 2)):
        try:
            crossings = switching_points(curves[a], curves[b])
        except InsufficientDataError as exc:
            # the text only: the exception's traceback would keep this
            # frame, and every run in it, alive
            skipped.append(f"{a} vs {b}: {exc}")
            continue
        switch_rows += [[pt.system_a, pt.system_b, _fmt(pt.density, "%.6f"),
                         _fmt(pt.bracket_lo, "%.6f"), _fmt(pt.bracket_hi, "%.6f")]
                        for pt in crossings]
    if skipped:
        log.warning("no crossing analysis for %d system pairs, e.g. %s",
                    len(skipped), skipped[0])
    pays = [(run.run_id, per_trip_compensation(c.result.avg_ivtt_min, c.result.avg_trip_km,
                                               params, c.policy.shared))
            for run in runs for c in run.components if isinstance(c.policy, dp.Crowdsourced)]
    negative = [(run_id, pay) for run_id, pay in pays if pay < 0]
    if negative:
        log.warning("per-trip compensation is negative in %d runs, e.g. %s at %s CAD; "
                    "fares exceed driver costs", len(negative), *negative[0])
    return cost_rows, gc_rows, switch_rows


# -- output files ---------------------------------------------------------------


def _fmt(value, spec: str = "%.4f") -> str:
    return "" if value is None else spec % value


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


TRIPS_HEADER = ["run_id", "request_id", "mode", "served", "walk_min", "wait_min",
                "ivtt_min", "length_km", "origin_zone", "dest_zone", "reject_reason"]
FLEET_HEADER = ["run_id", "vehicle_id", "service_hours", "km", "avg_occupancy",
                "start_s", "end_s", "passenger_seconds"]


def trip_rows(run: RunOutput) -> list[list]:
    return [[run.run_id, t.request_id, t.mode, int(t.served),
             _fmt(t.walk_min), _fmt(t.wait_min), _fmt(t.ivtt_min),
             _fmt(t.length_km), t.origin_zone or "", t.dest_zone or "",
             t.reject_reason or ""] for t in run.combined.trips]


def fleet_rows(run: RunOutput) -> list[list]:
    return [[run.run_id, v.vehicle_id, _fmt(v.service_hours), _fmt(v.km),
             _fmt(v.avg_occupancy), _fmt(v.start_s, "%.1f"),
             _fmt(v.end_s, "%.1f"), _fmt(v.passenger_seconds, "%.1f")]
            for v in run.combined.fleet]


def _emission_row(run_id: str, system: str, level: int, electrification: float,
                  rep) -> list:
    return [run_id, system, level, _fmt(electrification, "%.1f"),
            _fmt(rep.total_yearly_ghg_t, "%.6f"), _fmt(rep.vkm_per_passenger, "%.6f"),
            _fmt(rep.ghg_g_per_passenger_km, "%.6f"), rep.excluded_requests]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def simulate(cfg: ScenarioConfig, levels: list[int] | None = None,
             jobs: int = 1) -> tuple[Network, dict[int, list[RideRequest]], list[RunOutput]]:
    """Run every (system, level) of the sweep, over `jobs` worker processes,
    on the inputs `sweep_inputs` builds; it builds none itself.

    Returns the network, the day at each level in level order and the runs
    in (system, level) order. Raises InputError, from `sweep_inputs`,
    before any run.
    """
    run_levels = sorted(set(levels if levels is not None else cfg.demand.levels))
    net, days, spawn, supply = sweep_inputs(cfg, run_levels)
    if outside := net.outside_component:
        log.warning("network is not strongly connected: %d of %d nodes cannot both reach "
                    "and be reached from node %d, e.g. node %d", len(outside), len(net.nodes),
                    min(net.nodes), outside[0])
    run = partial(_run_spec, cfg, net, spawn, supply, days)
    tasks = [(si, lvl) for si in range(len(cfg.systems)) for lvl in run_levels]
    workers = min(jobs, len(tasks))  # a pool starts every worker at its first submit
    runs = []
    # each worker is handed the sweep's inputs once, when it starts
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(run,)) \
            if workers > 1 else nullcontext() as pool:
        if pool is None:
            results = map(run, tasks)
        else:  # the largest days first, so that no long run starts last
            futures = {t: pool.submit(_run_in_worker, t)
                       for t in sorted(tasks, key=lambda t: -len(days[t[1]]))}
            results = (futures[t].result() for t in tasks)
        for r, secs in results:  # in task order
            log.info("%s: served %d/%d in %.2f s", r.run_id, r.combined.served,
                     r.combined.demand_total, secs)
            runs.append(r)
    return net, days, runs


def execute(cfg: ScenarioConfig, out_dir: str | None = None, jobs: int = 1,
            levels: list[int] | None = None) -> dict:
    """Run the scenario and write the full output tree.

    Three steps: `simulate` every (system, level) run, turn the runs into
    `tables`, and `_publish` them. Files land in out_dir (default: the
    config's output_dir) only after every run and table succeeded; on
    failure the partially built staging directory is removed and the
    previous outputs stay untouched. An out or stage that `_claim` refuses
    is refused before any run. Returns a small summary dict for the CLI.
    """
    out = Path(out_dir or cfg.output_dir)
    _claim(out)  # a directory that cannot be replaced costs no run
    net, days, runs = simulate(cfg, levels, jobs)
    _publish(out, tables(cfg, net, days, runs), {
        "scenario": cfg.name,
        "package_version": __version__,
        "seed": cfg.seed,
        "config_sha256": cfg.config_hash(),
        "config": asdict(cfg),
        "levels": list(days),
        "systems": [s.name for s in cfg.systems],
    })
    return {
        "output_dir": str(out),
        "runs": [r.run_id for r in runs],
        "served": {r.run_id: r.combined.served for r in runs},
        "demand": {r.run_id: r.combined.demand_total for r in runs},
    }


def tables(cfg: ScenarioConfig, net: Network, days: dict[int, list[RideRequest]],
           runs: list[RunOutput]) -> dict:
    """Every output file of a sweep but the manifest, by relative path.

    A CSV file maps to its (header, rows), a JSON file to its text. One pass
    over the runs renders each run's trip rows, which runs/<id>/trips.csv
    holds and the top-level trips.csv concatenates, and adds the run's fleet
    rows, rejections, emissions, Gini indices and Lorenz curve points; the
    car baseline follows from the day at each level, `days`, and the cost,
    curve and crossing tables from `cost_curves`.
    """
    ana = cfg.analysis
    files: dict[str, tuple[list[str], list[list]] | str] = {}
    all_trips, all_fleet, emis_rows, gini_rows, lorenz_rows = [], [], [], [], []
    rejections = {}  # run id -> its rejection snapshots, for runs that refused anyone
    unzoned = {}  # run id -> served trips the equity analysis skipped
    for run in runs:
        c = run.combined
        trips = trip_rows(run)
        all_trips += trips
        all_fleet += fleet_rows(run)
        files[f"runs/{run.run_id}/trips.csv"] = (TRIPS_HEADER, trips)
        if c.rejections:
            rejections[run.run_id] = [asdict(r) for r in c.rejections]

        # emissions across the electrification ladder
        pax_km = sum(t.length_km or 0.0 for t in c.trips if t.served)
        for lvl in ana.electrification_levels:
            rep = per_passenger_metrics(c.total_km, c.served, pax_km, lvl, cfg.emissions)
            emis_rows.append(_emission_row(run.run_id, run.system, run.level, lvl, rep))

        # equity: Gini and Lorenz curve per attribute and metric
        if net.zones and run.level in ana.equity_levels:
            if outside := sum(t.served and t.origin_zone not in net.zones for t in c.trips):
                unzoned[run.run_id] = outside
            for res in equity_report(c.trips, net.zones):
                key = [run.system, run.level, res.attribute, res.metric]
                gini_rows.append([*key, _fmt(res.gini, "%.6f")])
                lorenz_rows += [[*key, _fmt(x, "%.6f"), _fmt(y, "%.6f")]
                                for x, y in res.curve.points]

    if unzoned:
        log.warning("equity analysis skipped %d served trips outside any zone in %s",
                    sum(unzoned.values()),
                    ", ".join(f"{rid} ({n})" for rid, n in unzoned.items()))

    # the everyone-drives baseline per demand level
    if ana.include_baseline:
        excluded = {}  # level -> requests the baseline could not route
        for lvl, day in days.items():
            rep = private_vehicle_baseline(day, net, cfg.emissions)
            emis_rows.append(_emission_row(f"baseline-L{lvl}", "private_baseline",
                                           lvl, 0.0, rep))
            if rep.excluded_requests:
                excluded[lvl] = rep.excluded_requests
        if excluded:
            log.warning("baseline excludes %d unreachable requests in %s",
                        sum(excluded.values()),
                        ", ".join(f"L{lvl} ({n})" for lvl, n in excluded.items()))

    cost_rows, gc_rows, switch_rows = cost_curves(
        runs, net.area_km2, cfg.costs, ana.vot, ana.surge_levels,
        ana.served_fraction_threshold)

    files.update({
        "trips.csv": (TRIPS_HEADER, all_trips),
        "fleet.csv": (FLEET_HEADER, all_fleet),
        "costs.csv": (["run_id", "system", "demand_level_pct", "surge_pct",
                       "capital_cad", "operating_cad", "net_annual_cad"], cost_rows),
        "gc_curve.csv": (["system", "demand_level_pct", "demand_density", "gc_cad",
                          "served_per_day", "served_fraction", "flag"], gc_rows),
        "switching_points.csv": (["system_a", "system_b", "density", "bracket_lo",
                                  "bracket_hi"], switch_rows),
        "emissions.csv": (["run_id", "system", "demand_level_pct", "electrification",
                           "total_yearly_ghg_t", "vkm_per_passenger",
                           "ghg_g_per_passenger_km", "excluded_requests"], emis_rows),
        "gini.csv": (["system", "demand_level_pct", "attribute", "metric", "gini"],
                     gini_rows),
        "lorenz.csv": (["system", "demand_level_pct", "attribute", "metric",
                        "cum_weight_share", "cum_outcome_share"], lorenz_rows),
        "rejections.json": json.dumps(rejections, indent=2, sort_keys=True, default=str),
    })
    return files


def read_manifest(path: Path) -> dict:
    """The manifest at path: a JSON mapping whose 'files' is a mapping.
    Raises ValueError naming path if it is not one, OSError if unreadable."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a JSON mapping")
    if not isinstance(manifest.get("files"), dict):
        raise ValueError(f"{path}: no key 'files' holding a mapping")
    return manifest


def _written_by_a_run(d: Path) -> bool:
    """Whether the existing d is an empty directory, or holds exactly the
    files its manifest lists, the directories they are in and the manifest."""
    if d.is_dir() and not any(d.iterdir()):
        return True
    try:
        listed = read_manifest(d / "manifest.json")["files"]
    except (OSError, ValueError):
        return False
    wanted = {"manifest.json"}
    for rel in listed:
        wanted.update([rel, *map(str, PurePosixPath(rel).parents[:-1])])
    return {p.relative_to(d).as_posix() for p in d.rglob("*")} == wanted


def _claim(out: Path) -> tuple[Path, Path]:
    """out, resolved, and its staging directory `<out>.stage` beside it; a
    RuntimeError if either exists and was not `_written_by_a_run`, as only
    such a directory may be replaced."""
    out = out.resolve()  # so that the stage is out's sibling, also for "."
    stage = out.parent / (out.name + ".stage")
    for what, d in (("output", out), ("staging", stage)):
        if d.exists() and not _written_by_a_run(d):
            raise RuntimeError(f"{what} dir '{d}' holds files that no run wrote; "
                               f"refusing to replace it")
    return out, stage


def _publish(out: Path, files: dict, manifest: dict) -> None:
    """Write the files into a staging directory, add their checksums to the
    manifest, and swap the staging directory in for out, as `_claim` allows.
    """
    out, stage = _claim(out)
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir(parents=True)
    try:
        for rel, content in files.items():
            path = stage / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, str):
                path.write_text(content)
            else:
                _write_csv(path, *content)
        manifest = {**manifest, "files": {rel: _sha256(stage / rel) for rel in sorted(files)}}
        with open(stage / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)

        if out.exists():
            shutil.rmtree(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        stage.rename(out)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise


# -- report rendering -----------------------------------------------------------


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


# (file, section title, column headers, table row of one CSV row), in report order
REPORT_SECTIONS = (
    ("gc_curve.csv", "generalized cost (CAD/year)",
     ["system", "level%", "density", "gc", "served_frac", "flag"],
     itemgetter("system", "demand_level_pct", "demand_density", "gc_cad",
                "served_fraction", "flag")),
    ("switching_points.csv", "cost crossings (requests/day/km^2)",
     ["system_a", "system_b", "density", "bracket"],
     lambda r: [r["system_a"], r["system_b"], r["density"],
                f"[{r['bracket_lo']}, {r['bracket_hi']}]"]),
    ("costs.csv", "costs (CAD)", ["run", "surge%", "capital", "operating", "net_annual"],
     itemgetter("run_id", "surge_pct", "capital_cad", "operating_cad", "net_annual_cad")),
    ("emissions.csv", "emissions", ["run", "electrified", "t_CO2e/yr", "vkm/pax", "g/pax-km"],
     itemgetter("run_id", "electrification", "total_yearly_ghg_t", "vkm_per_passenger",
                "ghg_g_per_passenger_km")),
    ("gini.csv", "equity (Gini)", ["system", "level%", "attribute", "metric", "gini"],
     itemgetter("system", "demand_level_pct", "attribute", "metric", "gini")),
)


def render_report(out_dir: str, show_params: bool = False) -> str:
    """Human-readable summary of a finished output directory."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"'{out_dir}' has no manifest.json; not a results dir")
    manifest = read_manifest(manifest_path)
    try:
        sections = [f"scenario: {manifest['scenario']}   seed: {manifest['seed']}   "
                    f"version: {manifest['package_version']}"]
    except KeyError as exc:
        raise ValueError(f"{manifest_path}: no key {exc}") from None

    for file, title, header, row in REPORT_SECTIONS:
        with open(out / file, newline="") as fh:
            try:
                rows = [row(r) for r in csv.DictReader(fh)]
            except KeyError as exc:
                raise ValueError(f"{out / file}: no column {exc}") from None
        if rows:
            sections.append(f"{title}\n" + _table(header, rows))
        elif file == "switching_points.csv":
            sections.append("cost crossings: none found")

    if show_params:
        cfg_raw, lines = manifest.get("config", {}), ["resolved parameters"]
        for key in ("config", "costs", "emissions", "analysis"):  # the last three in config
            part = cfg_raw if key == "config" else cfg_raw.get(key, {})
            if not isinstance(part, dict):
                raise ValueError(f"{manifest_path}: key '{key}' does not hold a mapping")
            if key != "config":
                lines += [f"  {key}.{name} = {value}" for name, value in part.items()]
        sections.append("\n".join(lines))

    return "\n\n".join(sections) + "\n"
