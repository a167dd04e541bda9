"""Scenario orchestration: demand sweeps, analysis tables, and output files.

One execute() call takes a validated config and produces a self-contained
output directory: merged trip and fleet logs, cost / emission / generalized
cost / crossing / equity tables, per-run detail folders, and a manifest
with a checksum per file. Everything is deterministic for a fixed config
and seed: worker processes rebuild their inputs from the config, floats are
written with fixed formats, and no timestamps appear anywhere.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from pathlib import Path

from . import __version__
from . import dispatch as dp
from .config import SYSTEM_TYPES, ScenarioConfig, SystemConfig
from .costing import CostParameters, capital_cost, net_annual_cost
from .demand import (DemandSet, RideRequest, SupplySchedule, demand_density,
                     generate_synthetic_demand, load_requests, load_supply,
                     scale_demand, scale_supply)
from .efficiency import InsufficientDataError, sweep, switching_points
from .emissions import private_vehicle_baseline, per_passenger_metrics
from .engine import SimulationResult, run_scenario, summarize
from .equity import EQUITY_METRICS, equity_report, lorenz, zonal_outcomes
from .network import Network, Node, ZONE_ATTRIBUTES, Zone, _grid_parts, load_network

log = logging.getLogger(__name__)


# -- input construction --------------------------------------------------------


def build_network(cfg: ScenarioConfig) -> Network:
    """Materialize the scenario network from grid parameters or CSV files."""
    nc = cfg.network
    if nc.grid is not None:
        g = nc.grid
        nodes, edges, area = _grid_parts(g.rows, g.cols, g.spacing_m, g.speed_mps)
        zones = None
        if g.zone_rows > 0:
            nodes, zones = _grid_zones(nodes, g)
        if nc.area_km2 is not None:
            area = nc.area_km2
        return Network(nodes, edges, zones, area_km2=area)
    return load_network(nc.nodes_file, nc.edges_file, nc.zones_file,
                        area_km2=nc.area_km2)


def _grid_zones(nodes: list[Node], g) -> tuple[list[Node], list[Zone]]:
    """Carve a grid into zone_rows x zone_cols blocks of near-equal size.

    Synthetic zones carry a flat 0.5 share for every demographic attribute;
    real shares come from a zones file. That keeps equity output wired up
    on generated networks while making clear the groups are placeholders.
    """
    zoned = []
    for n in nodes:
        row, col = n.id // g.cols, n.id % g.cols
        zr = min(row * g.zone_rows // g.rows, g.zone_rows - 1)
        zc = min(col * g.zone_cols // g.cols, g.zone_cols - 1)
        zoned.append(replace(n, zone_id=f"Z{zr * g.zone_cols + zc:02d}"))
    zones = [Zone(f"Z{i:02d}", g.zone_population,
                  {a: 0.5 for a in ZONE_ATTRIBUTES}, [])
             for i in range(g.zone_rows * g.zone_cols)]
    return zoned, zones


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


def corridor_spec(cfg: ScenarioConfig) -> dp.RouteSpec | None:
    cor = cfg.corridor
    if cor is None:
        return None
    return dp.RouteSpec(
        stops=tuple(cor.stops),
        cruise_speed_mps=cor.cruise_speed_mps,
        window=(cor.window_h[0] * 3600.0, cor.window_h[1] * 3600.0),
        catchment_min=cor.catchment_min,
        vehicles_base=cor.vehicles_base,
        vehicles_high=cor.vehicles_high,
        high_demand_threshold_pct=cor.high_demand_threshold_pct,
        dwell_s=cor.dwell_s,
    )


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
    system_type: str
    level: int
    combined: SimulationResult
    components: list[ComponentOutput]

    @property
    def run_id(self) -> str:
        return f"{self.system}-L{self.level}"


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
    events = [e for p in parts for e in p.events]
    return summarize(trips, fleet, demand_total, rejections, events)


def run_one(net: Network, cfg: ScenarioConfig, system: SystemConfig, level: int,
            demand: DemandSet, base_requests: list[RideRequest]) -> RunOutput:
    """Simulate one system at one demand level, components included."""
    seed = f"{cfg.seed}/{system.name}/L{level}"
    spec = corridor_spec(cfg)
    design = SYSTEM_TYPES[system.type]
    policies = {
        "crowdsourced_exclusive": dp.GreedyExclusive(),
        "crowdsourced_shared": dp.SharedGreedy(max_detour=system.max_detour),
        "dedicated": dp.DarpInsertion(max_detour=system.max_detour,
                                      max_wait_s=system.max_wait_min * 60.0),
    }
    policies["crowdsourced"] = policies[f"crowdsourced_{system.crowdsourced_service}"]
    if spec is not None:
        policies["frt"] = dp.FixedRoute(spec, spec.vehicle_count(level))

    fleets = []  # (policy, supply schedule), the corridor fleet first
    if design.corridor:
        cor = cfg.corridor
        fleets.append((policies[design.corridor], None if cor.supply is None else
                       scale_supply(SupplySchedule(list(cor.supply)), level - 100, cor.alpha)))
    if design.area:
        fleets.append((policies[design.area],
                       scale_supply(build_base_supply(cfg), level - 100, system.alpha)))

    # each fleet's riders, the base requests its vehicles spawn among, its seed
    riders, spawn, seeds = [demand], [base_requests], [seed]
    if design.split:
        def split(reqs) -> list[list[RideRequest]]:
            parts = [[], []]  # corridor, crowdsourced
            for r in reqs:
                parts[dp.hybrid_route(net, r, spec, design.split) == dp.CROWDSOURCED].append(r)
            return parts

        riders = split(demand)
        # an empty base split would leave the fleet nowhere to spawn
        spawn = [part or base_requests for part in split(base_requests)]
        seeds = [f"{seed}/corridor", f"{seed}/crowdsourced"]

    components = []
    for (policy, supply), reqs, pool, fleet_seed in zip(fleets, riders, spawn, seeds):
        res = run_scenario(net, reqs, supply, policy, fleet_seed, [r.origin for r in pool])
        components.append(ComponentOutput(policy, res, policy.vehicles_owned(supply)))
    combined = _merge([c.result for c in components], len(demand))
    return RunOutput(system.name, system.type, level, combined, components)


def _run_spec(args: tuple[ScenarioConfig, int, int]) -> RunOutput:
    """Worker entry: rebuild inputs from the config so results match serial runs."""
    cfg, system_index, level = args
    net = build_network(cfg)
    base = build_base_demand(cfg, net)
    demand = scale_demand(base, level, cfg.seed)
    return run_one(net, cfg, cfg.systems[system_index], level, demand, base)


# -- costing --------------------------------------------------------------------


def run_cost(run: RunOutput, params: CostParameters, surge_pct: int):
    capital = sum((capital_cost(c.vehicles_owned, params) for c in run.components),
                  Decimal("0.00"))
    operating = sum((c.policy.operating_cost(c.result, params, surge_pct)
                     for c in run.components), Decimal("0.00"))
    return capital, operating, net_annual_cost(capital, operating)


# -- output files ---------------------------------------------------------------


def _fmt(value, spec: str = "%.4f") -> str:
    if value is None:
        return ""
    return spec % value


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
    rows = []
    for t in run.combined.trips:
        rows.append([run.run_id, t.request_id, t.mode, int(t.served),
                     _fmt(t.walk_min), _fmt(t.wait_min), _fmt(t.ivtt_min),
                     _fmt(t.length_km), t.origin_zone or "", t.dest_zone or "",
                     t.reject_reason or ""])
    return rows


def fleet_rows(run: RunOutput) -> list[list]:
    rows = []
    for v in run.combined.fleet:
        rows.append([run.run_id, v.vehicle_id, _fmt(v.service_hours), _fmt(v.km),
                     _fmt(v.avg_occupancy), _fmt(v.start_s, "%.1f"),
                     _fmt(v.end_s, "%.1f"), _fmt(v.passenger_seconds, "%.1f")])
    return rows


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def execute(cfg: ScenarioConfig, out_dir: str | None = None, jobs: int = 1,
            levels: list[int] | None = None) -> dict:
    """Run the scenario and write the full output tree.

    Files land in out_dir (default: the config's output_dir) only after
    every run and table succeeded; on failure the partially built staging
    directory is removed and the previous outputs stay untouched. Returns a
    small summary dict for the CLI.
    """
    out = Path(out_dir or cfg.output_dir)
    run_levels = sorted(set(levels if levels is not None else cfg.demand.levels))
    unknown = [l for l in run_levels if l not in cfg.demand.levels]
    if unknown:
        raise ValueError(f"levels {unknown} are not configured in demand.levels")

    net = build_network(cfg)
    base = build_base_demand(cfg, net)
    demand_sets = {lvl: scale_demand(base, lvl, cfg.seed) for lvl in run_levels}
    area = net.area_km2
    params = cfg.cost_parameters()
    factors = cfg.emission_factors()
    ana = cfg.analysis
    surge_levels = sorted(set(ana.surge_levels))

    specs = [(cfg, si, lvl)
             for si in range(len(cfg.systems)) for lvl in run_levels]
    if jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            runs = list(ex.map(_run_spec, specs))
    else:
        runs = [_run_spec(s) for s in specs]

    # costs and generalized cost curves, one row each per run and applicable
    # surge level: surge variants get their own tagged curve
    def tag_for(name: str, system_type: str, surge: int) -> str:
        if surge == 0 or not SYSTEM_TYPES[system_type].surge_sensitive:
            return name
        return f"{name}+s{surge}"

    cost_rows_out = []
    gc_entries = []
    for run in runs:
        c = run.combined
        sensitive = SYSTEM_TYPES[run.system_type].surge_sensitive
        for s in sorted({0, *surge_levels}) if sensitive else [0]:
            capital, operating, nac = run_cost(run, params, s)
            cost_rows_out.append([run.run_id, run.system, run.level, s,
                                  str(capital), str(operating), str(nac)])
            gc_entries.append({
                "system": tag_for(run.system, run.system_type, s),
                "demand_level_pct": run.level,
                "demand_density": demand_density(len(demand_sets[run.level]), area),
                "walk_min": c.avg_walk_min,
                "wait_min": c.avg_wait_min,
                "ivtt_min": c.avg_ivtt_min,
                "served_per_day": c.served,
                "value_of_time": ana.vot,
                "net_annual_cost": nac,
                "served_fraction": c.served_fraction,
            })
    curves = sweep(gc_entries, ana.served_fraction_threshold)

    gc_rows = []
    for tag in curves:
        for p in curves[tag]:
            gc_rows.append([p.system, p.demand_level_pct,
                            _fmt(p.demand_density, "%.6f"), str(p.gc),
                            next(e["served_per_day"] for e in gc_entries
                                 if e["system"] == tag
                                 and e["demand_level_pct"] == p.demand_level_pct),
                            _fmt(p.served_fraction, "%.6f"), p.flag])

    # crossings between systems, surge levels matched pairwise
    switch_rows = []
    seen_pairs = set()
    skipped = []  # "a vs b: reason" of pairs with too little data
    for s in surge_levels:
        for i in range(len(cfg.systems)):
            for j in range(i + 1, len(cfg.systems)):
                a = tag_for(cfg.systems[i].name, cfg.systems[i].type, s)
                b = tag_for(cfg.systems[j].name, cfg.systems[j].type, s)
                if (a, b) in seen_pairs:
                    continue
                seen_pairs.add((a, b))
                try:
                    points = switching_points(curves[a], curves[b])
                except InsufficientDataError as exc:
                    # the text only: the exception's traceback would keep
                    # this frame, and every run in it, alive
                    skipped.append(f"{a} vs {b}: {exc}")
                    continue
                for pt in points:
                    switch_rows.append([pt.system_a, pt.system_b,
                                        _fmt(pt.density, "%.6f"),
                                        _fmt(pt.bracket_lo, "%.6f"),
                                        _fmt(pt.bracket_hi, "%.6f")])
    if skipped:
        log.warning("no crossing analysis for %d system pairs, e.g. %s",
                    len(skipped), skipped[0])

    # emissions: each run across the electrification ladder, plus the
    # everyone-drives baseline per demand level
    emis_rows = []
    for run in runs:
        c = run.combined
        pax_km = sum(t.length_km or 0.0 for t in c.trips if t.served)
        for lvl in ana.electrification_levels:
            rep = per_passenger_metrics(c.total_km, c.served, pax_km, lvl, factors)
            emis_rows.append([run.run_id, run.system, run.level,
                              _fmt(lvl, "%.1f"),
                              _fmt(rep.total_yearly_ghg_t, "%.6f"),
                              _fmt(rep.vkm_per_passenger, "%.6f"),
                              _fmt(rep.ghg_g_per_passenger_km, "%.6f"),
                              rep.excluded_requests])
    if ana.include_baseline:
        for lvl in run_levels:
            rep = private_vehicle_baseline(list(demand_sets[lvl]), net, factors)
            emis_rows.append([f"baseline-L{lvl}", "private_baseline", lvl,
                              _fmt(0.0, "%.1f"),
                              _fmt(rep.total_yearly_ghg_t, "%.6f"),
                              _fmt(rep.vkm_per_passenger, "%.6f"),
                              _fmt(rep.ghg_g_per_passenger_km, "%.6f"),
                              rep.excluded_requests])

    # equity: Gini per system and attribute at the configured levels
    gini_rows = []
    lorenz_files: dict[str, tuple[list[str], list[list]]] = {}
    if net.zones:
        for run in runs:
            if run.level not in ana.equity_levels:
                continue
            for res in equity_report(run.combined.trips, net.zones):
                gini_rows.append([run.system, run.level, res.attribute,
                                  res.metric, _fmt(res.gini, "%.6f")])
            for attribute in ZONE_ATTRIBUTES:
                for metric in EQUITY_METRICS:
                    try:
                        crv = lorenz(zonal_outcomes(run.combined.trips, net.zones,
                                                    metric, attribute))
                    except ValueError:
                        continue
                    rel = f"runs/{run.run_id}/lorenz_{attribute}_{metric}.csv"
                    lorenz_files[rel] = (
                        ["cum_weight_share", "cum_outcome_share"],
                        [[_fmt(x, "%.6f"), _fmt(y, "%.6f")] for x, y in crv.points])

    # stage everything, then swap the directory in
    stage = out.parent / (out.name + ".stage")
    if out.exists():
        if not (out / "manifest.json").exists() and any(out.iterdir()):
            raise RuntimeError(
                f"output dir '{out}' exists with unknown content; refusing to replace it")
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir(parents=True)
    try:
        all_trip_rows = [row for run in runs for row in trip_rows(run)]
        all_fleet_rows = [row for run in runs for row in fleet_rows(run)]
        _write_csv(stage / "trips.csv", TRIPS_HEADER, all_trip_rows)
        _write_csv(stage / "fleet.csv", FLEET_HEADER, all_fleet_rows)
        _write_csv(stage / "costs.csv",
                   ["run_id", "system", "demand_level_pct", "surge_pct",
                    "capital_cad", "operating_cad", "net_annual_cad"],
                   cost_rows_out)
        _write_csv(stage / "gc_curve.csv",
                   ["system", "demand_level_pct", "demand_density", "gc_cad",
                    "served_per_day", "served_fraction", "flag"],
                   gc_rows)
        _write_csv(stage / "switching_points.csv",
                   ["system_a", "system_b", "density", "bracket_lo", "bracket_hi"],
                   switch_rows)
        _write_csv(stage / "emissions.csv",
                   ["run_id", "system", "demand_level_pct", "electrification",
                    "total_yearly_ghg_t", "vkm_per_passenger",
                    "ghg_g_per_passenger_km", "excluded_requests"],
                   emis_rows)
        _write_csv(stage / "gini.csv",
                   ["system", "demand_level_pct", "attribute", "metric", "gini"],
                   gini_rows)

        for run in runs:
            run_dir = stage / "runs" / run.run_id
            run_dir.mkdir(parents=True)
            _write_csv(run_dir / "trips.csv", TRIPS_HEADER, trip_rows(run))
            _write_csv(run_dir / "fleet.csv", FLEET_HEADER, fleet_rows(run))
            if run.combined.rejections:
                with open(run_dir / "rejections.json", "w") as fh:
                    json.dump([asdict(r) for r in run.combined.rejections],
                              fh, indent=2, sort_keys=True, default=str)
        for rel, (header, rows) in lorenz_files.items():
            path = stage / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_csv(path, header, rows)

        files = {}
        for path in sorted(stage.rglob("*")):
            if path.is_file():
                files[path.relative_to(stage).as_posix()] = _sha256(path)
        manifest = {
            "scenario": cfg.name,
            "package_version": __version__,
            "seed": cfg.seed,
            "config_sha256": cfg.config_hash(),
            "config": asdict(cfg),
            "levels": run_levels,
            "systems": [s.name for s in cfg.systems],
            "files": files,
        }
        with open(stage / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)

        if out.exists():
            shutil.rmtree(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        stage.rename(out)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise

    return {
        "output_dir": str(out),
        "runs": [r.run_id for r in runs],
        "served": {r.run_id: r.combined.served for r in runs},
        "demand": {r.run_id: r.combined.demand_total for r in runs},
    }


# -- report rendering -----------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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


def render_report(out_dir: str, show_params: bool = False) -> str:
    """Human-readable summary of a finished output directory."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"'{out_dir}' has no manifest.json; not a results dir")
    manifest = json.loads(manifest_path.read_text())
    sections = [f"scenario: {manifest['scenario']}   seed: {manifest['seed']}   "
                f"version: {manifest['package_version']}"]

    gc = _read_csv(out / "gc_curve.csv")
    if gc:
        rows = [[r["system"], r["demand_level_pct"], r["demand_density"],
                 r["gc_cad"], r["served_fraction"], r["flag"]] for r in gc]
        sections.append("generalized cost (CAD/year)\n" + _table(
            ["system", "level%", "density", "gc", "served_frac", "flag"], rows))

    sw = _read_csv(out / "switching_points.csv")
    if sw:
        rows = [[r["system_a"], r["system_b"], r["density"],
                 f"[{r['bracket_lo']}, {r['bracket_hi']}]"] for r in sw]
        sections.append("cost crossings (requests/day/km^2)\n" + _table(
            ["system_a", "system_b", "density", "bracket"], rows))
    else:
        sections.append("cost crossings: none found")

    costs = _read_csv(out / "costs.csv")
    if costs:
        rows = [[r["run_id"], r["surge_pct"], r["capital_cad"],
                 r["operating_cad"], r["net_annual_cad"]] for r in costs]
        sections.append("costs (CAD)\n" + _table(
            ["run", "surge%", "capital", "operating", "net_annual"], rows))

    emis = _read_csv(out / "emissions.csv")
    if emis:
        rows = [[r["run_id"], r["electrification"], r["total_yearly_ghg_t"],
                 r["vkm_per_passenger"], r["ghg_g_per_passenger_km"]]
                for r in emis]
        sections.append("emissions\n" + _table(
            ["run", "electrified", "t_CO2e/yr", "vkm/pax", "g/pax-km"], rows))

    gini = _read_csv(out / "gini.csv")
    if gini:
        rows = [[r["system"], r["demand_level_pct"], r["attribute"], r["metric"],
                 r["gini"]] for r in gini]
        sections.append("equity (Gini)\n" + _table(
            ["system", "level%", "attribute", "metric", "gini"], rows))

    if show_params:
        cfg_raw = manifest.get("config", {})
        params = CostParameters().replace(**cfg_raw.get("costs", {}))
        lines = ["resolved parameters"]
        for name in params.__dataclass_fields__:
            lines.append(f"  cost.{name} = {getattr(params, name)}")
        from .emissions import EmissionFactors
        factors = EmissionFactors().replace(**cfg_raw.get("emissions", {}))
        for name in factors.__dataclass_fields__:
            lines.append(f"  emissions.{name} = {getattr(factors, name)}")
        ana = cfg_raw.get("analysis", {})
        for key in sorted(ana):
            lines.append(f"  analysis.{key} = {ana[key]}")
        sections.append("\n".join(lines))

    return "\n\n".join(sections) + "\n"
