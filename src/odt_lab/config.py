"""Scenario configuration: YAML schema, defaults, and full validation.

A scenario file is one YAML document with named sections. Validation walks
the whole document and returns every problem found rather than stopping at
the first, so a config can be fixed in one pass. Unknown keys warn instead
of failing to keep older configs usable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .costing import CostParameters
from .emissions import ELECTRIFICATION_LEVELS, EmissionFactors


@dataclass(frozen=True)
class SystemType:
    """The fleets one service design runs, out of four: crowdsourced_exclusive,
    crowdsourced_shared, dedicated and frt.

    The area fleet serves the whole network on the hourly supply schedule,
    scaled by the system's alpha; "crowdsourced" is the crowdsourced fleet
    its crowdsourced_service names. The corridor fleet serves the corridor:
    a fixed route, or a dedicated fleet on corridor.supply scaled by the
    corridor's alpha. A hybrid runs both and splits its riders between them
    with dispatch.hybrid_route in `split` mode.
    """

    area: str | None = None
    corridor: str | None = None
    split: str | None = None

    @property
    def surge_sensitive(self) -> bool:
        """Crowdsourced drivers' pay follows rider-side surge pricing."""
        return self.area is not None and self.area.startswith("crowdsourced")


SYSTEM_TYPES = {
    "crowdsourced_exclusive": SystemType(area="crowdsourced_exclusive"),
    "crowdsourced_shared": SystemType(area="crowdsourced_shared"),
    "dedicated_darp": SystemType(area="dedicated"),
    "frt": SystemType(corridor="frt"),
    "hybrid_frt": SystemType(area="crowdsourced", corridor="frt", split="frt_based"),
    "hybrid_odt": SystemType(area="crowdsourced", corridor="dedicated", split="odt_based"),
}
ALPHA_CHOICES = (0.0, 0.5, 1.0)
SURGE_CHOICES = (0, 20, 40, 50)
FLAT_PROFILE = [1.0] * 24


@dataclass
class GridSpec:
    rows: int = 10
    cols: int = 10
    spacing_m: float = 500.0
    speed_mps: float = 11.1
    zone_rows: int = 0          # > 0 carves the grid into zone blocks
    zone_cols: int = 0
    zone_population: float = 1000.0


@dataclass
class NetworkConfig:
    grid: GridSpec | None = None
    nodes_file: str | None = None
    edges_file: str | None = None
    zones_file: str | None = None
    area_km2: float | None = None


@dataclass
class SyntheticDemand:
    count: int = 100
    hourly_profile: list[float] = field(default_factory=lambda: list(FLAT_PROFILE))


@dataclass
class DemandConfig:
    file: str | None = None
    synthetic: SyntheticDemand | None = None
    levels: list[int] = field(default_factory=lambda: [100])


@dataclass
class SupplyConfig:
    schedule: list[int] | None = None
    file: str | None = None


@dataclass
class SystemConfig:
    type: str = "crowdsourced_exclusive"
    name: str = ""
    alpha: float = 1.0
    crowdsourced_service: str = "exclusive"  # hybrid component ride style
    max_detour: float = 2.0
    max_wait_min: float = 30.0


@dataclass
class CorridorConfig:
    stops: list[int] = field(default_factory=list)
    cruise_speed_mps: float = 11.1
    window_h: list[float] = field(default_factory=lambda: [7.0, 21.0])
    catchment_min: float = 7.0
    vehicles_base: int = 2
    vehicles_high: int = 3
    high_demand_threshold_pct: float = 300.0
    dwell_s: float = 20.0
    supply: list[int] | None = None  # dedicated corridor fleet, hybrid_odt
    alpha: float = 0.5


@dataclass
class AnalysisConfig:
    vot: float = 15.0
    surge_levels: list[int] = field(default_factory=lambda: [0])
    electrification_levels: list[float] = field(
        default_factory=lambda: list(ELECTRIFICATION_LEVELS))
    served_fraction_threshold: float = 0.8
    equity_levels: list[int] = field(default_factory=lambda: [100, 500])
    include_baseline: bool = True


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    output_dir: str = "out"
    network: NetworkConfig = field(default_factory=NetworkConfig)
    demand: DemandConfig = field(default_factory=DemandConfig)
    supply: SupplyConfig = field(default_factory=SupplyConfig)
    systems: list[SystemConfig] = field(default_factory=list)
    corridor: CorridorConfig | None = None
    costs: dict = field(default_factory=dict)
    emissions: dict = field(default_factory=dict)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def cost_parameters(self) -> CostParameters:
        return CostParameters().replace(**self.costs)

    def emission_factors(self) -> EmissionFactors:
        return EmissionFactors().replace(**self.emissions)


@dataclass
class ValidationReport:
    config: ScenarioConfig | None
    errors: list[str]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors


def _fill(cls, raw: dict, path: str, errors: list[str], warnings: list[str]):
    """Build a dataclass from a raw mapping, collecting unknown-key warnings."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping, got {type(raw).__name__}")
        return cls()
    known = {f.name for f in cls.__dataclass_fields__.values()}
    kwargs = {}
    for key, val in raw.items():
        if key not in known:
            warnings.append(f"{path}: unknown key '{key}' ignored")
            continue
        kwargs[key] = val
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{path}: {exc}")
        return cls()


def parse_config(raw: dict, source_name: str = "config") -> ValidationReport:
    """Parse and validate a raw mapping into a ScenarioConfig.

    All structural and semantic problems are collected into the error list;
    the config object is returned only when the list is empty.
    """
    errors: list[str] = []
    warnings: list[str] = []
    if not isinstance(raw, dict):
        return ValidationReport(None, [f"{source_name}: top level must be a mapping"], [])

    top_known = {f.name for f in ScenarioConfig.__dataclass_fields__.values()}
    for key in raw:
        if key not in top_known:
            warnings.append(f"unknown top-level key '{key}' ignored")

    cfg = ScenarioConfig()
    cfg.name = str(raw.get("name", source_name))
    try:
        cfg.seed = int(raw.get("seed", 0))
    except (TypeError, ValueError):
        errors.append("seed: must be an integer")
    cfg.output_dir = str(raw.get("output_dir", "out"))

    net_raw = raw.get("network") or {}
    net_raw = dict(net_raw) if isinstance(net_raw, dict) else net_raw
    grid_raw = net_raw.pop("grid", None) if isinstance(net_raw, dict) else None
    files_raw = net_raw.pop("files", None) if isinstance(net_raw, dict) else None
    cfg.network = _fill(NetworkConfig, net_raw, "network", errors, warnings)
    if grid_raw is not None:
        cfg.network.grid = _fill(GridSpec, grid_raw, "network.grid", errors, warnings)
    if files_raw is not None:
        if not isinstance(files_raw, dict):
            errors.append("network.files: expected a mapping")
        else:
            cfg.network.nodes_file = files_raw.get("nodes")
            cfg.network.edges_file = files_raw.get("edges")
            cfg.network.zones_file = files_raw.get("zones")
            for key in files_raw:
                if key not in ("nodes", "edges", "zones"):
                    warnings.append(f"network.files: unknown key '{key}' ignored")

    dem_raw = raw.get("demand") or {}
    dem_raw = dict(dem_raw) if isinstance(dem_raw, dict) else dem_raw
    synth_raw = dem_raw.pop("synthetic", None) if isinstance(dem_raw, dict) else None
    cfg.demand = _fill(DemandConfig, dem_raw, "demand", errors, warnings)
    if synth_raw is not None:
        cfg.demand.synthetic = _fill(SyntheticDemand, synth_raw, "demand.synthetic",
                                     errors, warnings)

    supply_raw = raw.get("supply") or {}
    cfg.supply = _fill(SupplyConfig, dict(supply_raw) if isinstance(supply_raw, dict) else supply_raw,
                       "supply", errors, warnings)

    systems_raw = raw.get("systems")
    cfg.systems = []
    if not systems_raw:
        errors.append("systems: at least one system is required")
    elif not isinstance(systems_raw, list):
        errors.append("systems: expected a list")
    else:
        for i, sys_raw in enumerate(systems_raw):
            cfg.systems.append(_fill(SystemConfig, sys_raw, f"systems[{i}]",
                                     errors, warnings))

    if raw.get("corridor") is not None:
        cor_raw = raw["corridor"]
        cfg.corridor = _fill(CorridorConfig, dict(cor_raw) if isinstance(cor_raw, dict) else cor_raw,
                             "corridor", errors, warnings)

    for section in ("costs", "emissions"):
        sec = raw.get(section) or {}
        if not isinstance(sec, dict):
            errors.append(f"{section}: expected a mapping")
            sec = {}
        setattr(cfg, section, dict(sec))
    ana_raw = raw.get("analysis") or {}
    cfg.analysis = _fill(AnalysisConfig, dict(ana_raw) if isinstance(ana_raw, dict) else ana_raw, "analysis",
                         errors, warnings)

    _validate(cfg, errors, warnings)
    return ValidationReport(cfg if not errors else None, errors, warnings)


def _validate(cfg: ScenarioConfig, errors: list[str], warnings: list[str]) -> None:
    net = cfg.network
    if net.grid is None and not (net.nodes_file and net.edges_file):
        errors.append("network: provide either grid or files with nodes and edges")
    if net.grid is not None and (net.nodes_file or net.edges_file):
        errors.append("network: grid and files are mutually exclusive")
    if net.grid is not None:
        if net.grid.rows < 2 or net.grid.cols < 2:
            errors.append("network.grid: rows and cols must be at least 2")
        if net.grid.spacing_m <= 0 or net.grid.speed_mps <= 0:
            errors.append("network.grid: spacing and speed must be positive")
        if (net.grid.zone_rows > 0) != (net.grid.zone_cols > 0):
            errors.append("network.grid: zone_rows and zone_cols go together")
    for attr in ("nodes_file", "edges_file", "zones_file"):
        f = getattr(net, attr)
        if f and not Path(f).exists():
            errors.append(f"network: {attr.replace('_file', '')} file '{f}' not found")
    if net.area_km2 is not None and net.area_km2 <= 0:
        errors.append("network: area_km2 must be positive")

    dem = cfg.demand
    if bool(dem.file) == bool(dem.synthetic):
        errors.append("demand: provide exactly one of file or synthetic")
    if dem.file and not Path(dem.file).exists():
        errors.append(f"demand: file '{dem.file}' not found")
    if dem.synthetic:
        if dem.synthetic.count <= 0:
            errors.append("demand.synthetic: count must be positive")
        if len(dem.synthetic.hourly_profile) != 24:
            errors.append("demand.synthetic: hourly_profile needs 24 weights")
    if not dem.levels:
        errors.append("demand: levels cannot be empty")
    for lvl in dem.levels:
        if not isinstance(lvl, int) or not 50 <= lvl <= 500:
            errors.append(f"demand: level {lvl} outside the supported 50..500 range")

    designs = [SYSTEM_TYPES.get(s.type, SystemType()) for s in cfg.systems]
    sup = cfg.supply
    if any(d.area for d in designs) and not sup.schedule and not sup.file:
        errors.append("supply: schedule or file required for on-demand systems")
    if sup.schedule is not None:
        if len(sup.schedule) != 24:
            errors.append("supply: schedule needs 24 hourly counts")
        elif any((not isinstance(c, int)) or c < 0 for c in sup.schedule):
            errors.append("supply: hourly counts must be non-negative integers")
    if sup.file and not Path(sup.file).exists():
        errors.append(f"supply: file '{sup.file}' not found")

    names = set()
    for i, s in enumerate(cfg.systems):
        where = f"systems[{i}]"
        if s.type not in SYSTEM_TYPES:
            errors.append(f"{where}: unknown type '{s.type}' "
                          f"(choose from {', '.join(SYSTEM_TYPES)})")
            continue
        if s.alpha not in ALPHA_CHOICES:
            errors.append(f"{where}: alpha {s.alpha} not in {ALPHA_CHOICES}")
        if s.crowdsourced_service not in ("exclusive", "shared"):
            errors.append(f"{where}: crowdsourced_service must be exclusive or shared")
        if s.max_detour < 1.0:
            errors.append(f"{where}: max_detour below 1 rejects every trip")
        if s.max_wait_min <= 0:
            errors.append(f"{where}: max_wait_min must be positive")
        if not s.name:
            s.name = f"{s.type}_a{s.alpha:g}"
        if s.name in names:
            errors.append(f"{where}: duplicate system name '{s.name}'")
        names.add(s.name)

    if any(d.corridor for d in designs) and cfg.corridor is None:
        errors.append("corridor: required by fixed-route and hybrid systems")
    if cfg.corridor is not None:
        cor = cfg.corridor
        if len(cor.stops) < 2:
            errors.append("corridor: needs at least two stops")
        if len(set(cor.stops)) != len(cor.stops):
            errors.append("corridor: stops must be distinct")
        if len(cor.window_h) != 2 or cor.window_h[0] >= cor.window_h[1]:
            errors.append("corridor: window_h must be [open_hour, close_hour]")
        if cor.cruise_speed_mps <= 0:
            errors.append("corridor: cruise speed must be positive")
        if cor.vehicles_base < 1 or cor.vehicles_high < 1:
            errors.append("corridor: vehicle counts must be at least 1")
        if cor.alpha not in ALPHA_CHOICES:
            errors.append(f"corridor: alpha {cor.alpha} not in {ALPHA_CHOICES}")
        if cor.supply is not None and len(cor.supply) != 24:
            errors.append("corridor: supply needs 24 hourly counts")
        if any(d.corridor == "dedicated" for d in designs) and cor.supply is None:
            errors.append("corridor: supply required for the dedicated corridor fleet")

    ana = cfg.analysis
    if ana.vot < 0:
        errors.append("analysis: vot cannot be negative")
    for s in ana.surge_levels:
        if s not in SURGE_CHOICES:
            errors.append(f"analysis: surge level {s} not in {SURGE_CHOICES}")
    for e in ana.electrification_levels:
        if not any(abs(e - lvl) < 1e-9 for lvl in ELECTRIFICATION_LEVELS):
            errors.append(f"analysis: electrification level {e} not in "
                          f"{{0, 0.2, 0.4, 0.6, 0.8, 1.0}}")
    if not 0.0 < ana.served_fraction_threshold <= 1.0:
        errors.append("analysis: served_fraction_threshold must be in (0, 1]")
    for lvl in ana.equity_levels:
        if lvl not in cfg.demand.levels:
            warnings.append(f"analysis: equity level {lvl} is not among demand levels; skipped")

    try:
        cfg.cost_parameters()
    except (ValueError, ArithmeticError) as exc:
        errors.append(f"costs: {exc}")
    try:
        cfg.emission_factors()
    except ValueError as exc:
        errors.append(f"emissions: {exc}")


def load_config(path: str) -> ValidationReport:
    """Read a YAML scenario file and validate it."""
    p = Path(path)
    if not p.exists():
        return ValidationReport(None, [f"config file '{path}' not found"], [])
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        return ValidationReport(None, [f"config file '{path}' is not valid YAML: {exc}"], [])
    report = parse_config(raw or {}, source_name=p.stem)
    if report.config is not None and "name" not in (raw or {}):
        report.config.name = p.stem
    return report
