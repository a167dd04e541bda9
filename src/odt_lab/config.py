"""Scenario configuration: YAML schema, defaults, and full validation.

A scenario file is one YAML document with named sections, read by one typed
reader that walks the dataclass annotations below. A mistyped value is an
error naming its dotted path, such as network.grid.rows, and its field keeps
the default, so the range checks still run: every problem is returned at
once, and a config can be fixed in one pass. Unknown keys warn instead of
failing to keep older configs usable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .costing import CostParameters
from .efficiency import SERVED_FRACTION_THRESHOLD
from .emissions import ELECTRIFICATION_LEVELS, EmissionFactors


@dataclass(frozen=True)
class SystemType:
    """The fleets one service design runs, named by the policy they dispatch
    with (runner.fleet_policy): crowdsourced_exclusive, crowdsourced_shared,
    "crowdsourced" (the system's crowdsourced_service), dedicated and frt.

    The area fleet serves the whole network on the hourly supply schedule,
    scaled by the system's alpha. The corridor fleet serves the corridor: a
    fixed route, or a dedicated fleet on corridor.supply scaled by the
    corridor's alpha. A hybrid names both, and dispatch.hybrid_route decides
    which of them takes each rider.
    """

    area: str | None = None
    corridor: str | None = None


SYSTEM_TYPES = {
    "crowdsourced_exclusive": SystemType(area="crowdsourced_exclusive"),
    "crowdsourced_shared": SystemType(area="crowdsourced_shared"),
    "dedicated_darp": SystemType(area="dedicated"),
    "frt": SystemType(corridor="frt"),
    "hybrid_frt": SystemType(area="crowdsourced", corridor="frt"),
    "hybrid_odt": SystemType(area="crowdsourced", corridor="dedicated"),
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
class NetworkFiles:
    """network.files: the nodes, edges and optional zones CSVs."""
    nodes: str | None = None
    edges: str | None = None
    zones: str | None = None


@dataclass
class NetworkConfig:
    grid: GridSpec | None = None
    files: NetworkFiles | None = None
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
    """The corridor: ordered stops, service window, staffing rule, and the
    dedicated corridor fleet's supply. dispatch's gates, timetable and
    boarding read it as given."""

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

    @property
    def window(self) -> tuple[float, float]:
        """The service window in seconds of the day."""
        return self.window_h[0] * 3600.0, self.window_h[1] * 3600.0

    def vehicle_count(self, demand_level_pct: float) -> int:
        return (self.vehicles_high if demand_level_pct >= self.high_demand_threshold_pct
                else self.vehicles_base)


@dataclass
class AnalysisConfig:
    vot: float = 15.0
    surge_levels: list[int] = field(default_factory=lambda: [0])
    electrification_levels: list[float] = field(
        default_factory=lambda: list(ELECTRIFICATION_LEVELS))
    served_fraction_threshold: float = SERVED_FRACTION_THRESHOLD
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


# What each kind of field takes, and how an error names it. A bool is never
# a number, and a number given for a string is stored as its text.
_KINDS = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    bool: ("true or false", (bool,)),
    str: ("a string", (str, int, float)),
    list: ("a list", (list,)),
    dict: ("a mapping", (dict,)),
}
_BAD = object()  # a value that failed its type check; its field keeps the default
_hints = cache(get_type_hints)  # each dataclass's field types, resolved once


def _read(tp, value, path: str, errors: list[str], warnings: list[str]):
    """Read a raw YAML value as type tp, walking dataclasses field by field.

    A wrongly typed value or a non-finite float adds one error naming its
    dotted path and returns _BAD; unknown mapping keys warn. Values are
    stored as given, so an int read for a float field stays an int.
    """
    if isinstance(tp, UnionType):  # X | None
        if value is None:
            return None
        tp = get_args(tp)[0]
    section = tp is dict or is_dataclass(tp)
    if value is None and section:
        value = {}  # a null section reads as an empty one
    kind = dict if section else (get_origin(tp) or tp)
    expected, takes = _KINDS[kind]
    if not isinstance(value, takes) or isinstance(value, bool) != (kind is bool):
        got = "null" if value is None else type(value).__name__
        errors.append(f"{path}: expected {expected}, got {got}")
        return _BAD
    if kind is list:
        item_tp = get_args(tp)[0]
        items = [_read(item_tp, v, f"{path}[{i}]", errors, warnings)
                 for i, v in enumerate(value)]
        return _BAD if any(v is _BAD for v in items) else items
    if kind is float and isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{path}: must be a finite number")
        return _BAD
    if not section:
        return str(value) if kind is str else value
    if tp is dict:
        return dict(value)
    hints = _hints(tp)
    kwargs = {}
    for key, val in value.items():
        if key not in hints:
            warnings.append(f"{path}: unknown key '{key}' ignored" if path
                            else f"unknown top-level key '{key}' ignored")
            continue
        val = _read(hints[key], val, f"{path}.{key}" if path else key, errors, warnings)
        if val is not _BAD:
            kwargs[key] = val
    return tp(**kwargs)


def parse_config(raw: dict, source_name: str = "config") -> ValidationReport:
    """Parse and validate a raw mapping into a ScenarioConfig.

    All structural and semantic problems are collected into the error list;
    the config object is returned only when the list is empty.
    """
    if not isinstance(raw, dict):
        return ValidationReport(None, [f"{source_name}: top level must be a mapping"], [])
    errors: list[str] = []
    warnings: list[str] = []
    raw = {"name": source_name, **raw}  # a scenario without a name takes the source's
    cfg = _read(ScenarioConfig, raw, "", errors, warnings)
    _validate(cfg, errors, warnings)
    return ValidationReport(cfg if not errors else None, errors, warnings)


def _validate(cfg: ScenarioConfig, errors: list[str], warnings: list[str]) -> None:
    net, files = cfg.network, cfg.network.files or NetworkFiles()
    if net.grid is None and not (files.nodes and files.edges):
        errors.append("network: provide either grid or files with nodes and edges")
    if net.grid is not None and net.files is not None:
        errors.append("network: grid and files are mutually exclusive")
    if net.grid is not None:
        if net.grid.rows < 2 or net.grid.cols < 2:
            errors.append("network.grid: rows and cols must be at least 2")
        if net.grid.spacing_m <= 0 or net.grid.speed_mps <= 0:
            errors.append("network.grid: spacing and speed must be positive")
        if (net.grid.zone_rows > 0) != (net.grid.zone_cols > 0):
            errors.append("network.grid: zone_rows and zone_cols go together")
        for attr in ("zone_rows", "zone_cols"):
            if getattr(net.grid, attr) < 0:
                errors.append(f"network.grid.{attr}: must not be negative")
    for attr in ("nodes", "edges", "zones"):
        f = getattr(files, attr)
        if f and not Path(f).exists():
            errors.append(f"network: {attr} file '{f}' not found")
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
        profile = dem.synthetic.hourly_profile
        if len(profile) != 24:
            errors.append("demand.synthetic: hourly_profile needs 24 weights")
        elif any(w < 0 for w in profile) or not 0 < sum(profile) < math.inf:
            errors.append("demand.synthetic.hourly_profile: weights must be non-negative "
                          "with a positive, finite sum")
    if not dem.levels:
        errors.append("demand: levels cannot be empty")
    for lvl in dem.levels:
        if not 50 <= lvl <= 500:
            errors.append(f"demand: level {lvl} outside the supported 50..500 range")

    designs = [SYSTEM_TYPES.get(s.type, SystemType()) for s in cfg.systems]
    sup = cfg.supply
    if any(d.area for d in designs) and not sup.schedule and not sup.file:
        errors.append("supply: schedule or file required for on-demand systems")
    _check_hourly_counts(sup.schedule, "supply.schedule", errors)
    if sup.file and not Path(sup.file).exists():
        errors.append(f"supply: file '{sup.file}' not found")

    if not cfg.systems:
        errors.append("systems: at least one system is required")
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
        # a name becomes a directory under runs/, and '+' starts a curve's surge tag
        if any(c in s.name for c in "/\\+"):
            errors.append(f"{where}: name '{s.name}' must not contain '/', '\\' or '+'")
        elif s.name in names:
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
        if len(cor.window_h) != 2 or not 0 <= cor.window_h[0] < cor.window_h[1] <= 24:
            errors.append("corridor.window_h: must be [open_hour, close_hour] within 0..24")
        if cor.cruise_speed_mps <= 0:
            errors.append("corridor.cruise_speed_mps: must be positive")
        if cor.vehicles_base < 1 or cor.vehicles_high < 1:
            errors.append("corridor: vehicle counts must be at least 1")
        if cor.alpha not in ALPHA_CHOICES:
            errors.append(f"corridor: alpha {cor.alpha} not in {ALPHA_CHOICES}")
        if cor.dwell_s < 0:
            errors.append("corridor.dwell_s: must not be negative")
        if cor.catchment_min < 0:
            errors.append("corridor.catchment_min: must not be negative")
        _check_hourly_counts(cor.supply, "corridor.supply", errors)
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
    levels = ana.electrification_levels
    if any(abs(e - d) < 1e-9 for i, e in enumerate(levels) for d in levels[:i]):
        errors.append(f"analysis.electrification_levels: {levels} repeats a level")
    if not 0.0 < ana.served_fraction_threshold <= 1.0:
        errors.append("analysis: served_fraction_threshold must be in (0, 1]")
    for lvl in ana.equity_levels:
        if lvl not in cfg.demand.levels:
            warnings.append(f"analysis: equity level {lvl} is not among demand levels; skipped")

    try:
        cfg.cost_parameters()
    except ValueError as exc:
        errors.append(f"costs: {exc}")
    try:
        cfg.emission_factors()
    except ValueError as exc:
        errors.append(f"emissions: {exc}")


def _check_hourly_counts(counts: list[int] | None, path: str, errors: list[str]) -> None:
    """The rule for a 24-hour vehicle schedule at a dotted path; unset passes."""
    if counts is None:
        return
    if len(counts) != 24:
        errors.append(f"{path}: needs 24 hourly counts")
    elif any(c < 0 for c in counts):
        errors.append(f"{path}: hourly counts must be non-negative integers")


def load_config(path: str) -> ValidationReport:
    """Read a YAML scenario file and validate it."""
    p = Path(path)
    if not p.exists():
        return ValidationReport(None, [f"config file '{path}' not found"], [])
    try:
        raw = yaml.load(p.read_text(encoding="utf-8"),
                        Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (OSError, UnicodeDecodeError) as exc:
        return ValidationReport(None, [f"config file '{path}' cannot be read: {exc}"], [])
    except yaml.YAMLError as exc:
        return ValidationReport(None, [f"config file '{path}' is not valid YAML: {exc}"], [])
    return parse_config(raw or {}, source_name=p.stem)
