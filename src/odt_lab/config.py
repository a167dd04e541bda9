"""Scenario configuration: YAML schema, defaults, and full validation.

A scenario file is one YAML document with named sections, read by one typed
reader that walks the dataclass annotations below, Annotated with the rules
of each setting. A mistyped value, or the first rule a value (given or
default) breaks, is one error naming its dotted path, such as
network.grid.rows; a mistyped field keeps its default, so the rules that span
settings still run: every problem is returned at once, and a config can be
fixed in one pass. An unknown key is an error in every section; a number for
a money setting (costs) is checked as written and stored as a Decimal of its
digits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from functools import cache
from pathlib import Path
from typing import Annotated, get_type_hints

import yaml

from .costing import PRICEABLE, CostParameters
from .efficiency import SERVED_FRACTION_THRESHOLD
from .emissions import ELECTRIFICATION_LEVELS, EmissionFactors
from .rules import FINITE, NOT_NEGATIVE, POSITIVE, Rule, _check, _spec, at_least, one_of


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
FLAT_PROFILE = [1.0] * 24


NOT_EMPTY = Rule(bool, "must not be empty")
DISTINCT = Rule(lambda v: len(set(v)) == len(v), "must be distinct")
TWO_STOPS = Rule(lambda v: len(v) >= 2, "needs at least two stops")
# the 24-hour vehicle schedule pair, in this order
HOURLY_COUNTS = Rule(lambda v: len(v) == 24, "needs 24 hourly counts")
COUNTS = Rule(lambda v: min(v) >= 0, "hourly counts must be non-negative integers")
HOURLY_WEIGHTS = Rule(lambda v: len(v) == 24, "needs 24 weights")
# summed as floats, as the day's draw sums them: ints may pass the largest float
WEIGHTS = Rule(lambda w: min(w) >= 0 and 0 < sum(map(float, w)) < math.inf,
               "weights must be non-negative with a positive, finite sum")
LEVEL = Rule(lambda v: 50 <= v <= 500, "must be within the supported 50..500 range")
ALPHA = one_of((0.0, 0.5, 1.0))
SURGE = one_of((0, 20, 40, 50))
ELECTRIFICATION = one_of(ELECTRIFICATION_LEVELS)
SYSTEM_TYPE = one_of(tuple(SYSTEM_TYPES))
SHARE = Rule(lambda v: 0 < v <= 1, "must be in (0, 1]")
WINDOW = Rule(lambda w: len(w) == 2 and 0 <= w[0] < w[1] <= 24,
              "must be [open_hour, close_hour] within 0..24")


@dataclass
class GridSpec:
    rows: Annotated[int, at_least(2)] = 10
    cols: Annotated[int, at_least(2)] = 10
    spacing_m: Annotated[float, POSITIVE] = 500.0
    speed_mps: Annotated[float, POSITIVE] = 11.1
    zone_rows: Annotated[int, NOT_NEGATIVE] = 0  # > 0 carves the grid into zone blocks
    zone_cols: Annotated[int, NOT_NEGATIVE] = 0
    zone_population: Annotated[float, NOT_NEGATIVE] = 1000.0


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
    area_km2: Annotated[float | None, POSITIVE] = None


@dataclass
class SyntheticDemand:
    count: Annotated[int, POSITIVE] = 100
    hourly_profile: Annotated[list[float], HOURLY_WEIGHTS, WEIGHTS] = field(
        default_factory=lambda: list(FLAT_PROFILE))


@dataclass
class DemandConfig:
    file: str | None = None
    synthetic: SyntheticDemand | None = None
    levels: Annotated[list[Annotated[int, LEVEL]], NOT_EMPTY] = field(
        default_factory=lambda: [100])


@dataclass
class SupplyConfig:
    schedule: Annotated[list[int] | None, HOURLY_COUNTS, COUNTS] = None
    file: str | None = None


@dataclass
class SystemConfig:
    type: Annotated[str, SYSTEM_TYPE] = "crowdsourced_exclusive"
    name: str = ""
    alpha: Annotated[float, ALPHA] = 1.0
    # hybrid component ride style
    crowdsourced_service: Annotated[str, one_of(("exclusive", "shared"))] = "exclusive"
    max_detour: Annotated[float, at_least(1)] = 2.0  # below 1 rejects every trip
    max_wait_min: Annotated[float, POSITIVE] = 30.0


@dataclass
class CorridorConfig:
    """The corridor: ordered stops, service window, staffing rule, and the
    dedicated corridor fleet's supply. dispatch's gates, timetable and
    boarding read it as given."""

    stops: Annotated[list[int], TWO_STOPS, DISTINCT] = field(default_factory=list)
    cruise_speed_mps: Annotated[float, POSITIVE] = 11.1
    window_h: Annotated[list[float], WINDOW] = field(default_factory=lambda: [7.0, 21.0])
    catchment_min: Annotated[float, NOT_NEGATIVE] = 7.0
    vehicles_base: Annotated[int, at_least(1)] = 2
    vehicles_high: Annotated[int, at_least(1)] = 3
    high_demand_threshold_pct: float = 300.0
    dwell_s: Annotated[float, NOT_NEGATIVE] = 20.0
    supply: Annotated[list[int] | None, HOURLY_COUNTS, COUNTS] = None  # hybrid_odt's fleet
    alpha: Annotated[float, ALPHA] = 0.5

    @property
    def window(self) -> tuple[float, float]:
        """The service window in seconds of the day."""
        return self.window_h[0] * 3600.0, self.window_h[1] * 3600.0

    def vehicle_count(self, demand_level_pct: float) -> int:
        return (self.vehicles_high if demand_level_pct >= self.high_demand_threshold_pct
                else self.vehicles_base)


@dataclass
class AnalysisConfig:
    vot: Annotated[float, NOT_NEGATIVE, PRICEABLE] = 15.0
    surge_levels: list[Annotated[int, SURGE]] = field(default_factory=lambda: [0])
    electrification_levels: Annotated[list[Annotated[float, ELECTRIFICATION]], DISTINCT] = \
        field(default_factory=lambda: list(ELECTRIFICATION_LEVELS))
    served_fraction_threshold: Annotated[float, SHARE] = SERVED_FRACTION_THRESHOLD
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
    systems: Annotated[list[SystemConfig], NOT_EMPTY] = field(default_factory=list)
    corridor: CorridorConfig | None = None
    costs: CostParameters = field(default_factory=CostParameters)
    emissions: EmissionFactors = field(default_factory=EmissionFactors)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()


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
    Decimal: ("a number", (int, float)),
    bool: ("true or false", (bool,)),
    str: ("a string", (str, int, float)),
    list: ("a list", (list,)),
    dict: ("a mapping", (dict,)),
}
_BAD = object()  # a value that failed its type check; its field keeps the default


@cache
def _fields(cls) -> dict[str, tuple]:
    """Each field of a dataclass by name, with its spec, resolved once."""
    return {name: _spec(tp) for name, tp in get_type_hints(cls, include_extras=True).items()}


def _read(spec: tuple, value, path: str, errors: list[str]):
    """Read a raw YAML value as spec says, walking dataclasses field by field.

    A wrongly typed value or a non-finite number is one error naming its
    dotted path, and returns _BAD; an unknown mapping key, or a value that
    breaks a rule, given or default, is one error. A value is checked as
    given, and a Decimal setting stores it as Decimal(str(value))."""
    tp, rules, optional, kind, item = spec
    if value is None:
        if optional:
            return None
        if kind is dict:
            value = {}  # a null section reads as an empty one
    expected, takes = _KINDS[kind]
    if not isinstance(value, takes) or isinstance(value, bool) != (kind is bool):
        got = "null" if value is None else type(value).__name__
        errors.append(f"{path}: expected {expected}, got {got}")
        return _BAD
    if kind is list:
        value = [_read(item, v, f"{path}[{i}]", errors) for i, v in enumerate(value)]
        if any(v is _BAD for v in value):
            return _BAD
    elif kind in (float, Decimal) and not FINITE.ok(value):
        errors.append(f"{path}: {FINITE.text}")
        return _BAD
    elif kind is str:
        value = str(value)
    elif kind is dict:  # a section
        fields, kwargs = _fields(tp), {}
        for key, val in value.items():
            if key not in fields:
                errors.append(f"{path}: unknown key '{key}'" if path
                              else f"unknown top-level key '{key}'")
                continue
            val = _read(fields[key], val, f"{path}.{key}" if path else key, errors)
            if val is not _BAD:
                kwargs[key] = val
        obj = tp(**kwargs)
        for key, (_, field_rules, *_) in fields.items():
            if field_rules and key not in value:  # the default keeps the rules too
                _check(field_rules, getattr(obj, key), f"{path}.{key}" if path else key,
                       errors)
        value = obj
    if rules:
        _check(rules, value, path, errors)
    return Decimal(str(value)) if kind is Decimal else value


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
    cfg = _read(_spec(ScenarioConfig), raw, "", errors)
    _validate(cfg, errors, warnings)
    return ValidationReport(cfg if not errors else None, errors, warnings)


def _validate(cfg: ScenarioConfig, errors: list[str], warnings: list[str]) -> None:
    """The rules that span settings or read files; a rule that reads one
    setting is on that setting's field."""
    net, files = cfg.network, cfg.network.files or NetworkFiles()
    if net.grid is None and not (files.nodes and files.edges):
        errors.append("network: provide either grid or files with nodes and edges")
    if net.grid is not None and net.files is not None:
        errors.append("network: grid and files are mutually exclusive")
    if net.grid is not None and (net.grid.zone_rows > 0) != (net.grid.zone_cols > 0):
        errors.append("network.grid: zone_rows and zone_cols go together")
    for attr in ("nodes", "edges", "zones"):
        f = getattr(files, attr)
        if f and not Path(f).exists():
            errors.append(f"network: {attr} file '{f}' not found")

    dem, sup = cfg.demand, cfg.supply
    if bool(dem.file) == bool(dem.synthetic):
        errors.append("demand: provide exactly one of file or synthetic")
    if dem.file and not Path(dem.file).exists():
        errors.append(f"demand: file '{dem.file}' not found")
    designs = [SYSTEM_TYPES.get(s.type, SystemType()) for s in cfg.systems]
    if any(d.area for d in designs) and not sup.schedule and not sup.file:
        errors.append("supply: schedule or file required for on-demand systems")
    if sup.file and not Path(sup.file).exists():
        errors.append(f"supply: file '{sup.file}' not found")

    names = set()
    for i, s in enumerate(cfg.systems):
        where = f"systems[{i}]"
        if not s.name:
            s.name = f"{s.type}_a{s.alpha:g}"
        # a name becomes a directory under runs/, and '+' starts a curve's surge tag
        if any(c in s.name for c in "/\\+"):
            errors.append(f"{where}: name '{s.name}' must not contain '/', '\\' or '+'")
        elif s.name in names:
            errors.append(f"{where}: duplicate system name '{s.name}'")
        names.add(s.name)

    corridors = {d.corridor for d in designs} - {None}
    if corridors and cfg.corridor is None:
        errors.append("corridor: required by fixed-route and hybrid systems")
    elif "dedicated" in corridors and cfg.corridor.supply is None:
        errors.append("corridor: supply required for the dedicated corridor fleet")
    for lvl in cfg.analysis.equity_levels:
        if lvl not in cfg.demand.levels:
            warnings.append(f"analysis: equity level {lvl} is not among demand levels; skipped")


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
