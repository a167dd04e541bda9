"""Config parsing, the run pipeline, and CLI exit behavior, end to end.

Scenarios here stay tiny (a 5x5 town, two dozen requests) so the full
run -> files -> report loop is fast enough to exercise repeatedly.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import logging
import math
import re
import shutil
from concurrent.futures import Future
from dataclasses import asdict, is_dataclass
from decimal import Decimal
from pathlib import Path
from types import UnionType
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest
import yaml

from odt_lab import demand, network, runner
from odt_lab.cli import main
from odt_lab.config import SYSTEM_TYPES, ScenarioConfig, load_config, parse_config
from odt_lab.costing import CostParameters
from odt_lab.demand import RideRequest, scale_demand
from odt_lab.emissions import EmissionFactors
from odt_lab.network import ZONE_ATTRIBUTES, generate_grid
from odt_lab.rules import FINITE
from odt_lab.runner import RunOutput

from writers import save_network, save_requests

BASE = {
    "name": "town",
    "seed": 5,
    "network": {
        "grid": {"rows": 5, "cols": 5, "spacing_m": 500.0, "speed_mps": 10.0,
                 "zone_rows": 2, "zone_cols": 2, "zone_population": 250.0},
    },
    "demand": {"synthetic": {"count": 24, "hourly_profile": [1.0] * 24},
               "levels": [50, 100]},
    "supply": {"schedule": [1] * 24},
    "systems": [
        {"type": "crowdsourced_exclusive"},
        {"type": "dedicated_darp"},
    ],
    "analysis": {"surge_levels": [0, 20], "electrification_levels": [0.0, 1.0],
                 "equity_levels": [100]},
}


def write_scenario(tmp_path: Path, mutate=None, filename="scenario.yaml") -> Path:
    raw = json.loads(json.dumps(BASE))  # deep copy
    if mutate:
        mutate(raw)
    path = tmp_path / filename
    path.write_text(yaml.safe_dump(raw))
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- config parsing -------------------------------------------------------------


def test_parse_defaults_and_names():
    report = parse_config(json.loads(json.dumps(BASE)))
    assert report.ok, report.errors
    cfg = report.config
    assert [s.name for s in cfg.systems] == ["crowdsourced_exclusive_a1",
                                             "dedicated_darp_a1"]
    assert cfg.seed == 5
    assert cfg.demand.levels == [50, 100]


def test_parse_leaves_the_callers_mapping_unchanged():
    raw = json.loads(json.dumps(BASE))
    first = parse_config(raw)
    assert raw == BASE
    second = parse_config(raw)  # the same mapping parses again
    assert first.ok and second.ok, second.errors
    assert second.config.network == first.config.network


def test_parse_collects_every_error():
    def wreck(raw):
        raw["network"]["grid"]["rows"] = 1
        raw["systems"].append({"type": "teleporter"})
        raw["analysis"]["surge_levels"] = [0, 33]
        raw["demand"]["levels"] = [50, 17]

    report = parse_config(json.loads(json.dumps(BASE)))
    n_ok = len(report.errors)
    raw = json.loads(json.dumps(BASE))
    wreck(raw)
    report = parse_config(raw)
    assert not report.ok
    assert len(report.errors) >= n_ok + 4  # all problems reported at once


def test_parse_rejects_non_mapping_sections():
    # a YAML list or scalar where a mapping belongs is a reported error,
    # never a traceback
    for section, junk in [("supply", [1] * 24), ("demand", "lots"),
                          ("analysis", [0, 20]), ("corridor", [10, 12, 14]),
                          ("network", {"files": "nodes.csv"})]:
        raw = json.loads(json.dumps(BASE))
        raw[section] = junk
        report = parse_config(raw)
        assert not report.ok
        assert any(section in e and "mapping" in e for e in report.errors)


JUNK = ["x", 1.5, 7, [1], [], {"a": 1}, True, None, ["a"], -3]


def well_typed(tp, value) -> bool:
    """The reader's type rules on their own: a section takes a mapping or
    null, a bool is never a number, a money setting (Decimal) takes only a
    number, and a string field also takes a number."""
    if get_origin(tp) is UnionType:  # X | None
        return value is None or well_typed(get_args(tp)[0], value)
    if is_dataclass(tp):
        return value is None or isinstance(value, dict)
    if get_origin(tp) is list:
        return isinstance(value, list) and all(well_typed(get_args(tp)[0], v)
                                               for v in value)
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, {int: int, float: (int, float), Decimal: (int, float),
                              str: (str, int, float), bool: bool}[tp])


def config_fields(cls=ScenarioConfig, path=()):
    """(path, type) of every field of the config dataclasses, from
    ScenarioConfig down; a system's fields are those of systems[0]."""
    for name, tp in get_type_hints(cls).items():
        yield (*path, name), tp
        inner = next((a for a in get_args(tp) if is_dataclass(a)), tp)  # list[X], X | None
        if is_dataclass(inner):
            yield from config_fields(inner, (*path, name, 0) if get_origin(tp) is list
                                     else (*path, name))


def test_every_mistyped_field_is_one_error_naming_its_path():
    cases = 0
    for path, tp in config_fields():
        dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        for junk in JUNK:
            raw = json.loads(json.dumps(BASE))
            section = raw
            for key in path[:-1]:
                section = section[key] if isinstance(key, int) else section.setdefault(key, {})
            section[path[-1]] = junk
            report = parse_config(raw)  # never raises
            type_errors = [e for e in report.errors if ": expected " in e]
            if well_typed(tp, junk):
                assert type_errors == [], (dotted, junk)
            else:
                assert len(type_errors) == 1, (dotted, junk, report.errors)
                assert type_errors[0].startswith((f"{dotted}:", f"{dotted}[")), type_errors
            cases += 1
    assert cases == 670  # 67 fields of twelve dataclasses, ten values each


def test_no_config_field_is_a_bare_mapping():
    # a bare dict would escape the typed reader: its keys and values unchecked
    assert [path for path, tp in config_fields()
            if dict in (tp, get_origin(tp), *get_args(tp))] == []


def config_rules(tp=ScenarioConfig, path=()):
    """(path, rule) of every Rule on a config field or list item, from
    ScenarioConfig down; a list item's path ends in its index, 0."""
    if get_origin(tp) is Annotated:
        yield from ((path, rule) for rule in tp.__metadata__)
        tp = get_args(tp)[0]
    if get_origin(tp) is UnionType:  # X | None
        tp = get_args(tp)[0]
    if get_origin(tp) is list:
        yield from config_rules(get_args(tp)[0], (*path, 0))
    elif is_dataclass(tp):
        for name, field_tp in get_type_hints(tp, include_extras=True).items():
            yield from config_rules(field_tp, (*path, name))


# (dotted path, rule text) -> a value the rule refuses, one for every rule
REFUSED = {
    ("network.grid.rows", "must be at least 2"): 1,
    ("network.grid.cols", "must be at least 2"): 0,
    ("network.grid.spacing_m", "must be positive"): 0.0,
    ("network.grid.speed_mps", "must be positive"): -10.0,
    ("network.grid.zone_rows", "must not be negative"): -2,
    ("network.grid.zone_cols", "must not be negative"): -2,
    ("network.grid.zone_population", "must not be negative"): -5.0,
    ("network.area_km2", "must be positive"): 0,
    ("demand.synthetic.count", "must be positive"): 0,
    ("demand.synthetic.hourly_profile", "needs 24 weights"): [1.0] * 23,
    ("demand.synthetic.hourly_profile",
     "weights must be non-negative with a positive, finite sum"): [0.0] * 24,
    ("demand.levels", "must not be empty"): [],
    ("demand.levels[0]", "must be within the supported 50..500 range"): 17,
    ("supply.schedule", "needs 24 hourly counts"): [1] * 23,
    ("supply.schedule", "hourly counts must be non-negative integers"): [1] * 23 + [-1],
    ("systems", "must not be empty"): [],
    ("systems[0].type", "must be one of crowdsourced_exclusive, crowdsourced_shared, "
     "dedicated_darp, frt, hybrid_frt, hybrid_odt"): "teleporter",
    ("systems[0].alpha", "must be one of 0.0, 0.5, 1.0"): 0.3,
    ("systems[0].crowdsourced_service", "must be one of exclusive, shared"): "pooled",
    ("systems[0].max_detour", "must be at least 1"): 0.5,
    ("systems[0].max_wait_min", "must be positive"): 0,
    ("corridor.stops", "needs at least two stops"): [10],
    ("corridor.stops", "must be distinct"): [10, 12, 10],
    ("corridor.cruise_speed_mps", "must be positive"): 0.0,
    ("corridor.window_h", "must be [open_hour, close_hour] within 0..24"): [9, 9],
    ("corridor.catchment_min", "must not be negative"): -5.0,
    ("corridor.vehicles_base", "must be at least 1"): 0,
    ("corridor.vehicles_high", "must be at least 1"): 0,
    ("corridor.dwell_s", "must not be negative"): -100.0,
    ("corridor.supply", "needs 24 hourly counts"): [1] * 25,
    ("corridor.supply", "hourly counts must be non-negative integers"): [-1] * 24,
    ("corridor.alpha", "must be one of 0.0, 0.5, 1.0"): 0.25,
    ("analysis.vot", "must not be negative"): -1.0,
    ("analysis.vot", "must be below 1e12 in magnitude"): 1.0e12,
    ("analysis.surge_levels[0]", "must be one of 0, 20, 40, 50"): 33,
    ("analysis.electrification_levels[0]", "must be one of 0.0, 0.2, 0.4, 0.6, 0.8, 1.0"):
        0.3,
    ("analysis.electrification_levels", "must be distinct"): [0.0, 1.0, 0.0],
    ("analysis.served_fraction_threshold", "must be in (0, 1]"): 1.5,
    ("costs.fixed_fees_exclusive", "must be below 1e12 in magnitude"): 10 ** 12,
    ("costs.fixed_fees_shared", "must be below 1e12 in magnitude"): -10 ** 12,
    ("costs.per_minute", "must be below 1e12 in magnitude"): 1.0e12,
    ("costs.per_km", "must be below 1e12 in magnitude"): -1.0e12,
    ("costs.fare", "must be below 1e12 in magnitude"): 4.0e15,
    ("costs.vehicle_price", "must be below 1e12 in magnitude"): 10 ** 26,
    ("costs.hourly_vehicle_cost", "must be below 1e12 in magnitude"): 1.0e300,
    ("costs.frt_cost_per_km", "must be below 1e12 in magnitude"): -7.3e13,
    ("costs.driver_wage", "must be below 1e12 in magnitude"): 1_500_000_000_000,
    ("costs.other_costs", "must be below 1e12 in magnitude"): 2.0e12,
    ("emissions.ghg_km_transit", "must be below 1e12 in magnitude"): 1.0e12,
    ("emissions.ghg_km_private", "must be below 1e12 in magnitude"): -1.0e12,
    ("emissions.ev_kwh_per_km", "must be below 1e12 in magnitude"): 10 ** 13,
    ("emissions.grid_g_per_kwh", "must be below 1e12 in magnitude"): 2.5e13,
}


def test_every_rule_refuses_its_example_with_one_error_naming_its_path():
    # every section given; no zones, so a negative zone count breaks only its rule
    base = {**json.loads(json.dumps(BASE)),
            "corridor": {"stops": [10, 12, 14], "supply": [1] * 24},
            "costs": {}, "emissions": {}}
    base["network"]["grid"].update(zone_rows=0, zone_cols=0)
    assert parse_config(base).errors == []
    seen = set()
    for path, rule in config_rules():
        dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        assert (dotted, rule.text) in REFUSED, f"no refused example for {dotted}: {rule.text}"
        value = REFUSED[dotted, rule.text]
        assert not rule.ok(value)
        raw = json.loads(json.dumps(base))
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        assert parse_config(raw).errors == [f"{dotted}: {rule.text}, got {value!r}"]
        seen.add((dotted, rule.text))
    assert seen == set(REFUSED)


def table_files(tmp_path: Path) -> dict[str, Path]:
    """Good nodes, edges, zones, requests and supply files for the 5x5 town
    with 2x2 zones, by table name."""
    files = {t: tmp_path / f"{t}.csv" for t in ("nodes", "edges", "zones", "requests", "supply")}
    save_network(generate_grid(5, 5, 500.0, 10.0, zone_rows=2, zone_cols=2),
                 *(str(files[t]) for t in ("nodes", "edges", "zones")))
    save_requests([RideRequest(i, 28800.0 + 600.0 * i, i, 24 - i) for i in range(12)],
                  str(files["requests"]))
    files["supply"].write_text("hour,vehicles\n" + "".join(f"{h},1\n" for h in range(24)))
    return files


def read_from(files: dict[str, Path], **network):
    """A scenario mutation that reads every input from files."""
    def mutate(raw):
        raw["network"] = {"files": {t: str(files[t]) for t in ("nodes", "edges", "zones")},
                          **network}
        raw["demand"] = {"file": str(files["requests"]), "levels": [100]}
        raw["supply"] = {"file": str(files["supply"])}
    return mutate


def set_cell(path: Path, column: str, cell: str) -> None:
    """Write cell into the column of the first row of path, the file's line 2."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[1][rows[0].index(column)] = cell
    path.write_text("".join(",".join(row) + "\n" for row in rows))


# each *_COLUMNS constant of the table readers -> the table it reads
TABLES = {"NODE_COLUMNS": "nodes", "EDGE_COLUMNS": "edges", "ZONE_COLUMNS": "zones",
          "REQUEST_COLUMNS": "requests", "SUPPLY_COLUMNS": "supply"}


def column_rules():
    """(table, column, rule) of every rule a table reader checks: FINITE on a
    float column, then the column's Annotated rules, for every *_COLUMNS."""
    for module in (network, demand):
        for name, columns in vars(module).items():
            if name.endswith("_COLUMNS"):
                for column, tp in columns.items():
                    rules = tp.__metadata__ if get_origin(tp) is Annotated else ()
                    base = get_args(tp)[0] if rules else tp
                    for rule in ((FINITE,) if base is float else ()) + rules:
                        yield TABLES[name], column, rule


# (table, column, rule text) -> a value the rule refuses, one for every rule
REFUSED_CELLS = {
    ("nodes", "x", "must be a finite number"): math.inf,
    ("nodes", "y", "must be a finite number"): math.nan,
    ("edges", "length_m", "must be a finite number"): math.nan,
    ("edges", "length_m", "must be positive"): 0.0,
    ("edges", "speed_mps", "must be a finite number"): math.inf,
    ("edges", "speed_mps", "must be positive"): -10.0,
    ("zones", "population", "must be a finite number"): math.inf,
    ("zones", "population", "must not be negative"): -5.0,
    **{("zones", a, "must be a finite number"): math.nan for a in ZONE_ATTRIBUTES},
    **{("zones", a, "must be in [0, 1]"): 1.5 for a in ZONE_ATTRIBUTES if a != "pop_density"},
    ("zones", "pop_density", "must not be negative"): -1.0,
    ("requests", "time_s", "must be a finite number"): -math.inf,
    ("requests", "time_s", "must be in [0, 86400)"): 86400.0,
    ("supply", "hour", "must be in 0..23"): 24,
    ("supply", "vehicles", "must not be negative"): -1,
}


def test_every_column_rule_refuses_its_example_with_one_error_naming_its_cell(
        tmp_path, capsys):
    files = table_files(tmp_path)
    good = {table: path.read_text() for table, path in files.items()}
    cfg = write_scenario(tmp_path, mutate=read_from(files))
    assert main(["validate", str(cfg)]) == 0
    seen = set()
    for table, column, rule in column_rules():
        assert (table, column, rule.text) in REFUSED_CELLS, \
            f"no refused cell for {table} {column}: {rule.text}"
        value = REFUSED_CELLS[table, column, rule.text]
        assert not rule.ok(value)
        for name, text in good.items():
            files[name].write_text(text)
        set_cell(files[table], column, str(value))
        capsys.readouterr()
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {files[table]}:2: {column}: {rule.text}, got {value!r}",
            "1 problem(s) found"]
        seen.add((table, column, rule.text))
    assert seen == set(REFUSED_CELLS)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("table, column, cell, area_km2, problem", [
    ("nodes", "x", "inf", None, "x: must be a finite number, got inf"),
    ("nodes", "x", "nan", 26.5, "x: must be a finite number, got nan"),
    ("zones", "income", "nan", None, "income: must be a finite number, got nan"),
    ("zones", "income", "-1", None, "income: must be in [0, 1], got -1.0"),
    ("zones", "income", "7", None, "income: must be in [0, 1], got 7.0"),
    ("zones", "population", "inf", None, "population: must be a finite number, got inf"),
    ("zones", "population", "nan", None, "population: must be a finite number, got nan"),
], ids=["x-inf", "x-nan-with-area", "share-nan", "share-negative", "share-7",
        "population-inf", "population-nan"])
def test_a_cell_that_would_poison_densities_or_ginis_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch, command, table, column, cell, area_km2, problem):
    # an inf x made every density 0, and a nan one went unnoticed beside
    # area_km2; a nan share or population made every Gini 0, and a share
    # outside [0, 1] only warned
    files = table_files(tmp_path)
    set_cell(files[table], column, cell)
    area = {"area_km2": area_km2} if area_km2 else {}
    cfg = write_scenario(tmp_path, mutate=read_from(files, **area))
    assert refused_like_validate(tmp_path, capsys, monkeypatch, cfg, command) == [
        f"error: {files[table]}:2: {problem}"]


@pytest.mark.parametrize("section, key, kind", [
    ("costs", "fare", "cost parameter"), ("emissions", "ev_kwh_per_km", "emission factor")])
@pytest.mark.parametrize("value", ["abc", [1], None, True, "4.00", float("nan"), float("inf"),
                                   "NaN"])
def test_cost_and_emission_values_name_their_key(section, key, kind, value):
    # a cost parameter or an emission factor is read like every number
    # setting: text, numeric text such as "4.00" included, is refused
    raw = json.loads(json.dumps(BASE))
    raw[section] = {key: value}
    problem = ("must be a finite number" if isinstance(value, float) else
               f"expected a number, got {'null' if value is None else type(value).__name__}")
    assert parse_config(raw).errors == [f"{section}.{key}: {problem}"], kind


def refused_before_any_run(tmp_path, capsys, monkeypatch, command, mutate) -> list[str]:
    """What `command` prints on stderr for the scenario mutate makes, once
    it has exited 2 before any run, writing no output directory."""
    runs = []
    monkeypatch.setattr(runner, "run_one", lambda *args: runs.append(args))
    out = tmp_path / "out"
    argv = [command, str(write_scenario(tmp_path, mutate=mutate))]
    assert main(argv if command == "validate" else [*argv, "--out", str(out), "-q"]) == 2
    assert runs == [] and not out.exists()
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
@pytest.mark.parametrize("mutate, problem", [
    (lambda raw: raw.update(costs={"vehicle_price": 10 ** 26}),
     "costs.vehicle_price: must be below 1e12 in magnitude, "
     "got 100000000000000000000000000"),
    (lambda raw: raw.update(emissions={"grid_g_per_kwh": -1.0e13}),
     "emissions.grid_g_per_kwh: must be below 1e12 in magnitude, got -10000000000000.0"),
    (lambda raw: raw["analysis"].update(vot=1.0e30),
     "analysis.vot: must be below 1e12 in magnitude, got 1e+30"),
], ids=["vehicle-price", "grid-factor", "vot"])
def test_money_too_large_to_price_in_cents_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch, command, mutate, problem):
    # Decimal keeps 28 digits, so such a value failed every run's costing
    assert refused_before_any_run(tmp_path, capsys, monkeypatch, command, mutate) == [
        f"error: {problem}", "1 problem(s) found"]


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
@pytest.mark.parametrize("mutate, problem", [
    (lambda raw: raw["analysis"].update(vott=20), "analysis: unknown key 'vott'"),
    (lambda raw: raw.update(costs={"fare_typo": 3}), "costs: unknown key 'fare_typo'"),
    (lambda raw: raw.update(sytems=[]), "unknown top-level key 'sytems'"),
    (lambda raw: raw.update(costs={"fare": "4.00"}), "costs.fare: expected a number, got str"),
    (lambda raw: raw["network"].update(area_km2=10 ** 330),
     "network.area_km2: must be a finite number"),
], ids=["vott", "fare-typo", "top-level-typo", "fare-text", "area-past-float"])
def test_a_setting_the_reader_refuses_stops_every_command_before_any_run(
        tmp_path, capsys, monkeypatch, command, mutate, problem):
    # a misspelt key only warned, so the sweep priced time at the default vot;
    # an int too large for a float passed, and every density read 0
    assert refused_before_any_run(tmp_path, capsys, monkeypatch, command, mutate) == [
        f"error: {problem}", "1 problem(s) found"]


def unknown_keys(raw):
    """A typo in every kind of place: the top level, a list item, a section,
    and the costs and emissions sections."""
    raw["typo_key"] = 1
    raw["systems"][0]["seats"] = 4
    raw["analysis"]["vott"] = 20
    raw["costs"] = {"fare_typo": 3}
    raw["emissions"] = {"coal_g_per_km": 1.0}


UNKNOWN_KEYS = ["systems[0]: unknown key 'seats'", "analysis: unknown key 'vott'",
                "unknown top-level key 'typo_key'", "costs: unknown key 'fare_typo'",
                "emissions: unknown key 'coal_g_per_km'"]


def test_parse_refuses_unknown_keys():
    raw = json.loads(json.dumps(BASE))
    unknown_keys(raw)
    report = parse_config(raw)
    assert (report.config, report.errors, report.warnings) == (None, UNKNOWN_KEYS, [])


def test_parse_rejects_negative_zone_counts():
    raw = json.loads(json.dumps(BASE))
    raw["network"]["grid"].update(zone_rows=-2, zone_cols=-2)
    report = parse_config(raw)
    assert not report.ok
    assert [e for e in report.errors if "zone" in e] == [
        "network.grid.zone_rows: must not be negative, got -2",
        "network.grid.zone_cols: must not be negative, got -2"]


def test_corridor_required_for_fixed_route():
    raw = json.loads(json.dumps(BASE))
    raw["systems"] = [{"type": "frt"}]
    report = parse_config(raw)
    assert not report.ok
    raw = json.loads(json.dumps(BASE))
    raw["systems"] = [{"type": "frt"}]
    raw["corridor"] = {"stops": [10, 12, 14], "cruise_speed_mps": 10.0,
                       "window_h": [7, 21]}
    report = parse_config(raw)
    assert report.ok, report.errors


def test_config_hash_tracks_content():
    a = parse_config(json.loads(json.dumps(BASE))).config
    b = parse_config(json.loads(json.dumps(BASE))).config
    assert a.config_hash() == b.config_hash()
    raw = json.loads(json.dumps(BASE))
    raw["seed"] = 6
    c = parse_config(raw).config
    assert c.config_hash() != a.config_hash()
    # the hash covers every resolved setting, each cost and emission factor too
    assert a.config_hash() == (
        "1d06bb0d0fe6d552f496f3defd71b43a5c3fb54650a0900de308a1acbf1aae17")


def test_load_config_missing_and_invalid(tmp_path):
    report = load_config(str(tmp_path / "none.yaml"))
    assert not report.ok and "not found" in report.errors[0]
    bad = tmp_path / "bad.yaml"
    bad.write_text("systems: [unclosed\n")
    report = load_config(str(bad))
    assert not report.ok and "YAML" in report.errors[0]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_read_equal_mappings(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    town = next(b for b in re.findall(r"```yaml\n(.*?)```", readme, re.S)
                if b.startswith("name: town"))
    scalars = ("a: 1e3\nb: ~\nc: '5'\nd: \"2.5\"\ne: 1.0e3\nf: -0.5\ng:\n"
               "h: [yes, No, off, .inf, 0x1F, 0o17, 1_000, 2023-01-02]\ni: {j: null}\n")
    for text in (town, scalars):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)
    path = tmp_path / "town.yaml"
    path.write_text(town)
    assert load_config(str(path)).config == parse_config(yaml.safe_load(town)).config


def test_load_config_names_after_file(tmp_path):
    raw = json.loads(json.dumps(BASE))
    del raw["name"]
    path = tmp_path / "riverside.yaml"
    path.write_text(yaml.safe_dump(raw))
    report = load_config(str(path))
    assert report.ok and report.config.name == "riverside"


def test_readme_examples_are_valid():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", text, re.S)
    town = next(b for b in blocks if b.startswith("name: town"))
    report = parse_config(yaml.safe_load(town))
    assert report.ok and not report.warnings, (report.errors, report.warnings)
    assert report.config.config_hash() == (
        "b8d9379676922d02895462585c85e82574ed0c8dcadd892ef4ef01ae6d85b037")
    overrides = yaml.safe_load(next(b for b in blocks if b.startswith("costs:")))
    report = parse_config({**yaml.safe_load(town), **overrides})
    assert report.ok and not report.warnings, (report.errors, report.warnings)
    # the block restates the built-in constants
    assert (report.config.costs, report.config.emissions) == (CostParameters(),
                                                              EmissionFactors())


# -- CLI: validate --------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "2 system(s)" in out


def test_validate_reports_problems(tmp_path, capsys):
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw["systems"].append(
        {"type": "teleporter", "alpha": 0.3}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "problem(s) found" in err


def test_validate_names_a_mistyped_value(tmp_path, capsys):
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw["network"]["grid"].update(
        rows="ten"))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: network.grid.rows: expected an integer, got str" in err
    assert "1 problem(s) found" in err


def test_validate_prints_each_unknown_key_as_an_error(tmp_path, capsys):
    assert main(["validate", str(write_scenario(tmp_path, mutate=unknown_keys))]) == 2
    # in the file's order, which safe_dump sorts by key
    assert capsys.readouterr().err.splitlines() == [
        *(f"error: {problem}" for problem in sorted(UNKNOWN_KEYS)), "5 problem(s) found"]


def test_validate_refuses_a_file_whose_top_level_is_a_list(tmp_path, capsys):
    cfg = tmp_path / "listed.yaml"
    cfg.write_text("- name: town\n- seed: 5\n")
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: listed: top level must be a mapping", "1 problem(s) found"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_exit_2_on_a_config_that_fails_validation(tmp_path, capsys, command):
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw["network"]["grid"].update(
        rows="ten"))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out), "-q"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: network.grid.rows: expected an integer, got str", "1 problem(s) found"]
    assert not out.exists()


def test_run_refuses_a_system_name_that_leaves_the_results_directory(tmp_path, capsys):
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        systems=[{"type": "crowdsourced_exclusive", "name": "../../escaped"}]))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out / "res"), "-q"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: systems[0]: name '../../escaped' must not contain '/', '\\' or '+'",
        "1 problem(s) found"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.yaml"]


def test_network_files_are_one_section_beside_grid(tmp_path, capsys):
    zones = tmp_path / "zones.csv"
    zones.write_text("zone_id,population\n")
    # a zones file beside a grid is refused, not silently ignored
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw["network"].update(
        files={"zones": str(zones)}))
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: network: grid and files are mutually exclusive", "1 problem(s) found"]
    # the flat spelling of a network file is an unknown key
    raw = json.loads(json.dumps(BASE))
    raw["network"]["nodes_file"] = "nodes.csv"
    assert parse_config(raw).errors == ["network: unknown key 'nodes_file'"]
    # files alone: a missing file is named by its role
    raw["network"] = {"files": {name: str(tmp_path / f"{name}.txt")
                                for name in ("nodes", "edges", "zones")}}
    assert parse_config(raw).errors == [
        f"network: {name} file '{tmp_path / f'{name}.txt'}' not found"
        for name in ("nodes", "edges", "zones")]
    raw["network"] = {"files": {"zones": str(zones)}}
    assert parse_config(raw).errors == [
        "network: provide either grid or files with nodes and edges"]


@pytest.mark.parametrize("mutate, problem", [
    (lambda raw: raw.update(systems=[{"type": "crowdsourced_exclusive", "name": "a"},
                                     {"type": "dedicated_darp", "name": "a"}]),
     "systems[1]: duplicate system name 'a'"),
    (lambda raw: raw.update(systems=[{"type": "hybrid_odt"}], corridor={"stops": [10, 12, 14]}),
     "corridor: supply required for the dedicated corridor fleet"),
    (lambda raw: raw["analysis"].update(electrification_levels=[0.0, 0.3]),
     "analysis.electrification_levels[1]: must be one of 0.0, 0.2, 0.4, 0.6, 0.8, 1.0, "
     "got 0.3"),
    (lambda raw: raw["analysis"].update(electrification_levels=[0.0, 0.0, 1.0]),
     "analysis.electrification_levels: must be distinct, got [0.0, 0.0, 1.0]"),
    (lambda raw: raw["analysis"].update(vot=float("nan")),
     "analysis.vot: must be a finite number"),
    (lambda raw: raw["network"].update(area_km2=float("nan")),
     "network.area_km2: must be a finite number"),
    (lambda raw: raw["systems"][1].update(max_detour=float("inf")),
     "systems[1].max_detour: must be a finite number"),
    (lambda raw: raw.update(emissions={"grid_g_per_kwh": float("inf")}),
     "emissions.grid_g_per_kwh: must be a finite number"),
    (lambda raw: raw["systems"][0].update(name="../../escaped"),
     "systems[0]: name '../../escaped' must not contain '/', '\\' or '+'"),
    (lambda raw: raw["systems"][1].update(name="a\\b"),
     "systems[1]: name 'a\\b' must not contain '/', '\\' or '+'"),
    (lambda raw: raw.update(systems=[{"type": "crowdsourced_exclusive", "name": "x"},
                                     {"type": "crowdsourced_shared", "name": "x+s20"}]),
     "systems[1]: name 'x+s20' must not contain '/', '\\' or '+'"),
], ids=["duplicate-name", "no-corridor-supply", "electrification",
        "repeated-electrification", "vot-nan", "area-nan", "detour-inf", "grid-inf",
        "name-path", "name-backslash", "name-surge-tag"])
def test_validate_names_the_setting_it_rejects(tmp_path, capsys, mutate, problem):
    assert main(["validate", str(write_scenario(tmp_path, mutate=mutate))]) == 2
    err = capsys.readouterr().err
    assert f"error: {problem}\n" in err and "1 problem(s) found" in err


@pytest.mark.parametrize("row, problem", [("0,x", "bad value 'x' for field 'vehicles'"),
                                          ("0,-2", "vehicles: must not be negative, got -2")])
def test_validate_reports_a_bad_supply_file(tmp_path, capsys, row, problem):
    supply = tmp_path / "supply.csv"
    supply.write_text(f"hour,vehicles\n{row}\n")
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        supply={"file": str(supply)}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {supply}:2: {problem}" in err and "1 problem(s) found" in err


@pytest.mark.parametrize("corridor, problem", [
    ({"stops": [10]}, "corridor.stops: needs at least two stops, got [10]"),
    ({"stops": [10, 10]}, "corridor.stops: must be distinct, got [10, 10]"),
    ({"dwell_s": -100.0}, "corridor.dwell_s: must not be negative"),
    ({"supply": [1] * 23 + [-1]}, "corridor.supply: hourly counts must be non-negative"),
    ({"window_h": [7, float("inf")]}, "corridor.window_h[1]: must be a finite number"),
    ({"window_h": [7, 25]}, "corridor.window_h: must be"),
    ({"window_h": [-1, 21]}, "corridor.window_h: must be"),
    ({"window_h": [9, 9]}, "corridor.window_h: must be"),
    ({"window_h": [float("nan"), 21]}, "corridor.window_h[0]: must be a finite number"),
    ({"cruise_speed_mps": float("inf"), "dwell_s": 0.0}, "corridor.cruise_speed_mps: must be"),
    ({"cruise_speed_mps": float("nan")}, "corridor.cruise_speed_mps: must be"),
    ({"catchment_min": -5.0}, "corridor.catchment_min: must not be negative"),
    ({"catchment_min": float("nan")}, "corridor.catchment_min: must be a finite number"),
], ids=["one-stop", "repeated-stop", "dwell_s", "supply", "window-inf",
        "window-past-midnight", "window-before-midnight", "window-empty", "window-nan",
        "speed-inf", "speed-nan", "catchment-negative", "catchment-nan"])
def test_validate_rejects_negative_corridor_values(tmp_path, capsys, corridor, problem):
    # a negative dwell never lets the timetable reach the end of the window,
    # nor does an endless window or runs that take no time, a negative
    # count fails the run in the middle of the sweep, and a negative
    # catchment takes no rider while a NaN one takes every trip
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        systems=[{"type": "hybrid_odt"}],
        corridor={"stops": [10, 12, 14], "supply": [1] * 24, **corridor}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {problem}" in err and "1 problem(s) found" in err


@pytest.mark.parametrize("section", ["supply.schedule", "corridor.supply"])
@pytest.mark.parametrize("counts, problem", [
    ([1] * 23, "needs 24 hourly counts"),
    ([1] * 23 + [-1], "hourly counts must be non-negative integers"),
], ids=["23-counts", "negative"])
def test_validate_checks_each_hourly_schedule_by_one_rule(tmp_path, capsys, section,
                                                          counts, problem):
    def schedule(raw):
        raw.update(systems=[{"type": "hybrid_odt"}],
                   corridor={"stops": [10, 12, 14], "supply": [1] * 24})
        top, key = section.split(".")
        raw[top][key] = counts

    cfg = write_scenario(tmp_path, mutate=schedule)
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {section}: {problem}" in err and "1 problem(s) found" in err


@pytest.mark.parametrize("system", ["frt", "hybrid_frt"])
def test_validate_rejects_a_timetable_that_does_not_advance_the_clock(tmp_path, capsys,
                                                                      system):
    # a finite speed whose legs take less than one ulp of the clock: the
    # config values are in range, but the timetable cannot be laid out
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        systems=[{"type": system}],
        corridor={"stops": [10, 12, 14], "cruise_speed_mps": 1.0e300, "dwell_s": 0.0}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert ("error: corridor: a corridor run leaving at 25200.0 s does not advance "
            "the clock") in err
    assert "1 problem(s) found" in err


def few_requests_at_close_levels(raw):
    # 50 % and 60 % of 3 requests both round to a day of 2
    raw["demand"] = {"synthetic": {"count": 3}, "levels": [50, 60, 100]}


def test_validate_rejects_levels_that_scale_the_day_to_one_size(tmp_path, capsys):
    cfg = write_scenario(tmp_path, mutate=few_requests_at_close_levels)
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: demand levels 50% and 60% both scale the base day of 3 requests to 2" in err
    assert "1 problem(s) found" in err


def test_levels_that_scale_the_day_to_one_size_stop_a_sweep_before_any_run(
        tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(runner, "run_one", lambda *args: runs.append(args))
    cfg = write_scenario(tmp_path, mutate=few_requests_at_close_levels)
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "out"), "-q"]) == 3
    assert "error: demand levels 50% and 60% both scale" in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("profile", [[0.0] * 24, [1.0] * 23 + [-1.0], [10 ** 308] * 24],
                         ids=["all-zero", "negative", "int-sum-past-float"])
def test_validate_rejects_an_hourly_profile_no_day_can_be_drawn_from(tmp_path, capsys,
                                                                     profile):
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw["demand"]["synthetic"].update(
        hourly_profile=profile))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: demand.synthetic.hourly_profile:" in err and "1 problem(s) found" in err


def test_validate_reports_synthetic_demand_on_a_one_node_network(tmp_path, capsys):
    # no two distinct nodes to draw a trip between: a problem, not a traceback
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    nodes.write_text("id,x,y,zone_id\n0,0,0,\n")
    edges.write_text("id,from,to,length_m,speed_mps\n")
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        network={"files": {"nodes": str(nodes), "edges": str(edges)}, "area_km2": 1.0}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: network needs at least 2 nodes for synthetic demand" in err
    assert "1 problem(s) found" in err


@pytest.mark.parametrize("key, value", [("surge_levels", [0, 20]), ("value_of_time", 99)],
                         ids=["surge_levels", "value_of_time"])
def test_validate_rejects_cost_surge_levels(tmp_path, capsys, key, value):
    # surge levels and the value of time are analysis settings; under costs
    # they were never read
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(costs={key: value}))
    assert main(["validate", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_validate_rejects_unknown_node_ids(tmp_path, capsys):
    requests = tmp_path / "requests.csv"
    save_requests([RideRequest(0, 28800.0, 0, 24), RideRequest(1, 29400.0, 77, 3)],
                  str(requests))

    def unknown_nodes(raw):
        raw["systems"].append({"type": "frt"})
        raw["corridor"] = {"stops": [0, 4, 999]}
        raw["demand"] = {"file": str(requests), "levels": [100]}

    cfg = write_scenario(tmp_path, mutate=unknown_nodes)
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: corridor: stop 999 is not a network node" in err
    assert "error: demand: request 1 origin 77 is not a network node" in err
    assert "2 problem(s) found" in err


def test_validate_rejects_duplicate_request_ids(tmp_path, capsys):
    requests = tmp_path / "requests.csv"
    save_requests([RideRequest(0, 28800.0, 0, 24), RideRequest(1, 29400.0, 1, 3),
                   RideRequest(1, 30000.0, 2, 4)], str(requests))
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        demand={"file": str(requests), "levels": [100]}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {requests}:4: duplicate request id 1" in err
    assert "1 problem(s) found" in err


def test_validate_reports_a_bad_network_file(tmp_path, capsys):
    # the appended row is line 82, after the header and the grid's 80 edges
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    for row, problem in (("999,0,1,fast,10", f"{edges}:82: bad value 'fast' for field 'length_m'"),
                         ("999,0,1,nan,10", f"{edges}:82: length_m: must be a finite number, "
                                            "got nan"),
                         ("999,0,1,500,inf", f"{edges}:82: speed_mps: must be a finite number, "
                                             "got inf"),
                         ("999,0,1,1e10,1e-300", "edge 999 has travel_time_s inf")):
        save_network(generate_grid(5, 5, 500.0, 10.0), str(nodes), str(edges))
        with open(edges, "a") as fh:
            fh.write(row + "\n")
        cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
            network={"files": {"nodes": str(nodes), "edges": str(edges)}}))
        assert main(["validate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert problem in err and "1 problem(s) found" in err


def test_validate_rejects_a_node_zone_that_names_no_zone(tmp_path, capsys):
    nodes, edges, zones = (tmp_path / f"{x}.csv" for x in ("nodes", "edges", "zones"))
    save_network(generate_grid(5, 5, 500.0, 10.0, zone_rows=1, zone_cols=1),
                 str(nodes), str(edges), str(zones))
    nodes.write_text(nodes.read_text().replace("0,0,0,Z00", "0,0,0,Q"))
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(network={"files": {
        "nodes": str(nodes), "edges": str(edges), "zones": str(zones)}}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert ("error: 1 node(s) have a zone_id that names no zone; the first, node 0, "
            "has zone_id 'Q'") in err
    assert "1 problem(s) found" in err


def test_validate_refuses_a_negative_population_in_a_zones_file(tmp_path, capsys):
    # at its file and line, as a grid's zone_population is refused by its rule
    nodes, edges, zones = (tmp_path / f"{x}.csv" for x in ("nodes", "edges", "zones"))
    save_network(generate_grid(5, 5, 500.0, 10.0, zone_rows=1, zone_cols=2),
                 str(nodes), str(edges), str(zones))
    zones.write_text(zones.read_text().replace("Z01,1000,", "Z01,-5,"))
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(network={"files": {
        "nodes": str(nodes), "edges": str(edges), "zones": str(zones)}}))
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {zones}:3: population: must not be negative, got -5.0", "1 problem(s) found"]


def test_validate_rejects_edges_whose_total_overflows(tmp_path, capsys):
    # nodes 0 - 1 - 2 joined both ways by 1e308 m edges: 0 -> 2 sums to inf
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    nodes.write_text("id,x,y,zone_id\n0,0,0,\n1,1000,0,\n2,2000,0,\n")
    edges.write_text("id,from,to,length_m,speed_mps\n" + "".join(
        f"{k},{a},{b},1e308,10\n" for k, (a, b) in enumerate([(0, 1), (1, 0), (1, 2), (2, 1)])))
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        network={"files": {"nodes": str(nodes), "edges": str(edges)}}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: the edges sum to inf m; the total must be finite" in err
    assert "1 problem(s) found" in err


def test_validate_rejects_an_empty_base_day_at_one_level(tmp_path, capsys, monkeypatch):
    # a header-only demand file: no level can scale it, so validate refuses
    # it before a sweep would stop on it
    requests = tmp_path / "requests.csv"
    save_requests([], str(requests))
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        demand={"file": str(requests), "levels": [100]}))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: base demand is empty: the base day has no requests" in err
    assert "1 problem(s) found" in err
    runs = []
    monkeypatch.setattr(runner, "run_one", lambda *args: runs.append(args))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "out"), "-q"]) == 3
    assert "error: base demand is empty" in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "out").exists()


def one_way_exit(tmp_path: Path, requests: list[RideRequest], edge=(25, 4)) -> dict:
    """Network and demand sections for a 5x5 grid plus node 25, east of
    node 4, whose only edge is `edge`: by default 25 -> 4, so nothing can
    drive to node 25."""
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    grid = generate_grid(5, 5, 500.0, 10.0)
    save_network(grid, str(nodes), str(edges))
    with open(nodes, "a") as fh:
        fh.write("25,2500,0,\n")
    with open(edges, "a") as fh:
        fh.write(f"{len(grid.edges)},{edge[0]},{edge[1]},500,10\n")
    save_requests(requests, str(tmp_path / "requests.csv"))
    return {"network": {"files": {"nodes": str(nodes), "edges": str(edges)}},
            "demand": {"file": str(tmp_path / "requests.csv"), "levels": [100]}}


def test_validate_rejects_an_unroutable_corridor_leg(tmp_path, capsys):
    sections = one_way_exit(tmp_path, [RideRequest(0, 28800.0, 0, 24)])

    def corridor_to_25(raw):
        raw.update(sections, systems=[{"type": "frt"}], corridor={"stops": [0, 2, 25]})

    cfg = write_scenario(tmp_path, mutate=corridor_to_25)
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: corridor: no route from stop 2 to stop 25" in err
    assert "1 problem(s) found" in err


@pytest.mark.parametrize("system, problems", [
    ("crowdsourced_exclusive", 1), ("crowdsourced_shared", 1), ("dedicated_darp", 1),
    ("frt", 0),  # the car baseline leaves out a trip it cannot route
    ("hybrid_frt", 0),  # the split sends request 0 to the fixed route
])
def test_validate_checks_request_routes_for_on_demand_fleets(tmp_path, capsys, system,
                                                             problems):
    sections = one_way_exit(tmp_path, [RideRequest(0, 28800.0, 3, 25),
                                       RideRequest(1, 29400.0, 25, 3)])
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        sections, systems=[{"type": system}], corridor={"stops": [0, 2, 4]}))
    assert main(["validate", str(cfg)]) == (2 if problems else 0)
    err = capsys.readouterr().err
    assert err.count("error:") == problems
    assert err.count("error: demand: no route for request 0 from 3 to 25") == problems


def copy_at_200(tmp_path: Path, seed: int) -> tuple[Path, RideRequest]:
    """A hybrid_frt scenario at levels 100 and 200 whose one request, from 3
    to node 25 at 07:05, the split sends to the fixed route, and the copy
    of it that level 200 adds at `seed`."""
    request = RideRequest(0, 25500.0, 3, 25)
    (copy,) = [r for r in scale_demand([request], 200, seed) if r.id != 0]
    sections = one_way_exit(tmp_path, [request])
    sections["demand"]["levels"] = [100, 200]
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        sections, seed=seed, systems=[{"type": "hybrid_frt"}], corridor={"stops": [0, 2, 4]}))
    return cfg, copy


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("seed", [1, 3])
def test_validate_checks_routes_on_the_day_at_every_level(tmp_path, capsys, monkeypatch,
                                                          command, seed):
    # the copy falls before the corridor opens at 07:00, so the crowdsourced
    # fleet would drive it to node 25, which nothing can drive to
    cfg, copy = copy_at_200(tmp_path, seed)
    assert copy.request_time < 25200.0
    assert refused_like_validate(tmp_path, capsys, monkeypatch, cfg, command) == [
        "error: demand: no route for request 0 from 3 to 25"]


def test_a_copy_the_fixed_route_takes_needs_no_route(tmp_path, capsys):
    cfg, copy = copy_at_200(tmp_path, 0)
    assert copy.request_time >= 25200.0  # 07:06, in the corridor's window
    assert main(["validate", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith(f"{cfg}: ok")
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "out"), "-q"]) == 0


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_refused_at_parse_time(tmp_path, capsys, jobs):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(cfg), "--out", str(out), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system", [
    "crowdsourced_exclusive", "crowdsourced_shared", "dedicated_darp"])
@pytest.mark.parametrize("edge, rider", [((25, 4), (25, 3)), ((4, 25), (3, 25))],
                         ids=["no-way-in", "no-way-out"])
def test_run_records_riders_at_a_one_way_node(tmp_path, capsys, system, edge, rider):
    # request 0 starts where no vehicle can drive to, or ends where a
    # vehicle that drops it can drive nowhere; both have a route, so validate
    # passes them, and run records every rider instead of stopping mid-sweep
    day = [RideRequest(k, 28800.0 + 1800.0 * k, k, 24 - k) for k in range(1, 10)]
    sections = one_way_exit(tmp_path, [RideRequest(0, 28800.0, *rider), *day], edge)
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        sections, systems=[{"type": system}], supply={"schedule": [0] * 6 + [3] * 16 + [0] * 2}))
    assert main(["validate", str(cfg)]) == 0
    assert run_cli(cfg, tmp_path / "out") == 0
    with open(tmp_path / "out" / "trips.csv", newline="") as fh:
        trips = list(csv.DictReader(fh))
    assert sorted(int(t["request_id"]) for t in trips) == list(range(10))
    # served, rejected or waiting at the horizon, each rider once
    assert all((t["served"] == "1") != bool(t["reject_reason"]) for t in trips)


def test_validate_checks_the_day_the_seed_from_the_environment_draws(tmp_path, capsys,
                                                                      monkeypatch):
    # config seed 0 draws no trip to node 25, which nothing can drive to;
    # ODT_LAB_SEED=6, which run and sweep apply, draws one
    sections = one_way_exit(tmp_path, [])
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        sections, seed=0, systems=[{"type": "crowdsourced_exclusive"}],
        demand={"synthetic": {"count": 12}, "levels": [100]}))
    assert main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("ODT_LAB_SEED", "6")
    assert main(["validate", str(cfg)]) == 2
    validate_err = capsys.readouterr().err
    assert re.search(r"error: demand: no route for request \d+ from \d+ to 25", validate_err)
    assert run_cli(cfg, tmp_path / "out") == 3
    assert capsys.readouterr().err == validate_err


def refused_like_validate(tmp_path, capsys, monkeypatch, cfg: Path, command: str) -> list[str]:
    """The error lines `validate` prints for cfg, once `command` has printed
    the same lines and exited 3 before any run, writing no output directory."""
    def error_lines() -> list[str]:
        return [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("error:")]

    assert main(["validate", str(cfg)]) == 2
    errors = error_lines()
    runs = []
    monkeypatch.setattr(runner, "run_one", lambda *args: runs.append(args))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out), "-q"]) == 3
    assert error_lines() == errors
    assert runs == [] and not out.exists()
    return errors


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("unknown, problem", [
    ("request", "demand: request 0 destination 99 is not a network node"),
    ("stop", "corridor: stop 999 is not a network node"),
], ids=["request", "stop"])
def test_run_and_sweep_refuse_unknown_nodes_before_any_run(tmp_path, capsys, monkeypatch,
                                                           command, unknown, problem):
    requests = tmp_path / "requests.csv"
    save_requests([RideRequest(0, 28800.0, 0, 99 if unknown == "request" else 24),
                   RideRequest(1, 29400.0, 7, 3)], str(requests))

    def unknown_node(raw):
        raw["demand"] = {"file": str(requests), "levels": [100]}
        if unknown == "stop":
            raw["systems"].append({"type": "frt"})
            raw["corridor"] = {"stops": [0, 4, 999]}

    cfg = write_scenario(tmp_path, mutate=unknown_node)
    assert refused_like_validate(tmp_path, capsys, monkeypatch, cfg, command) == [
        f"error: {problem}"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_refuse_a_request_with_no_route_before_any_run(
        tmp_path, capsys, monkeypatch, command):
    # nothing can drive to node 25: the sweep stops on the request, not on a
    # NoPathError in the middle of a run
    sections = one_way_exit(tmp_path, [RideRequest(0, 28800.0, 3, 25)])
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        sections, systems=[{"type": "dedicated_darp"}]))
    assert refused_like_validate(tmp_path, capsys, monkeypatch, cfg, command) == [
        "error: demand: no route for request 0 from 3 to 25"]



def test_a_scenario_file_that_is_not_utf8_is_one_error_naming_it(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b"name: town", "name: café".encode("utf-8")))
    assert main(["validate", str(cfg)]) == 0  # UTF-8 whatever the locale
    capsys.readouterr()
    cfg.write_bytes(cfg.read_bytes().replace("café".encode("utf-8"), "café".encode("latin-1")))
    assert main(["validate", str(cfg)]) == 2
    error, count = capsys.readouterr().err.splitlines()
    assert error.startswith(f"error: config file '{cfg}' cannot be read: 'utf-8' codec "
                            "can't decode byte 0xe9")
    assert count == "1 problem(s) found"


def test_a_directory_given_as_the_scenario_is_one_error_naming_it(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config file '{tmp_path}' cannot be read: [Errno 21] Is a directory: "
        f"'{tmp_path}'", "1 problem(s) found"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_directory_given_as_a_network_file_is_an_input_problem(tmp_path, capsys,
                                                                  monkeypatch, command):
    edges = tmp_path / "edges.csv"
    save_network(generate_grid(5, 5, 500.0, 10.0), str(tmp_path / "nodes.csv"), str(edges))
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        network={"files": {"nodes": str(tmp_path), "edges": str(edges)}}))
    assert refused_like_validate(tmp_path, capsys, monkeypatch, cfg, command) == [
        f"error: [Errno 21] Is a directory: '{tmp_path}'"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_requests_file_that_is_not_utf8_is_named_with_its_line(tmp_path, capsys,
                                                                  monkeypatch, command):
    requests = tmp_path / "requests.csv"
    save_requests([RideRequest(0, 28800.0, 0, 24), RideRequest(1, 29400.0, 7, 3)],
                  str(requests))
    requests.write_bytes(requests.read_bytes().replace(b"1,29400", b"1\xe9,29400"))
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        demand={"file": str(requests), "levels": [100]}))
    assert refused_like_validate(tmp_path, capsys, monkeypatch, cfg, command) == [
        f"error: {requests}:3: byte 0xe9 is not UTF-8"]

# -- CLI: run and outputs ---------------------------------------------------------------


EXPECTED_FILES = ["trips.csv", "fleet.csv", "costs.csv", "gc_curve.csv",
                  "switching_points.csv", "emissions.csv", "gini.csv", "lorenz.csv",
                  "rejections.json"]


def run_cli(cfg: Path, out: Path, *extra) -> int:
    return main(["run", str(cfg), "--out", str(out), "-q", *extra])


def test_run_produces_verified_outputs(tmp_path):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert run_cli(cfg, out) == 0
    for name in EXPECTED_FILES:
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "town"
    assert manifest["seed"] == 5
    assert manifest["levels"] == [50, 100]
    assert manifest["systems"] == ["crowdsourced_exclusive_a1", "dedicated_darp_a1"]
    # every checksum in the manifest matches the file on disk
    assert manifest["files"]
    for rel, digest in manifest["files"].items():
        assert sha256(out / rel) == digest, rel
    # each run has its trips.csv, and its vehicles numbered from 0 in fleet.csv
    run_ids = [f"{system}-L{level}" for system in manifest["systems"] for level in (50, 100)]
    for run_id in run_ids:
        assert (out / "runs" / run_id / "trips.csv").exists()
    fleet = [(row["run_id"], int(row["vehicle_id"])) for row in read_rows(out / "fleet.csv")]
    assert sorted(dict.fromkeys(run_id for run_id, _ in fleet)) == sorted(run_ids)
    for run_id in run_ids:
        ids = [vid for rid, vid in fleet if rid == run_id]
        assert ids == list(range(len(ids)))


CORRIDOR = {"stops": [10, 12, 14], "cruise_speed_mps": 10.0, "supply": [1] * 24}


def one_system(system: dict, extra: list[RideRequest] = ()) -> tuple:
    """The config, network, the system's spawn pools, days by level and runs
    of BASE with the corridor above, one system in place of BASE's two, and
    the extra requests added to the day at each level."""
    raw = json.loads(json.dumps(BASE))
    raw.update(systems=[system], corridor=CORRIDOR)
    cfg = parse_config(raw).config
    net, days, spawn, supply = runner.sweep_inputs(cfg, cfg.demand.levels)
    days = {lvl: day + list(extra) for lvl, day in days.items()}
    spawn = spawn[cfg.systems[0].type]
    runs = [runner.run_one(net, cfg, cfg.systems[0], lvl, day, spawn, supply)
            for lvl, day in days.items()]
    return cfg, net, spawn, days, runs


@pytest.mark.parametrize("service", ["exclusive", "shared"])
@pytest.mark.parametrize("system_type", list(SYSTEM_TYPES))
def test_every_system_type_runs_with_either_crowdsourced_ride_style(system_type, service):
    # one rider each way of the split on either hybrid: 900 boards the fixed
    # route, 901's ends share a nearest stop, and both stay in the catchment
    corridor_riders = [RideRequest(900, 26000.0, 11, 14), RideRequest(901, 30000.0, 5, 15)]
    cfg, net, _, days, runs = one_system({"type": system_type,
                                          "crowdsourced_service": service},
                                         corridor_riders)
    crowd = {"exclusive": "greedy_exclusive", "shared": "shared_greedy"}[service]
    fleets = {"crowdsourced_exclusive": ["greedy_exclusive"],
              "crowdsourced_shared": ["shared_greedy"], "dedicated_darp": ["darp"],
              "frt": ["frt"], "hybrid_frt": ["frt", crowd], "hybrid_odt": ["darp", crowd]}
    for run, day in zip(runs, days.values()):
        kinds = [c.policy.kind for c in run.components]  # the corridor fleet first
        assert kinds == fleets[system_type]
        c = run.combined
        assert sorted(t.request_id for t in c.trips) == sorted(r.id for r in day)
        assert {t.mode for t in c.trips} == set(kinds)
        assert c.served + c.rejected + c.waiting == c.demand_total == len(day)
    _, cost_rows = runner.tables(cfg, net, days, runs)["costs.csv"]
    crowdsourced = system_type not in ("dedicated_darp", "frt")
    assert sorted(row[3] for row in cost_rows) == (
        [0, 0, 20, 20] if crowdsourced else [0, 0])  # two levels, surge 0 and 20


def test_hybrid_frt_keeps_a_rider_with_no_departure_left_on_the_fixed_route():
    # request 6 is in the window and in the catchment, so the split sends
    # it to the fixed route; its last outbound departure has left
    late = RideRequest(6, 75599.0, 11, 14)
    cfg, net, spawn, _, _ = one_system({"type": "hybrid_frt"})
    run = runner.run_one(net, cfg, cfg.systems[0], 100, [late], spawn,
                         runner.build_base_supply(cfg))
    (trip,) = run.combined.trips
    assert (trip.mode, trip.served, trip.reject_reason) == ("frt", False, "no_departure")
    corridor, crowdsourced = run.components
    assert [t.request_id for t in corridor.result.trips] == [6]
    assert crowdsourced.result.trips == []


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_scenario(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(cfg, a) == 0
    assert run_cli(cfg, b) == 0
    for name in EXPECTED_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ma = json.loads((a / "manifest.json").read_text())["files"]
    mb = json.loads((b / "manifest.json").read_text())["files"]
    assert ma == mb


GOLDEN = Path(__file__).with_name("golden_six_systems.json")


def six_systems(raw):
    """All six system types on a 6x6 zoned grid, including the high-demand
    corridor fleet (level 300), surge variants and a pooled hybrid_odt."""
    raw["network"]["grid"].update(rows=6, cols=6)
    raw["demand"]["synthetic"]["count"] = 40
    raw["demand"]["levels"] = [50, 100, 300]
    raw["supply"]["schedule"] = [0] * 6 + [2] * 16 + [0] * 2
    raw["systems"] = [{"type": "crowdsourced_exclusive"},
                      {"type": "crowdsourced_shared"},
                      {"type": "dedicated_darp"},
                      {"type": "frt"},
                      {"type": "hybrid_frt"},
                      {"type": "hybrid_odt", "crowdsourced_service": "shared"}]
    raw["corridor"] = {"stops": [12, 14, 16], "cruise_speed_mps": 10.0,
                       "supply": [0] * 6 + [1] * 16 + [0] * 2}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_six_system_outputs_match_golden(tmp_path, jobs):
    # Checksums of every output file of the six system types. A refactor
    # must leave them as they are; only a deliberate change of output may
    # regenerate golden_six_systems.json. Worker processes must give the
    # same bytes as a serial sweep.
    cfg = write_scenario(tmp_path, mutate=six_systems)
    out = tmp_path / "out"
    assert run_cli(cfg, out, "--jobs", jobs) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    golden = json.loads(GOLDEN.read_text())
    assert sorted(files) == sorted(golden)
    assert [rel for rel in sorted(golden) if files[rel] != golden[rel]] == []


@pytest.fixture(scope="module")
def six_system_sweep(tmp_path_factory):
    """The runs of the six-system sweep, and the directory they are published to."""
    tmp = tmp_path_factory.mktemp("six")
    cfg = load_config(str(write_scenario(tmp, mutate=six_systems))).config
    net, days, runs = runner.simulate(cfg)
    out = tmp / "out"
    runner._publish(out, runner.tables(cfg, net, days, runs), {})
    return runs, out


def test_lorenz_points_give_the_gini_of_their_group(six_system_sweep):
    _, out = six_system_sweep
    curves = {}  # gini.csv's key -> its Lorenz points, in file order
    for row in read_rows(out / "lorenz.csv"):
        key = (row["system"], row["demand_level_pct"], row["attribute"], row["metric"])
        curves.setdefault(key, []).append((float(row["cum_weight_share"]),
                                           float(row["cum_outcome_share"])))
    gini_rows = read_rows(out / "gini.csv")
    assert gini_rows
    assert list(curves) == [(r["system"], r["demand_level_pct"], r["attribute"], r["metric"])
                            for r in gini_rows]
    for row, pts in zip(gini_rows, curves.values()):
        area = sum((x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
        # points are printed to 6 decimals
        assert 1 - 2 * area == pytest.approx(float(row["gini"]), abs=1e-5), row


def test_a_run_directory_holds_only_its_trips_and_rejections_are_keyed_by_run(
        six_system_sweep):
    runs, out = six_system_sweep
    assert sorted(p.name for p in (out / "runs").iterdir()) == sorted(r.run_id for r in runs)
    for run in runs:
        assert [p.name for p in (out / "runs" / run.run_id).iterdir()] == ["trips.csv"]
    refused = {run.run_id: run.combined.rejections for run in runs if run.combined.rejections}
    rejections = json.loads((out / "rejections.json").read_text())
    assert refused and sorted(rejections) == sorted(refused)
    for run_id, snapshots in rejections.items():
        # through JSON, as written: int keys become strings, tuples lists
        assert snapshots == json.loads(json.dumps([asdict(r) for r in refused[run_id]],
                                                  default=str))


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_outputs_table_names_what_a_sweep_writes(six_system_sweep):
    _, out = six_system_sweep
    section = README.read_text().split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert sorted(name.split("/")[0] for name in named) == sorted(p.name for p in out.iterdir())


def test_readme_layout_lists_every_module_where_it_lives():
    block = README.read_text().split("\n## Layout\n", 1)[1].split("```")[1]
    listed, folder = {}, None
    for line in block.splitlines():
        if line.endswith("/"):
            folder = line
        elif line.startswith("  ") and line[2] != " ":
            listed.setdefault(folder, []).append(line.split()[0])
    root = README.parent
    assert sorted(listed["src/odt_lab/"]) == sorted(
        p.name for p in (root / "src/odt_lab").glob("*.py"))
    for folder, names in listed.items():
        for name in names:  # test_*.py stands for the suites
            assert any((root / folder).glob(name)), folder + name


def test_skipped_crossings_warn_once(tmp_path, caplog):
    cfg = write_scenario(tmp_path, mutate=six_systems)

    def runs_alive() -> int:
        return sum(isinstance(o, RunOutput) for o in gc.get_objects())

    # The warning must not hold the skip's exception: its traceback would
    # keep every simulated run alive after the sweep returns.
    gc.collect()
    gc.disable()
    try:
        before = runs_alive()
        with caplog.at_level(logging.WARNING, logger="odt_lab"):
            assert run_cli(cfg, tmp_path / "out") == 0
        assert runs_alive() == before
    finally:
        gc.enable()
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1, warnings
    assert "17 system pairs" in warnings[0]


def test_negative_compensation_warns_once_per_sweep(tmp_path, caplog):
    # a 20 CAD fare beats every driver payout: three crowdsourced systems at
    # two levels, each costed at three surge levels, still give one warning
    def rich_fare(raw):
        raw.update(costs={"fare": 20}, systems=[
            {"type": "crowdsourced_exclusive"}, {"type": "crowdsourced_shared"},
            {"type": "crowdsourced_exclusive", "alpha": 0.5}])
        raw["analysis"]["surge_levels"] = [0, 20, 40]

    cfg = write_scenario(tmp_path, mutate=rich_fare)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="odt_lab"):
        assert run_cli(cfg, out) == 0
    warnings = [r.getMessage() for r in caplog.records if "compensation" in r.getMessage()]
    assert len(warnings) == 1, warnings
    assert warnings[0].startswith("per-trip compensation is negative in 6 runs, e.g. "
                                  "crowdsourced_exclusive_a1-L50 at -")
    costs = (out / "costs.csv").read_text().splitlines()[1:]
    assert len(costs) == 18 and all(float(row.split(",")[5]) < 0 for row in costs)


def test_baseline_exclusions_warn_once_per_sweep(tmp_path, caplog):
    # nothing can drive to node 25: the car baseline leaves out every trip
    # there, at each of three levels, and a fixed route needs no such trip
    requests = [RideRequest(i, 28800.0 + 600 * i, i, 25 if i % 2 else 24) for i in range(8)]
    sections = one_way_exit(tmp_path, requests)
    sections["demand"]["levels"] = [50, 100, 200]
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        sections, systems=[{"type": "frt"}], corridor={"stops": [0, 2, 4]}))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="odt_lab"):
        assert run_cli(cfg, out) == 0
    warnings = [r.getMessage() for r in caplog.records if "baseline" in r.getMessage()]
    assert len(warnings) == 1, warnings
    rows = [row.split(",") for row in (out / "emissions.csv").read_text().splitlines()
            if row.startswith("baseline-")]
    excluded = {int(row[2]): int(row[-1]) for row in rows if row[-1] != "0"}
    assert len(excluded) == 3
    assert warnings[0] == "baseline excludes %d unreachable requests in %s" % (
        sum(excluded.values()), ", ".join(f"L{lvl} ({n})" for lvl, n in excluded.items()))


def test_no_baseline_when_include_baseline_is_false(tmp_path, caplog):
    # the day above, whose baseline would warn, with the baseline left out
    requests = [RideRequest(i, 28800.0 + 600 * i, i, 25 if i % 2 else 24) for i in range(8)]
    sections = one_way_exit(tmp_path, requests)
    cfg = write_scenario(tmp_path, mutate=lambda raw: (raw.update(
        sections, systems=[{"type": "frt"}], corridor={"stops": [0, 2, 4]}),
        raw["analysis"].update(include_baseline=False)))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="odt_lab"):
        assert run_cli(cfg, out) == 0
    assert [r for r in caplog.records if "baseline" in r.getMessage()] == []
    emissions = (out / "emissions.csv").read_text().splitlines()
    assert len(emissions) > 1 and not any("private_baseline" in row for row in emissions)


def test_a_fixed_route_alone_needs_no_supply_section(tmp_path):
    # a diagonal corridor, whose catchment 50 trips a day reach
    def frt_only(raw):
        raw.update(systems=[{"type": "frt"}], corridor={**CORRIDOR, "stops": [0, 6, 12, 18, 24]})
        raw["demand"]["synthetic"]["count"] = 50
        del raw["supply"]

    cfg = write_scenario(tmp_path, mutate=frt_only)
    assert runner.build_base_supply(load_config(str(cfg)).config) is None
    out = tmp_path / "out"
    assert run_cli(cfg, out) == 0
    with open(out / "trips.csv", newline="") as fh:
        trips = list(csv.DictReader(fh))
    assert {t["run_id"] for t in trips} == {"frt_a1-L50", "frt_a1-L100"}
    assert any(t["served"] == "1" for t in trips)


def test_unconnected_network_warns_once_per_sweep(tmp_path, caplog):
    # a 5x5 grid plus node 25, which has a way out and no way in: node 25
    # is outside node 0's component, and no request or vehicle ever needs it
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    grid = generate_grid(5, 5, 500.0, 10.0)
    save_network(grid, str(nodes), str(edges))
    with open(nodes, "a") as fh:
        fh.write("25,-500,0,\n")
    with open(edges, "a") as fh:
        fh.write(f"{len(grid.edges)},25,0,500,10\n")
    requests = tmp_path / "requests.csv"
    save_requests([RideRequest(k, 28800.0 + 600.0 * k, k, 24 - k) for k in range(10)],
                  str(requests))

    def one_way_exit(raw):
        raw["network"] = {"files": {"nodes": str(nodes), "edges": str(edges)}}
        raw["demand"] = {"file": str(requests), "levels": [50, 100]}

    cfg = write_scenario(tmp_path, mutate=one_way_exit)
    with caplog.at_level(logging.WARNING, logger="odt_lab"):
        assert run_cli(cfg, tmp_path / "out") == 0
    assert [r.getMessage() for r in caplog.records if "strongly" in r.getMessage()] == [
        "network is not strongly connected: 1 of 26 nodes cannot both reach and be "
        "reached from node 0, e.g. node 25"]


def test_one_network_build_per_sweep(tmp_path, monkeypatch, caplog):
    # edge 0 is shorter than the straight line, so every build of the
    # network logs a warning; 2 systems x 2 levels must build it once,
    # read the supply file once and scale the base day once per level
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    save_network(generate_grid(5, 5, 500.0, 10.0), str(nodes), str(edges))
    lines = edges.read_text().splitlines()
    assert lines[1] == "0,0,1,500,10"
    edges.write_text("\n".join([lines[0], "0,0,1,400,10", *lines[2:]]) + "\n")
    supply = tmp_path / "supply.csv"
    supply.write_text("hour,vehicles\n" + "".join(f"{h},1\n" for h in range(24)))
    calls = {"build_network": [], "load_supply": [], "scale_demand": []}
    for name, seen in calls.items():
        monkeypatch.setattr(runner, name, lambda *args, fn=getattr(runner, name), seen=seen:
                            seen.append(args) or fn(*args))
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        network={"files": {"nodes": str(nodes), "edges": str(edges)}},
        supply={"file": str(supply)}))
    with caplog.at_level(logging.WARNING, logger="odt_lab"):
        assert run_cli(cfg, tmp_path / "out") == 0
    assert len(calls["build_network"]) == 1
    assert calls["load_supply"] == [(str(supply),)]
    assert [args[1] for args in calls["scale_demand"]] == [50, 100]
    assert len([r for r in caplog.records
                if "shorter than the straight-line" in r.getMessage()]) == 1


def test_short_edges_warn_once_per_sweep(tmp_path, caplog):
    # edges 0 and 1 are shorter than the straight line, read by 2 systems at
    # 2 equity levels; a zone share outside [0, 1] is refused, as below
    nodes, edges, zones = (tmp_path / f"{name}.csv" for name in ("nodes", "edges", "zones"))
    net = runner.build_network(load_config(str(write_scenario(tmp_path))).config)
    save_network(net, str(nodes), str(edges), str(zones))
    lines = edges.read_text().splitlines()
    assert lines[1:3] == ["0,0,1,500,10", "1,1,0,500,10"]
    edges.write_text("\n".join([lines[0], "0,0,1,400,10", "1,1,0,400,10", *lines[3:]]) + "\n")

    def files_and_two_equity_levels(raw):
        raw["network"] = {"files": {"nodes": str(nodes), "edges": str(edges),
                                    "zones": str(zones)}}
        raw["analysis"]["equity_levels"] = [50, 100]

    cfg = write_scenario(tmp_path, mutate=files_and_two_equity_levels)
    with caplog.at_level(logging.WARNING, logger="odt_lab"):
        assert run_cli(cfg, tmp_path / "out") == 0
    messages = [r.getMessage() for r in caplog.records]
    assert [m for m in messages if "straight-line" in m] == [
        "2 edge(s) are shorter than the straight-line distance between their endpoints; "
        "the first, edge 0, is 400.0 m against 500.0 m"]


def test_equity_skips_unzoned_trips_with_one_warning_per_sweep(tmp_path, caplog):
    # the 5x5 grid's 2x2 zones, with the first row of nodes in no zone:
    # 2 systems x 21 attribute-metric pairs at the one equity level
    nodes, edges, zones = (tmp_path / f"{name}.csv" for name in ("nodes", "edges", "zones"))
    net = runner.build_network(load_config(str(write_scenario(tmp_path))).config)
    save_network(net, str(nodes), str(edges), str(zones))
    lines = nodes.read_text().splitlines()
    unzoned = [line.rsplit(",", 1)[0] + "," for line in lines[1:6]]
    nodes.write_text("\n".join([lines[0], *unzoned, *lines[6:]]) + "\n")
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(network={
        "files": {"nodes": str(nodes), "edges": str(edges), "zones": str(zones)}}))
    with caplog.at_level(logging.WARNING, logger="odt_lab"):
        assert run_cli(cfg, tmp_path / "out") == 0
    warnings = [r.getMessage() for r in caplog.records if "outside any zone" in r.getMessage()]
    assert len(warnings) == 1, warnings
    assert re.fullmatch(r"equity analysis skipped \d+ served trips outside any zone in "
                        r"crowdsourced_exclusive_a1-L100 \(\d+\), dedicated_darp_a1-L100 \(\d+\)",
                        warnings[0]), warnings[0]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verbose_logs_one_line_per_run_in_spec_order(tmp_path, caplog, jobs):
    cfg = write_scenario(tmp_path)
    with caplog.at_level(logging.INFO, logger="odt_lab"):
        assert run_cli(cfg, tmp_path / "out", "--jobs", jobs) == 0
    lines = [r.getMessage() for r in caplog.records
             if r.name == "odt_lab.runner" and r.levelno == logging.INFO]
    assert [line.split(":")[0] for line in lines] == [
        "crowdsourced_exclusive_a1-L50", "crowdsourced_exclusive_a1-L100",
        "dedicated_darp_a1-L50", "dedicated_darp_a1-L100"]
    assert all(re.fullmatch(r"\S+: served \d+/(12|24) in \d+\.\d\d s", line)
               for line in lines), lines


def test_jobs_are_capped_at_the_number_of_runs(tmp_path, monkeypatch):
    # a pool starts every worker at its first submit, so --jobs 64 for four
    # runs would start 64 processes; the fake pool runs tasks in this process
    workers, submitted = [], []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args[0])
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(runner, "ProcessPoolExecutor", InProcessPool)
    cfg = parse_config(json.loads(json.dumps(BASE))).config
    summary = runner.execute(cfg, out_dir=str(tmp_path / "out"), jobs=64)
    assert workers == [4] and len(summary["runs"]) == 4
    # the larger level's day goes first, each system in spec order; the runs
    # come back in (system, level) order
    assert submitted == [(0, 100), (1, 100), (0, 50), (1, 50)]
    assert summary["runs"] == [f"{s.name}-L{lvl}" for s in cfg.systems for lvl in (50, 100)]


def test_run_level_subset(tmp_path):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out50"
    assert run_cli(cfg, out, "--level", "50") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["levels"] == [50]
    costs = (out / "costs.csv").read_text().splitlines()
    assert all("-L100" not in line for line in costs)
    assert run_cli(cfg, tmp_path / "oops", "--level", "75") == 3


def test_seed_flag_beats_env_beats_config(tmp_path, monkeypatch, capsys):
    cfg = write_scenario(tmp_path)

    def seed_of(out, *extra):
        assert run_cli(cfg, out, *extra) == 0
        return json.loads((out / "manifest.json").read_text())["seed"]

    assert seed_of(tmp_path / "o1") == 5
    monkeypatch.setenv("ODT_LAB_SEED", "11")
    assert seed_of(tmp_path / "o2") == 11
    assert seed_of(tmp_path / "o3", "--seed", "12") == 12
    monkeypatch.setenv("ODT_LAB_SEED", "pi")
    capsys.readouterr()
    for argv in (["run", str(cfg), "--out", str(tmp_path / "o4"), "-q"], ["validate", str(cfg)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ODT_LAB_SEED must be an integer, got 'pi'", "1 problem(s) found"]
    assert not (tmp_path / "o4").exists()


def test_run_refuses_to_clobber_foreign_dir(tmp_path, capsys, monkeypatch):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "precious"
    out.mkdir()
    (out / "thesis.txt").write_text("irreplaceable")
    runs = []
    real_run_one = runner.run_one
    monkeypatch.setattr(runner, "run_one", lambda *args: runs.append(args))
    assert run_cli(cfg, out) == 3
    assert (out / "thesis.txt").read_text() == "irreplaceable"
    assert "error:" in capsys.readouterr().err
    # a file named manifest.json does not make a directory a run's outputs
    app = tmp_path / "webapp"
    (app / "src").mkdir(parents=True)
    (app / "manifest.json").write_text('{"name": "my extension"}')
    (app / "src" / "app.js").write_text("main();")
    assert run_cli(cfg, app) == 3
    assert (app / "src" / "app.js").read_text() == "main();"
    assert f"error: output dir '{app}' holds files that no run wrote" in capsys.readouterr().err
    # nor is a stage beside out whose files no run wrote replaced
    stage = tmp_path / "data.stage"
    stage.mkdir()
    (stage / "notes.txt").write_text("mine")
    assert run_cli(cfg, tmp_path / "data") == 3
    assert f"error: staging dir '{stage}' holds files that no run wrote" in \
        capsys.readouterr().err
    assert (stage / "notes.txt").read_text() == "mine"
    assert runs == [] and not (tmp_path / "data").exists()
    # a directory we produced ourselves is safely replaced
    monkeypatch.setattr(runner, "run_one", real_run_one)
    ok = tmp_path / "mine"
    assert run_cli(cfg, ok) == 0
    assert run_cli(cfg, ok) == 0


def test_run_rerun_over_own_output_stays_consistent(tmp_path):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert run_cli(cfg, out) == 0
    first = sha256(out / "trips.csv")
    assert run_cli(cfg, out) == 0
    assert sha256(out / "trips.csv") == first
    assert not (tmp_path / "out.stage").exists()


def test_run_into_the_results_directory_it_is_started_from(tmp_path, monkeypatch):
    # the stage of "--out ." is a sibling of the directory, not inside it
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert run_cli(cfg, out) == 0
    first = json.loads((out / "manifest.json").read_text())["files"]
    monkeypatch.chdir(out)
    assert main(["run", str(cfg), "--out", ".", "-q"]) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == first
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == {
        *files, "manifest.json"}
    for rel, digest in files.items():
        assert sha256(out / rel) == digest, rel
    assert not (tmp_path / "out.stage").exists()


def test_a_failed_publish_keeps_the_previous_outputs_and_a_stale_stage_is_replaced(
        tmp_path, capsys, monkeypatch):
    cfg = write_scenario(tmp_path)
    out, stage = tmp_path / "out", tmp_path / "out.stage"

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert run_cli(cfg, out) == 0
    first = tree(out)
    written = []

    def write_csv(path, header, rows, real=runner._write_csv):
        written.append(path)
        if len(written) == 2:
            raise OSError("disk full")
        real(path, header, rows)

    monkeypatch.setattr(runner, "_write_csv", write_csv)
    assert run_cli(cfg, out) == 3
    assert "error: disk full" in capsys.readouterr().err
    assert len(written) == 2
    assert tree(out) == first
    assert not stage.exists()

    monkeypatch.undo()
    # a stage holding anything but a run's outputs is refused and kept
    (stage / "lorenz").mkdir(parents=True)
    (stage / "lorenz" / "junk.csv").write_text("junk")
    (stage / "manifest.json").write_text("{}")
    assert run_cli(cfg, out) == 3
    assert f"error: staging dir '{stage}' holds files that no run wrote" in \
        capsys.readouterr().err
    assert tree(stage) == {Path("lorenz/junk.csv"): b"junk", Path("manifest.json"): b"{}"}
    assert tree(out) == first
    # a complete stale results tree is replaced
    shutil.rmtree(stage)
    shutil.copytree(out, stage)
    assert run_cli(cfg, out) == 0
    assert tree(out) == first
    assert not stage.exists()


# -- CLI: report ------------------------------------------------------------------------


def test_report_round_trip(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert run_cli(cfg, out) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "scenario: town" in text
    assert "generalized cost" in text
    assert "crowdsourced_exclusive_a1" in text
    assert "emissions" in text

    assert main(["report", str(out), "--show-params"]) == 0
    with_params = capsys.readouterr().out
    assert len(with_params) > len(text)

    assert main(["report", str(tmp_path / "missing")]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("manifest, problem", [
    ("{}", "no key 'files' holding a mapping"),
    ("[1]", "not a JSON mapping"),
    ('{"files": {}, "seed": 5}', "no key 'scenario'"),
], ids=["empty", "list", "no-scenario"])
def test_report_names_what_a_manifest_lacks(tmp_path, capsys, manifest, problem):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(manifest)
    assert main(["report", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out / 'manifest.json'}: {problem}"]


def test_report_names_a_missing_column_and_its_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(write_scenario(tmp_path), out) == 0
    gc_curve = out / "gc_curve.csv"
    rows = gc_curve.read_text().splitlines(keepends=True)
    gc_curve.write_text("".join(["system,demand_level_pct\n", *rows[1:]]))
    assert main(["report", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {gc_curve}: no column 'demand_density'"]


def test_manifest_records_every_cost_and_emission_value_and_show_params_prints_them(
        tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        costs={"fare": 4.5}, emissions={"grid_g_per_kwh": 30}))
    assert run_cli(cfg, out) == 0
    recorded = json.loads((out / "manifest.json").read_text())["config"]
    # a Decimal is written as its digits
    assert recorded["costs"] == {**{name: str(value)
                                    for name, value in asdict(CostParameters()).items()},
                                 "fare": "4.5"}
    assert recorded["emissions"] == {**asdict(EmissionFactors()), "grid_g_per_kwh": 30}
    capsys.readouterr()
    assert main(["report", str(out), "--show-params"]) == 0
    text = capsys.readouterr().out
    assert text.split("resolved parameters\n")[1].splitlines() == [
        f"  {section}.{name} = {value}" for section in ("costs", "emissions", "analysis")
        for name, value in sorted(recorded[section].items())]
    assert "  costs.fare = 4.5\n" in text and "  costs.vehicle_price = 41050\n" in text
    assert "  emissions.grid_g_per_kwh = 30\n" in text


@pytest.mark.parametrize("key", ["config", "costs", "emissions", "analysis"])
def test_report_show_params_names_a_config_part_that_is_not_a_mapping(tmp_path, capsys, key):
    out = tmp_path / "out"
    assert run_cli(write_scenario(tmp_path), out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    if key == "config":
        manifest["config"] = [1]
    else:
        manifest["config"][key] = [1]
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["report", str(out), "--show-params"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out / 'manifest.json'}: key '{key}' does not hold a mapping"]


def test_run_summary_lists_runs(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert f"wrote {out}" in text
    assert "crowdsourced_exclusive_a1-L50: served" in text
