"""The paper scenario, scenarios/paper.yaml: the structure of the abstract's
findings on a cut of its sweep, a sweep's three steps (simulate, tables,
publish), and the report of a finished sweep.

The cut keeps three demand levels, crowdsourced exclusive and hybrid_frt,
surge 0 and 50 % and one equity level, so each seed sweeps in about 0.1 s.
The tests check the findings' shape (a crossing, its direction under
surge, the electrification and car-baseline bounds, equity rows present),
not their numbers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, replace
from pathlib import Path

import pytest
import yaml

from odt_lab import runner
from odt_lab.config import parse_config

from test_cli import BASE

PAPER = Path(__file__).parents[1] / "scenarios" / "paper.yaml"


def paper_config(seed: int = 1):
    """scenarios/paper.yaml at the given seed, cut to levels 150, 300 and
    450 %, crowdsourced exclusive and hybrid_frt, surge 0 and 50 % and
    equity at 150 %."""
    raw = yaml.safe_load(PAPER.read_text())
    raw["seed"] = seed
    raw["demand"]["levels"] = [150, 300, 450]
    raw["systems"] = [{"type": "crowdsourced_exclusive"}, {"type": "hybrid_frt"}]
    raw["analysis"].update(surge_levels=[0, 50], equity_levels=[150])
    report = parse_config(raw)
    assert report.ok, report.errors
    return report.config


def test_the_paper_scenario_validates_as_committed():
    report = parse_config(yaml.safe_load(PAPER.read_text()))
    assert report.ok and not report.warnings, (report.errors, report.warnings)
    cfg = report.config
    assert sorted(s.type for s in cfg.systems) == sorted(
        ["crowdsourced_exclusive", "crowdsourced_shared", "dedicated_darp", "frt",
         "hybrid_frt", "hybrid_odt"])
    assert cfg.corridor.stops == list(range(40, 80, 2))  # the middle row's even nodes


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_findings_hold_their_shape_on_the_paper_scenario(seed):
    cfg = paper_config(seed)
    files = runner.tables(cfg, *runner.simulate(cfg))
    crowd, hybrid = (s.name for s in cfg.systems)

    # generalized cost by (curve, density), and crossings by curve pair
    gc = {(row[0], float(row[2])): float(row[3]) for row in files["gc_curve.csv"][1]}
    assert all(row[6] == "" for row in files["gc_curve.csv"][1])  # no point flagged

    def crossings(a: str, b: str) -> list[tuple[float, float, float]]:
        return [tuple(map(float, row[2:])) for row in files["switching_points.csv"][1]
                if row[:2] == [a, b]]

    # crowdsourced is cheaper below a density and the corridor hybrid above it
    (density, lo, hi), *_ = crossings(crowd, hybrid)
    assert lo < density < hi
    below, above = (gc[crowd, d] - gc[hybrid, d] for d in (lo, hi))
    assert below < 0 < above
    assert density == pytest.approx(lo + (hi - lo) * below / (below - above), abs=1e-5)

    # 50 % surge pay for the crowd's drivers moves the crossing down
    (surged, _, _), *_ = crossings(f"{crowd}+s50", f"{hybrid}+s50")
    assert surged < density

    ghg = {(row[0], row[3]): float(row[4]) for row in files["emissions.csv"][1]}
    runs = [f"{s.name}-L{lvl}" for s in cfg.systems for lvl in cfg.demand.levels]
    # full electrification cuts every run's yearly GHG by more than 98 %
    assert all(ghg[run, "1.0"] < 0.02 * ghg[run, "0.0"] for run in runs)
    # at the lowest level, the car baseline emits less than every system
    assert all(ghg["baseline-L150", "0.0"] < ghg[f"{s.name}-L150", "0.0"]
               for s in cfg.systems)

    metrics = {(row[0], row[3]) for row in files["gini.csv"][1]}
    assert {(s.name, m) for s in cfg.systems for m in ("wait", "ivtt")} <= metrics


def test_surge_zero_is_costed_and_crossed_whatever_the_surge_levels():
    cfg = paper_config()
    net, days, runs = runner.simulate(cfg)

    def surge_zero(levels: list[int]) -> dict:
        analysis = replace(cfg.analysis, surge_levels=levels)
        files = runner.tables(replace(cfg, analysis=analysis), net, days, runs)
        return {name: [row for row in files[name][1] if "+s" not in f"{row[0]} {row[1]}"]
                for name in ("gc_curve.csv", "switching_points.csv")}

    listed = surge_zero([0, 50])
    assert listed["switching_points.csv"]
    assert surge_zero([50]) == listed
    assert surge_zero([]) == listed


def test_one_simulation_gives_the_tables_at_two_values_of_time(monkeypatch):
    cfg = paper_config()
    calls = []
    run_one = runner.run_one

    def counted(net, cfg, system, level, *args):
        calls.append((system.name, level))
        return run_one(net, cfg, system, level, *args)

    monkeypatch.setattr(runner, "run_one", counted)
    net, days, runs = runner.simulate(cfg)
    at = {vot: runner.tables(replace(cfg, analysis=replace(cfg.analysis, vot=vot)),
                             net, days, runs)
          for vot in (10.0, 20.0)}
    assert sorted(calls) == sorted((s.name, lvl) for s in cfg.systems
                                   for lvl in cfg.demand.levels)
    assert list(days) == cfg.demand.levels
    assert [r.run_id for r in runs] == [f"{s.name}-L{lvl}" for s in cfg.systems
                                        for lvl in cfg.demand.levels]
    low, high = at[10.0], at[20.0]
    assert low["trips.csv"] == high["trips.csv"]
    assert low["costs.csv"] == high["costs.csv"]
    gc_low, gc_high = low["gc_curve.csv"][1], high["gc_curve.csv"][1]
    assert [row[:3] for row in gc_low] == [row[:3] for row in gc_high]
    assert all(a[3] != b[3] for a, b in zip(gc_low, gc_high))


# sha256 of each run's trip and fleet logs, every float as repr prints it
FIXED_ROUTE_SHA256 = {
    "frt_a1-L150": "376fa2c2d7c4e491cd052657a2603bd51ef58eb9e00f96a746b188100c8a82c1",
    "frt_a1-L450": "eb3a396337792a09a2da2dbe01a779a985ae82b51c3b61b97c75742b18cd61a1",
    "hybrid_frt_a1-L150": "59e4d1098490259e3e74a20cf8a74c48149fc884fbb02d9f8799c5adec5f4404",
    "hybrid_frt_a1-L450": "67d5735d7e5d205ab60c0974e996a13db118374d98e85d049ea8e9ef1c9a4be4",
}


def run_digests(systems: list[dict]) -> dict[str, str]:
    """The paper scenario's given systems at 150 and 450 %: each run's id
    and the sha256 of its trip and fleet rows."""
    raw = yaml.safe_load(PAPER.read_text())
    raw["systems"] = systems
    _net, _days, runs = runner.simulate(parse_config(raw).config, [150, 450])
    digests = {}
    for run in runs:
        rows = [astuple(t) for t in run.combined.trips] + [astuple(v) for v in run.combined.fleet]
        digests[run.run_id] = hashlib.sha256(repr(rows).encode()).hexdigest()
    return digests


def test_fixed_route_days_of_the_paper_scenario_are_pinned():
    """frt and hybrid_frt at 150 and 450 %, whose riders board the corridor:
    1,144 boardings, 60 of which pass over a run full on a leg ridden."""
    assert run_digests([{"type": "frt"}, {"type": "hybrid_frt"}]) == FIXED_ROUTE_SHA256


# the same digests of the dial-a-ride runs, whose insertion search keeps
# each vehicle's plan tables as it drives and serves stops
DIAL_A_RIDE_SHA256 = {
    "dedicated_darp_a0.5-L150": "6a344ec4f65091c00789377d122353e01d2fc2f807502aae7c8bf33e07e8dd33",
    "dedicated_darp_a0.5-L450": "03c8ae00bf5ade256973a81542aa72a9962200b58f1def222c64612ac9f99034",
    "hybrid_odt_a1-L150": "7a8d586527c265ee0ab18fd3ed7ff58aaa4c4500dc45af2ae4ce831394b77207",
    "hybrid_odt_a1-L450": "9db07bdb4c58b52bc9d3c12fe0fe25836bf5bef073bdea07f2b81c43ef0c551e",
}


def test_dial_a_ride_days_of_the_paper_scenario_are_pinned():
    """dedicated_darp (alpha 0.5) and hybrid_odt at 150 and 450 %: the long
    door-to-door plans of the paper's dedicated fleets."""
    systems = [{"type": "dedicated_darp", "alpha": 0.5}, {"type": "hybrid_odt"}]
    assert run_digests(systems) == DIAL_A_RIDE_SHA256


# sha256 of `odt-lab report` and `report --show-params` on two sweeps: the
# paper cut at seed 1, which crosses, and the CLI tests' town, which does not
REPORT_SHA256 = {
    ("paper", False): "3f7b19f7b52b5aca255f833b92dadea2edcb505f3f32584f6b555da32a08d73b",
    ("paper", True): "0431ac77be4190cdd7eb8a11e935da557c0692927cff967693f3d97a81c42be0",
    ("town", False): "4fe7a96b12986d5122760fb3784aafd57ff809d047b6fed307fcf6bd7913f6ad",
    ("town", True): "7e917aaa96f915854980699bdbc7eef3302a6d97608f9fbcf8b2ffea104d77fe",
}


def test_report_text_is_pinned_with_and_without_crossings(tmp_path):
    town = parse_config(json.loads(json.dumps(BASE))).config
    texts = {}
    for name, cfg in (("paper", paper_config()), ("town", town)):
        runner.execute(cfg, str(tmp_path / name))
        for show_params in (False, True):
            texts[name, show_params] = runner.render_report(str(tmp_path / name),
                                                            show_params)
    assert "cost crossings (requests/day/km^2)" in texts["paper", False]
    assert "cost crossings: none found" in texts["town", False]
    digests = {key: hashlib.sha256(text.encode()).hexdigest()
               for key, text in texts.items()}
    assert [key for key in REPORT_SHA256 if digests[key] != REPORT_SHA256[key]] == []
