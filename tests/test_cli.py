"""Config parsing, the run pipeline, and CLI exit behavior, end to end.

Scenarios here stay tiny (a 5x5 town, two dozen requests) so the full
run -> files -> report loop is fast enough to exercise repeatedly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
from pathlib import Path

import pytest
import yaml

from odt_lab.cli import main
from odt_lab.config import load_config, parse_config
from odt_lab.runner import RunOutput

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


# -- config parsing -------------------------------------------------------------


def test_parse_defaults_and_names():
    report = parse_config(json.loads(json.dumps(BASE)))
    assert report.ok, report.errors
    cfg = report.config
    assert [s.name for s in cfg.systems] == ["crowdsourced_exclusive_a1",
                                             "dedicated_darp_a1"]
    assert cfg.seed == 5
    assert cfg.demand.levels == [50, 100]


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
                          ("analysis", [0, 20]), ("corridor", [10, 12, 14])]:
        raw = json.loads(json.dumps(BASE))
        raw[section] = junk
        report = parse_config(raw)
        assert not report.ok
        assert any(section in e and "mapping" in e for e in report.errors)


def test_parse_warns_on_unknown_keys():
    raw = json.loads(json.dumps(BASE))
    raw["typo_key"] = 1
    raw["systems"][0]["seats"] = 4
    report = parse_config(raw)
    assert report.ok
    assert any("typo_key" in w for w in report.warnings)
    assert any("seats" in w for w in report.warnings)


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


def test_load_config_missing_and_invalid(tmp_path):
    report = load_config(str(tmp_path / "none.yaml"))
    assert not report.ok and "not found" in report.errors[0]
    bad = tmp_path / "bad.yaml"
    bad.write_text("systems: [unclosed\n")
    report = load_config(str(bad))
    assert not report.ok and "YAML" in report.errors[0]


def test_load_config_names_after_file(tmp_path):
    raw = json.loads(json.dumps(BASE))
    del raw["name"]
    path = tmp_path / "riverside.yaml"
    path.write_text(yaml.safe_dump(raw))
    report = load_config(str(path))
    assert report.ok and report.config.name == "riverside"


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


def test_validate_rejects_cost_surge_levels(tmp_path, capsys):
    # surge levels are an analysis setting; under costs they were never read
    cfg = write_scenario(tmp_path, mutate=lambda raw: raw.update(
        costs={"surge_levels": [0, 20]}))
    assert main(["validate", str(cfg)]) == 2
    assert "surge_levels" in capsys.readouterr().err


# -- CLI: run and outputs ---------------------------------------------------------------


EXPECTED_FILES = ["trips.csv", "fleet.csv", "costs.csv", "gc_curve.csv",
                  "switching_points.csv", "emissions.csv", "gini.csv"]


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
    # per-run directories carry their own canonical records
    for system in manifest["systems"]:
        for level in (50, 100):
            run_dir = out / "runs" / f"{system}-L{level}"
            assert (run_dir / "trips.csv").exists()
            assert (run_dir / "fleet.csv").exists()


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


def test_six_system_outputs_match_golden(tmp_path):
    # Checksums of every output file of the six system types. A refactor
    # must leave them as they are; only a deliberate change of output may
    # regenerate golden_six_systems.json.
    cfg = write_scenario(tmp_path, mutate=six_systems)
    out = tmp_path / "out"
    assert run_cli(cfg, out) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    golden = json.loads(GOLDEN.read_text())
    assert sorted(files) == sorted(golden)
    assert [rel for rel in sorted(golden) if files[rel] != golden[rel]] == []


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


def test_run_level_subset(tmp_path):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out50"
    assert run_cli(cfg, out, "--level", "50") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["levels"] == [50]
    costs = (out / "costs.csv").read_text().splitlines()
    assert all("-L100" not in line for line in costs)
    assert run_cli(cfg, tmp_path / "oops", "--level", "75") == 3


def test_seed_flag_beats_env_beats_config(tmp_path, monkeypatch):
    cfg = write_scenario(tmp_path)

    def seed_of(out, *extra):
        assert run_cli(cfg, out, *extra) == 0
        return json.loads((out / "manifest.json").read_text())["seed"]

    assert seed_of(tmp_path / "o1") == 5
    monkeypatch.setenv("ODT_LAB_SEED", "11")
    assert seed_of(tmp_path / "o2") == 11
    assert seed_of(tmp_path / "o3", "--seed", "12") == 12
    monkeypatch.setenv("ODT_LAB_SEED", "pi")
    with pytest.raises(SystemExit):
        run_cli(cfg, tmp_path / "o4")


def test_run_refuses_to_clobber_foreign_dir(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "precious"
    out.mkdir()
    (out / "thesis.txt").write_text("irreplaceable")
    assert run_cli(cfg, out) == 3
    assert (out / "thesis.txt").read_text() == "irreplaceable"
    assert "error:" in capsys.readouterr().err
    # a directory we produced ourselves is safely replaced
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


def test_run_summary_lists_runs(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert f"wrote {out}" in text
    assert "crowdsourced_exclusive_a1-L50: served" in text
