"""The benchmark's own tests, on shrunken workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from checks import check_sweep, expected_demand, files_digest, sha256_file  # noqa: E402
from run import Bench, Sweep, check_repeats  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from odt_lab import dispatch, runner  # noqa: E402
from odt_lab.network import Network  # noqa: E402


def tiny(name: str, seed: int = 3) -> dict:
    """A workload's scenario with a small base day and two levels."""
    raw = workloads.scenario(name, seed)
    raw["demand"]["synthetic"]["count"] = 12
    raw["demand"]["levels"] = [50, 150]
    raw["analysis"]["equity_levels"] = [50, 150]
    return raw


def sweep_into(tmp_path: Path, raw: dict):
    """Run one sweep and keep its output; returns (out dir, summary, expected)."""
    with Bench(tmp_path) as bench:
        cfg = bench.config.load_config(str(bench.scenario_path(raw))).config
        out = tmp_path / "out"
        summary = runner.execute(cfg, out_dir=str(out))
    return out, summary, expected_demand(raw, [s.name for s in cfg.systems])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_sweeps_and_passes_its_checks(tmp_path, name):
    with Bench(tmp_path) as bench:
        first = bench.sweep(tiny(name))
        again = bench.sweep(tiny(name))
    assert first.wall_s is not None and first.problems == []
    assert first.failed == set()
    assert len(first.run_ids) == 2 * len(tiny(name)["systems"])
    assert first.digest == again.digest
    check_repeats([first, again])
    assert again.failed == set()


def test_timed_runs_repeat_the_readme_town_day_and_the_seeds_own_metro_day():
    assert workloads.timed_seed("town", 5) == workloads.DEFAULT_SEEDS["town"]
    assert workloads.timed_seed("metro", 5) == 5


def test_fastest_sums_each_steps_fastest_repeat_and_the_fastest_rest():
    from steps import fastest

    slow_a = (5.0, [("a", 2.0), ("b", 1.0)])  # rest 2.0
    slow_b = (4.5, [("a", 1.0), ("b", 3.0)])  # rest 0.5
    assert fastest([slow_a, slow_b]) == pytest.approx(1.0 + 1.0 + 0.5)
    with pytest.raises(ValueError):
        fastest([slow_a, (3.0, [("b", 1.0), ("a", 1.0)])])


def test_step_timing_leaves_outputs_unchanged_and_restores_the_api(tmp_path):
    from steps import StepTimer

    originals = (runner.run_scenario, runner.build_network, dispatch.darp_insert)
    raw = tiny("town")
    with Bench(tmp_path) as bench:
        plain = bench.sweep(raw)
        timer = StepTimer()
        timed = bench.sweep(raw, timer)
    assert timed.digest == plain.digest and timed.failed == set()
    assert (runner.run_scenario, runner.build_network, dispatch.darp_insert) == originals
    assert timer.missing == []
    names = [name for name, _ in timed.steps]
    assert {"runner.execute", "engine.run_scenario", "dispatch.darp_insert"} <= set(names)
    assert "dispatch.trace_plan" not in names
    assert all(secs >= 0 for _, secs in timed.steps)
    assert sum(secs for _, secs in timed.steps) <= timed.wall_s


def test_a_corrupted_run_file_fails_that_run(tmp_path):
    out, summary, expected = sweep_into(tmp_path, tiny("town"))
    assert check_sweep(out, summary, expected) == (set(), [])
    victim = sorted(expected)[0]
    path = out / "runs" / victim / "trips.csv"
    path.write_bytes(path.read_bytes() + b"\n")
    failed, problems = check_sweep(out, summary, expected)
    assert failed == {victim}
    assert any("checksum" in p for p in problems)


def test_a_dropped_trip_row_is_caught_even_with_a_matching_manifest(tmp_path):
    out, summary, expected = sweep_into(tmp_path, tiny("metro"))
    manifest = json.loads((out / "manifest.json").read_text())
    victim = sorted(expected)[-1]
    rel = f"runs/{victim}/trips.csv"
    lines = (out / rel).read_text().splitlines(keepends=True)
    (out / rel).write_text("".join(lines[:-1]))
    manifest["files"][rel] = sha256_file(out / rel)
    (out / "manifest.json").write_text(json.dumps(manifest))
    failed, problems = check_sweep(out, summary, expected)
    assert failed == {victim}
    assert any("!= demand" in p for p in problems)


def test_a_corrupted_shared_file_fails_every_run(tmp_path):
    out, summary, expected = sweep_into(tmp_path, tiny("metro"))
    (out / "costs.csv").write_text("tampered\n")
    failed, _ = check_sweep(out, summary, expected)
    assert failed == set(expected)


def test_a_changed_repeat_fails_its_runs():
    first = Sweep(1, ["x-L50"], digest=files_digest({"a": "1"}))
    second = Sweep(1, ["x-L50"], digest=files_digest({"a": "2"}))
    other_seed = Sweep(2, ["x-L50"], digest=files_digest({"a": "3"}))
    check_repeats([first, second, other_seed])
    assert first.failed == set() and other_seed.failed == set()
    assert second.failed == {"x-L50"}


def test_tracing_leaves_outputs_unchanged_and_restores_the_api(tmp_path):
    originals = (runner.execute, runner.run_scenario, dispatch.trace_plan,
                 Network.next_edge, Network._distances_to)
    raw = tiny("town")
    with Bench(tmp_path) as bench:
        plain = bench.sweep(raw)
        tracer = Tracer()
        traced = bench.sweep(raw, tracer)
    assert traced.digest == plain.digest and traced.failed == set()
    assert (runner.execute, runner.run_scenario, dispatch.trace_plan,
            Network.next_edge, Network._distances_to) == originals
    assert tracer.missing == []
    m = layer_metrics(tracer)
    assert m["engine.runs"] == len(plain.run_ids) and m["network.builds"] >= 1
    assert m["dispatch.trace_plan_calls"] > 0 and m["network.next_edge_calls"] > 0
    assert 0 < m["engine.self_s"] < m["engine.run_scenario_s"]
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["runner.execute"]
    assert {s[4] for s in tracer.spans if s[0] == "engine.run_scenario"} == set(plain.run_ids)


def test_a_raising_sweep_still_reports_its_failed_runs(monkeypatch, capsys):
    import run

    def broken(cfg, out_dir, levels=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "execute", broken)
    assert run.main(["--workload", "town", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] == 3 * len(workloads.TIMED_LEVELS)
