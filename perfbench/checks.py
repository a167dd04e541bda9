"""Correctness checks on one finished sweep's output directory.

Each check names the (system, level) runs it failed, so a broken run counts
once in the benchmark's `failed` total however many checks it breaks. A
problem in a file shared by every run fails all of them.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

HORIZON = "waiting_at_horizon"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def files_digest(files: dict[str, str]) -> str:
    """Digest of a manifest's `files` map: equal maps give equal digests."""
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def expected_demand(scenario: dict, system_names: list[str],
                    levels: list[int] | None = None) -> dict[str, int]:
    """Requests each run must account for: the base count scaled half-up.

    `levels` are the levels swept, by default every configured one.
    """
    count = scenario["demand"]["synthetic"]["count"]
    return {f"{name}-L{lvl}": (count * lvl * 2 + 100) // 200
            for name in system_names for lvl in levels or scenario["demand"]["levels"]}


def _read_trips(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: Path, summary: dict, expected: dict[str, int]) -> tuple[set[str], list[str]]:
    """Check a sweep's output tree; returns (failed run ids, problems).

    - every manifest checksum matches its file, and no file is unlisted;
    - per run, served + rejected + waiting equals the run's demand, and the
      runner's own served and demand totals agree with trips.csv;
    - the merged trips.csv holds exactly one row per simulated request.
    """
    everyone = set(expected)
    failed: set[str] = set()
    problems: list[str] = []

    def fail(runs, message):
        failed.update(runs)
        problems.append(message)

    if sorted(summary["runs"]) != sorted(expected):
        fail(everyone, f"runs {sorted(summary['runs'])} != expected {sorted(expected)}")

    files = json.loads((out / "manifest.json").read_text())["files"]
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    for rel in sorted(on_disk ^ (set(files) | {"manifest.json"})):
        fail(_owners(rel, everyone), f"{rel}: on disk and in the manifest disagree")
    for rel, digest in sorted(files.items()):
        if rel in on_disk and sha256_file(out / rel) != digest:
            fail(_owners(rel, everyone), f"{rel}: checksum does not match the manifest")

    merged = Counter()
    for row in _read_trips(out / "trips.csv"):
        merged[row["run_id"], row["request_id"]] += 1
    per_run = Counter(run_id for run_id, _req in merged)
    if any(n != 1 for n in merged.values()):
        fail(everyone, "trips.csv repeats a (run, request) row")

    for run_id, demand_total in sorted(expected.items()):
        path = out / "runs" / run_id / "trips.csv"
        if not path.is_file():
            fail({run_id}, f"{run_id}: no trips.csv")
            continue
        rows = _read_trips(path)
        served = sum(r["served"] == "1" for r in rows)
        waiting = sum(r["served"] == "0" and r["reject_reason"] == HORIZON for r in rows)
        rejected = sum(r["served"] == "0" and r["reject_reason"] != HORIZON for r in rows)
        if served + rejected + waiting != demand_total:
            fail({run_id}, f"{run_id}: served {served} + rejected {rejected} + waiting "
                           f"{waiting} != demand {demand_total}")
        if summary["demand"].get(run_id) != demand_total \
                or summary["served"].get(run_id) != served:
            fail({run_id}, f"{run_id}: runner totals disagree with trips.csv")
        if per_run[run_id] != demand_total:
            fail({run_id}, f"{run_id}: {per_run[run_id]} rows in trips.csv "
                           f"for {demand_total} requests")
    return failed, problems


def _owners(rel: str, everyone: set[str]) -> set[str]:
    """Runs a file belongs to: its own run for runs/<id>/..., else all."""
    parts = rel.split("/")
    if len(parts) > 2 and parts[0] == "runs" and parts[1] in everyone:
        return {parts[1]}
    return everyone
