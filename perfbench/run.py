"""Sweep benchmark for odt-lab: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload town --seed 9 --seconds 60 --trace 0

Drives the public API in one process, serially: `config.load_config` on a
generated scenario, then `runner.execute` over every system and level
swept, each sweep into a fresh directory. Runs are closed-loop: the next
sweep starts when the previous one has finished and been checked.

--trace 0 sweeps the workload's timed scenario (`workloads.timed_seed`) at
the levels `workloads.TIMED_LEVELS` again and again for about --seconds,
with a slice of set-ups after each sweep, and reports the end-to-end
metrics: sweep_s and setup_s are the program's own wall times at their
fastest, each step's fastest repeat summed (see steps.py). --trace 1 sweeps
the run seed's scenario over every level once untraced and once traced, and
reports the per-layer metrics. Either way the last stdout line is
{"correct", "attempted", "failed", "metrics"}; `attempted` and `failed`
count (system, level) runs, where a run fails when its sweep raised or one
of its output checks failed. The line before it records provenance, every
sweep's whole wall time and its output digest, so two commits can be
compared. The work directory .bench_work/ is removed before exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
from checks import check_sweep, expected_demand, files_digest, sha256_file  # noqa: E402

# trips.csv of the README quick-start scenario, seed included
README_TOWN = workloads.scenario("town", workloads.DEFAULT_SEEDS["town"])
TOWN_TRIPS_SHA256 = "ae10d1cd92bed5d5adc7d999d0ea3e63f6c5988af837ee5b9b01e5f32c4c0817"
# Seconds of set-ups repeated after each timed sweep (at least one set-up).
SETUP_SLICE_S = 0.3


class WarningCounter(logging.Handler):
    """Counts odt_lab warnings, which are kept off stderr while attached."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@dataclass
class Sweep:
    """One checked sweep of one scenario seed."""

    seed: int
    run_ids: list[str]
    requests: int = 0  # simulated requests over all runs
    wall_s: float | None = None
    steps: list[tuple[str, float]] | None = None  # from a StepTimer, if one ran
    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    trips_sha256: str | None = None
    files: int = 0
    bytes: int = 0
    warnings: int = 0


class Bench:
    """Sweeps scenarios through the public API inside one work directory.

    Use as a context manager: while open it captures odt_lab's warnings.
    """

    def __init__(self, work: Path):
        from odt_lab import config, runner

        self.config, self.runner = config, runner
        self.work = work
        self._count = 0
        self.warnings = WarningCounter()
        self._log = logging.getLogger("odt_lab")

    def __enter__(self):
        self._propagate = self._log.propagate
        self._log.addHandler(self.warnings)
        self._log.propagate = False
        return self

    def __exit__(self, *exc):
        self._log.removeHandler(self.warnings)
        self._log.propagate = self._propagate

    def scenario_path(self, raw: dict) -> Path:
        import yaml

        path = self.work / f"{raw['name']}-{raw['seed']}.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        return path

    def sweep(self, raw: dict, hooks=None, levels: list[int] | None = None) -> Sweep:
        """One checked sweep into a fresh directory, removed afterwards.

        `hooks` is a Tracer or a StepTimer, installed for the sweep only;
        `levels` are the demand levels to run, by default all of them.
        """
        report = self.config.load_config(str(self.scenario_path(raw)))
        if report.config is None:
            raise ValueError(f"scenario {raw['name']} is invalid: {report.errors}")
        cfg = report.config
        expected = expected_demand(raw, [s.name for s in cfg.systems], levels)
        res = Sweep(raw["seed"], sorted(expected), sum(expected.values()))
        out = self.work / f"sweep-{self._count}"
        self._count += 1
        restore = hooks.install() if hooks is not None else None
        warned = self.warnings.count
        gc.collect()
        try:
            start = time.perf_counter()
            summary = self.runner.execute(cfg, out_dir=str(out), levels=levels)
            res.wall_s = time.perf_counter() - start
            res.steps = getattr(hooks, "steps", None)
        except Exception as exc:  # a failed sweep is a measured outcome
            res.failed = set(expected)
            res.problems.append(f"execute raised {exc!r}")
            return res
        finally:
            if restore is not None:
                restore()
            res.warnings = self.warnings.count - warned
        try:
            res.failed, res.problems = check_sweep(out, summary, expected)
            files = json.loads((out / "manifest.json").read_text())["files"]
            res.digest = files_digest(files)
            res.trips_sha256 = sha256_file(out / "trips.csv")
            if raw == README_TOWN and levels is None \
                    and res.trips_sha256 != TOWN_TRIPS_SHA256:
                res.failed = set(expected)
                res.problems.append(f"README town: trips.csv sha256 {res.trips_sha256}")
            paths = [p for p in out.rglob("*") if p.is_file()]
            res.files = len(paths)
            res.bytes = sum(p.stat().st_size for p in paths)
        except (OSError, ValueError, KeyError) as exc:
            res.failed = set(expected)
            res.problems.append(f"output unreadable: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        return res

    def setup_steps(self, path: Path, levels: list[int]) -> tuple[float, list[tuple[str, float]]]:
        """One sweep's set-up: config, network, base day, every level swept.

        Returns its wall time and the time of each of those steps.
        """
        steps = []

        def step(name, fn, *args):
            start = time.perf_counter()
            out = fn(*args)
            steps.append((name, time.perf_counter() - start))
            return out

        cfg = step("load_config", self.config.load_config, str(path)).config
        net = step("build_network", self.runner.build_network, cfg)
        base = step("build_base_demand", self.runner.build_base_demand, cfg, net)
        for lvl in levels:
            step("scale_demand", self.runner.scale_demand, base, lvl, cfg.seed)
        return sum(secs for _, secs in steps), steps


def check_repeats(sweeps: list[Sweep]) -> None:
    """Fail every run of a sweep whose output differs from an earlier sweep
    of the same seed."""
    first: dict[int, str] = {}
    for s in sweeps:
        if s.digest is None:
            continue
        if first.setdefault(s.seed, s.digest) != s.digest:
            s.failed = set(s.run_ids)
            s.problems.append(f"seed {s.seed}: digest {s.digest} differs from an "
                              f"earlier sweep's {first[s.seed]}")


def timed_run(bench: Bench, workload: str, seed: int, seconds: float):
    from steps import StepTimer, fastest

    raw = workloads.scenario(workload, workloads.timed_seed(workload, seed))
    path = bench.scenario_path(raw)
    sweeps: list[Sweep] = []
    setups = []
    rss_mb = None
    start = time.perf_counter()
    while True:
        sweeps.append(bench.sweep(raw, StepTimer(), workloads.TIMED_LEVELS))
        if sweeps[-1].wall_s is None:  # raised: repeating it measures nothing
            break
        if rss_mb is None:  # a fresh process after its first sweep
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Set-ups are spread over the run like the sweeps, so both see the
        # same mix of quiet and busy moments on the host.
        gc.collect()
        slice_end = time.perf_counter() + SETUP_SLICE_S
        setups.append(bench.setup_steps(path, workloads.TIMED_LEVELS))
        while time.perf_counter() < slice_end:
            setups.append(bench.setup_steps(path, workloads.TIMED_LEVELS))
        elapsed = time.perf_counter() - start
        per_sweep = elapsed / len(sweeps)
        if len(sweeps) >= 2 and elapsed + per_sweep > seconds:
            break

    metrics = {}
    extra = {"scenario": raw, "setups": len(setups),
             "setup_median_s": statistics.median(w for w, _ in setups) if setups else None}
    if sweeps[-1].wall_s is not None:
        try:
            sweep_s = fastest([(s.wall_s, s.steps) for s in sweeps])
        except ValueError as exc:
            sweeps[-1].problems.append(str(exc))
        else:
            metrics = {
                "sweep_s": (sweep_s, "s"),
                "requests_per_s": (sweeps[0].requests / sweep_s, "requests/s"),
                "setup_s": (fastest(setups), "s"),
                "peak_rss_mb": (rss_mb, "MiB"),
            }
    return sweeps, metrics, extra


def traced_run(bench: Bench, workload: str, seed: int):
    from tracer import Tracer, layer_metrics, self_times

    raw = workloads.scenario(workload, seed)
    plain = bench.sweep(raw)
    tracer = Tracer()
    traced = bench.sweep(raw, tracer)
    metrics = {}
    if plain.wall_s is not None and traced.wall_s is not None:
        metrics = {k: (v, _unit(k)) for k, v in layer_metrics(tracer).items()}
        metrics["runner.warnings"] = (traced.warnings, "count")
        metrics["output.files"] = (traced.files, "count")
        metrics["output.bytes"] = (traced.bytes, "bytes")
        metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
        print(_split_table(self_times(tracer), traced.wall_s), file=sys.stderr)
    extra = {"scenario": raw, "untraced_s": plain.wall_s, "traced_s": traced.wall_s,
             "missing_hooks": tracer.missing}
    return [plain, traced], metrics, extra


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_insert"):
        return "ratio"
    return "count"


def _split_table(self_s: dict[str, float], sweep_s: float) -> str:
    lines = [f"traced sweep {sweep_s:.3f} s; self time by span:"]
    for name, secs in self_s.items():
        lines.append(f"  {name:26s} {secs:9.3f} s  {100 * secs / sweep_s:5.1f} %")
    return "\n".join(lines)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="scenario seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    try:
        import odt_lab  # noqa: F401
        import yaml  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with Bench(work) as bench:
            if args.trace:
                sweeps, metrics, extra = traced_run(bench, args.workload, seed)
            else:
                sweeps, metrics, extra = timed_run(bench, args.workload, seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    check_repeats(sweeps)
    problems = [p for s in sweeps for p in s.problems]
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    failed = sum(len(s.failed) for s in sweeps)
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "seconds": args.seconds,
        **extra,
        "sweeps": [{"seed": s.seed, "wall_s": s.wall_s,
                    "digest": s.digest,
                    "trips_sha256": s.trips_sha256, "failed_runs": len(s.failed)}
                   for s in sweeps]}}, sort_keys=True))
    if not metrics:
        print("perfbench: a sweep did not finish, so nothing was measured",
              file=sys.stderr)
    print(json.dumps({
        "correct": bool(metrics) and not problems and failed == 0,
        "attempted": sum(len(s.run_ids) for s in sweeps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
