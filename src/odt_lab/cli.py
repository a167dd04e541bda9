"""Command line entry points: validate, run, sweep, report.

Exit codes: 0 on success, 2 when the config fails validation, 3 when a run
fails at runtime. The seed can be pinned per invocation with --seed, which
beats the ODT_LAB_SEED environment variable, which beats the config file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import __version__
from . import dispatch as dp
from .config import SYSTEM_TYPES, ScenarioConfig, load_config
from .demand import check_level_sizes
from .network import Network, NoPathError
from .runner import (build_base_demand, build_base_supply, build_network, corridor_spec,
                     execute, render_report)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odt-lab",
        description="Simulate on-demand transit designs and compare their "
                    "cost, emission, and equity outcomes across demand levels.")
    parser.add_argument("--version", action="version", version=f"odt-lab {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file and report every problem")
    p.add_argument("config", help="scenario YAML file")

    for name, text in (("run", "simulate the scenario (optionally a subset of levels)"),
                       ("sweep", "simulate every configured demand level")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="scenario YAML file")
        p.add_argument("--out", help="output directory (default: config output_dir)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (default 1)")
        p.add_argument("-q", "--quiet", action="store_true",
                       help="suppress the run summary")
        if name == "run":
            p.add_argument("--level", type=int, action="append", dest="levels",
                           help="demand level %% to run; repeatable "
                                "(default: all configured levels)")

    p = sub.add_parser("report", help="print a summary of a finished output directory")
    p.add_argument("out_dir", help="directory produced by run or sweep")
    p.add_argument("--show-params", action="store_true",
                   help="include the resolved cost and emission parameters")
    return parser


def _load(path: str) -> tuple[ScenarioConfig | None, int]:
    report = load_config(path)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not report.ok:
        return None, _problems(report.errors)
    return report.config, EXIT_OK


def _problems(errors: list[str]) -> int:
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{len(errors)} problem(s) found", file=sys.stderr)
    return EXIT_CONFIG


def _input_problems(cfg: ScenarioConfig) -> list[str]:
    """Build the network, base day and supply once; name the input that stops
    them being built or two demand levels that scale the day to one size, or
    every corridor stop and request end that is not a node, or else a corridor
    timetable that cannot be laid out and every corridor leg and on-demand
    trip that cannot be routed."""
    try:
        net = build_network(cfg)
        base = build_base_demand(cfg, net)
        check_level_sizes(len(base), cfg.demand.levels)
        build_base_supply(cfg)
    except ValueError as exc:  # CsvParseError and NetworkValidationError included
        return [str(exc)]
    stops = cfg.corridor.stops if cfg.corridor else []
    errors = [f"corridor: stop {s} is not a network node" for s in stops if s not in net.nodes]
    for r in base:
        errors += [f"demand: request {r.id} {end} {node} is not a network node"
                   for end, node in (("origin", r.origin), ("destination", r.destination))
                   if node not in net.nodes]
    if errors:  # routes need known nodes
        return errors
    designs = [SYSTEM_TYPES[s.type] for s in cfg.systems]
    spec = corridor_spec(cfg)
    if any(d.corridor == "frt" for d in designs):
        try:
            for vehicles in (spec.vehicles_base, spec.vehicles_high):
                dp.build_timetable(net, spec, vehicles)
        except ValueError as exc:
            errors.append(f"corridor: {exc}")
        except NoPathError:
            pass  # a corridor leg with no route, named below
    if net.unreachable_pairs == 0:  # every route exists
        return errors
    legs = [*zip(stops, stops[1:]), *zip(stops[1:], stops)]  # out, then back
    errors += [f"corridor: no route from stop {a} to stop {b}"
               for a, b in legs if not _routable(net, a, b)]

    def door_to_door(r) -> bool:  # some system drives this request from door to door
        return any(d.area and not (d.corridor == "frt"
                                   and dp.hybrid_route(net, r, spec, two_stops=True))
                   for d in designs)

    errors += [f"demand: no route for request {r.id} from {r.origin} to {r.destination}"
               for r in base if door_to_door(r) and not _routable(net, r.origin, r.destination)]
    return errors


def _routable(net: Network, origin: int, dest: int) -> bool:
    try:
        net.distance_m(origin, dest)
    except NoPathError:
        return False
    return True


def _resolve_seed(cfg: ScenarioConfig, flag_seed: int | None) -> None:
    if flag_seed is not None:
        cfg.seed = flag_seed
        return
    env = os.environ.get("ODT_LAB_SEED")
    if env is not None:
        try:
            cfg.seed = int(env)
        except ValueError:
            raise SystemExit(f"ODT_LAB_SEED must be an integer, got '{env}'")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    if args.command == "validate":
        cfg, code = _load(args.config)
        if code == EXIT_OK and (errors := _input_problems(cfg)):
            code = _problems(errors)
        if code == EXIT_OK:
            print(f"{args.config}: ok ({len(cfg.systems)} system(s), "
                  f"{len(cfg.demand.levels)} demand level(s))")
        return code

    if args.command in ("run", "sweep"):
        cfg, code = _load(args.config)
        if code != EXIT_OK:
            return code
        _resolve_seed(cfg, args.seed)
        levels = getattr(args, "levels", None)
        try:
            summary = execute(cfg, out_dir=args.out, jobs=args.jobs, levels=levels)
        except Exception as exc:  # runtime failure, staging already cleaned up
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        if not args.quiet:
            print(f"wrote {summary['output_dir']}")
            for run_id in summary["runs"]:
                print(f"  {run_id}: served {summary['served'][run_id]}"
                      f"/{summary['demand'][run_id]}")
        return EXIT_OK

    if args.command == "report":
        try:
            print(render_report(args.out_dir, show_params=args.show_params), end="")
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    return EXIT_OK  # unreachable, argparse requires a command


if __name__ == "__main__":
    sys.exit(main())
