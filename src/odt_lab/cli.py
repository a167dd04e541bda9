"""Command line entry points: validate, run, sweep, report.

Exit codes: 0 on success, 2 when the config fails validation, 3 when run
or sweep fails: on the input problems validate reports, which stop it
before any run, or at runtime. The seed can be pinned per invocation with --seed, which
beats the ODT_LAB_SEED environment variable, which beats the config file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import __version__
from .config import ScenarioConfig, load_config
from .runner import InputError, execute, render_report, sweep_inputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


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
        p.add_argument("--jobs", type=positive_int, default=1,
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


def _load(path: str, flag_seed: int | None) -> tuple[ScenarioConfig | None, int]:
    """The scenario at path with its seed resolved: the --seed flag, else
    ODT_LAB_SEED, else the file's; or the exit code of its problems."""
    report = load_config(path)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not report.ok:
        return None, _problems(report.errors)
    cfg = report.config
    env = os.environ.get("ODT_LAB_SEED")
    if flag_seed is not None:
        cfg.seed = flag_seed
    elif env is not None:
        try:
            cfg.seed = int(env)
        except ValueError:
            return None, _problems([f"ODT_LAB_SEED must be an integer, got '{env}'"])
    return cfg, EXIT_OK


def _problems(errors: list[str], code: int = EXIT_CONFIG) -> int:
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{len(errors)} problem(s) found", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    if args.command == "validate":
        cfg, code = _load(args.config, None)  # seeded as run and sweep would be
        if code == EXIT_OK:
            try:
                sweep_inputs(cfg, cfg.demand.levels)
            except InputError as exc:
                code = _problems(exc.problems)
        if code == EXIT_OK:
            print(f"{args.config}: ok ({len(cfg.systems)} system(s), "
                  f"{len(cfg.demand.levels)} demand level(s))")
        return code

    if args.command in ("run", "sweep"):
        cfg, code = _load(args.config, args.seed)
        if code != EXIT_OK:
            return code
        levels = getattr(args, "levels", None)
        try:
            summary = execute(cfg, out_dir=args.out, jobs=args.jobs, levels=levels)
        except InputError as exc:  # refused before any run, as validate refuses it
            return _problems(exc.problems, EXIT_RUNTIME)
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
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    return EXIT_OK  # unreachable, argparse requires a command


if __name__ == "__main__":
    sys.exit(main())
