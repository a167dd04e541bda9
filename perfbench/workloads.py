"""Benchmark scenarios, generated from (workload name, seed).

Every workload is a plain scenario mapping in the schema `odt-lab` reads
from YAML, so the benchmark drives the same `config.load_config` path a
user does. Nothing here reads a data file.
"""

from __future__ import annotations

LEVELS = [50, 100, 150, 200, 250, 300, 350, 400, 450, 500]
# Levels a timed sweep runs (`runner.execute(levels=...)`, `odt-lab run
# --level`): the two ends of the range. A README town sweep over all ten
# levels takes 7-10 s, too long to repeat often enough in one run for the
# fastest-steps estimate (steps.py) to hold still on a shared host.
TIMED_LEVELS = [50, 500]
DAY_SUPPLY = [0] * 6 + [3] * 16 + [0] * 2


def _town(seed: int) -> dict:
    # The README quick-start scenario, unchanged: a 10x10 grid small enough
    # that every shortest-path tree stays cached, so dispatch (plan tracing
    # inside shared matching and DARP insertion) does most of the work.
    return {
        "name": "town",
        "seed": seed,
        "network": {"grid": {"rows": 10, "cols": 10, "spacing_m": 500.0,
                             "speed_mps": 11.1, "zone_rows": 2, "zone_cols": 2,
                             "zone_population": 250.0}},
        "demand": {"synthetic": {"count": 100}, "levels": list(LEVELS)},
        "supply": {"schedule": list(DAY_SUPPLY)},
        "systems": [{"type": "crowdsourced_exclusive"},
                    {"type": "crowdsourced_shared"},
                    {"type": "dedicated_darp"}],
        "analysis": {"surge_levels": [0, 20],
                     "electrification_levels": [0.0, 0.2, 1.0]},
    }


def _metro(seed: int) -> dict:
    # A 30x30 zoned grid where every run rebuilds its network: the reverse
    # Dijkstra trees behind nearest-vehicle search and vehicle paths do
    # most of the work, and plan tracing is never called.
    rows = cols = 30
    mid = rows // 2 * cols
    return {
        "name": "metro",
        "seed": seed,
        "network": {"grid": {"rows": rows, "cols": cols, "spacing_m": 500.0,
                             "speed_mps": 11.1, "zone_rows": 5, "zone_cols": 5,
                             "zone_population": 1000.0}},
        "demand": {"synthetic": {"count": 400}, "levels": list(LEVELS)},
        "supply": {"schedule": [0] * 6 + [6] * 16 + [0] * 2},
        "systems": [{"type": "crowdsourced_exclusive"},
                    {"type": "frt"},
                    {"type": "hybrid_frt"}],
        "corridor": {"stops": [mid + 3 * k for k in range(10)]},
        "analysis": {"surge_levels": [0, 20, 40, 50],
                     "electrification_levels": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                     "equity_levels": [50, 200, 350, 500]},
    }


WORKLOADS = {"town": _town, "metro": _metro}

# Default seeds; town's is the README's, which pins its trips.csv checksum.
DEFAULT_SEEDS = {"town": 9, "metro": 1}


def scenario(name: str, seed: int) -> dict:
    """The scenario mapping of one workload at one scenario seed."""
    return WORKLOADS[name](seed)


def timed_seed(name: str, seed: int) -> int:
    """Scenario seed whose sweeps a timed run repeats.

    How much work a town day makes depends on its seed: over seeds 101-110
    its plan-tracing and routing calls spread by 26 % between quartiles,
    more than any bound a timing gate can hold. So a timed town run always
    sweeps the README day, and other town days are swept and checked by the
    traced run. Over seeds 1 and 101-106 a metro day's routing calls at
    the timed levels stayed within 0.5 % and its tree count within 5 %, so
    a metro run times the run seed's own day.
    """
    return DEFAULT_SEEDS["town"] if name == "town" else seed
