"""Per-layer tracing by patching odt_lab's public functions for one sweep.

The tracer wraps the functions each layer exposes, as they are bound in
odt_lab.runner, odt_lab.engine and odt_lab.dispatch, and records one span
(name, start, end, parent, run id) around every call. Spans stay in memory
until the sweep ends; `layer_metrics` then reduces them to totals, self
times, counts and ratios. Per-edge routing calls are only counted: timing
each of the millions of `Network.next_edge` calls would more than double
the traced sweep. `Tracer.install` returns a restore function that puts
every original back.
"""

from __future__ import annotations

import time
from collections import Counter

from odt_lab import demand, dispatch, efficiency, emissions, engine, equity, runner
from odt_lab.network import Network

# Modules whose bindings are patched; a function is replaced wherever one of
# them holds the original object.
BINDING_MODULES = (runner, engine, dispatch)


def _keep_network(tracer, args, net):
    tracer.networks.append(net)


def _count_served(tracer, args, res):
    tracer.counts["served"] += res.served
    tracer.counts["demand"] += res.demand_total


def _count_accepted(tracer, args, res):
    tracer.counts["darp_accepted"] += bool(res.accepted)


def _count_assigned(tracer, args, res):
    tracer.counts["shared_offered"] += len(args[2])  # the waiting queue
    tracer.counts["shared_assigned"] += len(res)


# (home module, attribute, span name, observer of each call's result)
SPANNED = [
    (runner, "execute", "runner.execute", None),
    (runner, "build_network", "network.build", _keep_network),
    (runner, "build_base_demand", "demand.base", None),
    (demand, "scale_demand", "demand.scale", None),
    (engine, "run_scenario", "engine.run_scenario", _count_served),
    (dispatch, "trace_plan", "dispatch.trace_plan", None),
    (dispatch, "darp_insert", "dispatch.darp_insert", _count_accepted),
    (dispatch, "shared_greedy_match", "dispatch.shared_match", _count_assigned),
    (dispatch, "greedy_assign", "dispatch.greedy_assign", None),
    (dispatch, "frt_board", "dispatch.frt_board", None),
    (dispatch, "hybrid_route", "dispatch.hybrid_route", None),
    (runner, "run_cost", "analysis.costing", None),
    (efficiency, "sweep", "analysis.curves", None),
    (efficiency, "switching_points", "analysis.curves", None),
    (emissions, "per_passenger_metrics", "analysis.emissions", None),
    (emissions, "private_vehicle_baseline", "analysis.emissions", None),
    (equity, "equity_report", "analysis.equity", None),
    (equity, "zonal_outcomes", "analysis.equity", None),
    (equity, "lorenz", "analysis.equity", None),
    (runner, "trip_rows", "output.rows", None),
    (runner, "fleet_rows", "output.rows", None),
    (runner, "_write_csv", "output.write", None),
    (runner, "_sha256", "output.hash", None),
]

# Network methods that are counted, not timed.
COUNTED = [("next_edge", "network.next_edge_calls"),
           ("distance_m", "network.distance_calls")]


def patch_bindings(entries, wrap, missing: list[str]) -> list[tuple[object, str, object]]:
    """Replace each (home, attr, name, observe) entry's function by
    wrap(name, orig, observe) wherever a module of BINDING_MODULES binds it.

    Names of functions that do not exist go to `missing`. Returns the undo
    list that `restore` takes.
    """
    undo: list[tuple[object, str, object]] = []
    for home, attr, name, observe in entries:
        orig = getattr(home, attr, None)
        if orig is None:
            missing.append(f"{home.__name__}.{attr}")
            continue
        wrapper = wrap(name, orig, observe)
        for mod in BINDING_MODULES:
            if getattr(mod, attr, None) is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    """Put back every function an undo list names, last patch first."""
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


class Tracer:
    """Spans and counters of one traced sweep."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, run_id)
        self.counts: Counter = Counter()
        self.networks: list[Network] = []
        self.missing: list[str] = []
        self.run_id = ""
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)

    # -- patching --

    def install(self):
        """Patch every hook; returns a function that restores the originals."""
        undo = patch_bindings(SPANNED, self._wrap, self.missing)

        def patch(owner, attr, replacement):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        orig_run_one = getattr(runner, "run_one", None)
        if orig_run_one is not None:
            patch(runner, "run_one", self._with_run_id(orig_run_one))
        else:
            self.missing.append("odt_lab.runner.run_one")

        for attr, key in COUNTED:
            orig = getattr(Network, attr, None)
            if orig is None:
                self.missing.append(f"Network.{attr}")
                continue
            patch(Network, attr, self._counted(key, orig))
        orig_tree = getattr(Network, "_distances_to", None)
        if orig_tree is not None:
            patch(Network, "_distances_to", self._tree(orig_tree))
        else:
            self.missing.append("Network._distances_to")

        return lambda: restore(undo)

    def _wrap(self, name, orig, observe):
        call = self.call
        if observe is None:
            def spanned(*args, **kwargs):
                return call(name, orig, *args, **kwargs)
            return spanned

        def observed(*args, **kwargs):
            res = call(name, orig, *args, **kwargs)
            observe(self, args, res)
            return res
        return observed

    def _with_run_id(self, orig):
        def run_one(net, cfg, system, level, *args, **kwargs):
            outer = self.run_id
            self.run_id = f"{system.name}-L{level}"
            try:
                return orig(net, cfg, system, level, *args, **kwargs)
            finally:
                self.run_id = outer
        return run_one

    def _counted(self, key, orig):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)
        return counted

    def _tree(self, orig):
        call = self.call

        # Only a cache miss builds a tree, so only misses get a span.
        def distances_to(net, dest):
            cache = getattr(net, "_dist_to", None)
            if cache is not None and dest in cache:
                return orig(net, dest)
            return call("network.tree", orig, net, dest)
        return distances_to


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _reduce(spans) -> tuple[Counter, Counter, Counter]:
    """Total time, call count and self time per span name.

    A span's self time is its duration minus that of its direct children;
    spans of one thread nest strictly, so children never overlap.
    """
    child_s: Counter = Counter()
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            child_s[parent] += end - start
    total: Counter = Counter()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for idx, (name, start, end, _parent, _run) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_s[name] += end - start - child_s[idx]
    return total, calls, self_s


def self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per span name, largest first: where the sweep's time went."""
    return dict(_reduce(tracer.spans)[2].most_common())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce one traced sweep to the per-layer metrics, by name."""
    spans = tracer.spans
    total, calls, self_s = _reduce(spans)
    traces_in_insert = sum(1 for name, _s, _e, parent, _r in spans
                           if name == "dispatch.trace_plan" and parent >= 0
                           and spans[parent][0] == "dispatch.darp_insert")
    c = tracer.counts
    return {
        "network.builds": calls["network.build"],
        "network.build_s": total["network.build"],
        "network.trees": sum(len(getattr(n, "_dist_to", ())) for n in tracer.networks),
        "network.tree_s": total["network.tree"],
        "network.paths": sum(len(getattr(n, "_path_cache", ())) for n in tracer.networks),
        "network.distance_calls": c["network.distance_calls"],
        "network.next_edge_calls": c["network.next_edge_calls"],
        "dispatch.trace_plan_calls": calls["dispatch.trace_plan"],
        "dispatch.trace_plan_s": total["dispatch.trace_plan"],
        "dispatch.darp_insert_calls": calls["dispatch.darp_insert"],
        "dispatch.darp_insert_s": total["dispatch.darp_insert"],
        "dispatch.darp_accept_ratio": _ratio(c["darp_accepted"],
                                             calls["dispatch.darp_insert"]),
        "dispatch.darp_traces_per_insert": _ratio(traces_in_insert,
                                                  calls["dispatch.darp_insert"]),
        "dispatch.shared_match_calls": calls["dispatch.shared_match"],
        "dispatch.shared_match_s": total["dispatch.shared_match"],
        "dispatch.shared_assign_ratio": _ratio(c["shared_assigned"], c["shared_offered"]),
        "dispatch.greedy_assign_calls": calls["dispatch.greedy_assign"],
        "dispatch.greedy_assign_s": total["dispatch.greedy_assign"],
        "dispatch.frt_board_calls": calls["dispatch.frt_board"],
        "dispatch.frt_board_s": total["dispatch.frt_board"],
        "dispatch.hybrid_route_calls": calls["dispatch.hybrid_route"],
        "dispatch.hybrid_route_s": total["dispatch.hybrid_route"],
        "engine.runs": calls["engine.run_scenario"],
        "engine.run_scenario_s": total["engine.run_scenario"],
        "engine.self_s": self_s["engine.run_scenario"],
        "engine.served_ratio": _ratio(c["served"], c["demand"]),
        "demand.base_calls": calls["demand.base"],
        "demand.base_s": total["demand.base"],
        "demand.scale_calls": calls["demand.scale"],
        "demand.scale_s": total["demand.scale"],
        "analysis.costing_s": total["analysis.costing"],
        "analysis.curves_s": total["analysis.curves"],
        "analysis.emissions_s": total["analysis.emissions"],
        "analysis.equity_s": total["analysis.equity"],
        "output.rows_s": total["output.rows"],
        "output.write_s": total["output.write"],
        "output.hash_s": total["output.hash"],
        "runner.self_s": self_s["runner.execute"],
        "trace.spans": len(spans),
    }

