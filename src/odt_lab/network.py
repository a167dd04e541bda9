"""Road network model: nodes, directed edges, zones, and distance-based routing.

Routing minimizes driven distance, not time; travel time is read off the
distance-optimal path afterwards. Equal-length alternatives are resolved by
the lexicographically smallest edge-id sequence so repeated runs traverse
identical paths.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

log = logging.getLogger(__name__)

# Relative slack for "same length" comparisons between alternative paths.
_EPS = 1e-9

ZONE_ATTRIBUTES = (
    "income",
    "education",
    "employment",
    "young_adults",
    "seniors",
    "single_parents",
    "pop_density",
)


class CsvParseError(ValueError):
    """A malformed row in an input CSV, reported with its line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class NetworkValidationError(ValueError):
    pass


class NoPathError(Exception):
    """Origin cannot reach destination on the directed network."""


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float
    zone_id: str | None = None


@dataclass(frozen=True)
class Edge:
    id: int
    frm: int
    to: int
    length_m: float
    speed_mps: float
    travel_time_s: float


@dataclass
class Zone:
    zone_id: str
    population: float
    attrs: dict[str, float] = field(default_factory=dict)
    nodes: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class RoutePath:
    """A concrete drive: edge sequence plus its length and time totals."""

    edges: tuple[Edge, ...]
    total_length_m: float
    total_time_s: float


def _make_edge(eid: int, frm: int, to: int, length_m: float, speed_mps: float) -> Edge:
    return Edge(eid, frm, to, length_m, speed_mps, length_m / speed_mps)


class Network:
    """Immutable routing graph with lazily cached shortest-path distances.

    Distance lookups run one reverse Dijkstra per queried destination and
    cache the result, so fleets of position queries against a common target
    (every vehicle to one pickup, every node to one stop) cost a single
    search. Instances are meant to be built once and shared read-only
    within a run.
    """

    def __init__(self, nodes: list[Node], edges: list[Edge],
                 zones: list[Zone] | None = None, area_km2: float | None = None):
        self.nodes: dict[int, Node] = {n.id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise NetworkValidationError("duplicate node ids")
        self.edges: dict[int, Edge] = {e.id: e for e in edges}
        if len(self.edges) != len(edges):
            raise NetworkValidationError("duplicate edge ids")
        for e in edges:
            for endpoint in (e.frm, e.to):
                if endpoint not in self.nodes:
                    raise NetworkValidationError(
                        f"edge {e.id} references unknown node {endpoint}")
            if e.length_m <= 0:
                raise NetworkValidationError(f"edge {e.id} has non-positive length")
            if e.speed_mps <= 0:
                raise NetworkValidationError(f"edge {e.id} has non-positive speed")
        self.out_edges: dict[int, list[Edge]] = {n.id: [] for n in nodes}
        self.in_edges: dict[int, list[Edge]] = {n.id: [] for n in nodes}
        for e in edges:
            self.out_edges[e.frm].append(e)
            self.in_edges[e.to].append(e)
        for lst in self.out_edges.values():
            lst.sort(key=lambda e: e.id)
        for lst in self.in_edges.values():
            lst.sort(key=lambda e: e.id)

        self.zones: dict[str, Zone] = {}
        if zones:
            for z in zones:
                if z.zone_id in self.zones:
                    raise NetworkValidationError(f"duplicate zone id {z.zone_id}")
                self.zones[z.zone_id] = z
            for z in self.zones.values():
                z.nodes = []
            for n in nodes:
                if n.zone_id is not None and n.zone_id in self.zones:
                    self.zones[n.zone_id].nodes.append(n.id)

        if area_km2 is None:
            area_km2 = self._bounding_box_km2()
        if area_km2 <= 0:
            raise NetworkValidationError("service area must be positive")
        self.area_km2 = area_km2

        self._check_geometry()
        self.unreachable_pairs = self._check_connectivity()

        # dest node id -> {node id: metres into dest}
        self._dist_to: dict[int, dict[int, float]] = {}
        # (origin, dest) -> RoutePath
        self._path_cache: dict[tuple[int, int], RoutePath] = {}

    # -- construction-time checks ------------------------------------------

    def _bounding_box_km2(self) -> float:
        xs = [n.x for n in self.nodes.values()]
        ys = [n.y for n in self.nodes.values()]
        if not xs:
            raise NetworkValidationError("network has no nodes")
        w = max(xs) - min(xs)
        h = max(ys) - min(ys)
        area = w * h / 1e6
        return area if area > 0 else 1.0

    def _check_geometry(self) -> None:
        for e in self.edges.values():
            straight = self.straight_line_m(e.frm, e.to)
            if e.length_m < straight - 1e-6:
                log.warning("edge %d length %.1f m is shorter than the straight-line "
                            "distance %.1f m between its endpoints", e.id, e.length_m, straight)

    def _check_connectivity(self) -> int:
        """Count ordered node pairs with no directed route; warn if any."""
        ids = sorted(self.nodes)
        unreachable = 0
        example = None
        fwd = self._reach(ids[0], self.out_edges)
        bwd = self._reach(ids[0], self.in_edges)
        if len(fwd) == len(ids) and len(bwd) == len(ids):
            return 0
        # Only bother with the full count when the cheap check fails.
        for o in ids:
            reach = self._reach(o, self.out_edges)
            for d in ids:
                if d not in reach:
                    unreachable += 1
                    if example is None:
                        example = (o, d)
        if unreachable:
            log.warning("network is not strongly connected: %d ordered node pairs "
                        "unreachable (e.g. %s -> %s)", unreachable, example[0], example[1])
        return unreachable

    def _reach(self, start: int, adjacency: dict[int, list[Edge]]) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for e in adjacency[u]:
                v = e.to if adjacency is self.out_edges else e.frm
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    # -- queries -------------------------------------------------------------

    def straight_line_m(self, a: int, b: int) -> float:
        na, nb = self.nodes[a], self.nodes[b]
        return math.hypot(na.x - nb.x, na.y - nb.y)

    def zone_of(self, node_id: int) -> str | None:
        return self.nodes[node_id].zone_id

    def _distances_to(self, dest: int) -> dict[int, float]:
        cached = self._dist_to.get(dest)
        if cached is not None:
            return cached
        if dest not in self.nodes:
            raise KeyError(f"unknown node {dest}")
        dist = {dest: 0.0}
        heap = [(0.0, dest)]
        while heap:
            d, u = heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            for e in self.in_edges[u]:
                nd = d + e.length_m
                if nd < dist.get(e.frm, math.inf):
                    dist[e.frm] = nd
                    heappush(heap, (nd, e.frm))
        self._dist_to[dest] = dist
        return dist

    def distance_m(self, origin: int, dest: int) -> float:
        """Shortest driven distance, metres. Raises NoPathError when unreachable."""
        if origin not in self.nodes:
            raise KeyError(f"unknown node {origin}")
        d = self._distances_to(dest).get(origin)
        if d is None:
            raise NoPathError(f"no route from {origin} to {dest}")
        return d

    def next_edge(self, current: int, dest: int) -> Edge:
        """First edge of the canonical shortest path from current to dest.

        Among outgoing edges that stay on some shortest path the one with
        the lowest id wins, which makes the full walk reproduce the
        lexicographically smallest edge-id sequence.
        """
        if current == dest:
            raise ValueError("already at destination")
        dist = self._distances_to(dest)
        here = dist.get(current)
        if here is None:
            raise NoPathError(f"no route from {current} to {dest}")
        for e in self.out_edges[current]:  # sorted by edge id
            rest = dist.get(e.to)
            if rest is None:
                continue
            if abs(e.length_m + rest - here) <= _EPS * max(1.0, here):
                return e
        raise NoPathError(f"no route from {current} to {dest}")  # pragma: no cover

    def shortest_path(self, origin: int, dest: int) -> RoutePath:
        """Distance-optimal path with the deterministic edge-id tie-break.

        origin == dest yields the empty path with zero totals.
        """
        if origin == dest:
            if origin not in self.nodes:
                raise KeyError(f"unknown node {origin}")
            return RoutePath((), 0.0, 0.0)
        cached = self._path_cache.get((origin, dest))
        if cached is not None:
            return cached
        edges = []
        length = 0.0
        time = 0.0
        cur = origin
        while cur != dest:
            e = self.next_edge(cur, dest)
            edges.append(e)
            length += e.length_m
            time += e.travel_time_s
            cur = e.to
        path = RoutePath(tuple(edges), length, time)
        self._path_cache[(origin, dest)] = path
        return path


# -- module-level operations --------------------------------------------------


def _parse_row(path: str, line_no: int, row: dict, fields: dict) -> dict:
    out = {}
    for name, conv in fields.items():
        raw = row.get(name)
        if raw is None or raw == "":
            raise CsvParseError(path, line_no, f"missing field '{name}'")
        try:
            out[name] = conv(raw)
        except ValueError:
            raise CsvParseError(path, line_no, f"bad value {raw!r} for field '{name}'") from None
    return out


def load_network(nodes_file: str, edges_file: str, zones_file: str | None = None,
                 area_km2: float | None = None) -> Network:
    """Build a validated Network from CSV inputs.

    nodes: id,x,y[,zone_id]; edges: id,from,to,length_m,speed_mps;
    zones (optional): zone_id,population plus the seven demographic columns.
    """
    nodes = []
    with open(nodes_file, newline="") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            vals = _parse_row(nodes_file, line_no, row,
                              {"id": int, "x": float, "y": float})
            zone = row.get("zone_id") or None
            nodes.append(Node(vals["id"], vals["x"], vals["y"], zone))
    edges = []
    with open(edges_file, newline="") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            vals = _parse_row(edges_file, line_no, row,
                              {"id": int, "from": int, "to": int,
                               "length_m": float, "speed_mps": float})
            edges.append(_make_edge(vals["id"], vals["from"], vals["to"],
                                    vals["length_m"], vals["speed_mps"]))
    zones = None
    if zones_file is not None:
        zones = []
        with open(zones_file, newline="") as fh:
            reader = csv.DictReader(fh)
            for line_no, row in enumerate(reader, start=2):
                spec = {"zone_id": str, "population": float}
                spec.update({a: float for a in ZONE_ATTRIBUTES})
                vals = _parse_row(zones_file, line_no, row, spec)
                zones.append(Zone(vals["zone_id"], vals["population"],
                                  {a: vals[a] for a in ZONE_ATTRIBUTES}))
    return Network(nodes, edges, zones, area_km2=area_km2)


def save_network(net: Network, nodes_file: str, edges_file: str,
                 zones_file: str | None = None) -> None:
    """Write the network back out in the same CSV schemas load_network reads."""
    with open(nodes_file, "w", newline="") as fh:
        fh.write("id,x,y,zone_id\n")
        for nid in sorted(net.nodes):
            n = net.nodes[nid]
            fh.write(f"{n.id},{n.x:g},{n.y:g},{n.zone_id or ''}\n")
    with open(edges_file, "w", newline="") as fh:
        fh.write("id,from,to,length_m,speed_mps\n")
        for eid in sorted(net.edges):
            e = net.edges[eid]
            fh.write(f"{e.id},{e.frm},{e.to},{e.length_m:g},{e.speed_mps:g}\n")
    if zones_file is not None:
        with open(zones_file, "w", newline="") as fh:
            fh.write("zone_id,population," + ",".join(ZONE_ATTRIBUTES) + "\n")
            for zid in sorted(net.zones):
                z = net.zones[zid]
                vals = ",".join(f"{z.attrs.get(a, 0.0):g}" for a in ZONE_ATTRIBUTES)
                fh.write(f"{z.zone_id},{z.population:g},{vals}\n")


def _grid_parts(rows: int, cols: int, spacing_m: float,
                speed_mps: float) -> tuple[list[Node], list[Edge], float]:
    """Nodes, edges and service area (km^2) of the grid generate_grid builds."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    if spacing_m <= 0 or speed_mps <= 0:
        raise ValueError("spacing and speed must be positive")
    nodes = []
    for r in range(rows):
        for c in range(cols):
            nodes.append(Node(r * cols + c, c * spacing_m, r * spacing_m))
    edges = []
    eid = 0
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c
            if c + 1 < cols:
                right = nid + 1
                edges.append(_make_edge(eid, nid, right, spacing_m, speed_mps)); eid += 1
                edges.append(_make_edge(eid, right, nid, spacing_m, speed_mps)); eid += 1
            if r + 1 < rows:
                down = nid + cols
                edges.append(_make_edge(eid, nid, down, spacing_m, speed_mps)); eid += 1
                edges.append(_make_edge(eid, down, nid, spacing_m, speed_mps)); eid += 1
    area_km2 = (rows * spacing_m) * (cols * spacing_m) / 1e6
    return nodes, edges, area_km2


def generate_grid(rows: int, cols: int, spacing_m: float, speed_mps: float,
                  seed: int = 0) -> Network:
    """Bidirectional grid network with uniform spacing and speed.

    Node id = row * cols + col, x = col * spacing, y = row * spacing.
    Service area is rows*spacing by cols*spacing, in km^2: each node stands
    for one spacing-by-spacing cell. Construction is fully deterministic;
    the seed argument is accepted for interface symmetry with the demand
    generators and does not alter the output.
    """
    nodes, edges, area_km2 = _grid_parts(rows, cols, spacing_m, speed_mps)
    return Network(nodes, edges, area_km2=area_km2)
