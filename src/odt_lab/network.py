"""Road network model: nodes, directed edges, zones, and distance-based routing.

Routing minimizes driven distance, not time; travel time is read off the
distance-optimal path afterwards. Equal-length alternatives are resolved by
the lexicographically smallest edge-id sequence so repeated runs traverse
identical paths.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Annotated

from .rules import FINITE, NOT_NEGATIVE, POSITIVE, Rule, _check, _spec

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
GROUP_SHARE = Rule(lambda v: 0 <= v <= 1, "must be in [0, 1]")

# each input table's columns, read by read_table; every float must be finite
NODE_COLUMNS = {"id": int, "x": float, "y": float, "zone_id": str | None}
EDGE_COLUMNS = {"id": int, "from": int, "to": int, "length_m": Annotated[float, POSITIVE],
                "speed_mps": Annotated[float, POSITIVE]}
# pop_density is a zone-level value; the other attributes are population shares
ZONE_COLUMNS = {"zone_id": str, "population": Annotated[float, NOT_NEGATIVE],
                **{a: Annotated[float, NOT_NEGATIVE if a == "pop_density" else GROUP_SHARE]
                   for a in ZONE_ATTRIBUTES}}


class CsvParseError(ValueError):
    """A malformed row in an input CSV, reported with its line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def read_table(path: str, columns: dict) -> Iterator[tuple[int, dict]]:
    """Yield (line, row) for each row of a UTF-8 CSV, with or without a
    byte-order mark, each cell of columns read by its column's type: int,
    float or str, `| None` if it may be empty, Annotated with its rules.

    line is the file's own line where the row ends, blank lines counted.
    A row with more values than the header has columns is refused, as is a
    file that is not UTF-8, at the line of its first such byte, and a cell
    that breaks FINITE (every float) or its rules, as "<column>: <rule
    text>, got <value>".
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # decoded whole, so the offset is the file's
        line = len((exc.object[:exc.start] + b".").splitlines())
        raise CsvParseError(path, line,
                            f"byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None
    specs = {name: _spec(tp) for name, tp in columns.items()}
    reader = csv.DictReader(io.StringIO(text, newline=""))
    for row in reader:
        line = reader.line_num
        if None in row:  # DictReader's key for the values past the header's
            n = len(reader.fieldnames)
            raise CsvParseError(path, line, f"{n + len(row[None])} values for {n} columns")
        for name, (_, rules, optional, kind, _) in specs.items():
            raw = row.get(name)
            if raw is None or raw == "":
                if not optional:
                    raise CsvParseError(path, line, f"missing field '{name}'")
                row[name] = None
                continue
            try:
                value = row[name] = kind(raw)
            except ValueError:
                raise CsvParseError(path, line,
                                    f"bad value {raw!r} for field '{name}'") from None
            errors = []
            _check((FINITE, *rules) if kind is float else rules, value, name, errors)
            if errors:
                raise CsvParseError(path, line, errors[0])
        yield line, row


def read_keyed(path: str, columns: dict, key: str, what: str) -> Iterator[tuple[int, dict]]:
    """read_table, refusing at its line the first row whose key repeats an
    earlier row's, as "duplicate <what> <key>"."""
    seen = set()
    for line, row in read_table(path, columns):
        if row[key] in seen:
            raise CsvParseError(path, line, f"duplicate {what} {row[key]}")
        seen.add(row[key])
        yield line, row


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


def _make_edge(eid: int, frm: int, to: int, length_m: float, speed_mps: float) -> Edge:
    return Edge(eid, frm, to, length_m, speed_mps, length_m / speed_mps)


class Network:
    """Immutable routing graph with lazily cached shortest-path distances.

    Distance lookups run one reverse shortest-path search per queried
    destination and cache the result, so fleets of position queries against
    a common target (every vehicle to one pickup, every node to one stop)
    cost a single search. Every node has a dense slot (`_slot`, in id
    order). The search is Delta-stepping over one slot-indexed
    in-adjacency, `_in_slots`, built once with the network: for each slot,
    the (tail slot, metres) of every edge into it. Each cached tree is an
    array('d') of metres into its destination, indexed by slot, with
    math.inf where there is no route: 8 bytes a node. `distances_into`
    answers a few origins into one destination from that destination's
    tree if it is cached, else by the same search stopped once those
    origins' metres are final, and caches nothing. Each node's nearest
    stop of a route is cached next to the trees. A sweep builds one
    instance and shares it, caches included, across all of its runs.
    """

    def __init__(self, nodes: list[Node], edges: list[Edge],
                 zones: list[Zone] | None = None, area_km2: float | None = None):
        if not nodes:  # the connectivity searches start from slot 0
            raise NetworkValidationError("network has no nodes")
        self.nodes: dict[int, Node] = {n.id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise NetworkValidationError("duplicate node ids")
        self.edges: dict[int, Edge] = {e.id: e for e in edges}
        if len(self.edges) != len(edges):
            raise NetworkValidationError("duplicate edge ids")
        inf = math.inf
        for n in nodes:  # else the area, and so every density, is inf or nan
            if not (-inf < n.x < inf and -inf < n.y < inf):
                raise NetworkValidationError(f"node {n.id} at ({n.x}, {n.y}) is not finite")
        for e in edges:
            for endpoint in (e.frm, e.to):
                if endpoint not in self.nodes:
                    raise NetworkValidationError(
                        f"edge {e.id} references unknown node {endpoint}")
            # "not 0 < x < inf" also refuses nan
            if not 0 < e.length_m < inf:
                raise NetworkValidationError(
                    f"edge {e.id} has length_m {e.length_m}; it must be positive and finite")
            if not 0 < e.speed_mps < inf:
                raise NetworkValidationError(
                    f"edge {e.id} has speed_mps {e.speed_mps}; it must be positive and finite")
            if not e.travel_time_s < inf:
                raise NetworkValidationError(
                    f"edge {e.id} has travel_time_s {e.travel_time_s} "
                    f"({e.length_m} m at {e.speed_mps} m/s); it must be finite")
        # then no route, whichever edges it sums, can overflow to inf
        for total, unit in ((sum(e.length_m for e in edges), "m"),
                            (sum(e.travel_time_s for e in edges), "s")):
            if not total < inf:
                raise NetworkValidationError(
                    f"the edges sum to {total} {unit}; the total must be finite")
        # node id -> index into every distance tree
        self._slot: dict[int, int] = {nid: k for k, nid in enumerate(sorted(self.nodes))}
        self.out_edges: dict[int, list[Edge]] = {n.id: [] for n in nodes}
        # slot -> (tail slot, metres) of each edge into it
        self._in_slots: list[list[tuple[int, float]]] = [[] for _ in nodes]
        for e in sorted(edges, key=lambda e: e.id):
            self.out_edges[e.frm].append(e)
            self._in_slots[self._slot[e.to]].append((self._slot[e.frm], e.length_m))
        # bucket width of the tree search: the median edge length
        self._delta = sorted([e.length_m for e in edges])[len(edges) // 2] if edges else 1.0

        self.zones: dict[str, Zone] = {}
        if zones is not None:
            for z in zones:
                if z.zone_id in self.zones:
                    raise NetworkValidationError(f"duplicate zone id {z.zone_id}")
                self.zones[z.zone_id] = z
            if unknown := [n for n in nodes if n.zone_id and n.zone_id not in self.zones]:
                raise NetworkValidationError(
                    f"{len(unknown)} node(s) have a zone_id that names no zone; the first, "
                    f"node {unknown[0].id}, has zone_id {unknown[0].zone_id!r}")

        if area_km2 is None:
            area_km2 = self._bounding_box_km2()
        if not 0 < area_km2 < inf:
            raise NetworkValidationError(f"service area {area_km2} is not positive and finite")
        self.area_km2 = area_km2

        self._check_geometry()
        # node ids, in id order, that cannot both reach and be reached from
        # the lowest-id node: none exactly when the network is strongly connected
        self.outside_component = self._check_connectivity()

        # dest node id -> metres into dest, by slot
        self._dist_to: dict[int, array] = {}
        # (origin, dest) -> the edges of the canonical path
        self._path_cache: dict[tuple[int, int], tuple[Edge, ...]] = {}
        # stops -> node id -> (index of its nearest stop, metres to it)
        self._nearest: dict[tuple[int, ...], dict[int, tuple[int, float]]] = {}

    # -- construction-time checks ------------------------------------------

    def _bounding_box_km2(self) -> float:
        xs = [n.x for n in self.nodes.values()]
        ys = [n.y for n in self.nodes.values()]
        area = (max(xs) - min(xs)) * (max(ys) - min(ys)) / 1e6
        if area <= 0:
            raise NetworkValidationError(
                "the nodes span no area; give area_km2 (network.area_km2 in a scenario)")
        return area

    def _check_geometry(self) -> None:
        short = [e for e in self.edges.values()
                 if e.length_m < self.straight_line_m(e.frm, e.to) - 1e-6]
        if short:
            e = short[0]
            log.warning("%d edge(s) are shorter than the straight-line distance between "
                        "their endpoints; the first, edge %d, is %.1f m against %.1f m",
                        len(short), e.id, e.length_m, self.straight_line_m(e.frm, e.to))

    def _check_connectivity(self) -> tuple[int, ...]:
        """The ids of the nodes outside slot 0's strongly connected component,
        from one search each way; the runner reports them once per sweep."""
        pred = [[u for u, _ in ins] for ins in self._in_slots]
        succ = [[] for _ in pred]
        for v, us in enumerate(pred):
            for u in us:
                succ[u].append(v)
        inside = self._reach(0, succ) & self._reach(0, pred)
        return tuple(nid for nid, k in self._slot.items() if k not in inside)

    @staticmethod
    def _reach(start: int, adjacency: list[list[int]]) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            for v in adjacency[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    # -- queries -------------------------------------------------------------

    def straight_line_m(self, a: int, b: int) -> float:
        na, nb = self.nodes[a], self.nodes[b]
        return math.hypot(na.x - nb.x, na.y - nb.y)

    def nearest_stop(self, node: int, stops: list[int]) -> tuple[int, float]:
        """The stop closest to node by straight line, lowest index on a tie,
        as (index into stops, metres); computed once per node and stops."""
        by_node = self._nearest.setdefault(tuple(stops), {})
        hit = by_node.get(node)
        if hit is None:
            walks = [self.straight_line_m(node, stop) for stop in stops]
            best = min(range(len(stops)), key=lambda k: (walks[k], k))
            hit = by_node[node] = best, walks[best]
        return hit

    def zone_of(self, node_id: int) -> str | None:
        return self.nodes[node_id].zone_id

    def _distances_to(self, dest: int) -> array:
        cached = self._dist_to.get(dest)
        if cached is not None:
            return cached
        s = self._slot.get(dest)
        if s is None:
            raise KeyError(f"unknown node {dest}")
        tree = self._dist_to[dest] = array("d", self._search(s))
        return tree

    def distances_into(self, dest: int, origins: Iterable[int]) -> list[float]:
        """Metres from each origin into dest, math.inf where there is no
        route: dest's cached tree if there is one, else a search that stops
        once every origin's metres are final. It caches nothing."""
        slot = self._slot
        try:
            wanted = [slot[o] for o in origins]
        except KeyError as exc:
            raise KeyError(f"unknown node {exc.args[0]}") from None
        s = slot.get(dest)
        if s is None:
            raise KeyError(f"unknown node {dest}")
        tree = self._dist_to.get(dest)
        if tree is None:
            tree = self._search(s, wanted)
        return [tree[k] for k in wanted]

    def _search(self, s: int, targets: list[int] | None = None) -> list[float]:
        """Metres into slot s from every slot, by slot; with targets, the
        search may stop once the targets' metres are final, and only
        theirs are then exact."""
        # Delta-stepping: a slot waits in the bucket of its tentative metres,
        # buckets being delta wide. Bucket b is `cur`, b + 1 is `nxt`, and
        # later ones sit in `far` under their index, which `far_keys` heaps.
        # A slot is expanded FIFO within its bucket, and again only if its
        # metres dropped since. Every slot is expanded at its final value and
        # fl(x + w) is monotone in x, so the trees are the fixpoint a heap
        # search reaches, bit for bit, whatever the order of expansion.
        in_slots, delta = self._in_slots, self._delta
        dist = [math.inf] * len(in_slots)
        expanded = [math.inf] * len(in_slots)  # metres at the last expansion
        dist[s] = 0.0
        b = 0.0  # float indices: one too large for a float is inf, not an OverflowError
        cur, nxt, far, far_keys = [s], [], {}, []
        while True:
            top = (b + 1.0) * delta
            top2 = top + delta
            for u in cur:  # cur grows while it is walked
                d = dist[u]
                if d >= expanded[u]:
                    continue
                expanded[u] = d
                for v, w in in_slots[u]:
                    nd = d + w
                    if nd < dist[v]:
                        dist[v] = nd
                        if nd < top:
                            cur.append(v)
                        elif nd < top2:
                            nxt.append(v)
                        else:
                            k = nd // delta
                            if k in far:
                                far[k].append(v)
                            else:
                                far[k] = [v]
                                heappush(far_keys, k)
            # Once per finished bucket: the targets' metres are final when
            # no slot waiting to be expanded holds fewer, as expanding it
            # can only lower a slot to its own metres or more. A waiting slot
            # can sit below the bucket's bound (a far index rounds down), so
            # the bound only decides when to look at them.
            if targets is not None:
                most = max((dist[t] for t in targets), default=0.0)
                if most < top and all(most <= dist[v] for part in (nxt, *far.values())
                                      for v in part if dist[v] < expanded[v]):
                    break
            if nxt:
                b += 1.0
                cur = nxt
            elif far:
                b = heappop(far_keys)
                while b not in far:  # taken earlier as a nxt
                    b = heappop(far_keys)
                cur = far.pop(b)
            else:
                break
            nxt = far.pop(b + 1.0, [])
        return dist

    def distance_m(self, origin: int, dest: int) -> float:
        """Shortest driven distance, metres. Raises NoPathError when unreachable."""
        if origin not in self.nodes:
            raise KeyError(f"unknown node {origin}")
        d = self._distances_to(dest)[self._slot[origin]]
        if d == math.inf:
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
        dist, slot = self._distances_to(dest), self._slot
        try:
            here = dist[slot[current]]
        except KeyError:
            raise KeyError(f"unknown node {current}") from None
        if here == math.inf:
            raise NoPathError(f"no route from {current} to {dest}")
        tol = _EPS * (here if here > 1.0 else 1.0)
        for e in self.out_edges[current]:  # sorted by edge id
            # an edge into a node with no route gives inf, which never matches
            if abs(e.length_m + dist[slot[e.to]] - here) <= tol:
                return e
        raise NoPathError(f"no route from {current} to {dest}")  # pragma: no cover

    def shortest_path(self, origin: int, dest: int) -> tuple[Edge, ...]:
        """The edges of the distance-optimal path, with the deterministic
        edge-id tie-break; origin == dest yields no edges.
        """
        if origin == dest:
            if origin not in self.nodes:
                raise KeyError(f"unknown node {origin}")
            return ()
        path = self._path_cache.get((origin, dest))
        if path is None:
            edges = []
            cur = origin
            while cur != dest:
                e = self.next_edge(cur, dest)
                edges.append(e)
                cur = e.to
            path = self._path_cache[(origin, dest)] = tuple(edges)
        return path


# -- module-level operations --------------------------------------------------


def load_network(nodes_file: str, edges_file: str, zones_file: str | None = None,
                 area_km2: float | None = None) -> Network:
    """Build a validated Network from CSV inputs, whose columns and their
    rules are NODE_COLUMNS, EDGE_COLUMNS and, for the optional zones file,
    ZONE_COLUMNS."""
    nodes = [Node(row["id"], row["x"], row["y"], row["zone_id"])
             for _, row in read_keyed(nodes_file, NODE_COLUMNS, "id", "node id")]
    edges = [_make_edge(row["id"], row["from"], row["to"], row["length_m"], row["speed_mps"])
             for _, row in read_keyed(edges_file, EDGE_COLUMNS, "id", "edge id")]
    zones = None if zones_file is None else [
        Zone(row["zone_id"], row["population"], {a: row[a] for a in ZONE_ATTRIBUTES})
        for _, row in read_keyed(zones_file, ZONE_COLUMNS, "zone_id", "zone id")]
    return Network(nodes, edges, zones, area_km2=area_km2)


def generate_grid(rows: int, cols: int, spacing_m: float, speed_mps: float, *,
                  zone_rows: int = 0, zone_cols: int = 0, zone_population: float = 1000.0,
                  area_km2: float | None = None) -> Network:
    """Bidirectional grid network with uniform spacing and speed.

    Node id = row * cols + col, x = col * spacing, y = row * spacing.
    Service area is rows*spacing by cols*spacing, in km^2, unless area_km2
    is given: each node stands for one spacing-by-spacing cell.

    zone_rows > 0 carves the grid into zone_rows x zone_cols blocks of
    near-equal size. Synthetic zones carry a flat 0.5 share for every
    demographic attribute; real shares come from a zones file. That keeps
    equity output wired up on generated networks while making clear the
    groups are placeholders.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    if spacing_m <= 0 or speed_mps <= 0:
        raise ValueError("spacing and speed must be positive")
    zoned = zone_rows > 0
    nodes = []
    for r in range(rows):
        for c in range(cols):
            zr, zc = r * zone_rows // rows, c * zone_cols // cols
            zone = f"Z{zr * zone_cols + zc:02d}" if zoned else None
            nodes.append(Node(r * cols + c, c * spacing_m, r * spacing_m, zone))
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
    zones = [Zone(f"Z{i:02d}", zone_population, {a: 0.5 for a in ZONE_ATTRIBUTES})
             for i in range(zone_rows * zone_cols)] if zoned else None
    if area_km2 is None:
        area_km2 = (rows * spacing_m) * (cols * spacing_m) / 1e6
    return Network(nodes, edges, zones, area_km2=area_km2)
