"""Routing graph tests: oracle equivalence, determinism, and file round-trips."""

from __future__ import annotations

import math
from random import Random

import pytest

from odt_lab.demand import load_requests, load_supply
from odt_lab.network import (ZONE_ATTRIBUTES, CsvParseError, Edge, Network,
                             NetworkValidationError, Node, NoPathError, Zone, _make_edge,
                             generate_grid, load_network, read_table)

from oracles import (dijkstra_from, distance_matrix, floyd_warshall,
                     lexicographic_shortest_edges, reverse_dijkstra)
from writers import save_network


def irregular_network(seed: int) -> Network:
    """4x4 grid with randomized edge lengths and a few extra chords."""
    rng = Random(seed)
    base = generate_grid(4, 4, 500.0, 10.0)
    nodes = [base.nodes[i] for i in sorted(base.nodes)]
    edges = []
    for eid in sorted(base.edges):
        e = base.edges[eid]
        length = rng.uniform(200.0, 900.0)
        edges.append(Edge(e.id, e.frm, e.to, length, e.speed_mps,
                          length / e.speed_mps))
    next_id = max(base.edges) + 1
    for _ in range(4):
        a, b = rng.sample(range(16), 2)
        length = rng.uniform(300.0, 1500.0)
        edges.append(Edge(next_id, a, b, length, 10.0, length / 10.0))
        next_id += 1
    return Network(nodes, edges)


# -- distances vs independent oracles --------------------------------------------


def test_distances_match_floyd_warshall_on_grid():
    net = generate_grid(5, 5, 500.0, 10.0)
    expect = floyd_warshall(net)
    for a in net.nodes:
        for b in net.nodes:
            assert net.distance_m(a, b) == pytest.approx(expect[a][b], abs=1e-9)


def relabelled(net: Network) -> Network:
    """net with node ids 1000 - 7 * id, listed in reverse id order, plus
    node 5, which has a way out and no way in."""
    def new(nid: int) -> int:
        return 1000 - 7 * nid
    nodes = [Node(new(n.id), n.x, n.y) for n in sorted(net.nodes.values(),
                                                       key=lambda n: -n.id)]
    edges = [Edge(e.id, new(e.frm), new(e.to), e.length_m, e.speed_mps,
                  e.travel_time_s) for e in net.edges.values()]
    edges.append(Edge(max(net.edges) + 1, 5, new(0), 150.0, 10.0, 15.0))
    return Network(nodes + [Node(5, -100.0, 0.0)], edges)


def test_distances_match_forward_dijkstra_on_irregular_networks():
    # the relabelled copies give ids that differ from their tree slots
    unreachable = 0
    for seed in range(10):
        for net in (irregular_network(seed), relabelled(irregular_network(seed))):
            for source in net.nodes:
                expect = dijkstra_from(net, source)
                for b in net.nodes:
                    if expect[b] == math.inf:
                        unreachable += 1
                        with pytest.raises(NoPathError):
                            net.distance_m(source, b)
                        with pytest.raises(NoPathError):
                            net.shortest_path(source, b)
                    else:
                        assert net.distance_m(source, b) == pytest.approx(
                            expect[b], rel=1e-12)
    assert unreachable == 10 * 16  # every other node toward node 5, per copy


def random_directed_network(seed: int, n: int = 30,
                            length=lambda rng: rng.uniform(100.0, 900.0)) -> Network:
    """n nodes with scattered ids, four random out-edges each (lengths
    drawn by `length`, by default uniform 100-900 m), and one dead end: a
    node with edges in, none out."""
    rng = Random(seed)
    ids = rng.sample(range(10 * n), n)
    nodes = [Node(nid, rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)) for nid in ids]
    edges = []
    for a in ids[1:]:
        for b in rng.sample(ids, 4):
            if b != a:
                metres = length(rng)
                edges.append(Edge(len(edges), a, b, metres, 10.0, metres / 10.0))
    rng.shuffle(edges)
    return Network(nodes, edges)


def test_trees_equal_the_edge_object_reference_bit_for_bit():
    dead_ends = 0
    for seed in range(30):
        net = random_directed_network(seed)  # edges listed out of id order
        assert all([e.id for e in out] == sorted(e.id for e in out)
                   for out in net.out_edges.values())
        for dest in net.nodes:
            assert net._distances_to(dest) == reverse_dijkstra(net, dest)
        reach = {}
        for origin in net.nodes:
            seen, stack = {origin}, [origin]
            while stack:
                for e in net.out_edges[stack.pop()]:
                    if e.to not in seen:
                        seen.add(e.to)
                        stack.append(e.to)
            reach[origin] = seen
            dead_ends += len(seen) == 1
        # the lowest-id node's strongly connected component, from every reach set
        first = min(net.nodes)
        component = {v for v in net.nodes if v in reach[first] and first in reach[v]}
        assert net.outside_component == tuple(sorted(set(net.nodes) - component))
        unreachable = sum(len(net.nodes) - len(seen) for seen in reach.values())
        assert (net.outside_component == ()) == (unreachable == 0)
    assert dead_ends >= 30

    # Lengths over six orders of magnitude, so that slots in one bucket of
    # the search improve one another; then 1e306 m edges among 0.5 m ones
    # (at most 116 edges, so the network's total metres stay finite, as
    # `Network` requires), and a denormal median, whose bucket indices
    # overflow to inf.
    nets = [random_directed_network(seed, length=draw) for seed in range(10)
            for draw in (lambda rng: 10 ** rng.uniform(-2, 4),
                         lambda rng: rng.choice((0.5, 0.5, 500.0, 1e306)),
                         lambda rng: rng.choice((5e-324, 5e-324, 500.0, 1e306)))]
    # Two routes into node 0 whose sums differ only by rounding: 3 -> 1 -> 0
    # folds to 0.1 + 0.2 = 0.30000000000000004 against 3 -> 0's 0.3, and
    # 2 -> 1 -> 0 ties 2 -> 0 exactly.
    legs = [(3, 1, 0.2), (1, 0, 0.1), (3, 0, 0.3), (2, 1, 0.2), (2, 0, 0.1 + 0.2)]
    rounding = Network([Node(i, 0.0, 0.0) for i in range(4)],
                       [Edge(k, a, b, m, 10.0, m / 10.0) for k, (a, b, m) in enumerate(legs)],
                       area_km2=1.0)
    assert list(rounding._distances_to(0)) == [0.0, 0.1, 0.30000000000000004, 0.3]
    huge = 0
    for net in nets + [rounding]:
        for dest in net.nodes:
            tree = net._distances_to(dest)
            assert tree == reverse_dijkstra(net, dest)
            huge += any(1e306 <= d < math.inf and d // net._delta == math.inf
                        for d in tree)
    assert huge > 0


def test_triangle_inequality_holds():
    net = irregular_network(3)
    rng = Random(99)
    for _ in range(300):
        a, b, c = (rng.randrange(16) for _ in range(3))
        assert net.distance_m(a, c) <= net.distance_m(a, b) + net.distance_m(b, c) + 1e-9


# -- canonical path choice --------------------------------------------------------


def test_paths_pick_lexicographically_smallest_edge_sequence():
    # grids are full of equal-length alternatives, so tie-breaking is the
    # whole story here
    net = generate_grid(4, 4, 500.0, 10.0)
    rng = Random(7)
    for _ in range(60):
        a, b = rng.sample(range(16), 2)
        got = [e.id for e in net.shortest_path(a, b)]
        assert got == lexicographic_shortest_edges(net, a, b)


def test_paths_are_stable_across_instances():
    picks = []
    for _ in range(3):
        net = generate_grid(5, 5, 500.0, 10.0)
        picks.append([e.id for e in net.shortest_path(0, 24)])
    assert picks[0] == picks[1] == picks[2]


def test_path_totals_consistent_with_edges():
    net = irregular_network(1)
    for a, b in ((0, 15), (3, 12), (15, 0)):
        path = net.shortest_path(a, b)
        assert path[0].frm == a and path[-1].to == b
        assert all(e.to == f.frm for e, f in zip(path, path[1:]))
        assert sum(e.length_m for e in path) == pytest.approx(net.distance_m(a, b))


def test_same_node_path_is_empty():
    net = generate_grid(2, 2, 500.0, 10.0)
    assert net.shortest_path(3, 3) == ()
    assert net.distance_m(3, 3) == 0.0


# -- grid generation ---------------------------------------------------------------


def test_grid_structure_and_area():
    net = generate_grid(2, 2, 500.0, 10.0)
    assert sorted(net.nodes) == [0, 1, 2, 3]
    assert len(net.edges) == 8  # 4 adjacencies, both directions
    assert (net.nodes[3].x, net.nodes[3].y) == (500.0, 500.0)
    assert net.area_km2 == pytest.approx(1.0)
    ten = generate_grid(10, 10, 500.0, 10.0)
    assert ten.area_km2 == pytest.approx(25.0)
    assert len(ten.nodes) == 100
    assert len(ten.edges) == 360


def test_grid_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        generate_grid(1, 5, 500.0, 10.0)
    with pytest.raises(ValueError):
        generate_grid(3, 3, -1.0, 10.0)


def test_grid_zones_are_near_equal_blocks():
    net = generate_grid(5, 5, 500.0, 10.0, zone_rows=2, zone_cols=2,
                        zone_population=250.0, area_km2=3.0)
    assert net.area_km2 == 3.0
    blocks = {}
    for n in sorted(net.nodes):
        blocks.setdefault(net.zone_of(n), []).append(n)
    assert blocks == {
        "Z00": [0, 1, 2, 5, 6, 7, 10, 11, 12], "Z01": [3, 4, 8, 9, 13, 14],
        "Z02": [15, 16, 17, 20, 21, 22], "Z03": [18, 19, 23, 24]}
    assert set(net.zones) == set(blocks)
    assert all(z.population == 250.0 and set(z.attrs.values()) == {0.5}
               for z in net.zones.values())
    assert generate_grid(5, 5, 500.0, 10.0).zones == {}


# -- validation ---------------------------------------------------------------------


def test_duplicate_and_dangling_inputs_rejected():
    n = [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)]
    e = lambda eid, a, b: Edge(eid, a, b, 100.0, 10.0, 10.0)
    with pytest.raises(NetworkValidationError):
        Network(n + [Node(0, 5.0, 5.0)], [e(0, 0, 1)])
    with pytest.raises(NetworkValidationError):
        Network(n, [e(0, 0, 1), e(0, 1, 0)])
    with pytest.raises(NetworkValidationError):
        Network(n, [e(0, 0, 7)])
    with pytest.raises(NetworkValidationError):
        Network(n, [Edge(0, 0, 1, -5.0, 10.0, -0.5)])
    for length, speed in ((math.nan, 10.0), (math.inf, 10.0), (100.0, math.inf),
                          (100.0, math.nan), (100.0, 0.0)):
        with pytest.raises(NetworkValidationError, match="edge 0 has"):
            Network(n, [Edge(0, 0, 1, length, speed, 10.0)])
    # a finite length and speed whose quotient overflows
    with pytest.raises(NetworkValidationError, match="edge 0 has travel_time_s inf"):
        Network(n, [_make_edge(0, 0, 1, 1e10, 1e-300)])


@pytest.mark.parametrize("x, y", [(math.inf, 0.0), (0.0, math.nan), (-math.inf, 1.0)])
@pytest.mark.parametrize("area_km2", [None, 1.0])
def test_a_node_whose_coordinates_are_not_finite_is_refused(x, y, area_km2):
    # an inf coordinate made the bounding box, and so every density, inf or
    # nan; with area_km2 given it went unnoticed
    nodes = [Node(0, 0.0, 0.0), Node(1, x, y)]
    edges = [_make_edge(0, 0, 1, 100.0, 10.0), _make_edge(1, 1, 0, 100.0, 10.0)]
    with pytest.raises(NetworkValidationError) as err:
        Network(nodes, edges, area_km2=area_km2)
    assert str(err.value) == f"node 1 at ({x}, {y}) is not finite"


@pytest.mark.parametrize("nodes, area_km2", [
    ([Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)], 0.0),
    ([Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)], -1.0),
    ([Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)], math.inf),
    ([Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)], math.nan),
    ([Node(0, -1e300, -1e300), Node(1, 1e300, 1e300)], None),  # a box past the largest float
], ids=["zero", "negative", "inf", "nan", "box-overflows"])
def test_a_service_area_that_is_not_positive_and_finite_is_refused(nodes, area_km2):
    edges = [_make_edge(0, 0, 1, 100.0, 10.0), _make_edge(1, 1, 0, 100.0, 10.0)]
    with pytest.raises(NetworkValidationError) as err:
        Network(nodes, edges, area_km2=area_km2)
    area = math.inf if area_km2 is None else area_km2
    assert str(err.value) == f"service area {area} is not positive and finite"


@pytest.mark.parametrize("nodes", [
    [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)],
    [Node(0, 5.0, 0.0), Node(1, 5.0, 300.0)],
    [Node(0, 7.0, 7.0), Node(1, 7.0, 7.0)],
], ids=["along-x", "along-y", "one-point"])
def test_nodes_that_span_no_area_need_a_given_area(nodes):
    # their bounding box used to read as 1 km^2, an area no input gave
    edges = [_make_edge(0, 0, 1, 100.0, 10.0), _make_edge(1, 1, 0, 100.0, 10.0)]
    with pytest.raises(NetworkValidationError) as err:
        Network(nodes, edges)
    assert str(err.value) == ("the nodes span no area; give area_km2 "
                              "(network.area_km2 in a scenario)")
    assert Network(nodes, edges, area_km2=2.0).area_km2 == 2.0


def test_a_repeated_zone_id_is_refused():
    nodes = [Node(0, 0.0, 0.0, "A"), Node(1, 100.0, 0.0, "A")]
    edges = [_make_edge(0, 0, 1, 100.0, 10.0), _make_edge(1, 1, 0, 100.0, 10.0)]
    with pytest.raises(NetworkValidationError, match="^duplicate zone id A$"):
        Network(nodes, edges, [Zone("A", 10.0), Zone("A", 20.0)])


def test_queries_refuse_an_unknown_node_and_a_step_from_the_destination():
    net = generate_grid(2, 2, 500.0, 10.0)
    for query in (lambda: net._distances_to(9), lambda: net.distance_m(9, 0),
                  lambda: net.distance_m(0, 9), lambda: net.shortest_path(9, 9),
                  lambda: net.shortest_path(0, 9), lambda: net.next_edge(0, 9),
                  lambda: net.next_edge(9, 0)):
        with pytest.raises(KeyError, match="unknown node 9"):
            query()
    with pytest.raises(ValueError, match="already at destination"):
        net.next_edge(3, 3)


def line_of_three(length_m: float, speed_mps: float) -> Network:
    """Nodes 0 - 1 - 2 joined both ways by edges of one length and speed."""
    nodes = [Node(i, 1000.0 * i, 0.0) for i in range(3)]
    legs = [(0, 1), (1, 0), (1, 2), (2, 1)]
    return Network(nodes, [_make_edge(k, a, b, length_m, speed_mps)
                           for k, (a, b) in enumerate(legs)], area_km2=1.0)


def test_edges_whose_total_overflows_are_rejected():
    # 0 -> 1 -> 2 would sum 2e308 m, past the largest float, and read as no
    # route though every node reaches every other
    with pytest.raises(NetworkValidationError, match="the edges sum to inf m"):
        line_of_three(1e308, 10.0)
    # likewise the clock: 1e300 m at 1e-8 m/s takes 1e308 s an edge
    with pytest.raises(NetworkValidationError, match="the edges sum to inf s"):
        line_of_three(1e300, 1e-8)
    net = line_of_three(4e307, 10.0)  # 1.6e308 m in all
    assert net.outside_component == () and net.distance_m(0, 2) == 8e307


def test_geometry_warning_for_too_short_edge(caplog):
    n = [Node(0, 0.0, 0.0), Node(1, 1000.0, 0.0)]
    edges = [Edge(0, 0, 1, 100.0, 10.0, 10.0), Edge(1, 1, 0, 1000.0, 10.0, 100.0)]
    with caplog.at_level("WARNING"):
        Network(n, edges, area_km2=1.0)
    assert any("straight-line" in r.message for r in caplog.records)


def test_disconnected_network_names_the_nodes_outside_the_first_component():
    n = [Node(i, float(i), 0.0) for i in range(4)]
    edges = [Edge(0, 0, 1, 10.0, 10.0, 1.0), Edge(1, 1, 0, 10.0, 10.0, 1.0),
             Edge(2, 2, 3, 10.0, 10.0, 1.0), Edge(3, 3, 2, 10.0, 10.0, 1.0)]
    net = Network(n, edges, area_km2=1.0)
    assert net.outside_component == (2, 3)  # 2 components of 2
    with pytest.raises(NoPathError):
        net.distance_m(0, 3)


@pytest.mark.parametrize("area_km2", [None, 1.0])
def test_a_network_without_nodes_is_refused(area_km2):
    with pytest.raises(NetworkValidationError, match="network has no nodes"):
        Network([], [], area_km2=area_km2)


def test_connectivity_costs_two_searches_however_many_nodes(monkeypatch):
    # a 20x20 grid and a one-way spur into it: the spur's node is outside
    # node 0's component, found by one search forward and one backward
    grid = generate_grid(20, 20, 500.0, 10.0)
    nodes = [*grid.nodes.values(), Node(400, -500.0, 0.0)]
    edges = [*grid.edges.values(), _make_edge(len(grid.edges), 400, 0, 500.0, 10.0)]
    searches = []
    reach = Network._reach
    monkeypatch.setattr(Network, "_reach", staticmethod(
        lambda start, adjacency: searches.append(start) or reach(start, adjacency)))
    net = Network(nodes, edges)
    assert searches == [0, 0]
    assert net.outside_component == (400,)


# -- CSV round trip -----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    net = generate_grid(3, 3, 500.0, 10.0)
    nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
    save_network(net, str(nodes), str(edges))
    back = load_network(str(nodes), str(edges), area_km2=net.area_km2)
    assert sorted(back.nodes) == sorted(net.nodes)
    assert all(back.edges[i].length_m == net.edges[i].length_m for i in net.edges)
    for a, b in ((0, 8), (2, 6)):
        assert [e.id for e in back.shortest_path(a, b)] == \
               [e.id for e in net.shortest_path(a, b)]


def test_zones_round_trip_and_lookup(tmp_path):
    nodes = [Node(0, 0.0, 0.0, "A"), Node(1, 500.0, 0.0, "A"), Node(2, 1000.0, 0.0, "B")]
    edges = [Edge(0, 0, 1, 500.0, 10.0, 50.0), Edge(1, 1, 0, 500.0, 10.0, 50.0),
             Edge(2, 1, 2, 500.0, 10.0, 50.0), Edge(3, 2, 1, 500.0, 10.0, 50.0)]
    zones = [Zone("A", 1200.0, {a: 0.25 for a in
                                ("income", "education", "employment", "young_adults",
                                 "seniors", "single_parents", "pop_density")}),
             Zone("B", 800.0, {a: 0.5 for a in
                               ("income", "education", "employment", "young_adults",
                                "seniors", "single_parents", "pop_density")})]
    net = Network(nodes, edges, zones, area_km2=2.0)
    assert [net.zone_of(n) for n in (0, 1, 2)] == ["A", "A", "B"]

    nf, ef, zf = (tmp_path / x for x in ("n.csv", "e.csv", "z.csv"))
    save_network(net, str(nf), str(ef), str(zf))
    back = load_network(str(nf), str(ef), str(zf), area_km2=2.0)
    assert back.zone_of(1) == "A"
    assert back.zones["B"].population == 800.0
    assert back.zones["B"].attrs["income"] == 0.5


def test_a_node_zone_must_name_a_given_zone(tmp_path):
    nodes, edges, zones = (tmp_path / x for x in ("n.csv", "e.csv", "z.csv"))
    edges.write_text("id,from,to,length_m,speed_mps\n0,0,1,500,10\n1,1,0,500,10\n"
                     "2,0,2,500,10\n3,2,0,500,10\n")
    zones.write_text("zone_id,population," + ",".join(ZONE_ATTRIBUTES) + "\n"
                     "A,100" + ",0.5" * (len(ZONE_ATTRIBUTES) - 1) + ",3\n")
    nodes.write_text("id,x,y,zone_id\n0,0,0,Q\n1,500,0,A\n2,0,500,R\n")
    with pytest.raises(NetworkValidationError) as err:
        load_network(str(nodes), str(edges), str(zones))
    assert str(err.value) == ("2 node(s) have a zone_id that names no zone; the first, "
                              "node 0, has zone_id 'Q'")
    # a node with no zone stays allowed, and with no zones every zone_id is kept
    nodes.write_text("id,x,y,zone_id\n0,0,0,\n1,500,0,A\n2,0,500,A\n")
    assert load_network(str(nodes), str(edges), str(zones)).zone_of(0) is None
    nodes.write_text("id,x,y,zone_id\n0,0,0,Q\n1,500,0,A\n2,0,500,A\n")
    assert load_network(str(nodes), str(edges)).zone_of(0) == "Q"
    # a zones file with a header alone gives no zone to name
    zones.write_text(zones.read_text().splitlines()[0] + "\n")
    with pytest.raises(NetworkValidationError, match="^3 node"):
        load_network(str(nodes), str(edges), str(zones))


def test_csv_errors_carry_file_and_line(tmp_path):
    nodes = tmp_path / "n.csv"
    nodes.write_text("id,x,y\n0,0,0\n1,oops,0\n")
    edges = tmp_path / "e.csv"
    edges.write_text("id,from,to,length_m,speed_mps\n")
    with pytest.raises(CsvParseError) as err:
        load_network(str(nodes), str(edges))
    assert err.value.line_no == 3
    assert str(err.value).startswith(str(nodes))

    nodes.write_text("id,x,y\n0,0,0\n1,500,0\n")
    edges.write_text("id,from,to,length_m,speed_mps\n0,0,1,500\n")
    with pytest.raises(CsvParseError) as err:
        load_network(str(nodes), str(edges))
    assert err.value.line_no == 2

    # a quoted field may span lines: a row is named by the line it ends on
    nodes.write_text('id,x,y,zone_id\n0,0,0,"north\nend"\n1,oops,0,"a\nb"\n')
    edges.write_text("id,from,to,length_m,speed_mps\n")
    with pytest.raises(CsvParseError) as err:
        load_network(str(nodes), str(edges))
    assert str(err.value) == f"{nodes}:5: bad value 'oops' for field 'x'"


SHARES = ",0.5" * (len(ZONE_ATTRIBUTES) - 1)
# table -> (header, two good rows, a bad row, its message)
TABLES = {
    "nodes": ("id,x,y,zone_id", ["0,0,0,A", "1,500,0,B"], "2,oops,0,A",
              "bad value 'oops' for field 'x'"),
    "edges": ("id,from,to,length_m,speed_mps", ["0,0,1,500,10", "1,1,0,500,10"], "2,0,1,500",
              "missing field 'speed_mps'"),
    "zones": ("zone_id,population," + ",".join(ZONE_ATTRIBUTES),
              ["A,100" + SHARES + ",3", "B,200" + SHARES + ",4"], "C,many" + SHARES + ",5",
              "bad value 'many' for field 'population'"),
    "requests": ("id,time_s,origin,destination", ["1,5.0,0,1", "2,9.0,1,0"], "3,x,1,2",
                 "bad value 'x' for field 'time_s'"),
    "supply": ("hour,vehicles", ["7,2", "8,3"], "9,x", "bad value 'x' for field 'vehicles'"),
}


def load_table(table: str, path, tmp_path):
    """Load path as the named table, the other network files good, and
    return what was read of it."""
    if table == "requests":
        return load_requests(str(path))
    if table == "supply":
        return load_supply(str(path)).hourly_counts
    files = {}
    for name in ("nodes", "edges", "zones"):
        files[name] = tmp_path / f"good_{name}.csv"
        header, rows = TABLES[name][:2]
        files[name].write_text("\n".join([header, *rows]) + "\n")
    files[table] = path
    net = load_network(*(str(files[n]) for n in ("nodes", "edges", "zones")), area_km2=1.0)
    return {"nodes": net.nodes, "edges": net.edges, "zones": net.zones}[table]


@pytest.mark.parametrize("table", TABLES)
def test_every_input_table_names_the_files_own_line_and_reads_a_byte_order_mark(
        tmp_path, table):
    header, rows, bad, message = TABLES[table]
    path = tmp_path / f"{table}.csv"
    # a blank line counts: the bad row is the file's fifth line
    path.write_text("\n".join([header, rows[0], "", rows[1], bad]) + "\n")
    with pytest.raises(CsvParseError) as err:
        load_table(table, path, tmp_path)
    assert str(err.value) == f"{path}:5: {message}"
    assert (err.value.path, err.value.line_no) == (str(path), 5)

    # a stray comma: one value more than the header has columns
    path.write_text("\n".join([header, rows[0], rows[1] + ",99"]) + "\n")
    with pytest.raises(CsvParseError) as err:
        load_table(table, path, tmp_path)
    n = header.count(",") + 1
    assert str(err.value) == f"{path}:3: {n + 1} values for {n} columns"

    path.write_text("\n".join([header, *rows]) + "\n")
    plain = load_table(table, path, tmp_path)
    # the same file as Excel's "CSV UTF-8" export writes it
    path.write_text("\ufeff" + "\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert load_table(table, path, tmp_path) == plain


# table -> a row that repeats the first good row's key, and its message
REPEATS = {"nodes": ("0,900,900,B", "duplicate node id 0"),
           "edges": ("0,1,0,700,10", "duplicate edge id 0"),
           "zones": ("A,50" + SHARES + ",1", "duplicate zone id A"),
           "requests": ("1,7.0,1,0", "duplicate request id 1"),
           "supply": ("7,4", "duplicate hour 7")}


@pytest.mark.parametrize("table", REPEATS)
def test_a_repeated_key_is_named_with_its_file_and_line(tmp_path, table):
    header, rows = TABLES[table][:2]
    repeat, message = REPEATS[table]
    path = tmp_path / f"{table}.csv"
    path.write_text("\n".join([header, *rows, repeat]) + "\n")
    with pytest.raises(CsvParseError) as err:
        load_table(table, path, tmp_path)
    assert str(err.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "byte-order-mark"])
def test_a_table_that_is_not_utf8_is_named_at_the_line_of_its_first_such_byte(tmp_path, mark):
    # past the first block the decoder reads, whose offsets are not the file's
    path = tmp_path / "nodes.csv"
    rows = [f"{i},{i}.5,0" for i in range(3000)]
    rows[1500] = "1500,1500.5,0,Montréal"
    rows[2500] = "2500,2500.5,0,Montréal"
    text = mark + "\n".join(["id,x,y,zone_id", *rows]) + "\n"
    path.write_bytes(text.encode("utf-8").replace("é".encode("utf-8"), b"\xe9"))
    with pytest.raises(CsvParseError) as err:
        list(read_table(str(path), {"id": int}))
    assert str(err.value) == f"{path}:1502: byte 0xe9 is not UTF-8"


def test_straight_line_distance():
    net = generate_grid(2, 2, 300.0, 10.0)
    assert net.straight_line_m(0, 3) == pytest.approx(math.hypot(300.0, 300.0))
