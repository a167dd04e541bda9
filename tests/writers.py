"""CSV writers for the network and request files that odt_lab reads.

They write the schemas `network.load_network` and `demand.load_requests`
parse, so tests can build an input file from an in-memory network or day.
"""

from __future__ import annotations

from odt_lab.demand import RideRequest
from odt_lab.network import ZONE_ATTRIBUTES, Network


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


def save_requests(requests: list[RideRequest], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("id,time_s,origin,destination\n")
        for r in sorted(requests, key=lambda r: (r.request_time, r.id)):
            fh.write(f"{r.id},{r.request_time:.3f},{r.origin},{r.destination}\n")
