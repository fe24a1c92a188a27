"""Unit tests for routing and the generic fabric."""

import zlib

import networkx as nx
import pytest

from repro.errors import ConfigurationError, RoutingError, TopologyError
from repro.network import (
    Fabric,
    LinkSpec,
    Message,
    RoutingTable,
    all_to_all_topology,
    dimension_order_route,
    fat_tree_topology,
    star_topology,
    topology,
    torus_topology,
)
from repro.simkernel import Simulator

from tests.conftest import drive, run_to_end

SPEC = LinkSpec(latency_s=1e-6, bandwidth_bytes_per_s=1e9)


def make_star_fabric(sim, n=4, contention=True):
    eps = [f"n{i}" for i in range(n)]
    fabric = Fabric(
        sim, star_topology(eps), SPEC, name="f", contention=contention
    )
    for e in eps:
        fabric.attach_endpoint(e)
    return fabric, eps


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


def test_dimension_order_route_corrects_axes_in_order():
    topo = torus_topology((4, 4))
    path = dimension_order_route(topo, "bn0_0", "bn2_2")
    coords = [topo.graph.nodes[p]["coord"] for p in path]
    assert coords[0] == (0, 0) and coords[-1] == (2, 2)
    # X corrected before Y.
    assert coords[1][1] == 0 and coords[2][1] == 0


def test_dimension_order_uses_wraparound():
    topo = torus_topology((4,))
    path = dimension_order_route(topo, "bn0", "bn3")
    assert len(path) == 2  # 0 -> 3 the short way around


def test_dimension_order_requires_torus():
    topo = star_topology(["a", "b"])
    with pytest.raises(TopologyError):
        dimension_order_route(topo, "a", "b")


def test_routing_table_shortest_and_cache():
    topo = star_topology([f"n{i}" for i in range(4)])
    rt = RoutingTable(topo)
    assert rt.route("n0", "n1") == ["n0", "sw0", "n1"]
    assert rt.hops("n0", "n1") == 2
    assert rt.route("n0", "n0") == ["n0"]
    assert rt.route("n0", "n1") is rt.route("n0", "n1")  # cached


#: Switched and direct topologies routed by shortest paths; the fat
#: tree has 3 equal-cost spine paths between its 5 leaves.
SHORTEST_TOPOLOGIES = {
    "fat-tree": lambda: fat_tree_topology([f"cn{i}" for i in range(20)], leaf_radix=4),
    "star": lambda: star_topology([f"n{i}" for i in range(6)]),
    "all-to-all": lambda: all_to_all_topology([f"n{i}" for i in range(6)]),
}

#: Every builder, for the networkx oracle: a fat tree on one leaf has
#: no spines, and the 3x4x2 torus has equal-cost paths in two of its
#: dimensions.
ORACLE_TOPOLOGIES = {
    **SHORTEST_TOPOLOGIES,
    "single-leaf-fat-tree": lambda: fat_tree_topology([f"cn{i}" for i in range(5)]),
    "torus": lambda: torus_topology((3, 4, 2)),
}


def ordered_pairs(topo):
    return [(a, b) for a in topo.endpoints for b in topo.endpoints if a != b]


def networkx_twin(build, monkeypatch):
    """*build*'s topology made of the same ``add_node``/``add_edge``
    calls on a ``networkx.Graph``."""
    with monkeypatch.context() as m:
        m.setattr(topology, "Graph", nx.Graph, raising=False)
        return build()


@pytest.mark.parametrize("name", sorted(ORACLE_TOPOLOGIES))
def test_shortest_routes_equal_networkx_all_shortest_paths(name, monkeypatch):
    build = ORACLE_TOPOLOGIES[name]
    topo, twin = build(), networkx_twin(build, monkeypatch)
    assert isinstance(twin.graph, nx.Graph)
    assert list(topo.graph.nodes) == list(twin.graph.nodes)
    # Fabrics create their links in edge order.
    assert list(topo.graph.edges) == list(twin.graph.edges)
    rt = RoutingTable(topo)
    for src, dst in ordered_pairs(topo):
        paths = list(nx.all_shortest_paths(twin.graph, src, dst))
        assert rt.candidate_routes(src, dst) == paths
        pick = zlib.crc32(f"{src}->{dst}".encode()) % len(paths)
        assert rt.route(src, dst) == paths[pick]


@pytest.mark.parametrize("name", sorted(SHORTEST_TOPOLOGIES))
def test_routing_table_runs_one_bfs_per_source(name, monkeypatch):
    topo = SHORTEST_TOPOLOGIES[name]()
    sources = []
    bfs = topology.Graph.predecessors

    def counting_bfs(graph, source):
        sources.append(source)
        return bfs(graph, source)

    monkeypatch.setattr(topology.Graph, "predecessors", counting_bfs)
    rt = RoutingTable(topo)
    for src, dst in ordered_pairs(topo):
        rt.route(src, dst)
        rt.candidate_routes(src, dst)
    assert sorted(sources) == sorted(topo.endpoints)


def test_routing_table_unknown_scheme():
    topo = star_topology(["a", "b"])
    with pytest.raises(RoutingError):
        RoutingTable(topo, scheme="wormhole")


def test_routing_no_route():
    g = topology.Graph()
    g.add_node("a", kind="endpoint")
    g.add_node("b", kind="endpoint")
    topo = topology.Topology(g)
    with pytest.raises(TopologyError, match="not connected"):
        topo.validate_connected()
    rt = RoutingTable(topo)
    with pytest.raises(RoutingError):
        rt.route("a", "b")


def test_average_hops_torus():
    topo = torus_topology((4, 4))
    rt = RoutingTable(topo, scheme="dimension-order")
    avg = rt.average_hops()
    # Sum of ring distances from a node on a 4-ring is 4; over the 15
    # ordered peers of the 4x4 torus that is (4*4 + 4*4)/15 = 32/15.
    assert avg == pytest.approx(32.0 / 15.0, rel=0.01)


# ---------------------------------------------------------------------------
# fabric transfers
# ---------------------------------------------------------------------------


def test_ideal_transfer_time(sim):
    fabric, eps = make_star_fabric(sim)
    t = fabric.ideal_transfer_time("n0", "n1", 1_000_000)
    assert t == pytest.approx(2e-6 + 1e-3)


def test_transfer_delivers_message(sim):
    fabric, eps = make_star_fabric(sim)
    msg = Message(src="n0", dst="n1", size_bytes=1000)

    def send(sim):
        rec = yield from fabric.interface("n0").send(msg)
        return rec

    def recv(sim):
        m = yield fabric.interface("n1").inbox.get()
        return (m, sim.now)

    rec, (m, t) = drive(sim, send(sim), recv(sim))
    assert m is msg
    assert m.latency == pytest.approx(2e-6 + 1e-6)
    assert rec.hops == 2


def test_loopback_transfer(sim):
    fabric, _ = make_star_fabric(sim)

    def p(sim):
        rec = yield from fabric.transfer("n0", "n0", 100)
        return rec

    rec = run_to_end(sim, p(sim))
    assert rec.hops == 0
    assert rec.duration == pytest.approx(fabric.loopback_latency_s)


def test_contention_on_shared_destination_link(sim):
    fabric, _ = make_star_fabric(sim)
    recs = []

    def send(sim, src):
        rec = yield from fabric.transfer(src, "n3", 1_000_000)
        recs.append(rec)

    sim.process(send(sim, "n0"))
    sim.process(send(sim, "n1"))
    sim.run()
    ends = sorted(r.end for r in recs)
    # Second transfer waits for the sw0->n3 link: ~double the time.
    assert ends[1] == pytest.approx(ends[0] + 1e-3, rel=0.01)


def test_analytic_mode_ignores_contention(sim):
    fabric, _ = make_star_fabric(sim, contention=False)
    recs = []

    def send(sim, src):
        rec = yield from fabric.transfer(src, "n3", 1_000_000)
        recs.append(rec)

    sim.process(send(sim, "n0"))
    sim.process(send(sim, "n1"))
    sim.run()
    ends = [r.end for r in recs]
    assert ends[0] == pytest.approx(ends[1])


def shared_link_transfers(sim):
    """n0->n3 and n1->n3 at t=0: both cross sw0->n3, the second waits."""
    fabric, _ = make_star_fabric(sim)

    def send(sim, src):
        yield from fabric.transfer(src, "n3", 1_000_000)

    sim.process(send(sim, "n0"))
    sim.process(send(sim, "n1"))
    return fabric


def test_traced_flow_counters_of_a_shared_link():
    sim = Simulator(seed=42, observe=True)
    shared_link_transfers(sim)
    sim.run()
    flows = [c for c in sim.trace.counters if c[1].startswith("link.flows:")]
    # Both raise sw0->n3 at t=0; each lowers its path after its 1 ms on
    # the links plus 2 us of latency, the second after waiting out the
    # first.
    assert flows == [
        (0.0, "link.flows:f:n0->sw0", 1),
        (0.0, "link.flows:f:sw0->n3", 1),
        (0.0, "link.flows:f:n1->sw0", 1),
        (0.0, "link.flows:f:sw0->n3", 2),
        (0.001002, "link.flows:f:n0->sw0", 0),
        (0.001002, "link.flows:f:sw0->n3", 1),
        (0.002002, "link.flows:f:n1->sw0", 0),
        (0.002002, "link.flows:f:sw0->n3", 0),
    ]


def test_untraced_static_fabric_keeps_no_flow_count(sim):
    # Only adaptive route picks and traced counters read the count.
    fabric = shared_link_transfers(sim)
    sim.run(until=5e-4)  # both transfers are in flight
    assert fabric.links[("sw0", "n3")].channel.count == 1
    assert all(l.pending_flows == 0 for l in fabric.links.values())
    sim.run()
    assert all(l.pending_flows == 0 for l in fabric.links.values())


def test_attach_unknown_endpoint_rejected(sim):
    fabric, _ = make_star_fabric(sim)
    with pytest.raises(ConfigurationError):
        fabric.attach_endpoint("ghost")
    with pytest.raises(ConfigurationError):
        fabric.attach_endpoint("n0")  # duplicate
    with pytest.raises(ConfigurationError):
        fabric.attach_endpoint("sw0")  # a switch


def test_interface_lookup_missing(sim):
    fabric, _ = make_star_fabric(sim)
    with pytest.raises(RoutingError):
        Fabric.interface(fabric, "nope")


def test_statistics(sim):
    fabric, _ = make_star_fabric(sim)

    def p(sim):
        yield from fabric.transfer("n0", "n1", 500)

    run_to_end(sim, p(sim))
    assert fabric.total_bytes() == 1000  # two links on the path
    hot = fabric.hottest_links(2)
    assert all(b == 500 for _, b in hot)
