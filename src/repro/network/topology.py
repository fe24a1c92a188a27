"""Network topologies as annotated graphs.

A :class:`Topology` wraps a :class:`Graph` whose vertices are either
*endpoints* (compute nodes, attribute ``kind="endpoint"``) or
*switches* (``kind="switch"``).  Edges are physical cables; fabrics
instantiate two directed :class:`~repro.network.link.Link` objects per
edge.

:class:`Graph` keeps the orders of ``networkx.Graph``: nodes in
insertion order, each node's neighbours in the order their edges were
added, and edges node by node.  Fabrics create their links in edge
order and the ECMP hash of :class:`~repro.network.routing.RoutingTable`
indexes equal-cost paths in breadth-first order, so these orders are
part of every simulated result; the routing tests check them against
networkx.

Builders provided:

* :func:`fat_tree_topology` — two-level switched fat tree (InfiniBand).
* :func:`torus_topology` — k-ary n-cube, e.g. the EXTOLL 3D torus with
  its 6 links per node (slide 16).
* :func:`star_topology` — all endpoints on one switch (small systems,
  PCIe switch).
* :func:`all_to_all_topology` — direct links between all endpoints
  (idealised fabric for calibration).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Any, Optional, Sequence

from repro.errors import TopologyError


class Graph:
    """An undirected graph with insertion-ordered nodes and neighbours.

    ``nodes[n]`` is node *n*'s attribute dict and ``adj[n]`` holds its
    neighbours as dict keys, in the order their edges were added.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, dict[str, Any]] = {}
        self.adj: dict[str, dict[str, None]] = {}

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def add_node(self, node: str, **attr: Any) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self.adj[node] = {}
        self.nodes[node].update(attr)

    def add_edge(self, u: str, v: str) -> None:
        """Cable *u*–*v*; a missing *u* is added before a missing *v*."""
        self.add_node(u)
        self.add_node(v)
        self.adj[u][v] = None
        self.adj[v][u] = None

    def has_edge(self, u: str, v: str) -> bool:
        return u in self.adj and v in self.adj[u]

    @property
    def edges(self) -> list[tuple[str, str]]:
        """Every edge once, as ``(n, nbr)``: node by node, skipping the
        neighbours already visited."""
        visited: set[str] = set()
        edges = []
        for node, nbrs in self.adj.items():
            edges.extend((node, nbr) for nbr in nbrs if nbr not in visited)
            visited.add(node)
        return edges

    def number_of_edges(self) -> int:
        return len(self.edges)

    def predecessors(self, source: str) -> dict[str, list[str]]:
        """Breadth-first search from *source*.

        Maps every node reached to its neighbours one hop closer to
        *source* (``[]`` for *source* itself).  Nodes enter the map in
        discovery order, one level at a time, and each list in the
        order its nodes were visited: the map ``networkx.predecessor``
        returns.
        """
        level = {source: 0}
        pred: dict[str, list[str]] = {source: []}
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for v in frontier:
                for w in self.adj[v]:
                    if w not in level:
                        level[w] = depth
                        pred[w] = [v]
                        reached.append(w)
                    elif level[w] == depth:
                        pred[w].append(v)
            frontier = reached
        return pred


class Topology:
    """An annotated undirected graph of endpoints and switches."""

    #: Torus dimensions (tori only; set by :func:`torus_topology`).
    dims: Optional[tuple[int, ...]] = None

    def __init__(self, graph: Graph, name: str = "") -> None:
        self.graph = graph
        self.name = name
        for node, data in graph.nodes.items():
            if data.get("kind") not in ("endpoint", "switch"):
                raise TopologyError(f"node {node!r} lacks a valid 'kind' attribute")

    @property
    def endpoints(self) -> list[str]:
        """Endpoint vertex names, in insertion order."""
        return [n for n, d in self.graph.nodes.items() if d["kind"] == "endpoint"]

    @property
    def switches(self) -> list[str]:
        """Switch vertex names, in insertion order."""
        return [n for n, d in self.graph.nodes.items() if d["kind"] == "switch"]

    @cached_property
    def coord_index(self) -> dict[tuple[int, ...], str]:
        """The vertex at each torus coordinate (tori only).

        Built on first use and kept: dimension-order routing looks up
        every hop here, and a topology's graph does not change once a
        fabric routes over it.
        """
        return {d["coord"]: n for n, d in self.graph.nodes.items()}

    def degree(self, node: str) -> int:
        return len(self.graph.adj[node])

    def is_endpoint(self, node: str) -> bool:
        return self.graph.nodes[node]["kind"] == "endpoint"

    def validate_connected(self) -> None:
        """Raise :class:`TopologyError` unless the graph is connected."""
        g = self.graph
        if len(g) and len(g.predecessors(next(iter(g.nodes)))) < len(g):
            raise TopologyError(f"topology {self.name!r} is not connected")

    def diameter_hops(self) -> int:
        """Graph diameter in hops (endpoint to endpoint)."""
        eps = self.endpoints
        if len(eps) < 2:
            return 0
        diameter = 0
        for a in eps:
            hops: dict[str, int] = {}
            for node, preds in self.graph.predecessors(a).items():
                hops[node] = hops[preds[0]] + 1 if preds else 0
            diameter = max(diameter, max(hops[b] for b in eps))
        return diameter


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def star_topology(endpoint_names: Sequence[str], switch_name: str = "sw0") -> Topology:
    """All endpoints hang off a single switch."""
    if not endpoint_names:
        raise TopologyError("star topology needs at least one endpoint")
    g = Graph()
    g.add_node(switch_name, kind="switch")
    for name in endpoint_names:
        g.add_node(name, kind="endpoint")
        g.add_edge(name, switch_name)
    return Topology(g, name="star")


def all_to_all_topology(endpoint_names: Sequence[str]) -> Topology:
    """Direct cable between every endpoint pair (calibration fabric)."""
    if len(endpoint_names) < 2:
        raise TopologyError("all-to-all needs at least two endpoints")
    g = Graph()
    for name in endpoint_names:
        g.add_node(name, kind="endpoint")
    for a, b in itertools.combinations(endpoint_names, 2):
        g.add_edge(a, b)
    return Topology(g, name="all-to-all")


def fat_tree_topology(
    endpoint_names: Sequence[str],
    leaf_radix: int = 18,
    spine_count: Optional[int] = None,
) -> Topology:
    """Two-level fat tree (leaf/spine), the usual IB cluster fabric.

    Endpoints are packed onto leaf switches (*leaf_radix* downlinks
    each); every leaf connects to every spine.  ``spine_count`` defaults
    to enough spines for full bisection (one spine per ``leaf_radix``
    uplinks, i.e. ``ceil(leaves/2)`` bounded below by 1).
    """
    if not endpoint_names:
        raise TopologyError("fat tree needs at least one endpoint")
    if leaf_radix < 1:
        raise TopologyError(f"leaf_radix must be >= 1, got {leaf_radix}")
    n_leaves = math.ceil(len(endpoint_names) / leaf_radix)
    if spine_count is None:
        spine_count = max(1, math.ceil(n_leaves / 2))
    g = Graph()
    leaves = [f"leaf{i}" for i in range(n_leaves)]
    # Single leaf switch: no spine level needed.
    spines = [f"spine{i}" for i in range(spine_count)] if n_leaves > 1 else []
    for s in leaves + spines:
        g.add_node(s, kind="switch")
    for i, name in enumerate(endpoint_names):
        g.add_node(name, kind="endpoint")
        g.add_edge(name, leaves[i // leaf_radix])
    for leaf in leaves:
        for spine in spines:
            g.add_edge(leaf, spine)
    return Topology(g, name="fat-tree")


def torus_topology(
    dims: Sequence[int], endpoint_prefix: str = "bn", names: Optional[Sequence[str]] = None
) -> Topology:
    """k-ary n-cube: a direct network with wraparound in every dimension.

    Every endpoint is also a router (EXTOLL style: the NIC carries the
    6 torus links, slide 16).  ``dims=(4, 4, 2)`` builds a 32-node 3D
    torus.  Dimensions of size <= 2 get a single cable (no redundant
    wrap edge).  ``names``, if given, must enumerate exactly
    ``prod(dims)`` endpoint names in lexicographic coordinate order.
    """
    if not dims or any(d < 1 for d in dims):
        raise TopologyError(f"invalid torus dims {dims!r}")
    total = math.prod(dims)
    if names is not None and len(names) != total:
        raise TopologyError(f"need {total} names, got {len(names)}")

    def coord_name(coord: tuple[int, ...]) -> str:
        if names is not None:
            idx = 0
            for c, d in zip(coord, dims):
                idx = idx * d + c
            return names[idx]
        return f"{endpoint_prefix}{'_'.join(map(str, coord))}"

    g = Graph()
    coords = list(itertools.product(*(range(d) for d in dims)))
    for coord in coords:
        g.add_node(coord_name(coord), kind="endpoint", coord=coord)
    for coord in coords:
        for axis, d in enumerate(dims):
            if d == 1:
                continue
            nxt = list(coord)
            nxt[axis] = (coord[axis] + 1) % d
            nxt_t = tuple(nxt)
            if d == 2 and coord[axis] == 1:
                continue  # avoid doubled cable in 2-wide dimensions
            g.add_edge(coord_name(coord), coord_name(nxt_t))
    topo = Topology(g, name=f"torus{'x'.join(map(str, dims))}")
    topo.dims = tuple(dims)
    return topo
