"""Network topologies as annotated graphs.

A :class:`Topology` wraps a :mod:`networkx` graph whose vertices are
either *endpoints* (compute nodes, attribute ``kind="endpoint"``) or
*switches* (``kind="switch"``).  Edges are physical cables; fabrics
instantiate two directed :class:`~repro.network.link.Link` objects per
edge.

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
from typing import Iterable, Optional, Sequence

import networkx as nx

from repro.errors import TopologyError


class Topology:
    """An annotated undirected multigraph of endpoints and switches."""

    def __init__(self, graph: nx.Graph, name: str = "") -> None:
        self.graph = graph
        self.name = name
        for node, data in graph.nodes(data=True):
            if data.get("kind") not in ("endpoint", "switch"):
                raise TopologyError(f"node {node!r} lacks a valid 'kind' attribute")

    @property
    def endpoints(self) -> list[str]:
        """Endpoint vertex names, in insertion order."""
        return [n for n, d in self.graph.nodes(data=True) if d["kind"] == "endpoint"]

    @property
    def switches(self) -> list[str]:
        """Switch vertex names, in insertion order."""
        return [n for n, d in self.graph.nodes(data=True) if d["kind"] == "switch"]

    @cached_property
    def coord_index(self) -> dict[tuple[int, ...], str]:
        """The vertex at each torus coordinate (tori only).

        Built on first use and kept: dimension-order routing looks up
        every hop here, and a topology's graph does not change once a
        fabric routes over it.
        """
        return {d["coord"]: n for n, d in self.graph.nodes(data=True)}

    def degree(self, node: str) -> int:
        return self.graph.degree[node]

    def is_endpoint(self, node: str) -> bool:
        return self.graph.nodes[node]["kind"] == "endpoint"

    def validate_connected(self) -> None:
        """Raise :class:`TopologyError` unless the graph is connected."""
        if len(self.graph) and not nx.is_connected(self.graph):
            raise TopologyError(f"topology {self.name!r} is not connected")

    def diameter_hops(self) -> int:
        """Graph diameter in hops (endpoint to endpoint)."""
        eps = self.endpoints
        if len(eps) < 2:
            return 0
        lengths = dict(nx.all_pairs_shortest_path_length(self.graph))
        return max(lengths[a][b] for a in eps for b in eps if a != b)

    def bisection_edges(self) -> int:
        """Number of edges cut by splitting endpoints into two halves.

        A simple estimate: endpoints are split by index order; returns
        the number of graph edges whose removal separates the halves
        (computed as a min cut between two super-sources).  Used to
        report bisection bandwidth of generated topologies.
        """
        eps = self.endpoints
        if len(eps) < 2:
            return 0
        half = len(eps) // 2
        g = self.graph.copy()
        g.add_node("_srcA")
        g.add_node("_srcB")
        for e in eps[:half]:
            g.add_edge("_srcA", e, capacity=math.inf)
        for e in eps[half:]:
            g.add_edge("_srcB", e, capacity=math.inf)
        for u, v in g.edges:
            if "capacity" not in g[u][v]:
                g[u][v]["capacity"] = 1
        cut_value, _ = nx.minimum_cut(g, "_srcA", "_srcB")
        return int(cut_value)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def star_topology(endpoint_names: Sequence[str], switch_name: str = "sw0") -> Topology:
    """All endpoints hang off a single switch."""
    if not endpoint_names:
        raise TopologyError("star topology needs at least one endpoint")
    g = nx.Graph()
    g.add_node(switch_name, kind="switch")
    for name in endpoint_names:
        g.add_node(name, kind="endpoint")
        g.add_edge(name, switch_name)
    return Topology(g, name="star")


def all_to_all_topology(endpoint_names: Sequence[str]) -> Topology:
    """Direct cable between every endpoint pair (calibration fabric)."""
    if len(endpoint_names) < 2:
        raise TopologyError("all-to-all needs at least two endpoints")
    g = nx.Graph()
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
    g = nx.Graph()
    leaves = [f"leaf{i}" for i in range(n_leaves)]
    spines = [f"spine{i}" for i in range(spine_count)]
    for s in leaves + spines:
        g.add_node(s, kind="switch")
    for i, name in enumerate(endpoint_names):
        g.add_node(name, kind="endpoint")
        g.add_edge(name, leaves[i // leaf_radix])
    if n_leaves == 1:
        # Single leaf switch: no spine level needed.
        g.remove_nodes_from(spines)
    else:
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

    g = nx.Graph()
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
    topo.graph.graph["dims"] = tuple(dims)
    return topo
