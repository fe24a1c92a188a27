"""Static routing over topologies.

Routes are precomputed per (src, dst) endpoint pair:

* switched topologies (fat tree, star) use deterministic shortest
  paths with spine selection hashed on the pair, approximating the
  static destination-based routing of an IB subnet manager;
* tori use **dimension-order routing** (slide 16's EXTOLL torus), the
  deadlock-free scheme hardware implements.
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence

from repro.errors import RoutingError, TopologyError
from repro.network.topology import Topology


def dimension_order_route(
    topo: Topology, src: str, dst: str, axis_order: Optional[Sequence[int]] = None
) -> list[str]:
    """Dimension-order (e-cube) route on a torus topology.

    Corrects each coordinate in *axis_order* (default: natural order),
    always travelling the shorter way around the ring.  Returns the
    vertex path including the endpoints.
    """
    dims = topo.dims
    if dims is None:
        raise TopologyError("dimension_order_route requires a torus topology")
    nodes = topo.graph.nodes
    try:
        c_src = nodes[src]["coord"]
        c_dst = nodes[dst]["coord"]
    except KeyError as exc:
        raise RoutingError(f"unknown torus endpoint in ({src!r}, {dst!r})") from exc

    by_coord = topo.coord_index
    order = list(axis_order) if axis_order is not None else list(range(len(dims)))
    if sorted(order) != list(range(len(dims))):
        raise RoutingError(f"axis_order {order!r} is not a permutation")
    path = [src]
    cur = list(c_src)
    for axis in order:
        d = dims[axis]
        delta = (c_dst[axis] - cur[axis]) % d
        step = 1 if (delta <= d - delta) else -1
        while cur[axis] != c_dst[axis]:
            cur[axis] = (cur[axis] + step) % d
            path.append(by_coord[tuple(cur)])
    return path


def _paths_from_predecessors(
    pred: dict[str, list[str]], src: str, dst: str
) -> list[list[str]]:
    """Every shortest path *src* -> *dst* in a BFS predecessor map.

    *pred* is ``graph.predecessors(src)``.  The paths come in the order
    ``networkx.all_shortest_paths`` yields them: depth-first from *dst*,
    taking each node's predecessors in list order.  A BFS map holds no
    cycles, since every predecessor sits one level closer to *src*, so
    the partial paths grow one level at a time and reach *src* together.
    """
    partial = [[dst]]
    while partial[0][-1] != src:
        partial = [p + [u] for p in partial for u in pred[p[-1]]]
    return [p[::-1] for p in partial]


class RoutingTable:
    """Precomputed static routes between all endpoint pairs.

    Parameters
    ----------
    topo:
        The topology to route over.
    scheme:
        ``"shortest"`` (default) or ``"dimension-order"``.  For
        ``"shortest"``, equal-cost multipaths are disambiguated by a
        hash of the endpoint pair, spreading load over spines the way a
        static subnet manager would.  Each source runs one breadth-first
        search, whose predecessor map serves its routes to every
        destination.
    """

    def __init__(self, topo: Topology, scheme: str = "shortest") -> None:
        if scheme not in ("shortest", "dimension-order"):
            raise RoutingError(f"unknown routing scheme {scheme!r}")
        self.topo = topo
        self.scheme = scheme
        self._routes: dict[tuple[str, str], list[str]] = {}
        #: source -> BFS predecessor map (``"shortest"`` only).
        self._preds: dict[str, dict[str, list[str]]] = {}

    def route(self, src: str, dst: str) -> list[str]:
        """Vertex path from *src* to *dst* (cached)."""
        if src == dst:
            return [src]
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            path = self._compute(src, dst)
            self._routes[key] = path
        return path

    def hops(self, src: str, dst: str) -> int:
        """Number of links traversed between *src* and *dst*."""
        return len(self.route(src, dst)) - 1

    def candidate_routes(self, src: str, dst: str) -> list[list[str]]:
        """Minimal route alternatives for adaptive selection.

        For dimension-order tori: one route per axis permutation
        (duplicates removed, order deterministic).  For switched
        topologies: all equal-cost shortest paths.
        """
        if src == dst:
            return [[src]]
        key = ("cand", src, dst)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        if self.scheme == "dimension-order":
            import itertools as _it

            ndims = len(self.topo.dims)
            seen: dict[tuple, list[str]] = {}
            for order in _it.permutations(range(ndims)):
                path = dimension_order_route(self.topo, src, dst, order)
                seen.setdefault(tuple(path), path)
            routes = list(seen.values())
        else:
            routes = self._shortest_paths(src, dst)
        self._routes[key] = routes
        return routes

    def _shortest_paths(self, src: str, dst: str) -> list[list[str]]:
        """All equal-cost shortest paths, in ``networkx.all_shortest_paths``
        order."""
        pred = self._preds.get(src)
        if pred is None:
            if src not in self.topo.graph:
                raise RoutingError(f"no route {src!r} -> {dst!r}")
            pred = self._preds[src] = self.topo.graph.predecessors(src)
        if dst not in pred:
            raise RoutingError(f"no route {src!r} -> {dst!r}")
        return _paths_from_predecessors(pred, src, dst)

    def _compute(self, src: str, dst: str) -> list[str]:
        if self.scheme == "dimension-order":
            return dimension_order_route(self.topo, src, dst)
        paths = self._shortest_paths(src, dst)
        # Deterministic ECMP: hash the pair to pick among equal paths.
        # (zlib.crc32, not hash(): str hashing is randomized per run.)
        idx = zlib.crc32(f"{src}->{dst}".encode()) % len(paths)
        return paths[idx]

    def average_hops(self, endpoints: Optional[Sequence[str]] = None) -> float:
        """Mean hop count over all ordered endpoint pairs."""
        eps = list(endpoints) if endpoints is not None else self.topo.endpoints
        if len(eps) < 2:
            return 0.0
        total = 0
        count = 0
        for a in eps:
            for b in eps:
                if a != b:
                    total += self.hops(a, b)
                    count += 1
        return total / count
