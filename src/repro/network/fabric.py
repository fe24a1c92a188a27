"""Fabric: links + routing + per-node interfaces, with two fidelity modes.

The default **contention mode** claims every link along the route for
the message's serialization time at the path's bottleneck bandwidth
(a virtual-circuit / wormhole approximation), so hot links queue
transfers and congestion emerges.  **Analytic mode** skips resource
claims and just waits the ideal time — orders of magnitude faster for
large parameter sweeps; E4/E7 quantify the difference (DESIGN.md §5.2).

End-to-end time of an uncontended transfer of ``n`` bytes over ``h``
hops: ``o_send + h * L + n / min(B_i) (+ error penalties) + o_recv``.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError, OwnerFreedError, RoutingError
from repro.network.link import Link, LinkSpec
from repro.network.message import Message, TransferRecord
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.simkernel.resources import Channel

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node
    from repro.simkernel.simulator import Simulator


class NetworkInterface:
    """A node's port on one fabric.

    Holds the node's inbox (a matched :class:`Channel` the transport
    layer receives from) and the host-side injection overheads.  The
    fabric owns its interfaces, so an interface holds its fabric only
    weakly: the caller keeps the fabric referenced while it sends.
    """

    def __init__(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        endpoint: str,
        send_overhead_s: float,
        recv_overhead_s: float,
    ) -> None:
        self.sim = sim
        self._fabric = weakref.ref(fabric)
        self._fabric_name = fabric.name
        self.endpoint = endpoint
        self.send_overhead_s = send_overhead_s
        self.recv_overhead_s = recv_overhead_s
        #: Delivered messages waiting to be consumed (matched gets).
        self.inbox = Channel(sim, name=f"inbox:{fabric.name}:{endpoint}")
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def fabric(self) -> "Fabric":
        """The fabric this interface is attached to."""
        fabric = self._fabric()
        if fabric is None:
            raise OwnerFreedError(
                f"interface {self.endpoint!r} used after its fabric "
                f"{self._fabric_name!r} was freed"
            )
        return fabric

    def send(self, msg: Message):
        """Generator: inject *msg* and complete when it is delivered.

        The sender-side overhead is paid first (models the CPU cost of
        posting the descriptor), then the fabric transfer runs, then
        the message lands in the destination inbox.
        """
        fabric = self.fabric
        msg.src = self.endpoint
        msg.sent_at = self.sim.now
        if self.send_overhead_s > 0:
            yield self.sim.timeout(self.send_overhead_s)
        record = yield from fabric.transfer(
            self.endpoint, msg.dst, msg.size_bytes, kind=msg.kind
        )
        msg.received_at = self.sim.now
        self.bytes_sent += msg.size_bytes
        dst_iface = fabric.interface(msg.dst)
        dst_iface.bytes_received += msg.size_bytes
        dst_iface.inbox.deliver(msg)
        return record


class Fabric:
    """A named interconnect instantiated on a simulator.

    Parameters
    ----------
    sim, topo:
        Simulator and topology (endpoints + switches).
    link_spec:
        Parameters applied to every link direction.
    name:
        Fabric name; nodes register interfaces under it.
    routing:
        ``"shortest"`` or ``"dimension-order"``.
    send_overhead_s / recv_overhead_s:
        Host CPU overheads charged by interfaces.
    contention:
        Virtual-circuit link claiming (True) or analytic times (False).
    loopback_latency_s:
        Cost of a self-send (shared-memory copy).
    mtu_bytes:
        When set, contention-mode transfers are segmented into MTU
        chunks that store-and-forward hop by hop, so a long message
        *pipelines* across a multi-hop path (cut-through behaviour)
        instead of holding the whole path for its serialization time.
        Costs ~hops x chunks simulation events per transfer; None
        (default) keeps the cheap virtual-circuit model.
    """

    def __init__(
        self,
        sim: "Simulator",
        topo: Topology,
        link_spec: LinkSpec,
        name: str,
        routing: str = "shortest",
        send_overhead_s: float = 0.0,
        recv_overhead_s: float = 0.0,
        contention: bool = True,
        loopback_latency_s: float = 3e-7,
        mtu_bytes: Optional[int] = None,
        adaptive: bool = False,
    ) -> None:
        topo.validate_connected()
        self.sim = sim
        self.topo = topo
        self.link_spec = link_spec
        self.name = name
        self.routing = RoutingTable(topo, scheme=routing)
        self.send_overhead_s = send_overhead_s
        self.recv_overhead_s = recv_overhead_s
        self.contention = contention
        self.loopback_latency_s = loopback_latency_s
        if mtu_bytes is not None and mtu_bytes < 1:
            raise ConfigurationError(f"mtu_bytes must be >= 1, got {mtu_bytes}")
        self.mtu_bytes = mtu_bytes
        #: Adaptive (load-aware) minimal routing: pick, per transfer,
        #: the least-loaded of the minimal route alternatives (the
        #: EXTOLL NIC's adaptive mode) instead of the static table.
        self.adaptive = adaptive
        #: directed (u, v) -> Link
        self.links: dict[tuple[str, str], Link] = {}
        for u, v in topo.graph.edges:
            self.links[(u, v)] = Link(sim, link_spec, name=f"{name}:{u}->{v}")
            self.links[(v, u)] = Link(sim, link_spec, name=f"{name}:{v}->{u}")
        self._interfaces: dict[str, NetworkInterface] = {}
        # Metric handles (no-ops unless the simulator enables metrics).
        m = sim.metrics
        self._m_transfers = m.counter("net.transfers")
        self._m_bytes = m.counter("net.bytes")
        self._m_link_busy = m.counter("link.busy_s")
        self._h_transfer = m.histogram("net.transfer_s")
        # (src, dst) -> (links, canonical order, latency, bottleneck bw,
        # error-free).  Static routes never change, so this is computed
        # once; failures are handled by the down-link count below.
        self._route_cache: dict[
            tuple[str, str], tuple[list[Link], list[Link], float, float, bool]
        ] = {}
        #: Links currently down.  Only fail_link and restore_link write
        #: ``Link.up``, so while this is zero no transfer checks a flag.
        self._down_links = 0

    # -- attachment ------------------------------------------------------
    def attach(self, node: "Node") -> NetworkInterface:
        """Create this node's interface and register it on the node."""
        endpoint = node.name
        if endpoint not in self.topo.graph:
            raise ConfigurationError(
                f"{endpoint!r} is not an endpoint of fabric {self.name!r}"
            )
        iface = self._make_interface(endpoint)
        node.attach_interface(self.name, iface)
        return iface

    def attach_endpoint(self, endpoint: str) -> NetworkInterface:
        """Create an interface for a bare endpoint name (tests, bridges)."""
        return self._make_interface(endpoint)

    def _make_interface(self, endpoint: str) -> NetworkInterface:
        if endpoint in self._interfaces:
            raise ConfigurationError(
                f"endpoint {endpoint!r} already attached to fabric {self.name!r}"
            )
        if endpoint not in self.topo.graph:
            raise ConfigurationError(
                f"{endpoint!r} is not in the topology of fabric {self.name!r}"
            )
        if not self.topo.is_endpoint(endpoint):
            raise ConfigurationError(f"{endpoint!r} is a switch, cannot attach")
        iface = NetworkInterface(
            self.sim, self, endpoint, self.send_overhead_s, self.recv_overhead_s
        )
        self._interfaces[endpoint] = iface
        return iface

    def interface(self, endpoint: str) -> NetworkInterface:
        """The interface previously attached at *endpoint*."""
        try:
            return self._interfaces[endpoint]
        except KeyError:
            raise RoutingError(
                f"no interface attached at {endpoint!r} on fabric {self.name!r}"
            ) from None

    def has_interface(self, endpoint: str) -> bool:
        """Whether an interface is attached at *endpoint*."""
        return endpoint in self._interfaces

    # -- analytic helpers --------------------------------------------------
    def path_links(self, src: str, dst: str) -> list[Link]:
        """Directed links along the static route."""
        path = self.routing.route(src, dst)
        return self._links_of(path)

    def _links_of(self, path: list[str]) -> list[Link]:
        return [self.links[(path[i], path[i + 1])] for i in range(len(path) - 1)]

    def _pick_links(self, src: str, dst: str) -> list[Link]:
        """Route selection: static table, or least-loaded alternative.

        Routes over failed links are never chosen; when the static
        route is down, the minimal alternatives serve as the fallback
        (link-level rerouting, the slide-16 RAS behaviour).
        """
        static = self.path_links(src, dst)
        if not self.adaptive and all(l.up for l in static):
            return static
        candidates = [
            self._links_of(path)
            for path in self.routing.candidate_routes(src, dst)
        ]
        alive = [c for c in candidates if all(l.up for l in c)]
        if not alive:
            raise RoutingError(
                f"no surviving minimal route {src!r} -> {dst!r} "
                f"(failed links on every alternative)"
            )
        if not self.adaptive:
            return alive[0]

        def load(links: list[Link]) -> int:
            return sum(link.pending_flows for link in links)

        return min(alive, key=load)

    # -- link failures (RAS) ---------------------------------------------
    def fail_link(self, u: str, v: str, both_directions: bool = True) -> None:
        """Take the cable *u--v* out of service."""
        self._set_up(u, v, both_directions, False)

    def restore_link(self, u: str, v: str, both_directions: bool = True) -> None:
        """Return the cable *u--v* to service."""
        self._set_up(u, v, both_directions, True)

    def _set_up(self, u: str, v: str, both_directions: bool, up: bool) -> None:
        pairs = [(u, v), (v, u)] if both_directions else [(u, v)]
        try:
            links = [self.links[pair] for pair in pairs]
        except KeyError:
            raise RoutingError(f"no link {u!r} -> {v!r} on fabric {self.name!r}") from None
        for link in links:
            if link.up != up:  # failing a down link twice counts once
                link.up = up
                self._down_links += -1 if up else 1

    @staticmethod
    def _route_of(
        links: list[Link],
    ) -> tuple[list[Link], list[Link], float, float, bool]:
        """(links, canonical order, latency, bottleneck bw, error-free)."""
        return (
            links,
            sorted(links, key=lambda l: l.name),
            sum(l.spec.latency_s for l in links),
            min(l.spec.bandwidth_bytes_per_s for l in links),
            all(l.spec.per_byte_error_rate <= 0.0 for l in links),
        )

    def _route_info(
        self, src: str, dst: str
    ) -> tuple[list[Link], list[Link], float, float, bool]:
        """Memoized :meth:`_route_of` of the static route."""
        info = self._route_cache.get((src, dst))
        if info is None:
            info = self._route_of(self.path_links(src, dst))
            self._route_cache[(src, dst)] = info
        return info

    def ideal_transfer_time(self, src: str, dst: str, size_bytes: int) -> float:
        """Uncontended end-to-end time excluding host overheads."""
        if src == dst:
            return self.loopback_latency_s
        _, _, latency, bottleneck, _ = self._route_info(src, dst)
        return latency + size_bytes / bottleneck

    # -- transfer ----------------------------------------------------------
    def transfer(self, src: str, dst: str, size_bytes: int, kind: str = "data"):
        """Generator: move *size_bytes* from *src* to *dst*.

        Returns a :class:`TransferRecord`.  In contention mode the
        route's links are claimed in canonical order (preventing
        circular wait) for the bottleneck serialization time; latency
        is paid afterwards without occupying the links, so back-to-back
        transfers pipeline.
        """
        start = self.sim.now
        if src == dst:
            yield self.sim.timeout(self.loopback_latency_s)
            return self._record(src, dst, size_bytes, start, hops=0, kind=kind)

        if not self.contention:
            links, _, latency, bottleneck, _ = self._route_info(src, dst)
            yield self.sim.timeout(latency + size_bytes / bottleneck)
            return self._record(src, dst, size_bytes, start, len(links), kind)

        links, ordered, latency, bottleneck, error_free = self._route_info(src, dst)
        if self.adaptive or (self._down_links and not all(l.up for l in links)):
            # Dynamic choice: the cached static route does not apply.
            links, ordered, latency, bottleneck, error_free = self._route_of(
                self._pick_links(src, dst)
            )
        serialization = size_bytes / bottleneck

        # Reserve the chosen path so concurrent adaptive picks see it.
        # Only those picks and the traced counters read the count, so
        # it is kept only for them; decided once, so every raise below
        # has its lower.
        count_flows = self.adaptive or self.sim.trace.enabled
        if count_flows:
            self._add_flows(links, 1)
        try:
            if self.mtu_bytes is not None and size_bytes > self.mtu_bytes:
                yield from self._transfer_segmented(links, size_bytes)
                return self._record(src, dst, size_bytes, start, len(links), kind)

            # Claim links in canonical order (preventing circular wait).
            # Free links are grabbed without a Request allocation; only
            # busy ones go through the queueing protocol.
            handles = []
            pending = []
            for link in ordered:
                h = link.channel.try_acquire()
                if h is None:
                    h = link.channel.request()
                    pending.append(h)
                handles.append((link, h))
            try:
                for req in pending:
                    yield req
                duration = serialization
                for link in links:
                    link.bytes_carried += size_bytes
                    link.transfers += 1
                if not error_free:
                    for link in links:
                        duration += link._retransmission_penalty(size_bytes)
                # Every link on the path is held for the whole duration.
                self._m_link_busy.add(duration * len(links))
                yield self.sim.timeout(duration)
            finally:
                for link, h in handles:
                    if h.triggered:
                        link.channel.release(h)
                    else:
                        link.channel.cancel(h)
            yield self.sim.timeout(latency)
            return self._record(src, dst, size_bytes, start, len(links), kind)
        finally:
            if count_flows:
                self._add_flows(links, -1)

    def _add_flows(self, links: list[Link], delta: int) -> None:
        """Move ``pending_flows`` of every link on a path by *delta*
        (and record it as ``link.flows:<link>`` while tracing)."""
        tr = self.sim.trace
        for link in links:
            link.pending_flows += delta
            if tr.enabled:
                tr.record_counter("link.flows:" + link.name, link.pending_flows)

    def _transfer_segmented(self, links: list[Link], size_bytes: int):
        """Store-and-forward MTU segments pipelining across the path.

        One simulation process per segment walks the links in order;
        FIFO link queues keep segments ordered per hop while different
        hops work on different segments concurrently — end-to-end time
        approaches ``sum(latencies) + size/bottleneck + fill``.
        """
        mtu = self.mtu_bytes
        n_full, rem = divmod(size_bytes, mtu)
        sizes = [mtu] * n_full + ([rem] if rem else [])

        def segment(nbytes: int):
            for link in links:
                yield from link.occupy(nbytes)
                yield self.sim.timeout(link.spec.latency_s)

        drivers = [
            self.sim.process(segment(nbytes), name="seg") for nbytes in sizes
        ]
        yield self.sim.all_of(drivers)

    def _record(
        self, src: str, dst: str, size: int, start: float, hops: int, kind: str
    ) -> TransferRecord:
        now = self.sim.now
        rec = TransferRecord(src, dst, size, start, now, hops, kind)
        self._m_transfers.add(1)
        self._m_bytes.add(size)
        self._h_transfer.observe(now - start)
        tr = self.sim.trace
        if tr:
            tr.record(
                "net.transfer", fabric=self.name, src=src, dst=dst,
                size=size, start=start, hops=hops, kind=kind,
            )
            tr.record_span(
                f"net.{self.name}", f"{kind}:{src}->{dst}", start, now,
                size=size, hops=hops,
            )
        return rec

    # -- statistics ----------------------------------------------------------
    def total_bytes(self) -> int:
        """Bytes carried summed over all link directions."""
        return sum(l.bytes_carried for l in self.links.values())

    def hottest_links(self, n: int = 5) -> list[tuple[str, int]]:
        """The *n* busiest link directions by bytes carried."""
        ranked = sorted(
            self.links.values(), key=lambda l: l.bytes_carried, reverse=True
        )
        return [(l.name, l.bytes_carried) for l in ranked[:n]]
