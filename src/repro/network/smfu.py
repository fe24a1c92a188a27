"""SMFU bridging: the Cluster-Booster protocol transport (slides 16/29).

The EXTOLL NIC's **SMFU engine** ("Shared Memory Functional Unit")
bridges to InfiniBand: a Booster Interface (BI) node holds one port on
each fabric and forwards messages between them, store-and-forward,
through a finite-rate engine.  A machine deploys several gateways; a
(src, dst) pair maps to a gateway either statically (deterministic
hash, zero coordination) or dynamically (least queued bytes).

This is the piece experiment E11 sweeps: per-message bridging overhead
and aggregate throughput versus the number of BI nodes.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.errors import ConfigurationError, RoutingError
from repro.fidelity import ANALYTIC, _check_tier as _check_fidelity_tier
from repro.network.fabric import Fabric
from repro.network.message import Message, TransferRecord
from repro.simkernel.resources import Resource
from repro.units import gbyte_per_s, microseconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.simulator import Simulator

#: Distinguishes "use the gateway's configured segment size" from an
#: explicit ``segment_bytes=None`` (= whole-message store-and-forward).
_UNSET = object()


def pipelined_bridge_time(
    segment_sizes: Sequence[int],
    leg1_latency_s: float,
    leg1_bw: float,
    smfu_bw: float,
    engines: int,
    overhead_s: float,
    leg2_latency_s: float,
    leg2_bw: float,
) -> float:
    """Completion time of a segmented bridged transfer, closed form.

    Models the three pipeline stages the exact segmented path builds as
    processes: segments serialize back-to-back on the shared source-leg
    links (spacing ``bytes/bw``, latency paid once per segment after
    its serialization slot — the fabric's contention semantics), queue
    into the SMFU's ``engines``-server stage, then serialize again on
    the destination leg.  The per-message protocol overhead is charged
    on the first segment only, mirroring
    :meth:`SMFUGateway.forward`.  Complexity is O(#segments) arithmetic
    — no events — so 10^5-segment what-ifs are instant.
    """
    if not segment_sizes:
        return 0.0
    if engines < 1:
        raise ConfigurationError(f"engines must be >= 1, got {engines}")
    free1 = 0.0  # source-leg link occupancy (serialization front)
    free2 = 0.0  # destination-leg link occupancy
    engine_free = [0.0] * engines
    done = 0.0
    for i, nbytes in enumerate(segment_sizes):
        free1 += nbytes / leg1_bw
        arrive = free1 + leg1_latency_s
        slot = heapq.heappop(engine_free)
        duration = nbytes / smfu_bw + (overhead_s if i == 0 else 0.0)
        cleared = max(arrive, slot) + duration
        heapq.heappush(engine_free, cleared)
        free2 = max(cleared, free2) + nbytes / leg2_bw
        done = free2 + leg2_latency_s
    return done


def _leg_params(fabric: Fabric, a: str, b: str) -> tuple[float, float]:
    """(latency, bandwidth) of one fabric leg, from the public ideal
    path times: latency = zero-byte time, bandwidth from the slope."""
    lat = fabric.ideal_transfer_time(a, b, 0)
    probe = 1 << 20
    t = fabric.ideal_transfer_time(a, b, probe)
    bw = probe / (t - lat) if t > lat else float("inf")
    return lat, bw


@dataclass(frozen=True, slots=True)
class SMFUSpec:
    """SMFU engine parameters on one BI node."""

    #: Store-and-forward processing rate of the engine.
    bandwidth_bytes_per_s: float = gbyte_per_s(5.0)
    #: Per-message protocol handling (header rewrite, address
    #: translation between the two fabrics' namespaces).
    per_message_overhead_s: float = microseconds(0.5)
    #: Parallel forwarding contexts in the engine.
    engines: int = 2
    #: When set, bridged transfers are cut into segments of this size
    #: so the IB leg, the SMFU engine and the EXTOLL leg overlap
    #: (pipelined store-and-forward) instead of running sequentially
    #: per message.  None = whole-message store-and-forward.
    segment_bytes: Optional[int] = None


class SMFUGateway:
    """One BI node's bridging engine, attached to both fabrics."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        cluster_fabric: Fabric,
        booster_fabric: Fabric,
        spec: SMFUSpec = SMFUSpec(),
    ) -> None:
        self.sim = sim
        self.name = name
        self.cluster_fabric = cluster_fabric
        self.booster_fabric = booster_fabric
        self.spec = spec
        self.engine = Resource(sim, capacity=spec.engines, name=f"smfu:{name}")
        self.queued_bytes = 0
        self.forwarded_messages = 0
        self.forwarded_bytes = 0
        m = sim.metrics
        self._m_bytes = m.counter("smfu.bytes_forwarded")
        self._m_msgs = m.counter("smfu.msgs_forwarded")

    def forward(self, size_bytes: int, overhead: bool = True):
        """Generator: store-and-forward *size_bytes* through the engine.

        Load accounting (``queued_bytes``) is handled by the bridge at
        gateway-selection time so that simultaneous senders see each
        other's in-flight assignments.  *overhead* charges the
        per-message protocol handling (suppressed for the trailing
        segments of a segmented message).
        """
        tr = self.sim.trace
        req = self.engine.try_acquire()
        try:
            if req is None:
                req = self.engine.request()
                yield req
            if tr.enabled:
                tr.record_counter(
                    "smfu.busy_engines:" + self.name, len(self.engine.users)
                )
            duration = size_bytes / self.spec.bandwidth_bytes_per_s
            if overhead:
                duration += self.spec.per_message_overhead_s
            yield self.sim.timeout(duration)
        finally:
            if req.triggered:
                self.engine.release(req)
            else:
                self.engine.cancel(req)
            if tr.enabled:
                tr.record_counter(
                    "smfu.busy_engines:" + self.name, len(self.engine.users)
                )
        self.forwarded_messages += 1 if overhead else 0
        self.forwarded_bytes += size_bytes
        if overhead:
            self._m_msgs.add(1)
        self._m_bytes.add(size_bytes)

    def utilization(self, since: float = 0.0) -> float:
        return self.engine.utilization(since)

    def _note_load(self) -> None:
        """Record a ``queued_bytes`` change point (counter timelines)."""
        tr = self.sim.trace
        if tr.enabled:
            tr.record_counter("smfu.queued_bytes:" + self.name, self.queued_bytes)


class ClusterBoosterBridge:
    """Routes messages between the Cluster and Booster fabrics.

    Parameters
    ----------
    gateways:
        The machine's :class:`SMFUGateway` objects.  Each gateway name
        must be an attached endpoint of **both** fabrics.
    selection:
        ``"static"`` (hash of the endpoint pair — what a firmware
        table does) or ``"dynamic"`` (least queued bytes at send time).
    fidelity:
        ``"exact"`` simulates every segment of a segmented transfer as
        its own process chain; ``"analytic"`` charges the closed-form
        pipeline time (:func:`pipelined_bridge_time`) as one timeout,
        collapsing the ~hops x chunks event cascade.  Whole-message
        transfers (``segment_bytes=None`` or small messages) are always
        exact — they are only three events to begin with.
    """

    def __init__(
        self,
        gateways: Sequence[SMFUGateway],
        selection: str = "static",
        fidelity: str = "exact",
    ) -> None:
        if not gateways:
            raise ConfigurationError("bridge needs at least one gateway")
        if selection not in ("static", "dynamic"):
            raise ConfigurationError(f"unknown gateway selection {selection!r}")
        self.gateways = list(gateways)
        self.selection = selection
        self.fidelity = _check_fidelity_tier(fidelity, "smfu")
        cf = {g.cluster_fabric for g in gateways}
        bf = {g.booster_fabric for g in gateways}
        if len(cf) != 1 or len(bf) != 1:
            raise ConfigurationError("gateways must share the same two fabrics")
        self.cluster_fabric = next(iter(cf))
        self.booster_fabric = next(iter(bf))
        self._fabric_cache: dict[str, Fabric] = {}

    # -- gateway selection -------------------------------------------------
    def pick_gateway(self, src: str, dst: str) -> SMFUGateway:
        """Choose the forwarding gateway for a (src, dst) pair."""
        if self.selection == "dynamic":
            return min(self.gateways, key=lambda g: g.queued_bytes)
        idx = zlib.crc32(f"{src}|{dst}".encode()) % len(self.gateways)
        return self.gateways[idx]

    def _fabric_of(self, endpoint: str) -> Fabric:
        fabric = self._fabric_cache.get(endpoint)
        if fabric is None:
            for candidate in (self.cluster_fabric, self.booster_fabric):
                if candidate.has_interface(endpoint):
                    # Cache positives only: endpoints may attach later.
                    self._fabric_cache[endpoint] = fabric = candidate
                    break
            else:
                raise RoutingError(f"endpoint {endpoint!r} is on neither fabric")
        return fabric

    # -- transfers -----------------------------------------------------------
    def transfer(self, src: str, dst: str, size_bytes: int, kind: str = "data"):
        """Generator: move bytes across the bridge (either direction).

        Leg 1 on the source fabric to the gateway, SMFU forwarding,
        leg 2 on the destination fabric.  Returns a
        :class:`TransferRecord` spanning the whole path.
        """
        src_fabric = self._fabric_of(src)
        dst_fabric = self._fabric_of(dst)
        if src_fabric is dst_fabric:
            raise RoutingError(
                f"{src!r} and {dst!r} are on the same fabric; no bridging needed"
            )
        gw = self.pick_gateway(src, dst)
        sim = gw.sim
        start = sim.now
        seg = gw.spec.segment_bytes
        # Register the load immediately so concurrent dynamic picks
        # spread across gateways instead of all seeing an empty queue.
        # Load drains as bytes clear the SMFU engine: the destination
        # leg is the destination fabric's problem, not the gateway's —
        # both the whole-message and the segmented path must agree on
        # this or dynamic selection sees inconsistent queue depths.
        gw.queued_bytes += size_bytes
        gw._note_load()
        forwarded = [0]  # bytes that have cleared the engine so far
        try:
            if seg is not None and size_bytes > seg:
                if self.fidelity == ANALYTIC:
                    yield sim.timeout(
                        self.analytic_transfer_time(src, dst, size_bytes, gateway=gw)
                    )
                    # Mirror every piece of exact-path accounting so
                    # metrics/counters stay comparable across tiers.
                    gw.queued_bytes -= size_bytes
                    gw._note_load()
                    forwarded[0] = size_bytes
                    gw.forwarded_messages += 1
                    gw.forwarded_bytes += size_bytes
                    gw._m_msgs.add(1)
                    gw._m_bytes.add(size_bytes)
                    hops = (
                        len(src_fabric.path_links(src, gw.name))
                        + len(dst_fabric.path_links(gw.name, dst))
                        + 1
                    )
                    self._record_span(gw, src, dst, size_bytes, start)
                    return TransferRecord(
                        src, dst, size_bytes, start, sim.now, hops, kind
                    )
                hops = yield from self._transfer_segmented(
                    src_fabric, dst_fabric, gw, src, dst, size_bytes, kind,
                    forwarded,
                )
                self._record_span(gw, src, dst, size_bytes, start)
                return TransferRecord(
                    src, dst, size_bytes, start, sim.now, hops, kind
                )
            rec1 = yield from src_fabric.transfer(src, gw.name, size_bytes, kind=kind)
            yield from gw.forward(size_bytes)
            gw.queued_bytes -= size_bytes
            gw._note_load()
            forwarded[0] = size_bytes
        finally:
            if forwarded[0] != size_bytes:
                gw.queued_bytes -= size_bytes - forwarded[0]
                gw._note_load()
        rec2 = yield from dst_fabric.transfer(gw.name, dst, size_bytes, kind=kind)
        self._record_span(gw, src, dst, size_bytes, start)
        return TransferRecord(
            src, dst, size_bytes, start, sim.now, rec1.hops + rec2.hops + 1, kind
        )

    def _record_span(
        self, gw: SMFUGateway, src: str, dst: str, size_bytes: int, start: float
    ) -> None:
        tr = gw.sim.trace
        if tr:
            tr.record_span(
                "net.smfu", f"{gw.name}:{src}->{dst}", start, gw.sim.now,
                size=size_bytes, gateway=gw.name,
            )

    def _transfer_segmented(
        self, src_fabric, dst_fabric, gw: SMFUGateway,
        src: str, dst: str, size_bytes: int, kind: str,
        forwarded: list,
    ):
        """Pipelined bridging: each segment runs leg1 -> SMFU -> leg2
        as its own process, so the three stages overlap across
        segments (the fill cost is one segment per stage).

        *forwarded* (a one-element list shared with the caller) is
        bumped as each segment clears the engine, so gateway load
        drains segment by segment — and the caller's cleanup only
        releases whatever never made it through."""
        sim = gw.sim
        seg = gw.spec.segment_bytes
        n_full, rem = divmod(size_bytes, seg)
        sizes = [seg] * n_full + ([rem] if rem else [])
        hops_holder = {}

        def one(nbytes: int, first: bool):
            seg_start = sim.now
            r1 = yield from src_fabric.transfer(src, gw.name, nbytes, kind=kind)
            yield from gw.forward(nbytes, overhead=first)
            gw.queued_bytes -= nbytes
            gw._note_load()
            forwarded[0] += nbytes
            r2 = yield from dst_fabric.transfer(gw.name, dst, nbytes, kind=kind)
            hops_holder.setdefault("hops", r1.hops + r2.hops + 1)
            # Tag this segment process's timeline as bridge work: the
            # critical-path flattener attributes everything inside a
            # live net.smfu span to the bridged transfer, which is what
            # lets structural what-ifs rescale it (size = the *whole*
            # message, matching the parent span).
            tr = sim.trace
            if tr:
                tr.record_span(
                    "net.smfu", f"{gw.name}:{src}->{dst}", seg_start, sim.now,
                    size=size_bytes, gateway=gw.name,
                )

        drivers = [
            sim.process(one(nbytes, i == 0), name="bridge-seg")
            for i, nbytes in enumerate(sizes)
        ]
        yield sim.all_of(drivers)
        return hops_holder.get("hops", 1)

    def send_message(self, msg: Message):
        """Generator: deliver *msg* across the bridge into the remote inbox."""
        src_fabric = self._fabric_of(msg.src)
        dst_fabric = self._fabric_of(msg.dst)
        sim = self.gateways[0].sim
        msg.sent_at = sim.now
        src_iface = src_fabric.interface(msg.src)
        if src_iface.send_overhead_s > 0:
            yield sim.timeout(src_iface.send_overhead_s)
        record = yield from self.transfer(msg.src, msg.dst, msg.size_bytes, msg.kind)
        msg.received_at = sim.now
        src_iface.bytes_sent += msg.size_bytes
        dst_iface = dst_fabric.interface(msg.dst)
        dst_iface.bytes_received += msg.size_bytes
        dst_iface.inbox.deliver(msg)
        return record

    def ideal_transfer_time(self, src: str, dst: str, size_bytes: int) -> float:
        """Uncontended bridged end-to-end time."""
        src_fabric = self._fabric_of(src)
        dst_fabric = self._fabric_of(dst)
        gw = self.pick_gateway(src, dst)
        return (
            src_fabric.ideal_transfer_time(src, gw.name, size_bytes)
            + gw.spec.per_message_overhead_s
            + size_bytes / gw.spec.bandwidth_bytes_per_s
            + dst_fabric.ideal_transfer_time(gw.name, dst, size_bytes)
        )

    # -- analytic closed forms -----------------------------------------------
    def _resolve_gateway(
        self, src: str, dst: str, gateway: Union[None, str, SMFUGateway]
    ) -> SMFUGateway:
        if isinstance(gateway, SMFUGateway):
            return gateway
        if gateway is not None:
            for gw in self.gateways:
                if gw.name == gateway:
                    return gw
            raise RoutingError(f"no gateway named {gateway!r} on this bridge")
        return self.pick_gateway(src, dst)

    def analytic_transfer_time(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        segment_bytes=_UNSET,
        gateway: Union[None, str, SMFUGateway] = None,
    ) -> float:
        """Closed-form uncontended time of one bridged transfer.

        *segment_bytes* overrides the gateway's configured segmentation
        (pass ``None`` for whole-message store-and-forward); *gateway*
        pins the forwarding gateway (name or object) instead of
        re-running selection — what-if projections use both to ask
        "same transfer, different segment size".
        """
        gw = self._resolve_gateway(src, dst, gateway)
        seg = gw.spec.segment_bytes if segment_bytes is _UNSET else segment_bytes
        src_fabric = self._fabric_of(src)
        dst_fabric = self._fabric_of(dst)
        if seg is None or size_bytes <= seg:
            return (
                src_fabric.ideal_transfer_time(src, gw.name, size_bytes)
                + gw.spec.per_message_overhead_s
                + size_bytes / gw.spec.bandwidth_bytes_per_s
                + dst_fabric.ideal_transfer_time(gw.name, dst, size_bytes)
            )
        n_full, rem = divmod(size_bytes, seg)
        sizes = [seg] * n_full + ([rem] if rem else [])
        lat1, bw1 = _leg_params(src_fabric, src, gw.name)
        lat2, bw2 = _leg_params(dst_fabric, gw.name, dst)
        return pipelined_bridge_time(
            sizes,
            lat1, bw1,
            gw.spec.bandwidth_bytes_per_s, gw.spec.engines,
            gw.spec.per_message_overhead_s,
            lat2, bw2,
        )

    def segment_bytes_ratio(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        factor: float,
        gateway: Union[None, str, SMFUGateway] = None,
    ) -> float:
        """Projected duration ratio of one bridged transfer when
        ``segment_bytes`` is scaled by *factor*.

        The baseline segment size is the gateway's configured one, or
        the whole message when segmentation is off — so on an
        unsegmented machine a factor < 1 *introduces* pipelining and
        the ratio drops below 1.  This is the structural backend behind
        ``what_if("smfu.segment_bytes", ...)``.
        """
        if factor <= 0:
            raise ConfigurationError(f"factor must be > 0, got {factor}")
        gw = self._resolve_gateway(src, dst, gateway)
        base = gw.spec.segment_bytes
        effective_base = base if base is not None else size_bytes
        new_seg = max(int(round(effective_base * factor)), 1)
        t_old = self.analytic_transfer_time(
            src, dst, size_bytes, segment_bytes=base, gateway=gw
        )
        t_new = self.analytic_transfer_time(
            src, dst, size_bytes, segment_bytes=new_seg, gateway=gw
        )
        return t_new / t_old if t_old > 0 else 1.0
