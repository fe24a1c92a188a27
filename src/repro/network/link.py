"""Point-to-point link model with serialization, latency and contention.

A :class:`Link` is one *direction* of a physical cable (full duplex =
two links).  A transfer holds the link for its serialization time
(``size / bandwidth``); propagation+switch latency is added afterwards
and does not occupy the link, so back-to-back messages pipeline the way
real cut-through networks do.

Reliability (slide 16: EXTOLL's "CRC/ECC protection, link level
retransmission") is modelled by a per-byte corruption probability; a
corrupted transfer is re-serialized after a retransmission round trip,
drawn from the simulator's ``link-errors`` random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.simkernel.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.simulator import Simulator


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Static parameters of one link direction.

    Attributes
    ----------
    latency_s:
        Propagation plus switch-traversal latency per hop.
    bandwidth_bytes_per_s:
        Serialization rate.
    per_byte_error_rate:
        Probability any given byte is corrupted and triggers a
        link-level retransmission (0 disables the error model).
    retransmit_penalty_s:
        Extra round-trip incurred per retransmission.
    """

    latency_s: float
    bandwidth_bytes_per_s: float
    per_byte_error_rate: float = 0.0
    retransmit_penalty_s: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError("link latency must be >= 0")
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("link bandwidth must be > 0")
        if not 0 <= self.per_byte_error_rate < 1:
            raise ConfigurationError("per_byte_error_rate must be in [0, 1)")

    def serialization_time(self, size_bytes: int) -> float:
        """Time the link is occupied serializing *size_bytes*."""
        return size_bytes / self.bandwidth_bytes_per_s

    def ideal_time(self, size_bytes: int) -> float:
        """Uncontended one-hop transfer time."""
        return self.latency_s + self.serialization_time(size_bytes)


class Link:
    """One direction of a cable, instantiated on a simulator."""

    __slots__ = (
        "sim", "spec", "name", "channel", "bytes_carried", "transfers",
        "pending_flows", "up", "_m_busy",
    )

    def __init__(self, sim: "Simulator", spec: LinkSpec, name: str) -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        #: Single-occupancy serialization resource.
        self.channel = Resource(sim, capacity=1, name=f"link:{name}")
        self._m_busy = sim.metrics.counter("link.busy_s")
        self.bytes_carried = 0
        self.transfers = 0
        #: Transfers routed over this link and not yet finished —
        #: the load signal adaptive routing reads (a transfer reserves
        #: its whole path the moment it picks a route).  Counted only
        #: on adaptive fabrics and while tracing (``link.flows:*``).
        self.pending_flows = 0
        #: False once the cable is failed (fabric-level rerouting
        #: avoids down links; see Fabric.fail_link).
        self.up = True

    def occupy(self, size_bytes: int):
        """Generator: hold the link while serializing *size_bytes*.

        Yields the link-request, the serialization timeout (including
        any retransmissions) and releases the link.  The caller is
        responsible for adding the propagation latency — that part does
        not occupy the link.
        """
        req = self.channel.try_acquire()
        try:
            if req is None:
                req = self.channel.request()
                yield req
            duration = self.spec.serialization_time(size_bytes)
            duration += self._retransmission_penalty(size_bytes)
            self._m_busy.add(duration)
            yield self.sim.timeout(duration)
            self.bytes_carried += size_bytes
            self.transfers += 1
        finally:
            if req.triggered:
                self.channel.release(req)
            else:
                self.channel.cancel(req)

    def _retransmission_penalty(self, size_bytes: int) -> float:
        spec = self.spec
        if spec.per_byte_error_rate <= 0.0 or size_bytes <= 0:
            return 0.0
        rng = self.sim.rng.stream("link-errors")
        # Expected number of corruption events over the payload.
        mean_errors = spec.per_byte_error_rate * size_bytes
        n_errors = int(rng.poisson(mean_errors))
        if n_errors == 0:
            return 0.0
        # Each error re-serializes the affected segment (assume a
        # half-message worst case amortised to a quarter on average)
        # plus the protocol round trip.
        reserialize = 0.25 * spec.serialization_time(size_bytes)
        return n_errors * (spec.retransmit_penalty_s + reserialize)

    def utilization(self, since: float = 0.0) -> float:
        """Mean busy fraction of this link direction."""
        return self.channel.utilization(since)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name}>"
