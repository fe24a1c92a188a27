"""EXTOLL fabric model (the DEEP Booster interconnect).

Slide 16 enumerates the features this module reproduces:

* **6 links for a 3D torus topology** — the topology/routing come from
  :func:`~repro.network.topology.torus_topology` with dimension-order
  routing.
* **VELO communication engine (zero-copy MPI)** — a low-overhead path
  for small messages: tiny injection overhead, no rendezvous.
* **RMA engine for remote memory access, bulk data transfer** — a
  one-sided put/get path: fixed descriptor-setup cost, then streaming
  at link rate with no CPU involvement.
* **RAS features: CRC/ECC protection, link level retransmission** —
  the link error model (per-byte error rate + retransmit penalty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ConfigurationError
from repro.network.fabric import Fabric, NetworkInterface
from repro.network.link import LinkSpec
from repro.network.message import Message
from repro.network.topology import torus_topology
from repro.units import gbyte_per_s, microseconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.simulator import Simulator


@dataclass(frozen=True, slots=True)
class ExtollSpec:
    """EXTOLL NIC + link parameters.

    ``velo_max_bytes`` is the largest message the VELO engine carries;
    bigger transfers use the RMA engine.  ``rma_setup_s`` is the
    one-time descriptor/doorbell cost of an RMA put.
    """

    name: str
    bandwidth_bytes_per_s: float
    hop_latency_s: float
    velo_send_overhead_s: float
    velo_recv_overhead_s: float
    velo_max_bytes: int
    rma_setup_s: float
    rma_send_overhead_s: float
    per_byte_error_rate: float = 1e-13
    retransmit_penalty_s: float = microseconds(1.0)


#: Tourmalet-class ASIC numbers (the production DEEP booster NIC):
#: ~5.4 GB/s per link direction, ~0.45 us per hop, VELO end-to-end
#: latency below a microsecond.
EXTOLL_TOURMALET = ExtollSpec(
    name="EXTOLL-Tourmalet",
    bandwidth_bytes_per_s=gbyte_per_s(5.4),
    hop_latency_s=microseconds(0.45),
    velo_send_overhead_s=microseconds(0.15),
    velo_recv_overhead_s=microseconds(0.15),
    velo_max_bytes=1024,
    rma_setup_s=microseconds(0.35),
    rma_send_overhead_s=microseconds(0.10),
)

#: Galibier-class FPGA numbers (the 2013 prototype hardware): slower
#: links, higher engine overheads — useful for sensitivity studies.
EXTOLL_GALIBIER = ExtollSpec(
    name="EXTOLL-Galibier",
    bandwidth_bytes_per_s=gbyte_per_s(0.9),
    hop_latency_s=microseconds(0.85),
    velo_send_overhead_s=microseconds(0.35),
    velo_recv_overhead_s=microseconds(0.35),
    velo_max_bytes=512,
    rma_setup_s=microseconds(0.80),
    rma_send_overhead_s=microseconds(0.25),
)


class ExtollInterface(NetworkInterface):
    """A booster node's EXTOLL NIC with VELO and RMA send paths."""

    def __init__(self, sim, fabric: "ExtollFabric", endpoint: str) -> None:
        spec = fabric.extoll_spec
        super().__init__(
            sim,
            fabric,
            endpoint,
            send_overhead_s=spec.velo_send_overhead_s,
            recv_overhead_s=spec.velo_recv_overhead_s,
        )
        self.extoll_spec = spec
        self.velo_messages = 0
        self.rma_transfers = 0

    def send(self, msg: Message):
        """Route the message through VELO or RMA by size."""
        if msg.size_bytes <= self.extoll_spec.velo_max_bytes:
            return (yield from self.velo_send(msg))
        return (yield from self.rma_put(msg))

    def velo_send(self, msg: Message):
        """Small-message path: minimal overhead, message lands in inbox."""
        if msg.size_bytes > self.extoll_spec.velo_max_bytes:
            raise ConfigurationError(
                f"VELO message of {msg.size_bytes} B exceeds "
                f"{self.extoll_spec.velo_max_bytes} B"
            )
        self.velo_messages += 1
        msg.kind = "velo"
        return (yield from super().send(msg))

    def rma_put(self, msg: Message):
        """Bulk path: descriptor setup, then zero-copy streaming."""
        self.rma_transfers += 1
        msg.kind = "rma"
        yield self.sim.timeout(self.extoll_spec.rma_setup_s)
        saved = self.send_overhead_s
        self.send_overhead_s = self.extoll_spec.rma_send_overhead_s
        try:
            record = yield from super().send(msg)
        finally:
            self.send_overhead_s = saved
        return record


class ExtollFabric(Fabric):
    """A 3D-torus EXTOLL fabric.

    Endpoints are laid out on a torus whose dimensions are given or
    chosen as the most-cubic factorisation of ``len(endpoints)``.
    """

    def __init__(
        self,
        sim: "Simulator",
        endpoints: Sequence[str],
        spec: ExtollSpec = EXTOLL_TOURMALET,
        dims: Optional[Sequence[int]] = None,
        contention: bool = True,
        adaptive: bool = False,
    ) -> None:
        if dims is None:
            dims = balanced_dims(len(endpoints))
        if math.prod(dims) != len(endpoints):
            raise ConfigurationError(
                f"torus dims {tuple(dims)} do not fit {len(endpoints)} endpoints"
            )
        self.extoll_spec = spec
        self.dims = tuple(dims)
        topo = torus_topology(dims, names=list(endpoints))
        link = LinkSpec(
            latency_s=spec.hop_latency_s,
            bandwidth_bytes_per_s=spec.bandwidth_bytes_per_s,
            per_byte_error_rate=spec.per_byte_error_rate,
            retransmit_penalty_s=spec.retransmit_penalty_s,
        )
        super().__init__(
            sim,
            topo,
            link,
            name="extoll",
            routing="dimension-order",
            send_overhead_s=spec.velo_send_overhead_s,
            recv_overhead_s=spec.velo_recv_overhead_s,
            contention=contention,
            adaptive=adaptive,
        )

    def _make_interface(self, endpoint: str) -> ExtollInterface:
        if endpoint in self._interfaces:
            raise ConfigurationError(
                f"endpoint {endpoint!r} already attached to fabric {self.name!r}"
            )
        if endpoint not in self.topo.graph or not self.topo.is_endpoint(endpoint):
            raise ConfigurationError(
                f"{endpoint!r} is not an endpoint of fabric {self.name!r}"
            )
        iface = ExtollInterface(self.sim, self, endpoint)
        self._interfaces[endpoint] = iface
        return iface

    def velo_latency(self, src: str, dst: str) -> float:
        """End-to-end latency of a minimal VELO message."""
        s = self.extoll_spec
        return (
            s.velo_send_overhead_s
            + self.ideal_transfer_time(src, dst, 8)
            + s.velo_recv_overhead_s
        )


def balanced_dims(n: int, ndims: int = 3) -> tuple[int, ...]:
    """Most-cubic ``ndims``-dimensional factorisation of *n*.

    ``balanced_dims(32) == (4, 4, 2)``; falls back to flatter shapes
    when *n* has few factors (primes give ``(n, 1, 1)``).
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    best: tuple[int, ...] = (n,) + (1,) * (ndims - 1)
    candidates = _factorisations(n, ndims, 1)
    if candidates:
        # Most cubic = smallest max/min ratio, then smallest max.
        def score(shape: tuple[int, ...]) -> tuple[float, int]:
            return (max(shape) / min(shape), max(shape))

        best = min(candidates, key=score)
    return tuple(sorted(best, reverse=True))


def _factorisations(
    remaining: int, dims_left: int, start: int
) -> list[tuple[int, ...]]:
    """Non-decreasing factor tuples of *remaining* with *dims_left*
    factors, the first at least *start* (a module-level function: a
    self-recursive closure is a reference cycle)."""
    if dims_left == 1:
        return [(remaining,)]
    shapes = []
    d = start
    while d * d <= remaining ** dims_left:  # generous bound
        if d > remaining:
            break
        if remaining % d == 0:
            for rest in _factorisations(remaining // d, dims_left - 1, d):
                shapes.append((d,) + rest)
        d += 1
    return shapes
