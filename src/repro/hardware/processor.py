"""Processor model: a pool of cores with a shared memory roofline.

A :class:`Processor` is instantiated on a simulator and exposes two
interfaces:

* an *analytic* one (:meth:`kernel_time`) returning the roofline time a
  kernel would take on ``n`` cores — used by cost models and sweeps;
* a *simulated* one (:meth:`execute`) — a generator that claims cores
  from the core :class:`~repro.simkernel.resources.Resource` and holds
  them for the kernel's duration, so contention, oversubscription and
  load imbalance emerge from the event kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.hardware.cores import CoreSpec
from repro.hardware.memory import MemorySpec, roofline_time
from repro.simkernel.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.simulator import Simulator


@dataclass(frozen=True, slots=True)
class ProcessorSpec:
    """A processor model at spec-sheet fidelity.

    Attributes
    ----------
    name:
        Marketing-ish name ("Xeon E5-2680", "Xeon Phi 5110P").
    core:
        Per-core compute spec.
    n_cores:
        Physical cores (hardware threads are folded into
        ``core.sustained_efficiency``).
    memory:
        Attached memory system.
    tdp_watts:
        Thermal design power (used by the power model).
    idle_watts:
        Power drawn when fully idle.
    """

    name: str
    core: CoreSpec
    n_cores: int
    memory: MemorySpec
    tdp_watts: float = 100.0
    idle_watts: float = 30.0

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigurationError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.idle_watts < 0 or self.tdp_watts < self.idle_watts:
            raise ConfigurationError(
                f"need 0 <= idle ({self.idle_watts}) <= tdp ({self.tdp_watts})"
            )

    @property
    def peak_flops(self) -> float:
        """Peak flop/s of the whole chip."""
        return self.core.peak_flops * self.n_cores

    @property
    def sustained_flops(self) -> float:
        """Sustained flop/s of the whole chip."""
        return self.core.sustained_flops * self.n_cores

    @property
    def gflops_per_watt(self) -> float:
        """Energy efficiency at peak (slide 15 quotes ~5 GFlop/W for KNC)."""
        return self.peak_flops / 1e9 / self.tdp_watts

    def kernel_time(
        self, flops: float, traffic_bytes: float = 0.0, n_cores: Optional[int] = None
    ) -> float:
        """Roofline time of a kernel on *n_cores* cores (default: all).

        Memory bandwidth is shared: using fewer cores does not shrink
        the bandwidth roof, which reproduces the familiar saturation of
        bandwidth-bound kernels at partial core counts.
        """
        n = self.n_cores if n_cores is None else n_cores
        if not 1 <= n <= self.n_cores:
            raise ConfigurationError(
                f"n_cores {n} out of range 1..{self.n_cores} for {self.name}"
            )
        return roofline_time(
            flops,
            traffic_bytes,
            self.core.sustained_flops * n,
            self.memory.bandwidth_bytes_per_s,
        )


class Processor:
    """A :class:`ProcessorSpec` instantiated on a simulator."""

    def __init__(self, sim: "Simulator", spec: ProcessorSpec, name: str = "") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        #: Core pool; tasks claim slots to run.
        self.cores = Resource(sim, capacity=spec.n_cores, name=f"cores:{self.name}")
        # Serialises multi-core acquisition so two wide kernels cannot
        # deadlock holding partial core sets (no hold-and-wait cycles).
        self._alloc_lock = Resource(sim, capacity=1, name=f"alloc:{self.name}")

    def kernel_time(
        self, flops: float, traffic_bytes: float = 0.0, n_cores: Optional[int] = None
    ) -> float:
        """Analytic roofline time (see :meth:`ProcessorSpec.kernel_time`)."""
        return self.spec.kernel_time(flops, traffic_bytes, n_cores)

    def execute(self, flops: float, traffic_bytes: float = 0.0, n_cores: int = 1):
        """Simulated kernel execution claiming *n_cores* cores.

        A generator for use inside simulation processes::

            yield from processor.execute(flops=1e9, n_cores=4)

        ``n_cores=0`` claims the whole chip.  Cores are claimed under
        an allocation lock (no hold-and-wait deadlock) by one
        ``n_cores``-slot request, the kernel then runs for its roofline
        duration, and the cores are released.  A process killed while
        it waits gives back the lock and every core it already holds.
        """
        if n_cores == 0:
            n_cores = self.spec.n_cores
        n_cores = min(n_cores, self.spec.n_cores)
        if n_cores < 1:
            raise ConfigurationError(f"invalid n_cores {n_cores}")
        alloc, cores = self._alloc_lock, self.cores
        lock = alloc.request()
        claim = None
        try:
            try:
                yield lock
                claim = cores.request(slots=n_cores)
                yield claim
            finally:
                if lock.triggered:
                    alloc.release(lock)
                else:
                    alloc.cancel(lock)
            start = self.sim.now
            yield self.sim.timeout(self.kernel_time(flops, traffic_bytes, n_cores))
            tr = self.sim.trace
            if tr:
                tr.record_span(
                    "compute", self.name, start, self.sim.now,
                    flops=flops, cores=n_cores,
                )
        finally:
            if claim is not None:
                if claim.triggered:
                    cores.release(claim)
                else:
                    cores.cancel(claim)

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of cores busy since *since*."""
        return self.cores.utilization(since)
