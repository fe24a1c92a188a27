"""MPI world: process handles, transports, and the universe.

An :class:`MPIWorld` owns one simulated MPI *universe*: the mapping
from global process ids (gpids) to fabric endpoints, the transport
selection (same-fabric direct, cross-fabric via the SMFU bridge), the
context-id agreement used by communicator-creating collectives, and the
command registry + spawn backend used by ``MPI_Comm_spawn``.

Each simulated MPI rank is driven by one simulation process executing
``main(proc)`` where ``proc`` is its :class:`MPIProcess` handle.  The
handle holds the rank's state; the rank sends and receives through its
communicators (``proc.comm_world``, ``proc.parent_comm`` and those
derived from them), whose communication methods are generators to
``yield from``.
"""

from __future__ import annotations

import itertools
import weakref
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import (
    CommunicatorError,
    MPIError,
    OwnerFreedError,
    RoutingError,
)
from repro.mpi.group import Group
from repro.mpi.pt2pt import packet_key
from repro.network.fabric import Fabric
from repro.network.message import Message
from repro.network.smfu import ClusterBoosterBridge
from repro.simkernel.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node
    from repro.mpi.communicator import Communicator, Intercommunicator
    from repro.simkernel.simulator import Simulator


class Transport:
    """Chooses how a message travels between two endpoints.

    Direct if source and destination share a fabric; across the
    Cluster-Booster bridge otherwise.
    """

    def __init__(
        self, fabrics: Sequence[Fabric], bridge: Optional[ClusterBoosterBridge] = None
    ) -> None:
        if not fabrics:
            raise CommunicatorError("transport needs at least one fabric")
        self.fabrics = list(fabrics)
        self.bridge = bridge
        self._fabric_cache: dict[str, Fabric] = {}

    def _fabric_of(self, endpoint: str) -> Optional[Fabric]:
        fabric = self._fabric_cache.get(endpoint)
        if fabric is None:
            for candidate in self.fabrics:
                if candidate.has_interface(endpoint):
                    # Cache positives only: spawn attaches endpoints
                    # after the transport is built.
                    self._fabric_cache[endpoint] = fabric = candidate
                    break
        return fabric

    def send_message(self, msg: Message):
        """Generator: deliver *msg* to its destination endpoint's inbox."""
        src_fabric = self._fabric_of(msg.src)
        if src_fabric is None:
            raise RoutingError(f"endpoint {msg.src!r} not attached to any fabric")
        dst_fabric = self._fabric_of(msg.dst)
        if dst_fabric is src_fabric:
            record = yield from src_fabric.interface(msg.src).send(msg)
            return record
        if self.bridge is None:
            raise RoutingError(
                f"{msg.src!r} and {msg.dst!r} are on different fabrics "
                f"and no Cluster-Booster bridge is configured"
            )
        record = yield from self.bridge.send_message(msg)
        return record

    def interface_of(self, endpoint: str):
        fabric = self._fabric_of(endpoint)
        if fabric is None:
            raise RoutingError(f"endpoint {endpoint!r} not attached to any fabric")
        return fabric.interface(endpoint)


class MPIProcess:
    """Per-rank MPI handle (think: this rank's libmpi state).

    It holds the rank's state: its gpid, endpoint, node, port and
    send sequence.  The rank's communicators send and receive; the
    handle itself only computes, waits and spawns.

    The world owns its ranks, so a rank holds its world only weakly:
    the caller keeps the :class:`MPIWorld` referenced while the ranks
    run.
    """

    def __init__(
        self,
        world: "MPIWorld",
        gpid: int,
        endpoint: str,
        node: Optional["Node"] = None,
    ) -> None:
        self._world = weakref.ref(world)
        self.sim = world.sim
        self.gpid = gpid
        self.endpoint = endpoint
        self.node = node
        self._seq = itertools.count()
        #: This rank's port: an endpoint's interface never changes, so
        #: receives read its inbox and overhead without a lookup.
        self._iface = world.transport.interface_of(endpoint)
        self._inbox = self._iface.inbox
        # Key the inbox by packet envelope, so receives that name their
        # packet wait on its key (idempotent; several MPIProcesses may
        # share an endpoint across worlds).
        self._inbox.key_of = packet_key
        #: Set by the world before the entry function runs.
        self.comm_world: Optional["Communicator"] = None
        #: Intercommunicator to the spawning parents, if this process
        #: was created by ``MPI_Comm_spawn``.
        self.parent_comm: Optional["Intercommunicator"] = None

    @property
    def world(self) -> "MPIWorld":
        """The MPI universe this rank belongs to."""
        world = self._world()
        if world is None:
            raise OwnerFreedError(
                f"MPI process {self.gpid} at {self.endpoint!r} used after "
                f"its MPIWorld was freed; keep the world referenced while "
                f"its ranks run"
            )
        return world

    # -- compute -----------------------------------------------------------
    def compute(self, flops: float, traffic_bytes: float = 0.0, n_cores: int = 1):
        """Generator: run a kernel on this process's node."""
        if self.node is None:
            raise MPIError(f"process {self.gpid} has no node to compute on")
        yield from self.node.processor.execute(flops, traffic_bytes, n_cores)

    def elapse(self, seconds: float):
        """Generator: let simulated time pass (pure delay, no cores held)."""
        yield self.sim.timeout(seconds)

    # -- spawn ----------------------------------------------------------------
    def spawn(
        self,
        comm: "Communicator",
        command: str,
        maxprocs: int,
        root: int = 0,
        info: Optional[dict] = None,
    ):
        """Generator: collective ``MPI_Comm_spawn`` (slide 27).

        Returns the inter-communicator to the children.  Implemented in
        :mod:`repro.mpi.spawn`; see there for the cost model.
        """
        from repro.mpi.spawn import comm_spawn

        intercomm = yield from comm_spawn(self, comm, command, maxprocs, root, info)
        return intercomm


class MPIWorld:
    """One MPI universe over a set of fabrics.

    Parameters
    ----------
    sim:
        Simulator.
    fabrics:
        Fabrics processes live on (endpoints must be pre-attached).
    bridge:
        Optional Cluster-Booster bridge for cross-fabric worlds.
    eager_threshold:
        Largest eager message in bytes (default 32 KiB, a typical
        ParaStation/pscom setting).
    fidelity:
        Anything :meth:`repro.fidelity.FidelityConfig.coerce` accepts
        (``None`` = all exact).  With ``collectives="analytic"`` the
        blocking collectives charge calibrated LogGP closed forms
        instead of executing per-rank pt2pt (see
        :mod:`repro.mpi.analytic`).
    """

    def __init__(
        self,
        sim: "Simulator",
        fabrics: Sequence[Fabric],
        bridge: Optional[ClusterBoosterBridge] = None,
        eager_threshold: int = 32 * 1024,
        fidelity: Any = None,
    ) -> None:
        from repro.fidelity import ANALYTIC, FidelityConfig

        self.sim = sim
        self.transport = Transport(fabrics, bridge)
        self.eager_threshold = int(eager_threshold)
        self.fidelity = FidelityConfig.coerce(fidelity)
        if self.fidelity.collectives == ANALYTIC:
            from repro.mpi.analytic import AnalyticCollectiveEngine

            self.analytic_collectives = AnalyticCollectiveEngine(self)
        else:
            self.analytic_collectives = None
        # Metric handles (no-ops unless the simulator enables metrics).
        m = sim.metrics
        self._m_sent = m.counter("mpi.msgs_sent")
        self._m_sent_bytes = m.counter("mpi.bytes_sent")
        self._m_matched = m.counter("mpi.msgs_matched")
        self._m_spawns = m.counter("mpi.spawns")
        self._h_spawn = m.histogram("spawn.latency_s")
        self._gpid_counter = itertools.count()
        self._context_counter = itertools.count(1)
        self._context_agreements: dict[Any, int] = {}
        self._endpoints: dict[int, str] = {}
        self._nodes: dict[int, Optional["Node"]] = {}
        self._processes: dict[int, MPIProcess] = {}
        #: command name -> entry generator-function fn(proc)
        self.commands: dict[str, Callable[[MPIProcess], Any]] = {}
        #: default backend supplying nodes/endpoints for Comm_spawn
        self.spawn_backend = None
        #: named backends, selected via spawn info={"partition": name}
        #: (e.g. reverse offload: a Booster world spawning Cluster
        #: helpers draws from the "cluster" backend).
        self.spawn_backends: dict[str, Any] = {}
        #: every Process driving a rank, for run()/join bookkeeping
        self.rank_drivers: list[Process] = []
        #: endpoint -> rank-driver processes placed there (failure
        #: injection kills these; see repro.resilience).
        self.drivers_by_endpoint: dict[str, list[Process]] = {}

    # -- registration ---------------------------------------------------------
    def register_command(
        self, name: str, fn: Callable[[MPIProcess], Any]
    ) -> None:
        """Register an executable *name* for ``MPI_Comm_spawn``."""
        self.commands[name] = fn

    def new_gpid(self, endpoint: str, node: Optional["Node"] = None) -> int:
        """Allocate a global process id living at *endpoint*."""
        gpid = next(self._gpid_counter)
        self._endpoints[gpid] = endpoint
        self._nodes[gpid] = node
        return gpid

    def endpoint_of(self, gpid: int) -> str:
        try:
            return self._endpoints[gpid]
        except KeyError:
            raise MPIError(f"unknown gpid {gpid}") from None

    def process_of(self, gpid: int) -> MPIProcess:
        try:
            return self._processes[gpid]
        except KeyError:
            raise MPIError(f"no MPIProcess created for gpid {gpid}") from None

    # -- context agreement ------------------------------------------------------
    def next_context_id(self) -> int:
        return next(self._context_counter)

    def agree_context(self, key: Any) -> int:
        """All ranks calling with the same *key* get the same fresh id.

        Used by communicator-creating collectives: the first arrival
        allocates, the rest look up.  Keys embed the parent context id
        and that communicator's collective sequence number, which MPI
        semantics guarantee are identical across ranks.
        """
        ctx = self._context_agreements.get(key)
        if ctx is None:
            ctx = self.next_context_id()
            self._context_agreements[key] = ctx
        return ctx

    # -- world construction -------------------------------------------------------
    def create_world(
        self,
        placements: Sequence[tuple[str, Optional["Node"]]],
        main: Callable[[MPIProcess], Any],
        name: str = "world",
    ) -> list[MPIProcess]:
        """Create an ``MPI_COMM_WORLD`` of len(placements) ranks and start them.

        *placements* lists (endpoint, node) per rank.  Every rank runs
        the generator function ``main(proc)``.  Returns the process
        handles (index = world rank).
        """
        from repro.mpi.communicator import Communicator

        gpids = [self.new_gpid(ep, node) for ep, node in placements]
        group = Group(gpids)
        context_id = self.next_context_id()
        procs: list[MPIProcess] = []
        for rank, (gpid, (ep, node)) in enumerate(zip(gpids, placements)):
            proc = MPIProcess(self, gpid, ep, node)
            proc.comm_world = Communicator(self, proc, group, context_id)
            self._processes[gpid] = proc
            procs.append(proc)
        for rank, proc in enumerate(procs):
            driver = self.sim.process(
                _run_main(main, proc), name=f"{name}:rank{rank}"
            )
            self.rank_drivers.append(driver)
            self.drivers_by_endpoint.setdefault(proc.endpoint, []).append(driver)
        return procs


def _run_main(main: Callable[[MPIProcess], Any], proc: MPIProcess):
    """Adapter allowing plain functions or generator mains."""
    result = main(proc)
    if hasattr(result, "send") and hasattr(result, "throw"):
        value = yield from result
        return value
    return result
    yield  # pragma: no cover - makes this a generator function
