"""``MPI_Comm_spawn``: the Global-MPI startup mechanism (slides 26/27).

DEEP starts Booster code parts by having the Cluster processes
collectively spawn children: the children get their **own**
``MPI_COMM_WORLD`` (B), disjoint from the parents' (A), plus an
inter-communicator connecting the two worlds — over which the actual
offload traffic then flows through the Cluster-Booster bridge.

Cost model of one spawn (experiment E9 measures it):

1. agreement among parents — a binomial bcast of (command, maxprocs);
2. resource-manager allocation — backend latency (queueing, node
   lookup: ParaStation daemon RPC);
3. process launch — tree-based startup, ``base + per_level *
   ceil(log2 n)``, modelling ParaStation's hierarchical forwarder;
4. readiness — child rank 0 reports back to the parent root across
   the bridge; the root then broadcasts the child world description
   to all parents.

The backend interface is :class:`SpawnBackend`; the resource manager in
:mod:`repro.parastation` implements it, and :class:`StaticPool` is a
minimal standalone implementation for tests and microbenchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import AllocationError, SpawnError
from repro.mpi import collectives as coll
from repro.mpi.group import Group
from repro.mpi.status import ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node
    from repro.mpi.communicator import Communicator, Intercommunicator
    from repro.mpi.world import MPIProcess

#: Tag reserved for spawn protocol messages.
SPAWN_TAG = -11


@dataclass(slots=True)
class SpawnAllocation:
    """Nodes granted to one spawn call."""

    placements: list[tuple[str, Optional["Node"]]]
    startup_time_s: float
    allocation_id: int = 0


class SpawnBackend:
    """Interface a resource manager implements to serve spawns."""

    def allocate(self, n: int, info: Optional[dict] = None):
        """Generator: grant *n* process slots or raise SpawnError."""
        raise NotImplementedError

    def release(self, allocation: SpawnAllocation) -> None:
        """Return an allocation's nodes to the pool."""
        raise NotImplementedError


class StaticPool(SpawnBackend):
    """A fixed list of free (endpoint, node) slots.

    ``startup_base_s`` + ``startup_per_level_s * ceil(log2 n)`` models
    tree startup; ``allocation_latency_s`` the RM round trip.
    """

    def __init__(
        self,
        sim,
        slots: Sequence[tuple[str, Optional["Node"]]],
        allocation_latency_s: float = 2e-3,
        startup_base_s: float = 5e-3,
        startup_per_level_s: float = 1.5e-3,
    ) -> None:
        self.sim = sim
        self.free = list(slots)
        self.allocation_latency_s = allocation_latency_s
        self.startup_base_s = startup_base_s
        self.startup_per_level_s = startup_per_level_s
        self._alloc_counter = 0

    def allocate(self, n: int, info: Optional[dict] = None):
        yield self.sim.timeout(self.allocation_latency_s)
        if n > len(self.free):
            raise SpawnError(
                f"spawn of {n} processes exceeds {len(self.free)} free slots"
            )
        placements, self.free = self.free[:n], self.free[n:]
        self._alloc_counter += 1
        startup = self.startup_base_s + self.startup_per_level_s * max(
            math.ceil(math.log2(n)), 1
        )
        return SpawnAllocation(placements, startup, self._alloc_counter)

    def release(self, allocation: SpawnAllocation) -> None:
        self.free.extend(allocation.placements)


def comm_spawn(
    proc: "MPIProcess",
    comm: "Communicator",
    command: str,
    maxprocs: int,
    root: int = 0,
    info: Optional[dict] = None,
):
    """Generator: collective spawn; returns the parent-side intercomm.

    Every rank of *comm* must call this (it is collective); *command*
    must be registered via ``world.register_command``.
    """
    from repro.mpi.communicator import Communicator, Intercommunicator

    world = proc.world
    if maxprocs < 1:
        raise SpawnError(f"maxprocs must be >= 1, got {maxprocs}")
    t0 = world.sim.now

    # Step 1: agree on what to spawn (cheap bcast of the arguments).
    command, maxprocs = yield from coll.bcast(
        comm, (command, maxprocs), root, size_bytes=64
    )

    error: Optional[str] = None
    if comm.rank == root:
        entry = world.commands.get(command)
        backend = world.spawn_backend
        if info and "partition" in info:
            backend = world.spawn_backends.get(info["partition"])
        allocation = None
        if entry is None:
            error = f"command {command!r} is not registered"
        elif backend is None:
            error = (
                f"no spawn backend for partition {info['partition']!r}"
                if info and "partition" in info
                else "world has no spawn backend configured"
            )
        else:
            # Step 2: resource allocation (failure propagates to every
            # rank collectively, like MPI error codes).
            try:
                allocation = yield from backend.allocate(maxprocs, info)
            except (SpawnError, AllocationError) as exc:
                error = str(exc)
        if error is not None:
            yield from coll.bcast(comm, ("__spawn_error__", error), root, 64)
            raise SpawnError(error)

        # Step 3: create the child world and launch bootstraps.
        child_gpids = [
            world.new_gpid(ep, node) for ep, node in allocation.placements
        ]
        child_group = Group(child_gpids)
        child_ctx = world.next_context_id()
        inter_ctx = world.next_context_id()
        desc = _ChildWorldDesc(
            child_gpids=child_gpids,
            child_ctx=child_ctx,
            inter_ctx=inter_ctx,
            parent_gpids=list(comm.group.gpids),
            parent_root=root,
            failure_event=world.sim.event("child-world-failure"),
        )
        _launch_children(
            proc, entry, desc, allocation, command, backend,
        )
        # Step 4: wait until child rank 0 reports in (readiness).
        parent_view = Intercommunicator(
            world, proc, comm.group, child_group, inter_ctx
        )
        parent_view.failure_event = desc.failure_event
        yield from parent_view.recv(source=0, tag=SPAWN_TAG)
    else:
        desc = None
        parent_view = None

    # Step 5: distribute the child world description to all parents.
    desc = yield from coll.bcast(
        comm, desc, root, size_bytes=16 + 8 * maxprocs
    )
    if isinstance(desc, tuple) and desc and desc[0] == "__spawn_error__":
        raise SpawnError(desc[1])
    if comm.rank == root:
        now = world.sim.now
        world._m_spawns.add(1)
        world._h_spawn.observe(now - t0)
        tr = world.sim.trace
        if tr:
            tr.record_span(
                "mpi", f"spawn:{command}", t0, now,
                command=command, n=maxprocs,
            )
        return parent_view
    view = Intercommunicator(
        world, proc, comm.group, Group(desc.child_gpids), desc.inter_ctx
    )
    view.failure_event = desc.failure_event
    return view


@dataclass(slots=True)
class _ChildWorldDesc:
    """What parents need to know about the spawned world."""

    child_gpids: list[int]
    child_ctx: int
    inter_ctx: int
    parent_gpids: list[int]
    parent_root: int
    #: Fires (with the exception as value) if any child rank dies.
    failure_event: Any = None


def _launch_children(
    root_proc: "MPIProcess",
    entry: Callable[["MPIProcess"], Any],
    desc: _ChildWorldDesc,
    allocation: SpawnAllocation,
    command: str,
    backend: Optional[SpawnBackend] = None,
) -> None:
    """Start one bootstrap simulation process per child rank."""
    from repro.mpi.communicator import Communicator, Intercommunicator
    from repro.mpi.world import MPIProcess, _run_main

    world = root_proc.world
    child_group = Group(desc.child_gpids)
    parent_group = Group(desc.parent_gpids)
    drivers = []

    for rank, (gpid, (ep, node)) in enumerate(
        zip(desc.child_gpids, allocation.placements)
    ):
        child = MPIProcess(world, gpid, ep, node)
        child.comm_world = Communicator(world, child, child_group, desc.child_ctx)
        child.parent_comm = Intercommunicator(
            world, child, child_group, parent_group, desc.inter_ctx
        )
        world._processes[gpid] = child
        driver = world.sim.process(
            _child_bootstrap(child, entry, allocation.startup_time_s, rank, desc),
            name=f"spawn:{command}:rank{rank}",
        )
        world.rank_drivers.append(driver)
        world.drivers_by_endpoint.setdefault(ep, []).append(driver)
        drivers.append(driver)

    # When every child has exited, hand the nodes back to the backend
    # (the DYNAMIC booster policy of slide 21: nodes are held only
    # while the spawned world lives).  A child dying fires the world's
    # failure event instead of crashing the simulation, so parents can
    # observe and recover (repro.resilience).
    def reaper():
        from repro.errors import ProcessKilled

        try:
            yield world.sim.all_of(drivers)
        except ProcessKilled as exc:
            # A killed child = injected node failure: observable and
            # recoverable through the world's failure event.
            if desc.failure_event is not None and not desc.failure_event.triggered:
                desc.failure_event.succeed(exc)
        except BaseException:
            # Genuine child errors must stay loud, not vanish into an
            # unobserved event.
            if desc.failure_event is not None and not desc.failure_event.triggered:
                desc.failure_event.succeed(None)
            raise
        finally:
            owner = backend if backend is not None else world.spawn_backend
            if owner is not None:
                owner.release(allocation)

    world.sim.process(reaper(), name=f"spawn:{command}:reaper")


def _child_bootstrap(
    child: "MPIProcess",
    entry: Callable[["MPIProcess"], Any],
    startup_time_s: float,
    rank: int,
    desc: _ChildWorldDesc,
):
    """Per-child startup: boot delay, readiness report, then user code."""
    from repro.mpi.world import _run_main

    yield child.sim.timeout(startup_time_s)
    if rank == 0:
        # Child rank 0 tells the parent root the world is up.
        yield from child.parent_comm.send(desc.parent_root, 32, None, SPAWN_TAG)
    value = yield from _run_main(entry, child)
    return value
