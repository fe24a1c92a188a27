"""Global-MPI convenience helpers (slide 29's picture).

The Global MPI is not a separate implementation — it is ParaStation
MPI on both sides plus the Cluster-Booster protocol underneath
``MPI_Comm_spawn``-created inter-communicators.  These helpers wrap
the common idioms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.deep.offload import OFFLOAD_WORKER_COMMAND, SHUTDOWN, PLAN_TAG
from repro.errors import SpawnError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator, Intercommunicator
    from repro.mpi.world import MPIProcess


def spawn_booster_world(
    proc: "MPIProcess",
    n_workers: int,
    command: str = OFFLOAD_WORKER_COMMAND,
    comm: Optional["Communicator"] = None,
    root: int = 0,
):
    """Generator: collective spawn of a Booster world; returns intercomm.

    Thin wrapper over ``proc.spawn`` with the offload worker as the
    default command.
    """
    comm = comm or proc.comm_world
    if comm is None:
        raise SpawnError("process has no communicator to spawn from")
    intercomm = yield from proc.spawn(comm, command, n_workers, root=root)
    return intercomm


def shutdown_booster_world(
    proc: "MPIProcess", intercomm: "Intercommunicator"
):
    """Generator (root only): tell persistent workers to exit."""
    for r in range(intercomm.remote_size):
        yield from intercomm.send(r, 16, SHUTDOWN, PLAN_TAG)


def global_latency(proc: "MPIProcess", intercomm: "Intercommunicator", peers=(0,)):
    """Generator (root): ping-pong each listed remote rank once.

    Returns ``{rank: round_trip_seconds}`` — the Cluster-Booster
    protocol's end-to-end latency as an application sees it.
    """
    results = {}
    for r in peers:
        t0 = proc.sim.now
        yield from intercomm.send(r, 8, "ping", tag=3_000_000)
        yield from intercomm.recv(r, tag=3_000_001)
        results[r] = proc.sim.now - t0
    return results


def global_latency_responder(proc: "MPIProcess", n_pings: int = 1):
    """Generator (worker side): answer :func:`global_latency` pings."""
    parent = proc.parent_comm
    for _ in range(n_pings):
        _, status = yield from parent.recv(tag=3_000_000)
        yield from parent.send(status.source, 8, "pong", tag=3_000_001)
