"""Exception hierarchy for the DEEP reproduction.

Every package raises subclasses of :class:`ReproError` so callers can
catch library failures without swallowing genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    Raised by :meth:`repro.simkernel.Simulator.run` when ``check_deadlock``
    is enabled and at least one live process can never be resumed.
    """

    def __init__(self, blocked: int, time: float) -> None:
        self.blocked = blocked
        self.time = time
        super().__init__(
            f"deadlock at t={time:.9f}s: {blocked} process(es) blocked "
            f"with an empty event queue"
        )


class ProcessKilled(SimulationError):
    """Injected into a simulated process that has been killed."""


class OwnerFreedError(ReproError):
    """A part of a simulation was used after its owner was freed.

    Owners hold their parts and parts hold their owners only weakly (a
    simulator its trace recorder, a fabric its interfaces, an MPI world
    its ranks and communicators), so a finished simulation is freed by
    reference counting.  A caller therefore keeps the owners referenced
    while it uses their parts.
    """


class ConfigurationError(ReproError):
    """An invalid machine, network, or runtime configuration."""


class TopologyError(ConfigurationError):
    """Invalid or inconsistent network topology description."""


class RoutingError(ReproError):
    """No route exists between two endpoints of a fabric."""


class MPIError(ReproError):
    """Base class for simulated-MPI failures."""


class CommunicatorError(MPIError):
    """Operation on an invalid or mismatched communicator."""


class RankError(MPIError):
    """A rank argument is outside the communicator's size."""

    def __init__(self, rank: int, size: int, what: str = "rank") -> None:
        self.rank = rank
        self.size = size
        super().__init__(f"{what} {rank} out of range for communicator of size {size}")


class SpawnError(MPIError):
    """``MPI_Comm_spawn`` failed (no resources, bad command, ...)."""


class ResourceError(ReproError):
    """Resource-manager failures (allocation, scheduling, accounting)."""


class AllocationError(ResourceError):
    """Not enough nodes/cores available to satisfy a request."""


class SweepError(ReproError):
    """Sweep-harness failures (job execution, pooling, integrity)."""


class JobTimeoutError(SweepError):
    """A sweep job exceeded its wall-clock budget and was killed."""

    def __init__(self, label: str, timeout_s: float, elapsed_s: float) -> None:
        self.timeout_s = timeout_s
        self.elapsed_s = elapsed_s
        super().__init__(
            f"job {label} exceeded the {timeout_s:.3g}s wall-clock budget "
            f"(ran {elapsed_s:.3g}s before being killed)"
        )


class ResultIntegrityError(SweepError):
    """A job payload failed its checksum on the way back to the parent."""


class WorkerCrashError(SweepError):
    """A pool worker died without returning a result."""


class TaskError(ReproError):
    """OmpSs-like task-runtime failures."""


class DependencyCycleError(TaskError):
    """The declared task dependencies form a cycle."""


class OffloadError(TaskError):
    """Offloading a task collection to the Booster failed."""
