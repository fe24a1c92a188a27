"""Phase-structured applications, runnable on three architectures.

Slide 9's argument: applications mix *highly scalable code parts*
(regular kernels) with *less scalable* parts (irregular communication,
control flow), and heterogeneity pays when each part runs on the
hardware that suits it.  :class:`Application` expresses exactly that
mix as a phase list:

* :class:`SerialPhase` — the non-scalable ``main()`` part (fixed
  per-rank work regardless of rank count);
* :class:`ExchangePhase` — communication on the cluster communicator
  (halo / allreduce / alltoall);
* :class:`KernelPhase` — an HSCP: a task-graph builder, executable
  (a) on the cluster ranks themselves, (b) on PCIe accelerators in the
  cluster nodes (the slide-6 baseline), or (c) offloaded to the
  Booster (the DEEP way) — the E3/E6 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.deep.offload import (
    OFFLOAD_WORKER_COMMAND,
    PLAN_TAG,
    SHUTDOWN,
    execute_partition,
    external_input_bytes,
    offload_graph_collective,
    persistent_offload_worker,
    terminal_output_bytes,
)
from repro.errors import ConfigurationError, OffloadError
from repro.hardware.catalog import GPU_K20X
from repro.hardware.node import Accelerator
from repro.hardware.pcie import PCIeSpec
from repro.hardware.processor import Processor, ProcessorSpec
from repro.mpi.ops import MAX
from repro.network.link import Link, LinkSpec
from repro.ompss.graph import TaskGraph
from repro.ompss.offload import partition_tasks

if TYPE_CHECKING:  # pragma: no cover
    from repro.deep.system import DeepSystem
    from repro.mpi.world import MPIProcess

#: Architecture modes for :func:`run_application`.  ``advisor`` is the
#: full DEEP workflow: the division advisor decides per kernel phase,
#: at runtime, whether offloading pays (slide 9's mapping, automated).
MODES = ("cluster-only", "accelerated", "cluster-booster", "advisor")


@dataclass(frozen=True, slots=True)
class SerialPhase:
    """Non-scalable work: every rank burns the same flops."""

    name: str
    flops_per_rank: float
    traffic_bytes: float = 0.0


@dataclass(frozen=True, slots=True)
class ExchangePhase:
    """Cluster-side communication."""

    name: str
    bytes_per_rank: int
    pattern: str = "halo"  # halo | allreduce | alltoall
    repetitions: int = 1

    def __post_init__(self) -> None:
        if self.pattern not in ("halo", "allreduce", "alltoall"):
            raise ConfigurationError(f"unknown exchange pattern {self.pattern!r}")


@dataclass(frozen=True, slots=True)
class KernelPhase:
    """A highly scalable code part as a task-graph builder.

    ``graph_builder(n_workers)`` must return a fresh
    :class:`~repro.ompss.graph.TaskGraph` sized for that worker count.
    """

    name: str
    graph_builder: Callable[[int], TaskGraph]
    strategy: str = "block"
    offloadable: bool = True


Phase = SerialPhase | ExchangePhase | KernelPhase


@dataclass(slots=True)
class PhaseReport:
    """Timing of one phase across iterations."""

    name: str
    kind: str
    total_s: float = 0.0
    count: int = 0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass(slots=True)
class RunReport:
    """Outcome of one application run."""

    mode: str
    n_cluster_ranks: int
    n_workers: int
    total_time_s: float
    energy_joules: float
    phases: dict[str, PhaseReport] = field(default_factory=dict)
    booster_utilization: float = 0.0

    def phase_time(self, name: str) -> float:
        return self.phases[name].total_s


@dataclass(slots=True)
class _AcceleratedEnv:
    """Per-rank accelerator context for the slide-6 baseline."""

    accelerator: Accelerator
    pcie_link: Link
    pcie_latency_s: float


class Application:
    """An ordered list of phases iterated ``iterations`` times."""

    def __init__(self, name: str, phases: list[Phase], iterations: int = 1) -> None:
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not phases:
            raise ConfigurationError("an application needs at least one phase")
        names = [p.name for p in phases]
        if len(set(names)) != len(names):
            raise ConfigurationError("phase names must be unique")
        self.name = name
        self.phases = list(phases)
        self.iterations = iterations


def run_application(
    system: "DeepSystem",
    app: Application,
    mode: str = "cluster-booster",
    n_cluster_ranks: Optional[int] = None,
    n_workers: Optional[int] = None,
    accelerator_spec: ProcessorSpec = GPU_K20X,
    pcie: PCIeSpec = PCIeSpec(),
) -> RunReport:
    """Run *app* on *system* under one architecture mode and report.

    This drives the whole simulation (``system.run()``); use one fresh
    system per call.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    n_ranks = n_cluster_ranks or system.config.n_cluster
    workers = n_workers or (
        system.config.n_booster
        if mode in ("cluster-booster", "advisor")
        else n_ranks
    )

    advisor = None
    if mode == "advisor":
        from repro.deep.division import DivisionAdvisor

        cfg = system.config
        advisor = DivisionAdvisor(
            cfg.cluster_spec.processor,
            cfg.booster_spec.processor,
            n_cluster=n_ranks,
            n_booster=workers,
            cluster_net_latency_s=cfg.ib.hop_latency_s * 2
            + cfg.ib.send_overhead_s + cfg.ib.recv_overhead_s,
            cluster_net_bandwidth=cfg.ib.bandwidth_bytes_per_s,
            booster_net_latency_s=cfg.extoll.hop_latency_s * 2
            + cfg.extoll.velo_send_overhead_s + cfg.extoll.velo_recv_overhead_s,
            booster_net_bandwidth=cfg.extoll.bandwidth_bytes_per_s,
            bridge_bandwidth=cfg.n_gateways * cfg.ib.bandwidth_bytes_per_s,
        )

    system.register_command(OFFLOAD_WORKER_COMMAND, persistent_offload_worker)

    # Accelerated baseline: bolt accelerators + PCIe links onto CNs.
    acc_envs: dict[int, _AcceleratedEnv] = {}
    if mode == "accelerated":
        pcie_spec = LinkSpec(
            latency_s=pcie.latency_s, bandwidth_bytes_per_s=pcie.bandwidth_bytes_per_s
        )
        for i, node in enumerate(system.machine.cluster_nodes[:n_ranks]):
            acc = Accelerator(system.sim, accelerator_spec, i)
            node.attach_accelerator(acc)
            link = Link(system.sim, pcie_spec, name=f"pcie:{node.name}")
            acc_envs[i] = _AcceleratedEnv(acc, link, pcie.latency_s)

    reports: dict[str, PhaseReport] = {}
    for p in app.phases:
        kind = type(p).__name__
        reports[p.name] = PhaseReport(p.name, kind)

    start_holder = {}

    def main(proc: "MPIProcess"):
        comm = proc.comm_world
        rank = comm.rank
        start_holder.setdefault("t0", proc.sim.now)
        # Persistent Booster world, spawned on first offload and shared
        # by every kernel phase of every iteration (the slide-21
        # pattern: one job, one dynamically assigned booster slice).
        booster_ctx: dict[str, Any] = {}
        for _ in range(app.iterations):
            for phase in app.phases:
                t0 = proc.sim.now
                if isinstance(phase, SerialPhase):
                    yield from proc.compute(phase.flops_per_rank, phase.traffic_bytes)
                    yield from comm.barrier()
                elif isinstance(phase, ExchangePhase):
                    yield from _run_exchange(proc, phase)
                elif isinstance(phase, KernelPhase):
                    yield from _run_kernel(
                        proc, phase, mode, workers, acc_envs, system,
                        booster_ctx, advisor,
                    )
                else:  # pragma: no cover - type guard
                    raise ConfigurationError(f"unknown phase {phase!r}")
                # Phase time = slowest rank (track via max-allreduce).
                dt = proc.sim.now - t0
                dt = yield from comm.allreduce(dt, MAX, size_bytes=8)
                if rank == 0:
                    rep = reports[phase.name]
                    rep.total_s += dt
                    rep.count += 1
        inter = booster_ctx.get("inter")
        if inter is not None and rank == 0:
            for r in range(inter.remote_size):
                yield from inter.send(r, 16, SHUTDOWN, PLAN_TAG)
        yield from comm.barrier()

    system.launch(main, n_ranks=n_ranks)
    system.run()

    total = system.now - start_holder.get("t0", 0.0)
    energy = system.energy_joules()
    if mode == "accelerated":
        # Accelerator silicon is not covered by node meters.
        for env in acc_envs.values():
            u = env.accelerator.processor.utilization()
            spec = env.accelerator.spec
            power = spec.idle_watts + u * (spec.tdp_watts - spec.idle_watts)
            energy += power * total
    return RunReport(
        mode=mode,
        n_cluster_ranks=n_ranks,
        n_workers=workers,
        total_time_s=total,
        energy_joules=energy,
        phases=reports,
        booster_utilization=system.booster_utilization(),
    )


# ---------------------------------------------------------------------------
# phase executors
# ---------------------------------------------------------------------------


def _run_exchange(proc: "MPIProcess", phase: ExchangePhase):
    comm = proc.comm_world
    n, rank = comm.size, comm.rank
    for _ in range(phase.repetitions):
        if phase.pattern == "halo":
            if n > 1:
                right = (rank + 1) % n
                left = (rank - 1) % n
                yield from comm.sendrecv(
                    right, phase.bytes_per_rank, None, source=left,
                    send_tag=2_000_000, recv_tag=2_000_000,
                )
                yield from comm.sendrecv(
                    left, phase.bytes_per_rank, None, source=right,
                    send_tag=2_000_001, recv_tag=2_000_001,
                )
        elif phase.pattern == "allreduce":
            yield from comm.allreduce(0.0, size_bytes=phase.bytes_per_rank)
        elif phase.pattern == "alltoall":
            yield from comm.alltoall(
                [None] * n, size_bytes=max(phase.bytes_per_rank // max(n, 1), 1)
            )


def profile_of_graph(graph: TaskGraph, n_workers: int, name: str = "kernel"):
    """Derive a :class:`~repro.deep.division.PhaseProfile` from a graph.

    Used by the advisor mode: total flops from the tasks, the bridge
    transfer volume from external inputs + terminal outputs, and the
    internal communication from the plan's cross-rank traffic.
    """
    from repro.deep.division import PhaseProfile

    plan = partition_tasks(graph, n_workers, "locality")
    total_flops = sum(t.flops for t in graph.tasks)
    transfer = sum(
        external_input_bytes(graph, t) + terminal_output_bytes(graph, t)
        for t in graph.tasks
    )
    cross = plan.cross_traffic_bytes()
    span, _ = graph.critical_path(lambda t: max(t.flops, 1.0))
    work = max(graph.total_work(lambda t: max(t.flops, 1.0)), 1.0)
    # Tasks are node-granular, so the graph's work/span bounds how many
    # NODES help (not an Amdahl single-core term).
    parallelism = work / max(span, 1.0)
    return PhaseProfile(
        name,
        total_flops=total_flops,
        serial_fraction=0.0,
        comm_bytes_per_rank=cross / max(n_workers, 1),
        comm_latency_events=graph.edge_count() // max(len(graph.tasks), 1),
        transfer_bytes=transfer,
        regular=True,
        max_parallelism=parallelism,
    )


def _run_kernel(
    proc: "MPIProcess",
    phase: KernelPhase,
    mode: str,
    workers: int,
    acc_envs: dict[int, "_AcceleratedEnv"],
    system: "DeepSystem",
    booster_ctx: Optional[dict] = None,
    advisor=None,
):
    comm = proc.comm_world
    rank = comm.rank
    n = comm.size

    if mode == "advisor" and phase.offloadable:
        # The root predicts both placements and all ranks follow.
        if rank == 0:
            graph = phase.graph_builder(workers)
            profile = profile_of_graph(graph, workers, phase.name)
            side = advisor.divide([profile]).placements[phase.name]
        else:
            side = None
        side = yield from comm.bcast(side, root=0, size_bytes=16)
        mode = "cluster-booster" if side == "booster" else "cluster-only"

    if mode == "cluster-booster" and phase.offloadable:
        # Spawn is collective over the cluster comm (slide 21); the
        # Booster world persists across kernel phases and iterations.
        inter = None if booster_ctx is None else booster_ctx.get("inter")
        if inter is None:
            inter = yield from proc.spawn(comm, OFFLOAD_WORKER_COMMAND, workers)
            if booster_ctx is not None:
                booster_ctx["inter"] = inter
        graph = phase.graph_builder(workers) if rank == 0 else None
        yield from offload_graph_collective(
            proc, comm, inter, graph, strategy=phase.strategy
        )
        return

    # Cluster-only / accelerated: the graph runs on the cluster ranks.
    if rank == 0:
        graph = phase.graph_builder(n)
        plan = partition_tasks(graph, n, phase.strategy)
    else:
        plan = None
    plan = yield from comm.bcast(plan, root=0, size_bytes=256)

    env = acc_envs.get(rank) if mode == "accelerated" else None
    if env is not None:
        # Stage phase inputs host -> accelerator over PCIe.
        my_in = sum(
            external_input_bytes(plan.graph, t) for t in plan.tasks_of(rank)
        )
        my_out = sum(
            terminal_output_bytes(plan.graph, t) for t in plan.tasks_of(rank)
        )
        yield from env.pcie_link.occupy(my_in)
        yield proc.sim.timeout(env.pcie_latency_s)
        yield from execute_partition(
            proc, plan,
            processor=env.accelerator.processor,
            stage_link=env.pcie_link,
            stage_latency_s=env.pcie_latency_s,
        )
        yield from env.pcie_link.occupy(my_out)
        yield proc.sim.timeout(env.pcie_latency_s)
    else:
        yield from execute_partition(proc, plan)
    yield from comm.barrier()
