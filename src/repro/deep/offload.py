"""Distributed offload executor: task graphs on Booster ranks.

This is the runtime behind slide 31's "OmpSs offload abstraction":
the Cluster side partitions an annotated task graph over the spawned
Booster world, ships each rank its plan plus the external input data
(across the SMFU bridge — slide 25's "which data is to be copied
between Cluster and Booster"), the Booster ranks execute their
partitions dataflow-style exchanging dependency data over EXTOLL, and
terminal outputs flow back to the Cluster.

Protocol (tags are task ids, all >= 0; control uses PLAN_TAG/RESULT_TAG):

* parent root -> child r:  ``(plan, r)`` sized descriptor+inputs;
* child p -> child q:      one message per (producer task, q);
* child r -> parent root:  terminal outputs of r's tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import OffloadError
from repro.mpi.request import Request, wait_all
from repro.mpi.status import ANY_SOURCE
from repro.ompss.graph import TaskGraph
from repro.ompss.offload import OffloadPlan, partition_tasks
from repro.ompss.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Intercommunicator
    from repro.mpi.world import MPIProcess

#: Registered command name for the one-shot worker.
OFFLOAD_WORKER_COMMAND = "ompss-offload-worker"
#: Payload telling a persistent worker to exit.
SHUTDOWN = "__shutdown__"

PLAN_TAG = 1_000_000
RESULT_TAG = 1_000_001


@dataclass(slots=True)
class OffloadResult:
    """Parent-side summary of one offload execution."""

    elapsed_s: float
    input_bytes: int
    output_bytes: int
    cross_traffic_bytes: int
    n_tasks: int
    n_ranks: int
    strategy: str


# ---------------------------------------------------------------------------
# data-volume bookkeeping
# ---------------------------------------------------------------------------


def external_input_bytes(graph: TaskGraph, task: Task) -> int:
    """Input bytes not produced inside the graph (must come from the CN)."""
    produced = sum(
        graph.edge_bytes(graph.task(d), task) for d in graph.deps[task.task_id]
    )
    return max(task.input_bytes() - produced, 0)


def terminal_output_bytes(graph: TaskGraph, task: Task) -> int:
    """Output bytes nobody inside the graph consumes (go back to the CN)."""
    if graph.succs.get(task.task_id):
        return 0
    return task.output_bytes()


def plan_descriptor_bytes(plan: OffloadPlan, rank: int) -> int:
    """Wire size of one rank's slice of the plan."""
    return 64 + 32 * len(plan.tasks_of(rank))


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def offload_graph(
    proc: "MPIProcess",
    intercomm: "Intercommunicator",
    graph: TaskGraph,
    strategy: str = "block",
    transform_rate_bytes_per_s: Optional[float] = None,
    plan: Optional[OffloadPlan] = None,
):
    """Generator (parent root): execute *graph* on the Booster world.

    Returns an :class:`OffloadResult`.  ``transform_rate_bytes_per_s``
    charges the slide-25 data-layout transformation on the Cluster CPU
    before shipping and after collecting (None skips it).
    """
    n_ranks = intercomm.remote_size
    if plan is None:
        plan = partition_tasks(graph, n_ranks, strategy)
    elif plan.n_ranks != n_ranks:
        raise OffloadError(
            f"plan is for {plan.n_ranks} ranks, booster world has {n_ranks}"
        )
    start = proc.sim.now
    in_by_rank = external_bytes_by_rank(plan)
    if transform_rate_bytes_per_s:
        yield proc.sim.timeout(sum(in_by_rank.values()) / transform_rate_bytes_per_s)
    # Results come back to this (root) rank.
    yield from _ship_plans(intercomm, plan, in_by_rank, [intercomm.rank] * n_ranks)
    yield from _collect_results(intercomm, n_ranks)
    if transform_rate_bytes_per_s:
        yield proc.sim.timeout(_output_bytes(plan) / transform_rate_bytes_per_s)
    return _offload_result(intercomm, plan, start, in_by_rank)


def offload_graph_collective(
    proc: "MPIProcess",
    comm,
    intercomm: "Intercommunicator",
    graph: Optional[TaskGraph],
    strategy: str = "block",
    plan: Optional[OffloadPlan] = None,
    root: int = 0,
):
    """Generator (ALL parent ranks): offload with distributed collection.

    The root partitions and ships the plan+inputs; every Booster rank
    ``r`` returns its terminal outputs to parent ``r % n_parents``, so
    result traffic fans into all Cluster nodes in parallel instead of
    funnelling through the root's link (slide 26: the
    inter-communicator connects *all* CNs to the Booster).  Collective
    over *comm* (the parents' intra-communicator); returns the
    :class:`OffloadResult` at the root, ``None`` elsewhere.
    """
    n_parents = comm.size
    n_ranks = intercomm.remote_size
    start = proc.sim.now

    if comm.rank == root:
        if graph is None:
            raise OffloadError("the root must supply the task graph")
        if plan is None:
            plan = partition_tasks(graph, n_ranks, strategy)
        in_by_rank = external_bytes_by_rank(plan)
        result_to = [r % n_parents for r in range(n_ranks)]
        yield from _ship_plans(intercomm, plan, in_by_rank, result_to)

    # Every parent collects from its assigned workers.
    mine = [r for r in range(n_ranks) if r % n_parents == comm.rank]
    yield from _collect_results(intercomm, len(mine))
    yield from comm.barrier()

    if comm.rank != root:
        return None
    return _offload_result(intercomm, plan, start, in_by_rank)


def external_bytes_by_rank(plan: OffloadPlan) -> dict[int, int]:
    """External (Cluster-supplied) input bytes per Booster rank."""
    by_rank = {r: 0 for r in range(plan.n_ranks)}
    for t in plan.graph.tasks:
        by_rank[plan.assignment[t.task_id]] += external_input_bytes(plan.graph, t)
    return by_rank


def _output_bytes(plan: OffloadPlan) -> int:
    """Terminal output bytes of the whole plan (returned to the Cluster)."""
    return sum(terminal_output_bytes(plan.graph, t) for t in plan.graph.tasks)


def _ship_plans(
    intercomm: "Intercommunicator",
    plan: OffloadPlan,
    in_by_rank: dict[int, int],
    result_to: list[int],
):
    """Generator: ship every Booster rank its plan slice and inputs.

    The sends run concurrently; Booster rank ``r`` will return its
    outputs to parent rank ``result_to[r]``.
    """
    sends = [
        intercomm.isend(
            r,
            plan_descriptor_bytes(plan, r) + in_by_rank[r],
            value=(plan, r, result_to[r]),
            tag=PLAN_TAG,
        )
        for r in range(intercomm.remote_size)
    ]
    yield from wait_all(intercomm.proc.sim, sends)


def _collect_results(intercomm: "Intercommunicator", n_results: int):
    """Generator: receive *n_results* workers' outputs on this parent.

    All receives are pre-posted so the workers' rendezvous transfers
    overlap — a sequential recv loop would serialise every bulk result.
    If this offload is killed (resilient retry), the outstanding recv
    processes are killed too so they cannot linger as orphans.
    """
    recvs = [intercomm.irecv(ANY_SOURCE, RESULT_TAG) for _ in range(n_results)]
    try:
        if recvs:
            yield from wait_all(intercomm.proc.sim, recvs)
    finally:
        for r in recvs:
            if r.event.is_alive:
                r.event.kill("offload aborted")


def _offload_result(
    intercomm: "Intercommunicator",
    plan: OffloadPlan,
    start: float,
    in_by_rank: dict[int, int],
) -> OffloadResult:
    """The root's summary of an offload of *plan* begun at *start*."""
    return OffloadResult(
        elapsed_s=intercomm.proc.sim.now - start,
        input_bytes=sum(in_by_rank.values()),
        output_bytes=_output_bytes(plan),
        cross_traffic_bytes=plan.cross_traffic_bytes(),
        n_tasks=len(plan.graph.tasks),
        n_ranks=intercomm.remote_size,
        strategy=plan.strategy,
    )


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def offload_worker(proc: "MPIProcess"):
    """Generator: one-shot Booster worker (register as a command)."""
    yield from _serve_one(proc)


def persistent_offload_worker(proc: "MPIProcess"):
    """Generator: worker that serves offloads until SHUTDOWN arrives."""
    while True:
        done = yield from _serve_one(proc)
        if done == SHUTDOWN:
            return


def _serve_one(proc: "MPIProcess"):
    parent = proc.parent_comm
    value, status = yield from parent.recv(ANY_SOURCE, PLAN_TAG)
    if value == SHUTDOWN:
        return SHUTDOWN
    plan, my_rank, result_to = value
    if my_rank != proc.comm_world.rank:
        raise OffloadError(
            f"plan slice for rank {my_rank} delivered to rank "
            f"{proc.comm_world.rank}"
        )
    local = yield from execute_partition(proc, plan)
    out_bytes = sum(
        terminal_output_bytes(plan.graph, t) for t in plan.tasks_of(my_rank)
    )
    yield from parent.send(result_to, max(out_bytes, 8), local, RESULT_TAG)
    return local


def execute_partition(
    proc: "MPIProcess",
    plan: OffloadPlan,
    processor=None,
    stage_link=None,
    stage_latency_s: float = 0.0,
):
    """Generator: run this rank's tasks, exchanging cross-rank data.

    Local dependencies synchronise through events; remote dependencies
    through one MPI message per (producer, consumer-rank) pair, tagged
    with the producer's task id.  Returns per-rank statistics.

    *processor* overrides the compute engine (used by the accelerated
    baseline to run tasks on the PCIe device); *stage_link* +
    *stage_latency_s* charge a PCIe staging hop on each cross-rank
    message, on both the sending and the receiving side — the slide-7
    "communication so far via main memory" penalty.
    """
    comm = proc.comm_world
    rank = comm.rank
    graph = plan.graph
    my_tasks = plan.tasks_of(rank)
    sim = proc.sim
    t_start = sim.now

    # Remote producers I need: producer_id -> (src_rank, bytes).  Bytes
    # accumulate over all local consumers, mirroring the producer's
    # outgoing sum so both sides stage/send the same volume.
    needed: dict[int, tuple[int, int]] = {}
    for t in my_tasks:
        for d in sorted(graph.deps[t.task_id]):
            src = plan.assignment[d]
            if src != rank:
                prev = needed.get(d)
                nbytes = graph.edge_bytes(graph.task(d), t)
                needed[d] = (src, (prev[1] if prev else 0) + nbytes)

    # Remote consumers of my tasks: task_id -> {rank: bytes}.
    outgoing: dict[int, dict[int, int]] = {}
    for t in my_tasks:
        for s in sorted(graph.succs.get(t.task_id, ())):
            dst = plan.assignment[s]
            if dst != rank:
                consumer = graph.task(s)
                by_rank = outgoing.setdefault(t.task_id, {})
                by_rank[dst] = by_rank.get(dst, 0) + graph.edge_bytes(t, consumer)

    arrivals: dict[int, Request] = {
        pid: comm.irecv(source=src, tag=pid) for pid, (src, _) in needed.items()
    }
    local_events = {t.task_id: sim.event(f"tdone:{t.task_id}") for t in my_tasks}
    data_sends: list[Request] = []
    staged_in: set[int] = set()
    flops_done = 0.0
    m_tasks = sim.metrics.counter("ompss.tasks_run")

    def run_task(task: Task):
        nonlocal flops_done
        waits = []
        remote_deps = []
        # Sorted iteration: set order leaks the global task-id counter
        # and would make otherwise-identical runs diverge.
        for d in sorted(graph.deps[task.task_id]):
            if d in local_events:
                waits.append(local_events[d])
            elif d in arrivals:
                waits.append(arrivals[d].event)
                remote_deps.append(d)
        if waits:
            yield sim.all_of(waits)
        if stage_link is not None:
            # Receiving side: stage arrived cross-rank data over PCIe
            # (once per producer).
            for d in remote_deps:
                if d not in staged_in:
                    staged_in.add(d)
                    yield from stage_link.occupy(needed[d][1])
                    yield sim.timeout(stage_latency_s)
        t_exec = sim.now
        if task.duration_s is not None:
            yield sim.timeout(task.duration_s)
        elif processor is not None:
            yield from processor.execute(task.flops, task.traffic_bytes, task.n_cores)
        else:
            yield from proc.compute(task.flops, task.traffic_bytes, task.n_cores)
        if task.fn is not None:
            task.result = task.fn()
        flops_done += task.flops
        m_tasks.add(1)
        tr = sim.trace
        if tr:
            tr.record_span(
                "ompss", task.name, t_exec, sim.now,
                task_id=task.task_id, rank=rank,
            )
        sends = outgoing.get(task.task_id, {})
        if sends and stage_link is not None:
            # Sending side: device -> host staging before injection.
            yield from stage_link.occupy(sum(sends.values()))
            yield sim.timeout(stage_latency_s)
        for dst, nbytes in sends.items():
            data_sends.append(
                comm.isend(dst, nbytes, value=None, tag=task.task_id)
            )
        local_events[task.task_id].succeed()

    drivers = [sim.process(run_task(t), name=f"off:{t.name}") for t in my_tasks]
    if drivers:
        yield sim.all_of(drivers)
    if data_sends:
        yield from wait_all(sim, data_sends)

    return {
        "rank": rank,
        "n_tasks": len(my_tasks),
        "flops": flops_done,
        "elapsed_s": sim.now - t_start,
        "recv_edges": len(needed),
        "send_edges": sum(len(v) for v in outgoing.values()),
    }
