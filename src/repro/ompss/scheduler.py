"""Dataflow scheduling of a task graph on a simulated processor.

Tasks become *ready* when all dependencies completed and then compete
for cores.  Multi-core tasks acquire their slots **atomically** via
:class:`CoreBank` (no hold-and-wait, hence no allocation deadlock).

Two policies, ablated in E10:

* ``"fifo"`` — ready tasks run in submission order;
* ``"critical-path"`` — ready tasks with the largest *bottom level*
  (longest remaining path to a sink) first, the classic list-scheduling
  heuristic that shortens makespan on dependency-bound graphs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import TaskError
from repro.ompss.graph import TaskGraph
from repro.ompss.task import Task
from repro.simkernel.event import Event
from repro.simkernel.resources import window_utilization

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.processor import Processor
    from repro.simkernel.simulator import Simulator


class CoreBank:
    """Atomic multi-slot allocator over *capacity* cores.

    ``acquire(k, priority)`` returns an event firing when *k* slots are
    granted together.  Waiters are served by (priority, arrival); a
    large waiter at the head blocks smaller later arrivals (no
    starvation of wide tasks).
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise TaskError(f"core bank needs capacity >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.free = capacity
        self._waiters: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._busy_integral = 0.0
        self._last_change = self._created = sim.now
        self._grant_pending = False

    def _account(self) -> None:
        now = self.sim.now
        self._busy_integral += (self.capacity - self.free) * (now - self._last_change)
        self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Mean busy-core fraction over [since, now], for *since* at or
        before the bank's creation (see
        :func:`~repro.simkernel.resources.window_utilization`)."""
        self._account()
        return window_utilization(
            self._busy_integral, self.capacity, self._created, since,
            self.sim.now, self.name,
        )

    def acquire(self, k: int, priority: float = 0.0) -> Event:
        """Event firing once *k* slots are held by the caller.

        Granting is deferred by one event-queue turn so that all
        acquisitions posted at the same instant compete by priority
        instead of by arrival order.
        """
        if not 1 <= k <= self.capacity:
            raise TaskError(f"cannot acquire {k} of {self.capacity} cores")
        ev = Event(self.sim, name=f"cores:{self.name}")
        self._seq += 1
        heapq.heappush(self._waiters, (priority, self._seq, k, ev))
        self._schedule_grant()
        return ev

    def release(self, k: int) -> None:
        """Return *k* slots and wake eligible waiters."""
        if self.free + k > self.capacity:
            raise TaskError(
                f"core bank over-released ({self.free + k}/{self.capacity})"
            )
        self._account()
        self.free += k
        self._grant()

    def _schedule_grant(self) -> None:
        if self._grant_pending:
            return
        self._grant_pending = True
        kicker = Event(self.sim, name=f"grant:{self.name}")
        kicker.callbacks.append(self._granted_kick)
        kicker.succeed()

    def _granted_kick(self, _event: Event) -> None:
        self._grant_pending = False
        self._grant()

    def _grant(self) -> None:
        # Strict priority order: the head waiter blocks the rest even
        # if a later, smaller request would fit (prevents starvation).
        while self._waiters and self._waiters[0][2] <= self.free:
            _, _, k, ev = heapq.heappop(self._waiters)
            self._account()
            self.free -= k
            ev.succeed()


@dataclass(slots=True)
class ScheduleResult:
    """Outcome of one dataflow execution."""

    makespan_s: float
    total_work_s: float
    n_tasks: int
    policy: str
    core_utilization: float
    task_spans: dict[int, tuple[float, float]] = field(default_factory=dict)

    @property
    def speedup_vs_serial(self) -> float:
        """Serial time / makespan."""
        return self.total_work_s / self.makespan_s if self.makespan_s > 0 else 0.0


class DataflowScheduler:
    """Executes a :class:`TaskGraph` on a processor's cores."""

    def __init__(self, policy: str = "critical-path") -> None:
        if policy not in ("fifo", "critical-path", "priority"):
            raise TaskError(f"unknown scheduling policy {policy!r}")
        self.policy = policy

    def _priorities(self, graph: TaskGraph, processor: "Processor") -> dict[int, float]:
        if self.policy == "fifo":
            return {t.task_id: i for i, t in enumerate(graph.tasks)}
        if self.policy == "priority":
            # User priorities (higher first), submission order ties.
            n = len(graph.tasks)
            return {
                t.task_id: -t.priority * n + i
                for i, t in enumerate(graph.tasks)
            }
        # Bottom level: longest path from the task to any sink.
        bottom: dict[int, float] = {}
        for t in reversed(graph.tasks):
            succ = graph.succs.get(t.task_id, ())
            below = max((bottom[s] for s in succ), default=0.0)
            bottom[t.task_id] = below + t.duration_on(processor.spec)
        # Lower value = served first, so negate.
        return {tid: -b for tid, b in bottom.items()}

    def run(self, sim: "Simulator", graph: TaskGraph, processor: "Processor"):
        """Generator: execute the graph; returns a :class:`ScheduleResult`.

        Drive it inside a simulation process::

            result = yield from DataflowScheduler().run(sim, graph, cpu)
        """
        graph.validate_acyclic()
        start_time = sim.now
        if not graph.tasks:
            return ScheduleResult(0.0, 0.0, 0, self.policy, 0.0)
        bank = CoreBank(sim, processor.spec.n_cores, name=processor.name)
        priorities = self._priorities(graph, processor)
        m_tasks = sim.metrics.counter("ompss.tasks_run")
        h_task = sim.metrics.histogram("ompss.task_s")
        done_events: dict[int, Event] = {
            t.task_id: Event(sim, name=f"done:{t.name}") for t in graph.tasks
        }

        def run_task(task: Task):
            deps = graph.deps[task.task_id]
            if deps:
                yield sim.all_of([done_events[d] for d in sorted(deps)])
            k = bank.capacity if task.n_cores == 0 else min(task.n_cores, bank.capacity)
            yield bank.acquire(k, priorities[task.task_id])
            task.start_time = sim.now
            try:
                duration = task.duration_on(processor.spec)
                yield sim.timeout(duration)
                if task.fn is not None:
                    task.result = task.fn()
            finally:
                bank.release(k)
            task.end_time = sim.now
            m_tasks.add(1)
            h_task.observe(task.end_time - task.start_time)
            tr = sim.trace
            if tr:
                tr.record(
                    "ompss.task", name=task.name, task_id=task.task_id,
                    start=task.start_time, end=task.end_time, cores=k,
                )
                tr.record_span(
                    "ompss", task.name, task.start_time, task.end_time,
                    task_id=task.task_id, cores=k,
                )
            done_events[task.task_id].succeed()

        drivers = [
            sim.process(run_task(t), name=f"task:{t.name}") for t in graph.tasks
        ]
        yield sim.all_of(drivers)

        makespan = sim.now - start_time
        total_work = graph.total_work(lambda t: t.duration_on(processor.spec))
        utilization = bank.utilization(since=start_time)
        spans = {
            t.task_id: (t.start_time, t.end_time)
            for t in graph.tasks
            if t.start_time is not None
        }
        return ScheduleResult(
            makespan_s=makespan,
            total_work_s=total_work,
            n_tasks=len(graph.tasks),
            policy=self.policy,
            core_utilization=utilization,
            task_spans=spans,
        )
