"""Task graphs: dependency detection and graph analysis.

Tasks are submitted in *program order* (the sequential semantics of
slide 23's code).  A new task depends on every earlier task with a
conflicting access — overlapping regions where at least one side
writes — which yields exactly the RAW/WAR/WAW edges Nanos++ computes.

Detection keeps, per address space, a segment map recording each byte
interval's *last writer* and the *readers since that write* — so edges
are exact and minimal: a reader depends on the last writer(s) of the
bytes it reads, a writer depends on the last writer (WAW) and on the
readers since (WAR), and transitively implied edges are never added.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Optional

from repro.errors import DependencyCycleError, TaskError
from repro.ompss.regions import Region, RegionAccess
from repro.ompss.task import Task


class _Segment:
    """One byte interval of a space: last writer, readers since, and
    the set of CONCURRENT updaters since the last exclusive write."""

    __slots__ = ("start", "end", "writer", "readers", "concurrent")

    def __init__(
        self,
        start: int,
        end: int,
        writer: Optional[int],
        readers: set,
        concurrent: Optional[set] = None,
    ):
        self.start = start
        self.end = end
        self.writer = writer
        self.readers = readers
        self.concurrent = concurrent if concurrent is not None else set()

    def clone(self, start: int, end: int) -> "_Segment":
        return _Segment(
            start, end, self.writer, set(self.readers), set(self.concurrent)
        )


class _SegmentMap:
    """Sorted, non-overlapping segments of one address space."""

    __slots__ = ("segments",)

    def __init__(self) -> None:
        self.segments: list[_Segment] = []

    def access(self, task_id: int, region: Region, mode) -> set[int]:
        """Record an access; return the exact dependency set.

        Rules per overlapped segment (W = last writer, R = readers
        since, C = concurrent updaters since the last exclusive write):

        * IN:         deps += C if C else {W};       R += self
        * OUT/INOUT:  deps += R + C + ({W} if no C); becomes W, clears R/C
        * CONCURRENT: deps += R + {W};               C += self
        """
        from repro.ompss.regions import AccessMode

        deps: set[int] = set()
        s, e = region.start, region.end
        out: list[_Segment] = []
        for seg in self.segments:
            if seg.end <= s or seg.start >= e:
                out.append(seg)
                continue
            # Split off non-overlapping flanks.
            if seg.start < s:
                out.append(seg.clone(seg.start, s))
                seg.start = s
            tail: Optional[_Segment] = None
            if seg.end > e:
                tail = seg.clone(e, seg.end)
                seg.end = e
            # seg now lies fully inside [s, e): collect dependencies.
            writer_dep = {seg.writer} if seg.writer is not None else set()
            if mode is AccessMode.IN:
                deps |= seg.concurrent if seg.concurrent else writer_dep
                seg.readers.add(task_id)
                out.append(seg)
            elif mode is AccessMode.CONCURRENT:
                # Every concurrent updater orders after the last
                # exclusive writer and after intervening readers, but
                # not after its concurrent peers.
                deps |= seg.readers | writer_dep
                seg.concurrent.add(task_id)
                out.append(seg)
            else:  # OUT / INOUT: exclusive write
                deps |= seg.readers | seg.concurrent
                if not seg.concurrent:
                    deps |= writer_dep
                out.append(_Segment(seg.start, seg.end, task_id, set()))
            if tail is not None:
                out.append(tail)
        # Bytes never touched before: create fresh coverage.
        for gs, ge in self._gaps(s, e):
            if mode is AccessMode.IN:
                out.append(_Segment(gs, ge, None, {task_id}))
            elif mode is AccessMode.CONCURRENT:
                out.append(_Segment(gs, ge, None, set(), {task_id}))
            else:
                out.append(_Segment(gs, ge, task_id, set()))
        out.sort(key=lambda g: g.start)
        self.segments = out
        deps.discard(task_id)
        return deps

    def _gaps(self, s: int, e: int) -> list[tuple[int, int]]:
        gaps = []
        cur = s
        for seg in self.segments:
            if seg.end <= s or seg.start >= e:
                continue
            lo = max(seg.start, s)
            if lo > cur:
                gaps.append((cur, lo))
            cur = max(cur, min(seg.end, e))
        if cur < e:
            gaps.append((cur, e))
        return gaps


class TaskGraph:
    """A DAG of tasks built by program-order submission."""

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self.tasks: list[Task] = []
        self._by_id: dict[int, Task] = {}
        #: task_id -> set of task_ids it depends on
        self.deps: dict[int, set[int]] = {}
        #: task_id -> set of task_ids depending on it
        self.succs: dict[int, set[int]] = defaultdict(set)
        # Dependency detection: per-space segment maps.
        self._spaces: dict[str, _SegmentMap] = defaultdict(_SegmentMap)
        # Most recent taskwait barrier, ordering all later submissions.
        self._barrier_id: Optional[int] = None

    # -- construction ------------------------------------------------------
    def submit(self, task: Task) -> Task:
        """Append *task* in program order, computing its dependencies."""
        if task.task_id in self._by_id:
            raise TaskError(f"task {task.task_id} submitted twice")
        deps: set[int] = set()
        for access in task.accesses:
            segmap = self._spaces[access.region.space]
            deps |= segmap.access(task.task_id, access.region, access.mode)
        if self._barrier_id is not None:
            # taskwait semantics: nothing submitted later may start
            # before the barrier (even on untouched regions).
            deps.add(self._barrier_id)
        self.tasks.append(task)
        self._by_id[task.task_id] = task
        self.deps[task.task_id] = deps
        for d in deps:
            self.succs[d].add(task.task_id)
        return task

    def add_task(
        self,
        name: str,
        flops: float = 0.0,
        traffic_bytes: float = 0.0,
        n_cores: int = 1,
        duration_s: Optional[float] = None,
        in_: Iterable[Region] = (),
        out: Iterable[Region] = (),
        inout: Iterable[Region] = (),
        fn: Optional[Callable] = None,
    ) -> Task:
        """Create and submit a task in one call (pragma-like)."""
        task = Task(
            name=name, flops=flops, traffic_bytes=traffic_bytes,
            n_cores=n_cores, duration_s=duration_s, fn=fn,
        )
        for r in in_:
            task.reads(r)
        for r in out:
            task.writes(r)
        for r in inout:
            task.updates(r)
        return self.submit(task)

    # -- accessors -----------------------------------------------------------
    def task(self, task_id: int) -> Task:
        return self._by_id[task_id]

    def __len__(self) -> int:
        return len(self.tasks)

    def dependencies_of(self, task: Task) -> list[Task]:
        return [self._by_id[d] for d in sorted(self.deps[task.task_id])]

    def successors_of(self, task: Task) -> list[Task]:
        return [self._by_id[s] for s in sorted(self.succs[task.task_id])]

    def roots(self) -> list[Task]:
        """Tasks with no dependencies."""
        return [t for t in self.tasks if not self.deps[t.task_id]]

    def sinks(self) -> list[Task]:
        """Tasks nothing depends on (yet)."""
        return [t for t in self.tasks if not self.succs.get(t.task_id)]

    def add_barrier(self, name: str = "taskwait") -> Task:
        """A ``taskwait``: a zero-cost task after *everything* so far.

        Subsequent submissions that touch any region will depend on it
        transitively through the region history; tasks that touch only
        fresh regions still order after the barrier explicitly.
        """
        barrier = Task(name=name, flops=0.0)
        deps = {t.task_id for t in self.sinks()}
        self.tasks.append(barrier)
        self._by_id[barrier.task_id] = barrier
        self.deps[barrier.task_id] = deps
        for d in deps:
            self.succs[d].add(barrier.task_id)
        self._barrier_id = barrier.task_id
        return barrier

    def edge_count(self) -> int:
        return sum(len(d) for d in self.deps.values())

    def edge_bytes(self, producer: Task, consumer: Task) -> int:
        """Bytes the consumer reads from the producer's outputs.

        This is the message size when the two tasks run on different
        Booster nodes (used by the distributed executor).  A control
        dependency with no data overlap moves a minimal 8-byte token.
        """
        total = 0
        for out_r in producer.output_regions:
            for in_r in consumer.input_regions:
                total += out_r.overlap_bytes(in_r)
        return max(total, 8)

    # -- analysis --------------------------------------------------------------
    def validate_acyclic(self) -> None:
        """Raise :class:`DependencyCycleError` if edges violate program order.

        Program-order submission cannot create cycles; this guards
        against graphs whose ``deps`` were edited by hand.
        """
        position = {t.task_id: i for i, t in enumerate(self.tasks)}
        for tid, deps in self.deps.items():
            for d in deps:
                if position[d] >= position[tid]:
                    raise DependencyCycleError(
                        f"edge {d} -> {tid} violates program order"
                    )

    def critical_path(
        self, duration_fn: Callable[[Task], float]
    ) -> tuple[float, list[Task]]:
        """Longest weighted path: the dataflow execution-time lower bound.

        Returns ``(length_seconds, tasks_on_path)``.
        """
        finish: dict[int, float] = {}
        choice: dict[int, Optional[int]] = {}
        for t in self.tasks:  # program order is topological
            start = 0.0
            pred = None
            for d in self.deps[t.task_id]:
                if finish[d] > start:
                    start = finish[d]
                    pred = d
            finish[t.task_id] = start + duration_fn(t)
            choice[t.task_id] = pred
        if not finish:
            return 0.0, []
        end_id = max(finish, key=finish.get)
        path = []
        cur: Optional[int] = end_id
        while cur is not None:
            path.append(self._by_id[cur])
            cur = choice[cur]
        path.reverse()
        return finish[end_id], path

    def total_work(self, duration_fn: Callable[[Task], float]) -> float:
        """Sum of all task durations (serial execution time)."""
        return sum(duration_fn(t) for t in self.tasks)

    def average_parallelism(self, duration_fn: Callable[[Task], float]) -> float:
        """Work / span: the graph's exploitable parallelism."""
        span, _ = self.critical_path(duration_fn)
        if span == 0:
            return 0.0
        return self.total_work(duration_fn) / span

    def max_width(self) -> int:
        """Maximum antichain size by level (breadth of the DAG)."""
        level: dict[int, int] = {}
        for t in self.tasks:
            deps = self.deps[t.task_id]
            level[t.task_id] = 1 + max((level[d] for d in deps), default=-1)
        if not level:
            return 0
        counts: dict[int, int] = defaultdict(int)
        for lv in level.values():
            counts[lv] += 1
        return max(counts.values())
