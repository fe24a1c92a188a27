"""Execution-trace export: timelines and ASCII Gantt charts.

Nanos++ ships Paraver traces; the simulated equivalent is a list of
(task, start, end) intervals from a
:class:`~repro.ompss.scheduler.ScheduleResult`, renderable as rows for
external tools or as a terminal Gantt for quick inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import TaskError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ompss.graph import TaskGraph
    from repro.ompss.scheduler import ScheduleResult


@dataclass(frozen=True, slots=True)
class TraceInterval:
    """One task execution on the timeline."""

    task_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def schedule_trace(result: "ScheduleResult", graph: "TaskGraph") -> list[TraceInterval]:
    """Extract the executed intervals, sorted by start time."""
    intervals = []
    for task in graph.tasks:
        span = result.task_spans.get(task.task_id)
        if span is None:
            continue
        start, end = span
        intervals.append(TraceInterval(task.task_id, task.name, start, end))
    intervals.sort(key=lambda iv: (iv.start, iv.task_id))
    return intervals


def concurrency_profile(
    intervals: Sequence[TraceInterval], samples: int = 50
) -> list[tuple[float, int]]:
    """Exact (time, #running-tasks) profile over the makespan.

    One entry per distinct interval endpoint: the count of tasks
    running (``start <= t < end``) from that breakpoint until the next
    one.  Unlike uniform sampling this never misses a short task and
    always ends at zero.  *samples* is accepted for backwards
    compatibility and ignored — the sweep is exact.
    """
    del samples  # kept for API compatibility; the sweep is exact
    if not intervals:
        return []
    deltas: dict[float, int] = {}
    for iv in intervals:
        deltas[iv.start] = deltas.get(iv.start, 0) + 1
        deltas[iv.end] = deltas.get(iv.end, 0) - 1
    out = []
    running = 0
    for t in sorted(deltas):
        running += deltas[t]
        out.append((t, running))
    return out


def ascii_gantt(
    intervals: Sequence[TraceInterval],
    width: int = 72,
    max_rows: int = 40,
    label_width: int = 16,
) -> str:
    """A terminal Gantt chart of the first *max_rows* tasks."""
    if width < 10:
        raise TaskError("gantt width must be >= 10")
    if not intervals:
        return "(empty trace)"
    t0 = min(iv.start for iv in intervals)
    t1 = max(iv.end for iv in intervals)
    span = max(t1 - t0, 1e-12)
    lines = []
    shown = list(intervals)[:max_rows]
    for iv in shown:
        a = int((iv.start - t0) / span * (width - 1))
        b = max(int((iv.end - t0) / span * (width - 1)), a + 1)
        bar = " " * a + "#" * (b - a)
        label = iv.name[:label_width].ljust(label_width)
        lines.append(f"{label}|{bar.ljust(width)}|")
    if len(intervals) > max_rows:
        lines.append(f"... {len(intervals) - max_rows} more tasks")
    lines.append(
        f"{'':{label_width}} {0.0:.3g}s{'':{width - 12}}{span:.3g}s"
    )
    return "\n".join(lines)


def to_chrome_trace(
    intervals: Sequence[TraceInterval], process_name: str = "ompss"
) -> list[dict]:
    """Chrome ``chrome://tracing`` / Perfetto event list.

    Lanes (``tid``) are assigned greedily so overlapping tasks occupy
    different rows, like a real per-worker timeline.  Serialise with
    ``json.dump({"traceEvents": events}, fh)``.
    """
    from repro.obs.export import assign_lanes

    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.task_id))
    lanes = assign_lanes([(iv.start, iv.end) for iv in ordered])
    return [
        {
            "name": iv.name,
            "cat": "task",
            "ph": "X",
            "ts": iv.start * 1e6,   # microseconds
            "dur": iv.duration * 1e6,
            "pid": process_name,
            "tid": lane,
            "args": {"task_id": iv.task_id},
        }
        for iv, lane in zip(ordered, lanes)
    ]
