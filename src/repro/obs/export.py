"""Exporters: Chrome/Perfetto traces, JSONL event streams, metrics dumps.

The Chrome trace generalises ``repro.ompss.tracing.to_chrome_trace``
from OmpSs task intervals to **all** recorded spans: one process group
(``pid``) per span category (kernel, each fabric, the SMFU gateways,
OmpSs workers, MPI, ParaStation), with greedy lane (``tid``)
assignment inside each group so overlapping spans occupy different
rows.  Open the result at https://ui.perfetto.dev or
``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional, Sequence

from repro.fsutil import atomic_open

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.simkernel.simulator import Simulator
    from repro.simkernel.trace import TraceRecorder

#: Tolerance when deciding a lane is free (matches the span end).
_LANE_EPS = 1e-15


def chrome_process_meta(pid: int, name: str) -> dict:
    """The ``process_name`` metadata event naming one trace group.

    Shared by the whole-simulation exporter below and the fleet
    (harness) exporter in :mod:`repro.obs.telemetry`.
    """
    return {
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": name},
    }


def assign_lanes(intervals: Sequence[tuple[float, float]]) -> list[int]:
    """Greedy lane assignment for (start, end) intervals.

    *intervals* must be sorted by start time.  Each interval takes the
    lowest-numbered lane whose previous occupant has ended (within a
    small tolerance); overlapping intervals therefore land on distinct
    lanes, like a per-worker timeline.  Zero-duration intervals occupy
    their lane only for an instant.
    """
    lane_ends: list[float] = []
    lanes = []
    for start, end in intervals:
        lane = next(
            (i for i, e in enumerate(lane_ends) if e <= start + _LANE_EPS), None
        )
        if lane is None:
            lane = len(lane_ends)
            lane_ends.append(0.0)
        lane_ends[lane] = end
        lanes.append(lane)
    return lanes


def chrome_trace(trace: "TraceRecorder") -> dict:
    """Whole-simulation Chrome/Perfetto trace document.

    Spans become complete (``"ph": "X"``) events; point trace events
    become instants (``"ph": "i"``) on a dedicated lane of their
    category's group; recorded counter change points become counter
    tracks (``"ph": "C"``).  Serialise with ``json.dump`` or use
    :func:`write_chrome_trace`.
    """
    events: list[dict] = []
    categories = sorted({sp.category for sp in trace.spans})
    categories += sorted({ev.category for ev in trace.events} - set(categories))
    pids = {cat: i + 1 for i, cat in enumerate(categories)}
    for cat, pid in pids.items():
        events.append(chrome_process_meta(pid, cat))

    by_cat: dict[str, list] = {cat: [] for cat in categories}
    for sp in trace.spans:
        by_cat[sp.category].append(sp)
    for cat in categories:
        spans = sorted(by_cat[cat], key=lambda s: (s.start, s.span_id))
        lanes = assign_lanes([(s.start, s.end) for s in spans])
        for sp, lane in zip(spans, lanes):
            args = {"span_id": sp.span_id}
            if sp.parent_id is not None:
                args["parent_id"] = sp.parent_id
            args.update(sp.fields)
            events.append({
                "name": sp.name,
                "cat": cat,
                "ph": "X",
                "ts": sp.start * 1e6,  # microseconds
                "dur": sp.duration * 1e6,
                "pid": pids[cat],
                "tid": lane,
                "args": args,
            })

    for ev in trace.events:
        events.append({
            "name": ev.category,
            "cat": ev.category,
            "ph": "i",
            "s": "t",
            "ts": ev.time * 1e6,
            "pid": pids[ev.category],
            "tid": 9999,  # dedicated instant lane per group
            "args": dict(ev.fields),
        })

    if trace.counters:
        from repro.obs.timeline import chrome_counter_events

        events.extend(chrome_counter_events(trace, pid=0))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, trace: "TraceRecorder") -> None:
    """Write :func:`chrome_trace` output as JSON to *path*.

    Parent directories are created and the write is atomic (temp file +
    rename), so a crash never leaves a torn trace behind.
    """
    with atomic_open(path) as fh:
        json.dump(chrome_trace(trace), fh)


# ---------------------------------------------------------------------------
# JSONL event stream
# ---------------------------------------------------------------------------


def iter_jsonl(trace: "TraceRecorder"):
    """One JSON document per line: every event, then every span."""
    for ev in trace.events:
        yield json.dumps(
            {"type": "event", "t": ev.time, "cat": ev.category, **ev.fields},
            sort_keys=True,
        )
    for sp in trace.spans:
        yield json.dumps(
            {
                "type": "span", "id": sp.span_id, "parent": sp.parent_id,
                "cat": sp.category, "name": sp.name,
                "start": sp.start, "end": sp.end, **sp.fields,
            },
            sort_keys=True,
        )


def write_jsonl(path, trace: "TraceRecorder") -> None:
    """Write the JSONL event stream to *path* (atomic, parents created)."""
    with atomic_open(path) as fh:
        for line in iter_jsonl(trace):
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# Metrics dumps
# ---------------------------------------------------------------------------


def metrics_dict(
    metrics: "MetricsRegistry", sim: Optional["Simulator"] = None
) -> dict:
    """Plain-data metrics dump, optionally with kernel counters."""
    out = metrics.as_dict()
    if sim is not None:
        out["kernel"] = {
            "now": sim.now,
            "events_scheduled": sim._eid,
            "events_processed": sim._events_processed,
        }
    return out


def render_metrics_text(
    metrics: "MetricsRegistry", sim: Optional["Simulator"] = None
) -> str:
    """Flat ``name value`` text dump, optionally with kernel counters."""
    lines = []
    if sim is not None:
        lines.append(f"kernel.now {sim.now}")
        lines.append(f"kernel.events_scheduled {sim._eid}")
        lines.append(f"kernel.events_processed {sim._events_processed}")
    body = metrics.render_text()
    if body:
        lines.append(body)
    return "\n".join(lines)


def write_metrics(
    path, metrics: "MetricsRegistry", sim: Optional["Simulator"] = None
) -> None:
    """Write a metrics dump; ``.json`` suffix selects JSON, else text.

    Atomic (temp file + rename) with parents created on demand.
    """
    text_mode = not str(path).endswith(".json")
    with atomic_open(path) as fh:
        if text_mode:
            fh.write(render_metrics_text(metrics, sim) + "\n")
        else:
            json.dump(metrics_dict(metrics, sim), fh, indent=2, sort_keys=True)
            fh.write("\n")
