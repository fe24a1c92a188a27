"""Lightweight structured tracing for simulations.

Model code calls ``sim.trace.record(category, **fields)`` for point
events and ``with sim.trace.span(category, name):`` for intervals;
analysis code filters the recorded :class:`TraceEvent` /
:class:`SpanRecord` lists or exports them via :mod:`repro.obs.export`.

Tracing is off by default.  The recorder is **truthy iff enabled**, so
the one idiom every call site uses is::

    tr = sim.trace
    if tr:
        tr.record("net.transfer", src=src, dst=dst, size=size)

which costs a single truthiness check when disabled — no field dicts
are ever built.

Every event and span of the run is kept, which is what the exporters
and the causal analysis want for one simulation.

Spans nest: each simulated process carries its own open-span stack, so
a span opened inside another span *of the same process* records it as
its parent even when other processes interleave.  Cross-process
parentage (e.g. a transfer process serving an offload) is expressed by
passing ``parent=`` explicitly.

Beyond spans and events the recorder captures two more series that
turn a trace into a *causal* record (both cost nothing when disabled):

* **wake edges** (:attr:`TraceRecorder.wakes`) — the kernel tags every
  event trigger with the process that caused it and, when the woken
  process resumes, records ``(t_wake, t_trigger, src_pid, dst_pid)``.
  Completed runs therefore yield a causal DAG over per-process
  timelines, which :mod:`repro.obs.critpath` walks for critical-path
  blame and what-if projections.
* **counter samples** (:attr:`TraceRecorder.counters`) — gauge-style
  ``(time, name, value)`` change points (link queue depths, SMFU
  queued bytes, busy engines) that :mod:`repro.obs.timeline` resamples
  into fixed-step timelines and Chrome counter tracks.

Processes are identified by small integer pids assigned on first
contact (deterministic for deterministic runs); ``proc_names`` maps
them back to process names for reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded occurrence."""

    time: float
    category: str
    fields: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


@dataclass(slots=True)
class SpanRecord:
    """One completed interval on the simulated timeline.

    ``category`` names the subsystem (one exporter lane group each:
    ``kernel``, ``net.infiniband``, ``net.extoll``, ``net.smfu``,
    ``mpi``, ``ompss``, ``parastation``); ``name`` the operation.
    ``proc`` is the recorder-assigned pid of the simulated process the
    span was recorded in (``None`` when recorded outside any process),
    the key causal analysis sequences same-process spans by.
    """

    span_id: int
    parent_id: Optional[int]
    category: str
    name: str
    start: float
    end: float
    proc: Optional[int] = None
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager for one live span."""

    __slots__ = ("_recorder", "_key", "span_id", "parent_id",
                 "category", "name", "start", "fields")

    def __init__(self, recorder, key, span_id, parent_id,
                 category, name, start, fields) -> None:
        self._recorder = recorder
        self._key = key
        self.span_id = span_id
        self.parent_id = parent_id
        self.category = category
        self.name = name
        self.start = start
        self.fields = fields

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc) -> None:
        self._recorder._close_span(self)


class TraceRecorder:
    """Collects :class:`TraceEvent` and :class:`SpanRecord` objects.

    Truthiness mirrors :attr:`enabled`; guard hot call sites with
    ``if sim.trace:``.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self.spans: list[SpanRecord] = []
        #: Wake edges ``(t_wake, t_trigger, src_pid, dst_pid)``: process
        #: ``dst`` was resumed at ``t_wake`` by an event triggered by
        #: process ``src`` at ``t_trigger`` (recorded by the kernel).
        self.wakes: list[tuple[float, float, int, int]] = []
        #: Gauge change points ``(time, name, value)`` for counter
        #: timelines (see :mod:`repro.obs.timeline`).
        self.counters: list[tuple[float, str, float]] = []
        self._clock: Optional[Callable[[], float]] = None
        self._active: Optional[Callable[[], Any]] = None
        self._span_ids = 0
        # Per-process open-span stacks (key = active process or None).
        self._open: dict[Any, list[_OpenSpan]] = {}
        # Process -> small-int pid, assigned on first contact.
        self._pids: dict[Any, int] = {}
        #: pid -> process name (for reports; pid 0.. in contact order).
        self.proc_names: dict[int, str] = {}

    def __bool__(self) -> bool:
        return self.enabled

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source (done by the simulator)."""
        self._clock = clock

    def bind_active(self, active: Callable[[], Any]) -> None:
        """Attach the active-process source used for span nesting."""
        self._active = active

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- process identities & wake edges --------------------------------
    def pid_of(self, proc: Any) -> int:
        """Stable small-int id for *proc* (``None`` = outside-process)."""
        pid = self._pids.get(proc)
        if pid is None:
            self._pids[proc] = pid = len(self._pids)
            if proc is None:
                self.proc_names[pid] = "<kernel>"
            else:
                self.proc_names[pid] = getattr(proc, "name", "") or f"proc{pid}"
        return pid

    def wake_cause(self) -> Optional[tuple[int, float]]:
        """``(pid, now)`` of the triggering process, or ``None``.

        Called by :meth:`Event.succeed`/``fail`` (when enabled) to tag
        the event with who triggered it; ``None`` when the trigger
        happened outside any process (kernel callbacks, drivers).
        """
        proc = self._active() if self._active is not None else None
        if proc is None:
            return None
        return (self.pid_of(proc), self._now())

    def record_wake(self, cause: tuple[int, float], target: Any) -> None:
        """Record that *target* was resumed by an event caused by *cause*.

        *cause* is the ``(src_pid, t_trigger)`` pair captured at trigger
        time; the wake time is now.  Called once per cross-process
        resumption by :meth:`Process._resume` when tracing is enabled.
        """
        self.wakes.append((self._now(), cause[1], cause[0], self.pid_of(target)))

    # -- counter samples ------------------------------------------------
    def record_counter(self, name: str, value: float) -> None:
        """Record a gauge change point (call sites guard on truthiness)."""
        if not self.enabled:
            return
        self.counters.append((self._now(), name, value))

    # -- point events ---------------------------------------------------
    def record(self, category: str, *, time: Optional[float] = None, **fields: Any) -> None:
        """Record an event in *category* with arbitrary *fields*."""
        if not self.enabled:
            return
        if time is None:
            time = self._clock() if self._clock is not None else 0.0
        self.events.append(TraceEvent(time, category, fields))

    # -- spans ----------------------------------------------------------
    def span(
        self,
        category: str,
        name: Optional[str] = None,
        *,
        parent: Optional[int] = None,
        **fields: Any,
    ):
        """Open a nested span; use as a context manager.

        Records a :class:`SpanRecord` from enter to exit in simulated
        time.  The parent is the innermost span currently open in the
        same simulated process, unless *parent* (a span id) overrides
        it.  Returns a shared no-op when tracing is disabled.
        """
        if not self.enabled:
            return _NULL_SPAN
        key = self._active() if self._active is not None else None
        stack = self._open.get(key)
        if parent is None and stack:
            parent = stack[-1].span_id
        self._span_ids += 1
        open_span = _OpenSpan(
            self, key, self._span_ids, parent, category,
            name or category, self._now(), fields,
        )
        if stack is None:
            self._open[key] = [open_span]
        else:
            stack.append(open_span)
        return open_span

    def _close_span(self, open_span: _OpenSpan) -> None:
        stack = self._open.get(open_span._key)
        if stack is not None:
            # Identity removal tolerates out-of-order closes.
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is open_span:
                    del stack[i]
                    break
            if not stack:
                del self._open[open_span._key]
        self.spans.append(SpanRecord(
            open_span.span_id, open_span.parent_id, open_span.category,
            open_span.name, open_span.start, self._now(),
            self.pid_of(open_span._key), open_span.fields,
        ))

    def record_span(
        self,
        category: str,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        **fields: Any,
    ) -> None:
        """Record an already-finished interval as a span.

        The natural call for generator code that knows its start time:
        one call at completion, no context-manager bookkeeping across
        yields.  Parents to the innermost open span of the current
        process when *parent* is not given.
        """
        if not self.enabled:
            return
        proc = self._active() if self._active is not None else None
        if parent is None and proc is not None:
            stack = self._open.get(proc)
            if stack:
                parent = stack[-1].span_id
        self._span_ids += 1
        self.spans.append(SpanRecord(
            self._span_ids, parent, category, name, start, end,
            self.pid_of(proc), fields,
        ))

    # -- queries --------------------------------------------------------
    def select(self, category: str) -> Iterator[TraceEvent]:
        """All recorded events of one category, in time order."""
        return (ev for ev in self.events if ev.category == category)

    def select_spans(self, category: str) -> Iterator[SpanRecord]:
        """All recorded spans of one category, in completion order."""
        return (sp for sp in self.spans if sp.category == category)

    def clear(self) -> None:
        """Forget all recorded events, spans, wakes and counters."""
        self.events.clear()
        self.spans.clear()
        self.wakes.clear()
        self.counters.clear()

    def __len__(self) -> int:
        return len(self.events)
