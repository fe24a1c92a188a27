"""The simulator: an event queue and a virtual clock."""

from __future__ import annotations

import weakref
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from repro.errors import DeadlockError, OwnerFreedError, SimulationError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.simkernel.event import AllOf, AnyOf, Event, Timeout
from repro.simkernel.process import Process, ProcessGenerator
from repro.simkernel.rng import RandomStreams
from repro.simkernel.trace import TraceRecorder


class Simulator:
    """Discrete-event simulator with a float clock in seconds.

    Parameters
    ----------
    seed:
        Seed for the simulator's named random streams (:attr:`rng`).
    observe:
        If true, the run is observed: :attr:`trace` records events,
        spans, wake edges and counters; :attr:`metrics` is a live
        :class:`~repro.obs.metrics.MetricsRegistry` that instrumented
        subsystems increment; and resources created on this simulator
        register themselves for :meth:`profile_stats`.  Off (the
        default), the recorder is disabled and :attr:`metrics` is the
        shared no-op registry (free handles, nothing recorded).
    """

    __slots__ = (
        "now", "_queue", "_eid", "_active_process", "_live_processes",
        "_events_processed", "_profiled_resources", "observe", "rng", "trace",
        "metrics", "__weakref__",
    )

    def __init__(self, seed: int = 0, observe: bool = False) -> None:
        #: Current simulated time in seconds.  A plain attribute rather
        #: than a property because every message and claim reads it;
        #: only the kernel writes it.
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._live_processes = 0
        self._events_processed = 0
        #: Whether the run is observed (trace, metrics and per-resource
        #: contention statistics).
        self.observe = bool(observe)
        self._profiled_resources: list[Any] = []
        #: Named deterministic random streams.
        self.rng = RandomStreams(seed)
        #: Trace recorder (disabled unless observed).  It reads the
        #: clock and the active process through a weak reference: the
        #: simulator owns its recorder, so the recorder must not keep
        #: the simulator alive.
        self.trace = TraceRecorder(enabled=self.observe)
        clock, active = _weak_sources(weakref.ref(self))
        self.trace.bind_clock(clock)
        self.trace.bind_active(active)
        #: Metrics registry (the shared no-op unless observed).
        self.metrics = MetricsRegistry() if self.observe else NULL_METRICS

    # -- state ----------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories --------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing *delay* seconds from now."""
        # The kernel's hottest allocation: build the Timeout without a
        # second Python frame (mirrors Timeout.__init__ exactly).
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        t = Timeout.__new__(Timeout)
        t.sim = self
        t.name = ""
        t.callbacks = []
        t._value = value
        t._ok = True
        t._scheduled = True
        t._defused = False
        t._abandon = None
        t.delay = delay
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self.now + delay, eid, t))
        return t

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process running *generator*."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all *events* fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of *events* fired."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self.now + delay, eid, event))

    # -- execution --------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.

        Raises :class:`~repro.errors.SimulationError` when the queue is
        empty — stepping an idle simulation is always a driver bug.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heappop(self._queue)
        if when < self.now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self.now = when
        self._events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None  # mark processed before callbacks run
        if not callbacks and event._ok is False and not event._defused:
            # A failure nobody is waiting for would vanish silently —
            # surface it (mirrors SimPy's unhandled-failure behaviour).
            raise event._value
        for callback in callbacks:
            callback(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(
        self, until: Optional[float] = None, check_deadlock: bool = True
    ) -> float:
        """Run until the queue drains or *until* is reached.

        Returns the final simulated time.  With ``check_deadlock`` (the
        default), raises :class:`~repro.errors.DeadlockError` if the
        queue drains while processes are still blocked — almost always a
        model bug (e.g. a receive with no matching send).
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        # The hot loop: step() inlined, with the queue bound locally and
        # the until-check hoisted into a dedicated variant.
        queue = self._queue
        pop = heappop
        processed = 0
        run_start = self.now
        try:
            if until is None:
                while queue:
                    when, _, event = pop(queue)
                    self.now = when
                    callbacks = event.callbacks
                    event.callbacks = None  # mark processed first
                    processed += 1
                    if callbacks:
                        # The overwhelmingly common case is one waiter.
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for callback in callbacks:
                                callback(event)
                    elif event._ok is False and not event._defused:
                        raise event._value
            else:
                while queue:
                    if queue[0][0] > until:
                        self.now = until
                        return until
                    when, _, event = pop(queue)
                    self.now = when
                    callbacks = event.callbacks
                    event.callbacks = None  # mark processed first
                    processed += 1
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    elif event._ok is False and not event._defused:
                        raise event._value
        finally:
            self._events_processed += processed
            tr = self.trace
            if tr:
                tr.record_span(
                    "kernel", "run", run_start, self.now, events=processed
                )
        if check_deadlock and self._live_processes > 0:
            raise DeadlockError(self._live_processes, self.now)
        if until is not None:
            self.now = until
        return self.now

    # -- profiling --------------------------------------------------------
    def profile_stats(self) -> dict:
        """Kernel counters and per-resource contention statistics.

        Requires ``Simulator(observe=True)``.  Resources created on an
        observed simulator register themselves at construction; each
        reports how many claims were granted, how many had to queue,
        and its lifetime utilization — enough to find the contended
        resource behind a slow simulation without a tracer.
        """
        if not self.observe:
            raise SimulationError("profile_stats() requires Simulator(observe=True)")
        resources: dict[str, dict] = {}
        for i, res in enumerate(self._profiled_resources):
            key = res.name or f"resource#{i}"
            if key in resources:
                key = f"{key}#{i}"
            resources[key] = {
                "capacity": res.capacity,
                "grants": res.grants,
                "queued": res.waits,
                "in_use": res.count,
                "utilization": res.utilization(),
            }
        return {
            "now": self.now,
            "events_scheduled": self._eid,
            "events_processed": self._events_processed,
            "live_processes": self._live_processes,
            "resources": resources,
        }


def _weak_sources(
    sim_ref: "weakref.ref[Simulator]",
) -> tuple[Callable[[], float], Callable[[], Optional[Process]]]:
    """Clock and active-process readers that hold their simulator weakly."""

    def clock() -> float:
        sim = sim_ref()
        if sim is None:
            raise _freed()
        return sim.now

    def active() -> Optional[Process]:
        sim = sim_ref()
        if sim is None:
            raise _freed()
        return sim._active_process

    return clock, active


def _freed() -> OwnerFreedError:
    return OwnerFreedError(
        "trace recorder used after its Simulator was freed; keep the "
        "Simulator referenced while recording"
    )
