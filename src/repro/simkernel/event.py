"""Events: the unit of synchronisation in the simulation kernel.

An :class:`Event` has a lifecycle of *pending* -> *triggered* ->
*processed*.  Processes block on pending events by ``yield``-ing them;
when the event is triggered the simulator schedules it and, when its
turn comes, runs its callbacks — resuming every waiting process with
the event's value (or throwing its exception into them on failure).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.simulator import Simulator

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()


class Event:
    """A one-shot occurrence processes can wait on.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Optional label used in ``repr`` and traces.
    """

    __slots__ = (
        "sim", "name", "callbacks", "_value", "_ok", "_scheduled",
        "_defused", "_abandon", "_cause",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        #: A failure nobody waits on normally crashes the simulation;
        #: defused events (e.g. deliberately killed processes) do not.
        self._defused = False
        #: Optional cleanup hook invoked when the (sole) waiter of this
        #: event is killed: resource-like owners (Channel getters) use
        #: it to withdraw the registration so the event cannot consume
        #: an item on behalf of a dead process.  The hook usually closes
        #: over the event itself, so owners clear it when they serve the
        #: event: a served event then holds no reference cycle and is
        #: freed, with its value, by reference counting.
        self._abandon: Optional[Callable[[], None]] = None

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with *value* after *delay*."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        tr = sim.trace
        if tr.enabled:
            # Causal tagging: remember which process triggered this
            # event (and when), so the resumed waiter can record a wake
            # edge.  The ``_cause`` slot is deliberately left unset on
            # untraced runs — readers use ``getattr(ev, "_cause", None)``.
            self._cause = tr.wake_cause()
        # Simulator._schedule inlined: every message and grant succeeds
        # an event, so this push is on the hot path.
        if self._scheduled:
            raise SimulationError(f"{self!r} scheduled twice")
        self._scheduled = True
        sim._eid = eid = sim._eid + 1
        heappush(sim._queue, (sim.now + delay, eid, self))
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with exception *exc*."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._set(False, exc)
        tr = self.sim.trace
        if tr.enabled:
            self._cause = tr.wake_cause()
        self.sim._schedule(self, delay)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome onto this one (callback helper)."""
        self._set(event._ok, event._value)
        if self.sim.trace.enabled:
            self._cause = getattr(event, "_cause", None)
        self.sim._schedule(self)

    def _set(self, ok: Optional[bool], value: Any) -> None:
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = ok
        self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(
        self, sim: "Simulator", delay: float, value: Any = None, name: str = ""
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # A Timeout is born triggered *and* scheduled, and this is the
        # kernel's hottest allocation — so Event.__init__ and
        # Simulator._schedule are inlined here (a fresh event cannot be
        # scheduled twice, making the _scheduled check redundant).
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self._abandon = None
        self.delay = delay
        sim._eid = eid = sim._eid + 1
        heappush(sim._queue, (sim.now + delay, eid, self))


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events of different simulators")
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            # A condition failing because of a deliberately-killed
            # member is itself deliberate (keeps kill() quiet).
            self._defused = event._defused
            self.fail(event._value)
            if self.sim.trace.enabled:
                # _check runs in the event loop, so succeed/fail saw no
                # active process; the real cause is the firing member.
                self._cause = getattr(event, "_cause", None)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())
            if self.sim.trace.enabled:
                # The last-arriving member completed the condition: a
                # fork-join's causal parent is its slowest branch.
                self._cause = getattr(event, "_cause", None)

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when *all* constituent events have fired.

    The value is a dict mapping each processed event to its value.
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


class AnyOf(_Condition):
    """Fires as soon as *any* constituent event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1
