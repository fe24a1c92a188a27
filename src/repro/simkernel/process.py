"""Processes: generator-based simulated actors.

A process wraps a Python generator.  Each value the generator yields
must be an :class:`~repro.simkernel.event.Event`; the process sleeps
until that event fires and is then resumed with the event's value (or
has the event's exception thrown into it, which the generator may catch
to model fault handling).

A :class:`Process` is itself an event: it fires with the generator's
return value when the generator finishes, so processes can wait for
each other simply by yielding them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import ProcessKilled, SimulationError
from repro.simkernel.event import Event, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.simulator import Simulator

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulated process.

    Do not instantiate directly — use :meth:`Simulator.process`.
    """

    __slots__ = ("generator", "_target", "_start")

    def __init__(
        self, sim: "Simulator", generator: ProcessGenerator, name: str = ""
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        self.generator = generator
        #: Event this process is currently waiting on (None when runnable).
        self._target: Optional[Event] = None
        # Kick the process off via an immediately-successful event.
        self._start = Event(sim, name=f"start:{self.name}")
        self._start.callbacks.append(self._resume)
        self._start.succeed()
        sim._live_processes += 1

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process.

        If the generator does not catch it, the process fails with the
        same exception (propagated to any process waiting on it) — but
        a kill is deliberate, so an unobserved failure does not crash
        the simulation the way other unhandled failures do.
        """
        if not self.is_alive:
            return
        self._defused = True
        self._resume_with_throw(ProcessKilled(reason))

    # -- internal ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with *event*'s outcome.

        This is the kernel's single hottest function: it runs once per
        process resumption, and it is the only code that drives a
        generator.
        """
        if self._value is not _PENDING:
            # Already finished (e.g. killed before its start event
            # fired): ignore stray resumptions.
            return
        self._target = None
        throwing = not event._ok
        payload = event._value
        sim = self.sim
        tr = sim.trace
        if tr.enabled:
            # Wake edge: *event* carries the (pid, t_trigger) of whoever
            # triggered it; record the cross-process resumption.
            cause = getattr(event, "_cause", None)
            if cause is not None:
                tr.record_wake(cause, self)
        generator = self.generator
        while True:
            prev = sim._active_process
            sim._active_process = self
            try:
                if throwing:
                    target = generator.throw(payload)
                else:
                    target = generator.send(payload)
            except StopIteration as stop:
                sim._live_processes -= 1
                # succeed() before restoring the active process: the
                # finish-wake of anyone awaiting us is caused by *us*.
                self.succeed(stop.value)
                sim._active_process = prev
                return
            except BaseException as exc:
                sim._live_processes -= 1
                self.fail(exc)
                sim._active_process = prev
                return
            sim._active_process = prev

            if isinstance(target, Event) and target.sim is sim:
                break
            throwing = True
            if isinstance(target, Event):
                payload = SimulationError(
                    f"process {self.name!r} yielded an event of a different simulator"
                )
            else:
                payload = SimulationError(
                    f"process {self.name!r} yielded {target!r}, which is not an Event"
                )
        self._target = target
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: resume immediately (still via scheduler to
            # keep resumption ordering deterministic).
            relay = Event(sim, name="relay")
            relay.callbacks.append(self._resume)
            relay._set(target._ok, target._value)
            # No _cause on relays: the target finished before we asked,
            # so this process never blocked — a wake edge would carry a
            # stale trigger time and corrupt critical-path walks.
            sim._schedule(relay)
        else:
            callbacks.append(self._resume)

    def _resume_with_throw(self, exc: BaseException) -> None:
        # Detach from the current target so its firing is ignored.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
            # Let owners (e.g. Channel matched-getters) withdraw the
            # registration: a dead process must not consume items.
            if target._abandon is not None and not target.triggered:
                target._abandon()
        # Throw through _resume with a failed event that is never
        # scheduled: it takes no eid and carries no _cause, so the
        # throw schedules nothing of its own and records no wake edge.
        thrown = Event(self.sim, name="throw")
        thrown._set(False, exc)
        self._resume(thrown)
