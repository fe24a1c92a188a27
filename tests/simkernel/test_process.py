"""Unit tests for generator processes."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.simkernel import Simulator

from tests.conftest import run_to_end


def test_process_return_value(sim):
    def child(sim):
        yield sim.timeout(1.0)
        return 99

    def parent(sim):
        value = yield sim.process(child(sim))
        return value

    assert run_to_end(sim, parent(sim)) == 99


def test_process_requires_generator(sim):
    with pytest.raises(SimulationError):
        sim.process(lambda: None)


def test_process_is_alive_until_done(sim):
    def child(sim):
        yield sim.timeout(5.0)

    p = sim.process(child(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_yielding_non_event_raises_inside_process(sim):
    caught = []

    def bad(sim):
        try:
            yield 42
        except SimulationError as exc:
            caught.append("caught")

    sim.process(bad(sim))
    sim.run()
    assert caught == ["caught"]


def test_exception_in_process_propagates_to_waiter(sim):
    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            return f"saw: {exc}"

    assert run_to_end(sim, parent(sim)) == "saw: child died"


def test_unhandled_process_failure_surfaces_in_run(sim):
    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("nobody catches this")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="nobody catches"):
        sim.run()


def test_kill_injects_processkilled(sim):
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except ProcessKilled:
            log.append(sim.now)

    p = sim.process(victim(sim))

    def killer(sim, p):
        yield sim.timeout(2.0)
        p.kill()

    sim.process(killer(sim, p))
    sim.run(until=10)
    assert log == [2.0]
    assert not p.is_alive


def test_kill_finished_process_is_noop(sim):
    def quick(sim):
        yield sim.timeout(0.5)
        return "ok"

    p = sim.process(quick(sim))
    sim.run()
    p.kill()  # must not raise
    assert p.value == "ok"


def test_waiting_on_already_processed_event(sim):
    def p(sim):
        ev = sim.timeout(1.0, value="early")
        yield sim.timeout(5.0)
        # ev fired long ago; waiting on it must still work.
        v = yield ev
        return (v, sim.now)

    assert run_to_end(sim, p(sim)) == ("early", 5.0)


def test_two_processes_interleave(sim):
    log = []

    def p(sim, tag, dt):
        for i in range(3):
            yield sim.timeout(dt)
            log.append((tag, sim.now))

    sim.process(p(sim, "a", 1.0))
    sim.process(p(sim, "b", 1.5))
    sim.run()
    assert log[0] == ("a", 1.0)
    times = [t for _, t in log]
    assert times == sorted(times)
    assert log[-1] == ("b", 4.5)
    assert [t for tag, t in log if tag == "a"] == [1.0, 2.0, 3.0]


def _kill_at(sim, when, victim):
    """Start a process that kills *victim* at *when*; returns its log."""
    log = []

    def killer(sim):
        yield sim.timeout(when)
        victim.kill()
        log.append(("kill returned", sim.now))

    sim.process(killer(sim), name="killer")
    return log


def test_killed_process_waiting_on_a_processed_event_resumes_via_relay(sim):
    early = sim.timeout(1.0, value="early")
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except ProcessKilled:
            log.append(("killed", sim.now))
        value = yield early
        log.append((value, sim.now))
        return "done"

    p = sim.process(victim(sim))
    log_killer = _kill_at(sim, 2.0, p)
    sim.run()
    # The kill is thrown in at once; the processed event then resumes
    # the victim through the scheduler, after the kill has returned.
    assert log == [("killed", 2.0), ("early", 2.0)]
    assert log_killer == [("kill returned", 2.0)]
    assert p.value == "done"


def test_killed_process_yielding_a_non_event_gets_simulation_error(sim):
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except ProcessKilled:
            pass
        try:
            yield "not an event"
        except SimulationError as exc:
            log.append((str(exc), sim.now))

    p = sim.process(victim(sim), name="victim")
    _kill_at(sim, 2.0, p)
    sim.run()
    assert log == [("process 'victim' yielded 'not an event', which is not an Event", 2.0)]
    assert p.ok and not p.is_alive


def test_kill_records_no_wake_edge():
    sim = Simulator(observe=True)

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except ProcessKilled:
            yield sim.timeout(1.0)

    p = sim.process(victim(sim), name="victim")
    _kill_at(sim, 2.0, p)
    sim.run()
    assert p.ok
    names = sim.trace.proc_names
    assert [w for w in sim.trace.wakes if names[w[3]] == "victim"] == []


def test_kill_schedules_only_the_killed_process_failure():
    sim = Simulator(observe=True)

    def victim(sim):
        yield sim.timeout(100.0)

    p = sim.process(victim(sim))
    sim.run(until=1.0)
    scheduled = sim.profile_stats()["events_scheduled"]
    p.kill()
    assert sim.profile_stats()["events_scheduled"] == scheduled + 1
    assert isinstance(p.value, ProcessKilled)
    sim.run()
    assert sim.now == 100.0
