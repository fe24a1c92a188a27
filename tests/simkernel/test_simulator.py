"""Unit tests for the simulator loop."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simkernel import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_run_until_stops_early(sim):
    hits = []

    def p(sim):
        while True:
            yield sim.timeout(1.0)
            hits.append(sim.now)

    sim.process(p(sim))
    t = sim.run(until=3.5)
    assert t == 3.5
    assert hits == [1.0, 2.0, 3.0]


def test_run_until_in_past_rejected(sim):
    def p(sim):
        yield sim.timeout(10.0)

    sim.process(p(sim))
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_deadlock_detection(sim):
    def stuck(sim):
        yield sim.event()

    sim.process(stuck(sim))
    with pytest.raises(DeadlockError) as info:
        sim.run()
    assert info.value.blocked == 1


def test_deadlock_check_can_be_disabled(sim):
    def stuck(sim):
        yield sim.event()

    sim.process(stuck(sim))
    sim.run(check_deadlock=False)  # no exception


def test_peek_reports_next_event_time(sim):
    sim.timeout(7.0)
    assert sim.peek() == 7.0
    empty = Simulator()
    assert empty.peek() == float("inf")


def test_empty_run_advances_to_until(sim):
    assert sim.run(until=100.0) == 100.0
    assert sim.now == 100.0


def test_determinism_same_seed():
    def runner(seed):
        s = Simulator(seed=seed)
        draws = []

        def p(s):
            rng = s.rng.stream("noise")
            for _ in range(5):
                yield s.timeout(rng.random())
                draws.append(s.now)

        s.process(p(s))
        s.run()
        return draws

    assert runner(7) == runner(7)
    assert runner(7) != runner(8)


def test_active_process_visible_during_execution(sim):
    seen = []

    def p(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1.0)

    proc = sim.process(p(sim))
    sim.run()
    assert seen == [proc]
    assert sim.active_process is None


def test_step_on_empty_queue_raises(sim):
    with pytest.raises(SimulationError, match="empty event queue"):
        sim.step()


def test_step_on_drained_queue_raises(sim):
    def p(sim):
        yield sim.timeout(1.0)

    sim.process(p(sim))
    sim.run()
    with pytest.raises(SimulationError, match="empty event queue"):
        sim.step()


def test_observe_turns_on_trace_metrics_and_profiling():
    from repro.obs.metrics import MetricsRegistry
    from repro.simkernel import Resource

    sim = Simulator(observe=True)
    assert sim.observe and sim.trace.enabled
    assert isinstance(sim.metrics, MetricsRegistry)
    Resource(sim, capacity=1, name="engine")
    assert list(sim.profile_stats()["resources"]) == ["engine"]


def test_deep_system_observe_reaches_its_simulator():
    from repro import DeepSystem, MachineConfig
    from repro.obs.metrics import MetricsRegistry

    system = DeepSystem(MachineConfig(n_cluster=1, n_booster=1), observe=True)
    assert system.sim.trace.enabled
    assert isinstance(system.sim.metrics, MetricsRegistry)
    assert system.sim.profile_stats()["resources"]


def test_unobserved_by_default(sim):
    from repro.obs.metrics import NULL_METRICS

    assert not sim.observe and not sim.trace.enabled
    assert sim.metrics is NULL_METRICS
    with pytest.raises(SimulationError):
        sim.profile_stats()


@pytest.mark.parametrize(
    "kwargs",
    [{"trace": True}, {"metrics": True}, {"profile": True},
     {"max_trace_events": 8}],
)
def test_the_old_observability_keywords_are_gone(kwargs):
    from repro import DeepSystem

    with pytest.raises(TypeError):
        Simulator(**kwargs)
    with pytest.raises(TypeError):
        DeepSystem(**kwargs)


def test_profile_stats_requires_profile_mode(sim):
    with pytest.raises(SimulationError):
        sim.profile_stats()


def test_profile_stats_counters():
    from repro.simkernel import Resource

    sim = Simulator(observe=True)
    res = Resource(sim, capacity=1, name="engine")

    def worker(sim, res):
        req = res.request()
        yield req
        yield sim.timeout(2.0)
        res.release(req)

    sim.process(worker(sim, res))
    sim.process(worker(sim, res))
    sim.run()
    stats = sim.profile_stats()
    assert stats["now"] == 4.0
    assert stats["events_processed"] > 0
    assert stats["events_processed"] <= stats["events_scheduled"]
    assert stats["live_processes"] == 0
    engine = stats["resources"]["engine"]
    assert engine["capacity"] == 1
    assert engine["grants"] == 2  # both workers eventually got the slot
    assert engine["queued"] == 1  # the second had to wait
    assert engine["in_use"] == 0
    assert engine["utilization"] == pytest.approx(1.0)


def test_profile_stats_counts_try_acquire_grants():
    from repro.simkernel import Resource

    sim = Simulator(observe=True)
    res = Resource(sim, capacity=2, name="links")
    tok = res.try_acquire()
    assert tok is not None
    stats = sim.profile_stats()
    assert stats["resources"]["links"]["grants"] == 1
    assert stats["resources"]["links"]["in_use"] == 1
