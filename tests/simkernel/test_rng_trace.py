"""Unit tests for random streams and tracing."""

import numpy as np

from repro.simkernel import Simulator
from repro.simkernel.rng import RandomStreams
from repro.simkernel.trace import TraceRecorder


def test_streams_are_deterministic():
    a = RandomStreams(1).stream("link").random(5)
    b = RandomStreams(1).stream("link").random(5)
    assert np.allclose(a, b)


def test_streams_differ_by_name():
    rs = RandomStreams(1)
    a = rs.stream("link").random(5)
    b = rs.stream("workload").random(5)
    assert not np.allclose(a, b)


def test_streams_differ_by_seed():
    a = RandomStreams(1).stream("x").random(5)
    b = RandomStreams(2).stream("x").random(5)
    assert not np.allclose(a, b)


def test_stream_cached_not_restarted():
    rs = RandomStreams(0)
    first = rs.stream("s").random()
    second = rs.stream("s").random()
    assert first != second  # same generator advancing, not a fresh one


def test_reset_recreates_streams():
    rs = RandomStreams(0)
    a = rs.stream("s").random(3)
    rs.reset()
    b = rs.stream("s").random(3)
    assert np.allclose(a, b)


def test_contains():
    rs = RandomStreams(0)
    assert "x" not in rs
    rs.stream("x")
    assert "x" in rs


def test_trace_disabled_records_nothing():
    tr = TraceRecorder(enabled=False)
    tr.record("cat", a=1)
    assert len(tr) == 0


def test_trace_records_with_sim_clock():
    sim = Simulator(observe=True)

    def p(sim):
        yield sim.timeout(2.0)
        sim.trace.record("tick", who="p")

    sim.process(p(sim))
    sim.run()
    events = list(sim.trace.select("tick"))
    assert len(events) == 1
    assert events[0].time == 2.0
    assert events[0]["who"] == "p"


def test_trace_select_filters_category():
    tr = TraceRecorder(enabled=True)
    tr.record("a", time=1.0)
    tr.record("b", time=2.0)
    tr.record("a", time=3.0)
    assert [e.time for e in tr.select("a")] == [1.0, 3.0]


def test_trace_clear():
    tr = TraceRecorder(enabled=True)
    tr.record("a", time=0.0)
    tr.clear()
    assert len(tr) == 0
