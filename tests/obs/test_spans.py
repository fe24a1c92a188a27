"""Span nesting, the ring buffer, and the truthiness guard idiom."""

import pytest

from repro.simkernel import Simulator
from repro.simkernel.trace import TraceRecorder


@pytest.fixture
def sim():
    return Simulator(observe=True)


class TestNesting:
    def test_inner_span_parents_to_outer(self, sim):
        def proc(sim):
            with sim.trace.span("mpi", "outer") as outer:
                yield sim.timeout(1.0)
                with sim.trace.span("mpi", "inner"):
                    yield sim.timeout(1.0)
                yield sim.timeout(1.0)

        sim.process(proc(sim))
        sim.run()
        spans = {sp.name: sp for sp in sim.trace.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].start == 1.0
        assert spans["inner"].end == 2.0
        assert spans["outer"].duration == pytest.approx(3.0)

    def test_interleaved_processes_do_not_cross_parent(self, sim):
        """Each process keeps its own open-span stack."""

        def a(sim):
            with sim.trace.span("ompss", "a-outer"):
                yield sim.timeout(2.0)
                with sim.trace.span("ompss", "a-inner"):
                    yield sim.timeout(2.0)

        def b(sim):
            yield sim.timeout(1.0)
            with sim.trace.span("ompss", "b-outer"):
                yield sim.timeout(2.0)
                with sim.trace.span("ompss", "b-inner"):
                    yield sim.timeout(2.0)

        sim.process(a(sim))
        sim.process(b(sim))
        sim.run()
        spans = {sp.name: sp for sp in sim.trace.spans}
        assert spans["a-inner"].parent_id == spans["a-outer"].span_id
        assert spans["b-inner"].parent_id == spans["b-outer"].span_id
        assert spans["a-outer"].parent_id is None
        assert spans["b-outer"].parent_id is None

    def test_explicit_parent_override(self, sim):
        def proc(sim):
            with sim.trace.span("mpi", "outer") as outer:
                yield sim.timeout(1.0)
                sim.trace.record_span(
                    "net.smfu", "forward", 0.0, 1.0, parent=outer.span_id
                )

        sim.process(proc(sim))
        sim.run()
        spans = {sp.name: sp for sp in sim.trace.spans}
        assert spans["forward"].parent_id == spans["outer"].span_id

    def test_record_span_parents_to_open_span(self, sim):
        def proc(sim):
            with sim.trace.span("mpi", "outer"):
                yield sim.timeout(1.0)
                sim.trace.record_span("mpi", "post-hoc", 0.5, 1.0)

        sim.process(proc(sim))
        sim.run()
        spans = {sp.name: sp for sp in sim.trace.spans}
        assert spans["post-hoc"].parent_id == spans["outer"].span_id

    def test_span_fields_and_getitem(self, sim):
        def proc(sim):
            with sim.trace.span("mpi", "send", size=64, tag=3):
                yield sim.timeout(1.0)

        sim.process(proc(sim))
        sim.run()
        sp = next(sim.trace.select_spans("mpi"))
        assert sp["size"] == 64
        assert sp["tag"] == 3

    def test_kernel_run_span_recorded(self, sim):
        def proc(sim):
            yield sim.timeout(2.5)

        sim.process(proc(sim))
        sim.run()
        runs = list(sim.trace.select_spans("kernel"))
        assert len(runs) == 1
        assert runs[0].name == "run"
        assert runs[0].end == 2.5


class TestGuardIdiom:
    def test_truthiness_mirrors_enabled(self):
        assert not TraceRecorder()
        assert not TraceRecorder(enabled=False)
        assert TraceRecorder(enabled=True)

    def test_disabled_span_is_shared_noop(self):
        tr = TraceRecorder()
        s1 = tr.span("mpi", "a")
        s2 = tr.span("ompss", "b")
        assert s1 is s2
        with s1:
            pass
        assert len(tr.spans) == 0

    def test_disabled_record_is_noop(self):
        tr = TraceRecorder()
        tr.record("x", field=1)
        tr.record_span("x", "y", 0.0, 1.0)
        assert len(tr) == 0
        assert len(tr.spans) == 0
