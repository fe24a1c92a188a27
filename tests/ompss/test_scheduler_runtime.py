"""Dataflow scheduling, the CoreBank, and the OmpSs runtime facade."""

import pytest

from repro.errors import SimulationError, TaskError
from repro.hardware import CoreSpec, MemorySpec, Processor, ProcessorSpec
from repro.ompss import (
    CoreBank,
    DataflowScheduler,
    OmpSsRuntime,
    Region,
    TaskGraph,
)
from repro.units import gbyte_per_s, gib

from tests.conftest import run_to_end


def make_proc(sim, n_cores=4):
    spec = ProcessorSpec(
        name="p",
        core=CoreSpec(clock_hz=1e9, flops_per_cycle=1.0, sustained_efficiency=1.0),
        n_cores=n_cores,
        memory=MemorySpec(gib(8), gbyte_per_s(1000)),
        tdp_watts=100, idle_watts=10,
    )
    return Processor(sim, spec)


# ---------------------------------------------------------------------------
# CoreBank
# ---------------------------------------------------------------------------


def test_corebank_atomic_grant(sim):
    bank = CoreBank(sim, 4)
    order = []

    def taker(sim, k, tag, hold):
        yield bank.acquire(k)
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        bank.release(k)

    sim.process(taker(sim, 3, "wide1", 1.0))
    sim.process(taker(sim, 3, "wide2", 1.0))
    sim.run()
    assert order == [("wide1", 0.0), ("wide2", 1.0)]


def test_corebank_priority_order(sim):
    bank = CoreBank(sim, 1)
    order = []

    def taker(sim, prio, tag, delay):
        yield sim.timeout(delay)
        yield bank.acquire(1, priority=prio)
        order.append(tag)
        yield sim.timeout(1.0)
        bank.release(1)

    sim.process(taker(sim, 0, "first", 0.0))
    sim.process(taker(sim, 5, "low", 0.1))
    sim.process(taker(sim, -5, "high", 0.1))
    sim.run()
    assert order == ["first", "high", "low"]


def test_corebank_validation(sim):
    with pytest.raises(TaskError):
        CoreBank(sim, 0)
    bank = CoreBank(sim, 2)
    with pytest.raises(TaskError):
        bank.acquire(3)
    bank.release(0)
    with pytest.raises(TaskError):
        bank.release(5)


def test_corebank_refused_release_leaves_the_bank_unchanged(sim):
    """An over-release used to add its slots before refusing, leaving
    more free slots than the bank has."""
    bank = CoreBank(sim, 2)
    with pytest.raises(TaskError):
        bank.release(1)
    assert bank.free == 2
    granted = []

    def taker(sim, tag):
        yield bank.acquire(2)
        granted.append((tag, sim.now))
        yield sim.timeout(1.0)
        bank.release(2)

    sim.process(taker(sim, "a"))
    sim.process(taker(sim, "b"))
    sim.run()
    assert granted == [("a", 0.0), ("b", 1.0)]  # never both at once


def test_corebank_utilization_refuses_windows_after_creation(sim):
    """One slot busy over [0, 4] s, idle to 10 s: the window from 5 s
    used to read 0.8 (the whole integral over a 5 s window)."""
    bank = CoreBank(sim, 1)

    def worker(sim):
        yield bank.acquire(1)
        yield sim.timeout(4.0)
        bank.release(1)
        yield sim.timeout(6.0)

    sim.process(worker(sim))
    sim.run()
    assert bank.utilization() == pytest.approx(0.4)
    assert bank.utilization(since=0.0) == pytest.approx(0.4)
    with pytest.raises(SimulationError):
        bank.utilization(since=5.0)


def test_corebank_head_blocks_small_later_requests(sim):
    """No starvation: a wide waiter holds its place in line."""
    bank = CoreBank(sim, 2)
    order = []

    def taker(sim, k, tag, delay):
        yield sim.timeout(delay)
        yield bank.acquire(k)
        order.append((tag, sim.now))
        yield sim.timeout(1.0)
        bank.release(k)

    sim.process(taker(sim, 2, "a", 0.0))
    sim.process(taker(sim, 2, "wide", 0.1))
    sim.process(taker(sim, 1, "small", 0.2))
    sim.run()
    assert order[0][0] == "a"
    assert order[1][0] == "wide"  # small did not sneak past


# ---------------------------------------------------------------------------
# DataflowScheduler
# ---------------------------------------------------------------------------


def parallel_graph(n, flops=4e9):
    g = TaskGraph()
    for i in range(n):
        g.add_task(f"p{i}", flops=flops, out=[Region("A", i * 8, i * 8 + 8)])
    return g


def test_independent_tasks_run_in_parallel(sim):
    proc = make_proc(sim, n_cores=4)
    g = parallel_graph(4, flops=2e9)  # 2 s each on one core

    def p(sim):
        result = yield from DataflowScheduler("fifo").run(sim, g, proc)
        return result

    result = run_to_end(sim, p(sim))
    assert result.makespan_s == pytest.approx(2.0)
    assert result.speedup_vs_serial == pytest.approx(4.0)
    assert result.core_utilization == pytest.approx(1.0)


def test_chain_runs_serially(sim):
    proc = make_proc(sim, n_cores=4)
    g = TaskGraph()
    for i in range(3):
        g.add_task(f"c{i}", flops=1e9, inout=[Region("A", 0, 8)])

    def p(sim):
        result = yield from DataflowScheduler().run(sim, g, proc)
        return result

    result = run_to_end(sim, p(sim))
    assert result.makespan_s == pytest.approx(3.0)
    # Dependency order respected in recorded spans.
    spans = [result.task_spans[t.task_id] for t in g.tasks]
    assert spans[0][1] <= spans[1][0] and spans[1][1] <= spans[2][0]


def test_more_tasks_than_cores_queue(sim):
    proc = make_proc(sim, n_cores=2)
    g = parallel_graph(4, flops=1e9)

    def p(sim):
        result = yield from DataflowScheduler().run(sim, g, proc)
        return result

    result = run_to_end(sim, p(sim))
    assert result.makespan_s == pytest.approx(2.0)


def test_critical_path_policy_beats_fifo_on_skewed_graph():
    """CP-first runs the long chain eagerly; FIFO may starve it."""
    from repro.simkernel import Simulator

    def run(policy):
        sim = Simulator()
        proc = make_proc(sim, n_cores=2)
        g = TaskGraph()
        # A long chain (3 x 2 s) plus 4 independent 1.9 s fillers whose
        # program order puts them first.
        for i in range(4):
            g.add_task(f"fill{i}", flops=1.9e9, out=[Region("F", i * 8, i * 8 + 8)])
        for i in range(3):
            g.add_task(f"chain{i}", flops=2e9, inout=[Region("C", 0, 8)])

        def p(sim):
            result = yield from DataflowScheduler(policy).run(sim, g, proc)
            return result

        return run_to_end(sim, p(sim))

    fifo = run("fifo")
    cp = run("critical-path")
    assert cp.makespan_s < fifo.makespan_s


def test_unknown_policy_rejected():
    with pytest.raises(TaskError):
        DataflowScheduler("random")


def test_empty_graph(sim):
    proc = make_proc(sim)

    def p(sim):
        result = yield from DataflowScheduler().run(sim, TaskGraph(), proc)
        return result

    result = run_to_end(sim, p(sim))
    assert result.makespan_s == 0.0 and result.n_tasks == 0


def test_task_fn_runs_on_completion(sim):
    proc = make_proc(sim)
    g = TaskGraph()
    t = g.add_task("compute", flops=1e9, fn=lambda: 7 * 6)

    def p(sim):
        yield from DataflowScheduler().run(sim, g, proc)

    run_to_end(sim, p(sim))
    assert t.result == 42


# ---------------------------------------------------------------------------
# OmpSsRuntime facade
# ---------------------------------------------------------------------------


def test_runtime_builder_and_execute(sim):
    rt = OmpSsRuntime("demo")
    A = rt.space("A", tile_bytes=64, tiles_per_row=2)
    t1 = rt.task("init", flops=1e9).writes(A.tile(0, 0)).submit()
    t2 = rt.task("use", flops=1e9).reads(A.tile(0, 0)).submit()
    t3 = rt.task("other", flops=1e9).writes(A.tile(1, 1)).submit()
    assert rt.graph.deps[t2.task_id] == {t1.task_id}
    assert rt.graph.deps[t3.task_id] == set()

    proc = make_proc(sim, n_cores=2)

    def p(sim):
        result = yield from rt.execute(sim, proc)
        return result

    result = run_to_end(sim, p(sim))
    # t1 and t3 parallel (1 s), then t2 (1 s).
    assert result.makespan_s == pytest.approx(2.0)
    assert rt.parallelism_on(proc) == pytest.approx(1.5)
    assert rt.critical_path_on(proc) == pytest.approx(2.0)


def test_builder_double_submit_rejected(sim):
    rt = OmpSsRuntime()
    b = rt.task("t", flops=1.0)
    b.submit()
    with pytest.raises(TaskError):
        b.submit()


def test_builder_cores_and_fn():
    rt = OmpSsRuntime()
    t = rt.task("t", flops=1.0).cores(3).runs(lambda: "x").submit()
    assert t.n_cores == 3
    assert t.fn() == "x"


def test_array_space_helpers():
    rt = OmpSsRuntime()
    sp = rt.space("M", tile_bytes=100, tiles_per_row=4)
    assert sp.tile(1, 2).start == 600
    assert sp.whole().size_bytes == 1600
    assert sp.slice(10, 20).size_bytes == 10
