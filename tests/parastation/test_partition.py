"""Unit tests for partitions and accounting."""

import pytest

from repro.errors import AllocationError, ConfigurationError, SimulationError
from repro.hardware.catalog import booster_node_spec
from repro.hardware.node import BoosterNode
from repro.parastation import NodeState, Partition, UsageLedger
from repro.parastation.job import Job, JobSpec


def make_partition(sim, n=4, name="booster"):
    nodes = [BoosterNode(sim, booster_node_spec(), i) for i in range(n)]
    return Partition(sim, name, nodes)


def test_partition_initial_state(sim):
    p = make_partition(sim)
    assert p.size == 4
    assert p.free_count == 4
    assert p.allocated_count == 0
    assert all(p.state_of(n.name) is NodeState.FREE for n in p.nodes)


def test_partition_needs_nodes(sim):
    with pytest.raises(ConfigurationError):
        Partition(sim, "empty", [])


def test_allocate_release_cycle(sim):
    p = make_partition(sim)
    nodes = p.allocate(3)
    assert p.free_count == 1
    assert p.allocated_count == 3
    p.release(nodes)
    assert p.free_count == 4


def test_over_allocation_raises(sim):
    p = make_partition(sim)
    p.allocate(3)
    with pytest.raises(AllocationError):
        p.allocate(2)


def test_release_free_node_raises(sim):
    p = make_partition(sim)
    with pytest.raises(AllocationError):
        p.release([p.nodes[0]])


def test_mark_down_excludes_from_allocation(sim):
    p = make_partition(sim)
    p.mark_down("bn0")
    assert p.free_count == 3
    nodes = p.allocate(3)
    assert "bn0" not in [n.name for n in nodes]
    p.mark_up("bn0")
    assert p.free_count == 1


def test_mark_down_allocated_raises(sim):
    p = make_partition(sim)
    p.allocate(1)
    with pytest.raises(AllocationError):
        p.mark_down("bn0")


def test_mark_up_requires_down(sim):
    p = make_partition(sim)
    with pytest.raises(AllocationError):
        p.mark_up("bn0")


def test_utilization_integral(sim):
    p = make_partition(sim, n=2)

    def workload(sim, p):
        nodes = p.allocate(1)
        yield sim.timeout(10.0)
        p.release(nodes)
        yield sim.timeout(10.0)

    sim.process(workload(sim, p))
    sim.run()
    # 1 of 2 nodes for half the 20 s window -> 25%.
    assert p.utilization() == pytest.approx(0.25)
    assert p.allocated_node_seconds() == pytest.approx(10.0)


def test_utilization_refuses_windows_after_creation(sim):
    """One node busy over [0, 4] s, idle to 10 s: the window from 5 s
    used to read 0.8 (the whole integral over a 5 s window)."""
    p = make_partition(sim, n=1)

    def workload(sim, p):
        nodes = p.allocate(1)
        yield sim.timeout(4.0)
        p.release(nodes)
        yield sim.timeout(6.0)

    sim.process(workload(sim, p))
    sim.run()
    assert p.utilization() == pytest.approx(0.4)
    with pytest.raises(SimulationError):
        p.utilization(since=5.0)


def test_utilization_of_a_later_partition_counts_from_before_creation(sim):
    """Nothing was allocated before creation, so earlier windows are exact."""
    made = []

    def workload(sim):
        yield sim.timeout(2.0)
        p = make_partition(sim, n=2)
        made.append(p)
        nodes = p.allocate(2)
        yield sim.timeout(4.0)
        p.release(nodes)

    sim.process(workload(sim))
    sim.run()
    p = made[0]
    assert p.utilization(since=2.0) == pytest.approx(1.0)
    assert p.utilization() == pytest.approx(8.0 / 12.0)


def test_unknown_node_raises(sim):
    p = make_partition(sim)
    with pytest.raises(AllocationError):
        p.state_of("ghost")


def test_usage_ledger_statistics():
    ledger = UsageLedger()
    for i in range(3):
        job = Job(spec=JobSpec(name=f"j{i}", n_cluster=2))
        job.submit_time = float(i)
        job.start_time = float(i) + 1.0
        job.end_time = float(i) + 11.0
        ledger.record_job(job)
    assert ledger.job_count == 3
    assert ledger.mean_wait() == pytest.approx(1.0)
    assert ledger.makespan() == pytest.approx(13.0)
    assert ledger.total_cluster_node_seconds() == pytest.approx(60.0)


def test_usage_ledger_skips_unstarted():
    ledger = UsageLedger()
    ledger.record_job(Job(spec=JobSpec(name="never", n_cluster=1)))
    assert ledger.job_count == 0
