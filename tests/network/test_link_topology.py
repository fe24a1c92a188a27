"""Unit tests for links and topology builders."""

import math

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.network import (
    Link,
    LinkSpec,
    all_to_all_topology,
    fat_tree_topology,
    star_topology,
    torus_topology,
)
from repro.units import gbyte_per_s, microseconds


# ---------------------------------------------------------------------------
# LinkSpec / Link
# ---------------------------------------------------------------------------


def test_linkspec_times():
    spec = LinkSpec(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
    assert spec.serialization_time(1e9) == pytest.approx(1.0)
    assert spec.ideal_time(0) == pytest.approx(1e-6)
    assert spec.ideal_time(1e9) == pytest.approx(1.0 + 1e-6)


def test_linkspec_validation():
    with pytest.raises(ConfigurationError):
        LinkSpec(latency_s=-1, bandwidth_bytes_per_s=1e9)
    with pytest.raises(ConfigurationError):
        LinkSpec(latency_s=0, bandwidth_bytes_per_s=0)
    with pytest.raises(ConfigurationError):
        LinkSpec(latency_s=0, bandwidth_bytes_per_s=1, per_byte_error_rate=1.0)


def test_link_occupy_serializes(sim):
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_bytes_per_s=1e6), "l")
    ends = []

    def sender(sim, link):
        yield from link.occupy(1_000_000)  # 1 s serialization
        ends.append(sim.now)

    sim.process(sender(sim, link))
    sim.process(sender(sim, link))
    sim.run()
    assert ends == [pytest.approx(1.0), pytest.approx(2.0)]
    assert link.bytes_carried == 2_000_000
    assert link.transfers == 2


def test_killed_queued_occupy_does_not_hold_the_link(sim):
    """A sender killed while queued for the link must not leave its
    request to be granted later to nobody."""
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_bytes_per_s=1e6), "l")
    ends = []

    def sender(sim, start, name):
        yield sim.timeout(start)
        yield from link.occupy(1_000_000)  # 1 s serialization
        ends.append((name, sim.now))

    sim.process(sender(sim, 0.0, "first"))
    queued = sim.process(sender(sim, 0.1, "queued"))
    sim.process(sender(sim, 0.5, "late"))

    def killer(sim):
        yield sim.timeout(0.2)
        queued.kill()

    sim.process(killer(sim))
    sim.run()
    assert ends == [("first", pytest.approx(1.0)), ("late", pytest.approx(2.0))]
    assert link.channel.count == 0
    assert link.transfers == 2


def test_link_error_model_adds_penalty(sim):
    clean = LinkSpec(latency_s=0, bandwidth_bytes_per_s=1e9)
    lossy = LinkSpec(
        latency_s=0, bandwidth_bytes_per_s=1e9,
        per_byte_error_rate=1e-6, retransmit_penalty_s=1e-3,
    )
    l_clean = Link(sim, clean, "c")
    l_lossy = Link(sim, lossy, "l")
    times = {}

    def xfer(sim, link, tag):
        t0 = sim.now
        yield from link.occupy(50_000_000)  # ~50 expected errors
        times[tag] = sim.now - t0

    sim.process(xfer(sim, l_clean, "clean"))
    sim.process(xfer(sim, l_lossy, "lossy"))
    sim.run()
    assert times["lossy"] > times["clean"]


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------


def test_star_topology():
    topo = star_topology([f"n{i}" for i in range(4)])
    assert len(topo.endpoints) == 4
    assert len(topo.switches) == 1
    topo.validate_connected()
    assert topo.diameter_hops() == 2


def test_star_needs_endpoints():
    with pytest.raises(TopologyError):
        star_topology([])


def test_all_to_all():
    topo = all_to_all_topology(["a", "b", "c"])
    assert topo.graph.number_of_edges() == 3
    assert topo.diameter_hops() == 1


def test_fat_tree_small_degrades_to_single_leaf():
    topo = fat_tree_topology([f"n{i}" for i in range(6)], leaf_radix=18)
    assert len(topo.switches) == 1


def test_fat_tree_two_level():
    eps = [f"n{i}" for i in range(36)]
    topo = fat_tree_topology(eps, leaf_radix=18)
    leaves = [s for s in topo.switches if s.startswith("leaf")]
    spines = [s for s in topo.switches if s.startswith("spine")]
    assert len(leaves) == 2
    assert len(spines) >= 1
    topo.validate_connected()
    # endpoint -> leaf -> spine -> leaf -> endpoint
    assert topo.diameter_hops() == 4


def test_torus_shape_and_degree():
    topo = torus_topology((4, 4, 2))
    assert len(topo.endpoints) == 32
    # A 4x4x2 torus: degree 2+2+1 = 5 (2-wide dim has single cable).
    degrees = {topo.degree(n) for n in topo.endpoints}
    assert degrees == {5}
    topo.validate_connected()


def test_torus_full_3d_degree_six():
    """Slide 16: '6 links for 3D torus topology'."""
    topo = torus_topology((4, 4, 4))
    assert all(topo.degree(n) == 6 for n in topo.endpoints)


def test_torus_with_names():
    names = [f"bn{i}" for i in range(8)]
    topo = torus_topology((2, 2, 2), names=names)
    assert set(topo.endpoints) == set(names)
    assert topo.coord_index[(1, 0, 1)] == "bn5"
    assert topo.coord_index is topo.coord_index  # built once


def test_torus_validation():
    with pytest.raises(TopologyError):
        torus_topology(())
    with pytest.raises(TopologyError):
        torus_topology((4, 0))
    with pytest.raises(TopologyError):
        torus_topology((2, 2), names=["only-one"])


def test_torus_diameter():
    topo = torus_topology((4, 4))
    # Max 2 hops per dimension with wraparound.
    assert topo.diameter_hops() == 4

