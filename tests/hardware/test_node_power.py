"""Unit tests for nodes, accelerators, PCIe specs, and power/energy."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import (
    BoosterInterfaceNode,
    BoosterNode,
    ClusterNode,
    EnergyMeter,
    Node,
    PCIeGeneration,
    PCIeSpec,
    PowerModel,
)
from repro.hardware.catalog import (
    GPU_K20X,
    booster_interface_spec,
    booster_node_spec,
    cluster_node_spec,
)
from repro.hardware.node import Accelerator, NodeKind


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------


def test_node_kinds_enforced(sim):
    with pytest.raises(ConfigurationError):
        ClusterNode(sim, booster_node_spec(), 0)
    with pytest.raises(ConfigurationError):
        BoosterNode(sim, cluster_node_spec(), 0)
    with pytest.raises(ConfigurationError):
        BoosterInterfaceNode(sim, cluster_node_spec(), 0)


def test_node_naming(sim):
    cn = ClusterNode(sim, cluster_node_spec(), 3)
    bn = BoosterNode(sim, booster_node_spec(), 7)
    bi = BoosterInterfaceNode(sim, booster_interface_spec(), 0)
    assert cn.name == "cn3"
    assert bn.name == "bn7"
    assert bi.name == "bi0"
    assert cn.kind is NodeKind.CLUSTER


def test_duplicate_interface_rejected(sim):
    node = ClusterNode(sim, cluster_node_spec(), 0)
    node.attach_interface("fab", object())
    with pytest.raises(ConfigurationError):
        node.attach_interface("fab", object())
    assert node.interface("fab") is not None


def test_accelerator_requires_pcie_slot(sim):
    node = BoosterNode(sim, booster_node_spec(), 0)  # no PCIe
    acc = Accelerator(sim, GPU_K20X, 0)
    with pytest.raises(ConfigurationError):
        node.attach_accelerator(acc)


def test_accelerator_attaches_to_host(sim):
    node = ClusterNode(sim, cluster_node_spec(), 0)
    acc = Accelerator(sim, GPU_K20X, 0)
    node.attach_accelerator(acc)
    assert acc.host_name == node.name
    assert node.accelerators == [acc]


# ---------------------------------------------------------------------------
# PCIe
# ---------------------------------------------------------------------------


def test_pcie_bandwidth_scales_with_lanes():
    x16 = PCIeSpec(PCIeGeneration.GEN2, 16)
    x8 = PCIeSpec(PCIeGeneration.GEN2, 8)
    assert x16.bandwidth_bytes_per_s == pytest.approx(2 * x8.bandwidth_bytes_per_s)


def test_pcie_gen3_faster_than_gen2():
    g2 = PCIeSpec(PCIeGeneration.GEN2, 16)
    g3 = PCIeSpec(PCIeGeneration.GEN3, 16)
    assert g3.bandwidth_bytes_per_s > g2.bandwidth_bytes_per_s
    assert g3.latency_s < g2.latency_s


def test_pcie_invalid_lanes():
    with pytest.raises(ConfigurationError):
        PCIeSpec(PCIeGeneration.GEN2, 3)


def test_slide8_premise_ib_as_fast_as_pcie():
    """Slide 8: 'IB can be assumed as fast as PCIe besides latency'."""
    from repro.network.infiniband import IB_QDR

    pcie = PCIeSpec(PCIeGeneration.GEN2, 16)
    ratio = pcie.bandwidth_bytes_per_s / IB_QDR.bandwidth_bytes_per_s
    assert 0.5 < ratio < 2.5  # same ballpark bandwidth
    assert IB_QDR.hop_latency_s + 2 * IB_QDR.send_overhead_s > pcie.latency_s


# ---------------------------------------------------------------------------
# power / energy
# ---------------------------------------------------------------------------


def test_power_model_linear():
    pm = PowerModel(idle_watts=50, busy_watts=250, overhead_watts=30)
    assert pm.power(0.0) == 80
    assert pm.power(1.0) == 280
    assert pm.power(0.5) == 180
    assert pm.power(2.0) == 280  # clipped


def test_power_model_validation():
    with pytest.raises(ConfigurationError):
        PowerModel(idle_watts=100, busy_watts=50)
    with pytest.raises(ConfigurationError):
        PowerModel(idle_watts=10, busy_watts=50, overhead_watts=-1)


def test_energy_meter_integrates(sim):
    node = ClusterNode(sim, cluster_node_spec(overhead_watts=0.0), 0)
    spec = node.spec.processor

    def p(sim):
        # Busy all cores for 10 s.
        yield from node.processor.execute(
            flops=spec.sustained_flops * 10.0, n_cores=0
        )

    sim.process(p(sim))
    sim.run()
    expected = spec.tdp_watts * 10.0
    assert node.energy.energy_joules() == pytest.approx(expected, rel=0.01)


def test_energy_meter_idle(sim):
    node = ClusterNode(sim, cluster_node_spec(overhead_watts=0.0), 0)

    def p(sim):
        yield sim.timeout(5.0)

    sim.process(p(sim))
    sim.run()
    expected = node.spec.processor.idle_watts * 5.0
    assert node.energy.energy_joules() == pytest.approx(expected, rel=0.01)
