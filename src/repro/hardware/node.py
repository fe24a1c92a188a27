"""Node models: Cluster Nodes, Booster Nodes, Booster Interface nodes.

The DEEP machine (slide 14) has three node species:

* **Cluster Node (CN)** — dual-socket Xeon on the InfiniBand fabric;
  runs the application's ``main()`` part.
* **Booster Node (BN)** — an *autonomous* Xeon Phi (KNC) directly
  attached to the EXTOLL torus; runs highly scalable code parts.
* **Booster Interface (BI)** — the bridge card holding the SMFU engine
  that forwards traffic between InfiniBand and EXTOLL.

For the accelerated-cluster baseline of slides 6/7 a CN may also host
PCIe-attached :class:`Accelerator` devices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.hardware.pcie import PCIeSpec
from repro.hardware.power import EnergyMeter, PowerModel
from repro.hardware.processor import Processor, ProcessorSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import NetworkInterface
    from repro.simkernel.simulator import Simulator


class NodeKind(enum.Enum):
    """Species of node in a DEEP-style machine."""

    CLUSTER = "cluster"
    BOOSTER = "booster"
    BOOSTER_INTERFACE = "booster-interface"
    ACCELERATOR = "accelerator"


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Static description of a node."""

    kind: NodeKind
    processor: ProcessorSpec
    power: PowerModel
    pcie: Optional[PCIeSpec] = None

    @property
    def peak_flops(self) -> float:
        return self.processor.peak_flops


class Node:
    """A node instantiated on a simulator.

    Nodes get network interfaces attached by fabrics
    (:meth:`attach_interface`) and expose compute via :attr:`processor`.
    """

    def __init__(
        self, sim: "Simulator", spec: NodeSpec, node_id: int, name: str = ""
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.node_id = node_id
        self.name = name or f"{spec.kind.value}{node_id}"
        self.processor = Processor(sim, spec.processor, name=f"{self.name}.cpu")
        self.energy = EnergyMeter(sim, self.processor, spec.power)
        #: fabric name -> interface, filled in by fabrics.
        self.interfaces: dict[str, "NetworkInterface"] = {}
        #: PCIe-attached accelerator devices (slides 6/7 baseline only).
        self.accelerators: list["Accelerator"] = []

    @property
    def kind(self) -> NodeKind:
        return self.spec.kind

    def attach_interface(self, fabric_name: str, iface: "NetworkInterface") -> None:
        """Register a NIC on this node (called by the fabric)."""
        if fabric_name in self.interfaces:
            raise ConfigurationError(
                f"{self.name} already has an interface on fabric {fabric_name!r}"
            )
        self.interfaces[fabric_name] = iface

    def interface(self, fabric_name: str) -> "NetworkInterface":
        """The node's NIC on *fabric_name* (KeyError if not attached)."""
        return self.interfaces[fabric_name]

    def attach_accelerator(self, acc: "Accelerator") -> None:
        """Attach a PCIe accelerator to this host node."""
        if self.spec.pcie is None:
            raise ConfigurationError(
                f"{self.name} has no PCIe slot configured for accelerators"
            )
        self.accelerators.append(acc)
        acc.host_name = self.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name}>"


class ClusterNode(Node):
    """A Xeon cluster node (CN)."""

    def __init__(self, sim: "Simulator", spec: NodeSpec, node_id: int) -> None:
        if spec.kind is not NodeKind.CLUSTER:
            raise ConfigurationError(f"ClusterNode needs CLUSTER spec, got {spec.kind}")
        super().__init__(sim, spec, node_id, name=f"cn{node_id}")


class BoosterNode(Node):
    """An autonomous many-core booster node (BN) on the EXTOLL torus."""

    def __init__(self, sim: "Simulator", spec: NodeSpec, node_id: int) -> None:
        if spec.kind is not NodeKind.BOOSTER:
            raise ConfigurationError(f"BoosterNode needs BOOSTER spec, got {spec.kind}")
        super().__init__(sim, spec, node_id, name=f"bn{node_id}")


class BoosterInterfaceNode(Node):
    """A Booster Interface (BI) node bridging InfiniBand and EXTOLL."""

    def __init__(self, sim: "Simulator", spec: NodeSpec, node_id: int) -> None:
        if spec.kind is not NodeKind.BOOSTER_INTERFACE:
            raise ConfigurationError(
                f"BoosterInterfaceNode needs BOOSTER_INTERFACE spec, got {spec.kind}"
            )
        super().__init__(sim, spec, node_id, name=f"bi{node_id}")


class Accelerator:
    """A PCIe-attached accelerator device (GPU or MIC in a host).

    Used only by the *accelerated cluster* baseline of slides 6/7: it
    cannot talk to the network directly — all its traffic is staged
    through its host over the shared PCIe bus.
    """

    def __init__(
        self, sim: "Simulator", spec: ProcessorSpec, acc_id: int, name: str = ""
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.acc_id = acc_id
        self.name = name or f"acc{acc_id}"
        self.processor = Processor(sim, spec, name=f"{self.name}.dev")
        #: Name of the host node (the host owns its devices, so a device
        #: keeps its host's name rather than the node).
        self.host_name: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Accelerator {self.name} on {self.host_name or '?'}>"
