"""Catalog of 2013-era hardware the paper references.

Numbers are taken from public spec sheets / the slide deck itself:

* Slide 15: Xeon Phi (KNC) "energy efficient: 5 GFlop/W", high memory
  bandwidth, can run an MPI library, attaches EXTOLL directly.
* Slide 5: BG/P -> BG/Q gave "factor 20 in compute speed at the same
  energy envelope ... in 4 years"; commodity CPUs gain only ~4-8x.
* Slide 12: the DEEP prototype combines a Xeon/InfiniBand cluster with
  a KNC/EXTOLL booster.

All specs are frozen dataclasses; build node specs with the ``*_node``
helpers.
"""

from __future__ import annotations

from repro.hardware.cores import CoreSpec
from repro.hardware.memory import MemorySpec
from repro.hardware.node import NodeKind, NodeSpec
from repro.hardware.pcie import PCIeGeneration, PCIeSpec
from repro.hardware.power import PowerModel
from repro.hardware.processor import ProcessorSpec
from repro.units import gbyte_per_s, gib

# ---------------------------------------------------------------------------
# Processors
# ---------------------------------------------------------------------------

#: Intel Xeon E5-2680 (Sandy Bridge-EP): 8 cores @ 2.7 GHz, AVX
#: (8 DP flop/cycle) -> 172.8 GF peak; ~51 GB/s per socket.
XEON_E5_2680 = ProcessorSpec(
    name="Xeon E5-2680",
    core=CoreSpec(clock_hz=2.7e9, flops_per_cycle=8.0, sustained_efficiency=0.90),
    n_cores=8,
    memory=MemorySpec(capacity_bytes=gib(32), bandwidth_bytes_per_s=gbyte_per_s(51.2)),
    tdp_watts=130.0,
    idle_watts=35.0,
)

#: A dual-socket E5-2680 cluster node, modelled as one 16-core chip.
XEON_E5_2680_DUAL = ProcessorSpec(
    name="2x Xeon E5-2680",
    core=CoreSpec(clock_hz=2.7e9, flops_per_cycle=8.0, sustained_efficiency=0.90),
    n_cores=16,
    memory=MemorySpec(capacity_bytes=gib(64), bandwidth_bytes_per_s=gbyte_per_s(102.4)),
    tdp_watts=260.0,
    idle_watts=70.0,
)

#: Intel Xeon Phi 5110P (Knights Corner): 60 cores @ 1.053 GHz, 512-bit
#: vectors (16 DP flop/cycle) -> 1.011 TF peak at 225 W ~ 4.5-5 GFlop/W
#: (slide 15's "5 GFlop/W"); GDDR5 ~ 320 GB/s peak, ~170 GB/s sustained.
#: Many-core in-order cores sustain a lower fraction of peak on general
#: code, captured by the lower efficiency.
XEON_PHI_KNC = ProcessorSpec(
    name="Xeon Phi 5110P (KNC)",
    core=CoreSpec(clock_hz=1.053e9, flops_per_cycle=16.0, sustained_efficiency=0.70),
    n_cores=60,
    memory=MemorySpec(capacity_bytes=gib(8), bandwidth_bytes_per_s=gbyte_per_s(170.0)),
    tdp_watts=225.0,
    idle_watts=95.0,
)

#: NVIDIA K20X-class GPU for the accelerated-cluster baseline, folded
#: into the core/cycle abstraction (13 "cores" = SMX units).
GPU_K20X = ProcessorSpec(
    name="K20X-class GPU",
    core=CoreSpec(clock_hz=0.732e9, flops_per_cycle=138.0, sustained_efficiency=0.60),
    n_cores=13,
    memory=MemorySpec(capacity_bytes=gib(6), bandwidth_bytes_per_s=gbyte_per_s(180.0)),
    tdp_watts=235.0,
    idle_watts=40.0,
)

#: IBM BG/Q chip: 16 cores @ 1.6 GHz, 8 DP flop/cycle -> 204.8 GF at ~55 W.
BGQ_CHIP = ProcessorSpec(
    name="BG/Q A2",
    core=CoreSpec(clock_hz=1.6e9, flops_per_cycle=8.0, sustained_efficiency=0.82),
    n_cores=16,
    memory=MemorySpec(capacity_bytes=gib(16), bandwidth_bytes_per_s=gbyte_per_s(42.6)),
    tdp_watts=55.0,
    idle_watts=20.0,
)

#: IBM BG/P chip (for the slide-5 generational comparison): 4 cores
#: @ 850 MHz, 4 flop/cycle -> 13.6 GF at ~16 W.
BGP_CHIP = ProcessorSpec(
    name="BG/P PPC450",
    core=CoreSpec(clock_hz=0.85e9, flops_per_cycle=4.0, sustained_efficiency=0.82),
    n_cores=4,
    memory=MemorySpec(capacity_bytes=gib(2), bandwidth_bytes_per_s=gbyte_per_s(13.6)),
    tdp_watts=16.0,
    idle_watts=6.0,
)

#: The BI card's modest control processor.
BI_PROCESSOR = ProcessorSpec(
    name="BI control CPU",
    core=CoreSpec(clock_hz=2.0e9, flops_per_cycle=4.0, sustained_efficiency=0.85),
    n_cores=4,
    memory=MemorySpec(capacity_bytes=gib(8), bandwidth_bytes_per_s=gbyte_per_s(25.6)),
    tdp_watts=45.0,
    idle_watts=15.0,
)

# ---------------------------------------------------------------------------
# Node builders
# ---------------------------------------------------------------------------


def cluster_node_spec(
    processor: ProcessorSpec = XEON_E5_2680_DUAL,
    pcie: PCIeSpec | None = PCIeSpec(PCIeGeneration.GEN2, 16),
    overhead_watts: float = 60.0,
) -> NodeSpec:
    """A DEEP Cluster Node: dual Xeon + IB HCA (+ optional PCIe slot)."""
    return NodeSpec(
        kind=NodeKind.CLUSTER,
        processor=processor,
        power=PowerModel(
            idle_watts=processor.idle_watts,
            busy_watts=processor.tdp_watts,
            overhead_watts=overhead_watts,
        ),
        pcie=pcie,
    )


def booster_node_spec(
    processor: ProcessorSpec = XEON_PHI_KNC, overhead_watts: float = 30.0
) -> NodeSpec:
    """A DEEP Booster Node: autonomous KNC directly on EXTOLL."""
    return NodeSpec(
        kind=NodeKind.BOOSTER,
        processor=processor,
        power=PowerModel(
            idle_watts=processor.idle_watts,
            busy_watts=processor.tdp_watts,
            overhead_watts=overhead_watts,
        ),
        pcie=None,
    )


def booster_interface_spec(overhead_watts: float = 25.0) -> NodeSpec:
    """A Booster Interface node carrying the SMFU bridge."""
    return NodeSpec(
        kind=NodeKind.BOOSTER_INTERFACE,
        processor=BI_PROCESSOR,
        power=PowerModel(
            idle_watts=BI_PROCESSOR.idle_watts,
            busy_watts=BI_PROCESSOR.tdp_watts,
            overhead_watts=overhead_watts,
        ),
        pcie=None,
    )
