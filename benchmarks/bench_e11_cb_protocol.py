"""E11 — Slides 16/24/29: the Cluster-Booster protocol over SMFU.

Measures what the bridge costs and how it scales:

* per-message bridging overhead: bridged latency vs the two direct
  fabrics (bounded, a few microseconds);
* aggregate cluster->booster throughput versus the number of BI
  gateway nodes (the machine-sizing knob);
* static vs dynamic gateway selection under skewed traffic (the
  DESIGN.md §5 ablation).
"""

import pytest

from repro.analysis import Table, format_series
from repro.deep import DeepSystem, MachineConfig

from benchmarks.conftest import export_run, observing, run_once

GATEWAYS = [1, 2, 4]


def bridged_latency(system):
    """One 8-byte message CN -> BN, end to end."""
    bridge = system.machine.bridge
    sim = system.sim
    done = {}

    def p(sim):
        t0 = sim.now
        yield from bridge.transfer("cn0", "bn0", 8)
        done["t"] = sim.now - t0

    sim.process(p(sim))
    sim.run()
    return done["t"]


def aggregate_throughput(n_gateways: int, selection: str = "static"):
    """All CNs blast bulk data at distinct BNs; aggregate rate."""
    system = DeepSystem(
        MachineConfig(
            n_cluster=8, n_booster=16, n_gateways=n_gateways,
            gateway_selection=selection,
        ),
        observe=observing(),
    )
    bridge = system.machine.bridge
    sim = system.sim
    size = 32 << 20

    def sender(sim, i):
        yield from bridge.transfer(f"cn{i}", f"bn{i}", size)

    for i in range(8):
        sim.process(sender(sim, i))
    sim.run()
    export_run(system, f"e11_throughput_{selection}_{n_gateways}gw")
    return 8 * size / sim.now


def build():
    lat_system = DeepSystem(
        MachineConfig(n_cluster=4, n_booster=8, n_gateways=1),
        observe=observing(),
    )
    lat = bridged_latency(lat_system)
    export_run(lat_system, "e11_bridged_latency")
    ib_lat = lat_system.machine.ib_fabric.ideal_transfer_time("cn0", "cn1", 8)
    ex_lat = lat_system.machine.extoll_fabric.ideal_transfer_time("bn0", "bn1", 8)

    throughput = {g: aggregate_throughput(g) for g in GATEWAYS}
    selection = {
        sel: aggregate_throughput(2, sel) for sel in ("static", "dynamic")
    }
    return {
        "bridged_latency": lat,
        "ib_latency": ib_lat,
        "extoll_latency": ex_lat,
        "throughput": throughput,
        "selection": selection,
    }


def test_e11_cluster_booster_protocol(benchmark):
    d = run_once(benchmark, build)

    table = Table(
        ["path", "8-byte latency [us]"],
        title="E11 / slide 29: Cluster-Booster protocol latency",
    )
    table.add_row("IB direct (CN->CN)", d["ib_latency"] * 1e6)
    table.add_row("EXTOLL direct (BN->BN)", d["extoll_latency"] * 1e6)
    table.add_row("bridged via SMFU (CN->BN)", d["bridged_latency"] * 1e6)
    table.print()

    print(
        format_series(
            "aggregate CN->BN throughput [GB/s] vs #gateways",
            GATEWAYS,
            [d["throughput"][g] / 1e9 for g in GATEWAYS],
        )
    )
    print(
        f"gateway selection @2 gateways: "
        f"static={d['selection']['static']/1e9:.2f} GB/s, "
        f"dynamic={d['selection']['dynamic']/1e9:.2f} GB/s"
    )

    # --- shape assertions ---------------------------------------------
    # Bridging costs more than either fabric alone...
    assert d["bridged_latency"] > d["ib_latency"]
    assert d["bridged_latency"] > d["extoll_latency"]
    # ...but the overhead is bounded (a few microseconds, not an RPC).
    assert d["bridged_latency"] < 12e-6
    # Throughput scales with BI count until another stage saturates.
    assert d["throughput"][2] > 1.6 * d["throughput"][1]
    assert d["throughput"][4] > d["throughput"][2]
    # Dynamic (least-loaded) selection never loses to a static table.
    assert d["selection"]["dynamic"] >= 0.95 * d["selection"]["static"]
