"""E12 — Slides 25/30 + DESIGN.md §5: offload-invocation ablations.

Slide 25 lists what an offload must specify: which code, where, which
data to copy, how to transform its layout.  This bench quantifies each
knob on one fixed offload (stencil HSCP on 8 Booster nodes):

* partition strategy (block / cyclic / locality): cross-rank traffic
  and end-to-end time;
* the eager/rendezvous threshold of the MPI layer;
* the data-layout transformation cost (slide 25's last bullet);
* compute-to-transfer ratio: when offloading amortises.
"""

import pytest

from repro.analysis import Table
from repro.apps import stencil_graph
from repro.deep import (
    DeepSystem,
    MachineConfig,
    OFFLOAD_WORKER_COMMAND,
    offload_graph,
    offload_worker,
)
from repro.units import gbyte_per_s, mib

from benchmarks.conftest import export_run, observing, run_once


def run_offload(
    strategy="locality",
    eager_threshold=32 * 1024,
    transform_rate=None,
    intensity=100.0,
    tag="",
):
    system = DeepSystem(
        MachineConfig(n_cluster=2, n_booster=8, n_gateways=2),
        eager_threshold=eager_threshold,
        observe=observing(),
    )
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)
    out = {}

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, OFFLOAD_WORKER_COMMAND, 8)
        if cw.rank == 0:
            g = stencil_graph(
                8, sweeps=4, slab_bytes=mib(8), flops_per_byte=intensity
            )
            r = yield from offload_graph(
                proc, inter, g, strategy=strategy,
                transform_rate_bytes_per_s=transform_rate,
            )
            out["result"] = r
        yield from cw.barrier()

    system.launch(main)
    system.run()
    if tag:
        export_run(system, f"e12_{tag}")
    return out["result"]


def build():
    strategies = {
        s: run_offload(strategy=s, tag=f"strategy_{s}")
        for s in ("block", "cyclic", "locality")
    }
    thresholds = {
        t: run_offload(eager_threshold=t, tag=f"eager_{t}").elapsed_s
        for t in (1 << 10, 32 << 10, 1 << 20)
    }
    transform = {
        "off": run_offload(tag="transform_off").elapsed_s,
        "on": run_offload(
            transform_rate=gbyte_per_s(2.0), tag="transform_on"
        ).elapsed_s,
    }
    intensities = {
        i: run_offload(intensity=i, tag=f"intensity_{int(i)}").elapsed_s
        for i in (10.0, 100.0, 1000.0)
    }
    return strategies, thresholds, transform, intensities


def test_e12_offload_ablation(benchmark):
    strategies, thresholds, transform, intensities = run_once(benchmark, build)

    table = Table(
        ["strategy", "cross traffic [MiB]", "offload time [ms]"],
        title="E12a / slide 25 'where': partition strategy",
    )
    for s, r in strategies.items():
        table.add_row(s, r.cross_traffic_bytes / 2**20, r.elapsed_s * 1e3)
    table.print()

    t2 = Table(
        ["eager threshold [B]", "offload time [ms]"],
        title="E12b: MPI eager/rendezvous threshold",
    )
    for t, v in thresholds.items():
        t2.add_row(t, v * 1e3)
    t2.print()

    print(
        f"E12c / slide 25 'layout transform': off={transform['off']*1e3:.2f} ms, "
        f"on(2 GB/s)={transform['on']*1e3:.2f} ms"
    )
    t3 = Table(
        ["intensity [flop/B]", "offload time [ms]"],
        title="E12d: compute/transfer amortisation",
    )
    for i, v in intensities.items():
        t3.add_row(i, v * 1e3)
    t3.print()

    # --- shape assertions ---------------------------------------------
    # Locality-aware placement cuts cross-rank traffic vs block
    # (sweep-major program order) dramatically, and time with it.
    assert (
        strategies["locality"].cross_traffic_bytes
        < 0.5 * strategies["block"].cross_traffic_bytes
    )
    assert strategies["locality"].elapsed_s < strategies["block"].elapsed_s
    # Layout transformation adds a visible, bounded cost (the whole
    # in+out volume pushed through the 2 GB/s transform on the CN).
    assert transform["on"] > transform["off"]
    assert transform["on"] < 4.0 * transform["off"]
    # Higher intensity -> compute dominates; time grows with work, so
    # the *relative* offload overhead shrinks.
    overhead10 = intensities[10.0]
    overhead1000 = intensities[1000.0]
    assert overhead1000 > overhead10  # more work takes longer...
    # ...but time per unit work collapses (amortisation).
    assert overhead1000 / 1000.0 < overhead10 / 10.0
