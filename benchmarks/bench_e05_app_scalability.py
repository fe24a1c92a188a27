"""E5 — Slide 9: "Application's scalability".

"Only few applications [are] capable to scale to O(300k) cores —
sparse matrix-vector codes, highly regular communication patterns ...
Most applications are more complex."

This bench strong-scales both workload classes over booster-native MPI
worlds and reports the efficiency curves: the regular stencil keeps
high parallel efficiency, the irregular superstep code saturates early
(skewed loads + a sequential master + scattered communication).
"""

import pytest

from repro.analysis import Table, parallel_efficiency
from repro.apps import irregular_graph, stencil_graph
from repro.deep import DeepSystem, MachineConfig
from repro.deep.offload import execute_partition
from repro.ompss import partition_tasks

from benchmarks.conftest import export_run, observing, run_once

SCALES = [1, 2, 4, 8, 16, 32]
TOTAL_UNITS = 32  # fixed problem size across all scales


def run_kernel(graph_kind: str, n_ranks: int) -> float:
    system = DeepSystem(
        MachineConfig(n_cluster=1, n_booster=max(SCALES), n_gateways=1),
        observe=observing(),
    )
    if graph_kind == "stencil":
        graph = stencil_graph(
            TOTAL_UNITS, sweeps=4, slab_bytes=4 << 20, flops_per_byte=200.0
        )
        plan = partition_tasks(graph, n_ranks, "locality")
    else:
        graph = irregular_graph(
            TOTAL_UNITS, supersteps=4, mean_flops=1.5e9, seed=3
        )
        plan = partition_tasks(graph, n_ranks, "locality")
    times = []

    def main(proc):
        t0 = proc.sim.now
        yield from execute_partition(proc, plan)
        yield from proc.comm_world.barrier()
        times.append(proc.sim.now - t0)

    system.launch_on_booster(main, n_ranks=n_ranks)
    system.run()
    export_run(system, f"e05_{graph_kind}_{n_ranks}")
    return max(times)


def build():
    data = {}
    for kind in ("stencil", "irregular"):
        data[kind] = {p: run_kernel(kind, p) for p in SCALES}
    return data


def test_e05_application_scalability(benchmark):
    data = run_once(benchmark, build)

    table = Table(
        ["nodes", "stencil t [ms]", "stencil eff", "irregular t [ms]", "irregular eff"],
        title="E5 / slide 9: strong scaling of the two workload classes",
    )
    st1 = data["stencil"][1]
    ir1 = data["irregular"][1]
    for p in SCALES:
        table.add_row(
            p,
            data["stencil"][p] * 1e3,
            parallel_efficiency(st1, data["stencil"][p], p),
            data["irregular"][p] * 1e3,
            parallel_efficiency(ir1, data["irregular"][p], p),
        )
    table.print()

    # --- shape assertions ---------------------------------------------
    eff_st = parallel_efficiency(st1, data["stencil"][32], 32)
    eff_ir = parallel_efficiency(ir1, data["irregular"][32], 32)
    # The regular pattern scales far better at full machine size.
    assert eff_st > 2 * eff_ir
    assert eff_st > 0.5
    assert eff_ir < 0.45
    # Both still speed up at small scale.
    assert data["stencil"][4] < data["stencil"][1]
    assert data["irregular"][4] < data["irregular"][1]
    # Monotone non-increasing times for the regular code.
    st_times = [data["stencil"][p] for p in SCALES]
    assert all(a >= b * 0.98 for a, b in zip(st_times, st_times[1:]))
