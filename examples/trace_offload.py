#!/usr/bin/env python3
"""Record a Chrome/Perfetto trace of a Cholesky Booster offload.

Runs slide 23's tiled Cholesky offloaded to 8 KNC Booster nodes with
full observability on — nested spans from the kernel, both fabrics,
the SMFU gateways, MPI and the OmpSs workers — and writes the
whole-simulation Chrome trace plus a metrics dump.

Run:  python examples/trace_offload.py [trace.json [metrics.json]]

Open the trace at https://ui.perfetto.dev or chrome://tracing.
"""

import sys

from repro import DeepSystem, MachineConfig
from repro.apps import cholesky_graph
from repro.deep import OFFLOAD_WORKER_COMMAND, offload_graph, offload_worker
from repro.units import format_time

NT = 8
TILE = 256


def main() -> None:
    trace_path = sys.argv[1] if len(sys.argv) > 1 else "trace_offload.json"
    metrics_path = (
        sys.argv[2] if len(sys.argv) > 2 else "trace_offload_metrics.json"
    )

    system = DeepSystem(
        MachineConfig(n_cluster=2, n_booster=8, n_gateways=2), observe=True
    )
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)
    out = {}

    def app(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, OFFLOAD_WORKER_COMMAND, 8)
        if cw.rank == 0:
            graph = cholesky_graph(NT, tile_size=TILE)
            out["result"] = yield from offload_graph(
                proc, inter, graph, strategy="cyclic"
            )
        yield from cw.barrier()

    system.launch(app)
    system.run()

    r = out["result"]
    tr = system.sim.trace
    categories = sorted({sp.category for sp in tr.spans})
    print(f"offloaded {r.n_tasks} tasks in {format_time(r.elapsed_s)}")
    print(f"recorded {len(tr.spans)} spans across {categories}")
    system.write_trace(trace_path)
    system.write_metrics(metrics_path)
    print(f"wrote Chrome trace to {trace_path} "
          f"(open at https://ui.perfetto.dev)")
    print(f"wrote metrics dump to {metrics_path}")
    print()
    print(system.contention_report())


if __name__ == "__main__":
    main()
