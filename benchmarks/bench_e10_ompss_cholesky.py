"""E10 — Slide 23: OmpSs tiled Cholesky.

"Decouple how we write (think sequential) from how it is executed":
the sequential tile loop with in/out/inout pragmas yields a dependency
graph whose dataflow execution fills a many-core chip.  The bench
reports:

* the task census (counts per kernel, edges, width, parallelism);
* dataflow speedup versus core count on one KNC;
* the ablation from DESIGN.md §5: critical-path-first list scheduling
  versus plain FIFO on a constrained core count;
* dataflow versus bulk-synchronous (per-panel barrier) execution —
  the win the pragma model buys.
"""

import pytest

from repro.analysis import Table, parallel_efficiency
from repro.apps import cholesky_graph, cholesky_task_counts
from repro.hardware import Processor
from repro.hardware.catalog import XEON_PHI_KNC
from repro.ompss import DataflowScheduler
from repro.simkernel import Simulator

from benchmarks.conftest import export_sim, observing, run_once

NT = 10
TILE = 256
CORES = [1, 2, 4, 8, 16, 30, 60]


def run_dataflow(n_cores: int, policy: str = "critical-path"):
    import dataclasses

    sim = Simulator(observe=observing())
    spec = dataclasses.replace(XEON_PHI_KNC, n_cores=n_cores)
    proc = Processor(sim, spec)
    graph = cholesky_graph(NT, tile_size=TILE)

    def p(sim):
        result = yield from DataflowScheduler(policy).run(sim, graph, proc)
        return result

    driver = sim.process(p(sim))
    sim.run()
    export_sim(sim, f"e10_dataflow_{policy.replace('-', '_')}_{n_cores}c")
    return driver.value


def run_bulk_synchronous(n_cores: int):
    """Per-panel barriers: the pre-OmpSs fork-join execution."""
    import dataclasses

    sim = Simulator()
    spec = dataclasses.replace(XEON_PHI_KNC, n_cores=n_cores)
    proc = Processor(sim, spec)
    graph = cholesky_graph(NT, tile_size=TILE)
    # Group tasks by panel k and barrier between panels AND between
    # kernel types inside a panel (potrf | trsms | updates).
    phases: dict[tuple, list] = {}
    for t in graph.tasks:
        kind = t.name.split("(")[0]
        k = int(t.name.split("(")[1].split(",")[0])
        order = {"potrf": 0, "trsm": 1, "gemm": 2, "syrk": 2}[kind]
        phases.setdefault((k, order), []).append(t)

    def p(sim):
        for key in sorted(phases):
            tasks = phases[key]
            drivers = [
                sim.process(proc.execute(t.flops, t.traffic_bytes, t.n_cores))
                for t in tasks
            ]
            yield sim.all_of(drivers)
        return sim.now

    driver = sim.process(p(sim))
    sim.run()
    return driver.value


def build():
    scaling = {c: run_dataflow(c) for c in CORES}
    policy = {
        "critical-path": run_dataflow(16, "critical-path"),
        "fifo": run_dataflow(16, "fifo"),
    }
    bulk = run_bulk_synchronous(16)
    graph = cholesky_graph(NT, tile_size=TILE)
    stats = {
        "counts": cholesky_task_counts(NT),
        "edges": graph.edge_count(),
        "width": graph.max_width(),
        "parallelism": graph.average_parallelism(
            lambda t: t.duration_on(XEON_PHI_KNC)
        ),
    }
    return scaling, policy, bulk, stats


def test_e10_ompss_cholesky(benchmark):
    scaling, policy, bulk_time, stats = run_once(benchmark, build)

    counts = stats["counts"]
    print(
        f"\ntask census (NT={NT}): potrf={counts['potrf']} trsm={counts['trsm']} "
        f"gemm={counts['gemm']} syrk={counts['syrk']} total={counts['total']}; "
        f"edges={stats['edges']} width={stats['width']} "
        f"avg parallelism={stats['parallelism']:.1f}"
    )

    table = Table(
        ["cores", "makespan [ms]", "speedup", "efficiency", "core util"],
        title="E10 / slide 23: dataflow Cholesky on one KNC",
    )
    t1 = scaling[1].makespan_s
    for c in CORES:
        r = scaling[c]
        table.add_row(
            c, r.makespan_s * 1e3, t1 / r.makespan_s,
            parallel_efficiency(t1, r.makespan_s, c), r.core_utilization,
        )
    table.print()

    cp, fifo = policy["critical-path"], policy["fifo"]
    print(
        f"policy ablation @16 cores: critical-path={cp.makespan_s*1e3:.2f} ms, "
        f"fifo={fifo.makespan_s*1e3:.2f} ms"
    )
    print(
        f"execution-model ablation @16 cores: dataflow={cp.makespan_s*1e3:.2f} ms, "
        f"bulk-synchronous={bulk_time*1e3:.2f} ms"
    )

    # --- shape assertions ---------------------------------------------
    assert counts["total"] == len(cholesky_graph(NT).tasks)
    # Good scaling while cores < graph parallelism, saturation beyond.
    assert t1 / scaling[8].makespan_s > 6.0
    sp60 = t1 / scaling[60].makespan_s
    assert sp60 < stats["parallelism"] * 1.05  # bounded by work/span
    assert sp60 > 0.5 * stats["parallelism"]   # and approaches it
    # Critical-path-first is never worse than FIFO here.
    assert cp.makespan_s <= fifo.makespan_s * 1.001
    # Dataflow beats bulk-synchronous execution (the OmpSs win).
    assert cp.makespan_s < bulk_time
