"""System-wide tracing: the trace recorder sees all layers."""

import pytest

from repro.apps import stencil_graph
from repro.deep import (
    DeepSystem,
    MachineConfig,
    OFFLOAD_WORKER_COMMAND,
    offload_graph,
    offload_worker,
)
from repro.units import mib


def run_traced():
    system = DeepSystem(MachineConfig(n_cluster=2, n_booster=4), observe=True)
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, OFFLOAD_WORKER_COMMAND, 4)
        if cw.rank == 0:
            g = stencil_graph(4, sweeps=2, slab_bytes=mib(1))
            yield from offload_graph(proc, inter, g)
        yield from cw.barrier()

    system.launch(main)
    system.run()
    return system


def test_trace_captures_all_layers():
    system = run_traced()
    trace = system.sim.trace
    sends = list(trace.select("mpi.send"))
    transfers = list(trace.select("net.transfer"))
    assert len(sends) > 5
    assert len(transfers) > 5
    # Traffic on both fabrics appears.
    fabrics = {ev["fabric"] for ev in transfers}
    assert {"infiniband", "extoll"} <= fabrics
    # Events are time-ordered as recorded.
    times = [ev.time for ev in trace.events]
    assert times == sorted(times)


def test_tracing_off_by_default():
    system = DeepSystem(MachineConfig(n_cluster=2, n_booster=4))
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)

    def main(proc):
        yield from proc.comm_world.barrier()

    system.launch(main)
    system.run()
    assert len(system.sim.trace) == 0


def test_ompss_task_trace():
    import dataclasses

    from repro.hardware import Processor
    from repro.hardware.catalog import XEON_PHI_KNC
    from repro.ompss import DataflowScheduler
    from repro.apps import cholesky_graph
    from repro.simkernel import Simulator

    sim = Simulator(observe=True)
    proc = Processor(sim, dataclasses.replace(XEON_PHI_KNC, n_cores=8))
    graph = cholesky_graph(4)

    def p(sim):
        result = yield from DataflowScheduler().run(sim, graph, proc)
        return result

    sim.process(p(sim))
    sim.run()
    events = list(sim.trace.select("ompss.task"))
    assert len(events) == len(graph.tasks)
    assert all(ev["end"] >= ev["start"] for ev in events)
