"""The per-message and per-claim hot path leaves nothing to the cyclic GC.

Every simulated message and core claim allocates a few kernel objects.
When one of them sits in a reference cycle, only the cyclic garbage
collector can free it, and its collections then take a measurable share
of a simulation's host time.  This test runs a small exchange with the
collector disabled and asks the collector which objects it would free:
none of them may be an :class:`Event` (which covers processes and
resource requests), a :class:`Message` or a :class:`PacketHeader`.
"""

import gc

from repro.hardware import Processor
from repro.hardware.catalog import XEON_E5_2680
from repro.mpi import MPIWorld
from repro.mpi.pt2pt import PacketHeader
from repro.network import InfinibandFabric
from repro.network.message import Message
from repro.simkernel import Event, Simulator

EAGER_THRESHOLD = 4096


def exchange():
    """Two ranks swap an eager and a rendezvous message; meanwhile one
    kernel claims a whole 8-core chip.  Returns what the run built."""
    sim = Simulator(seed=1)
    endpoints = ["cn0", "cn1"]
    fabric = InfinibandFabric(sim, endpoints)
    for ep in endpoints:
        fabric.attach_endpoint(ep)
    world = MPIWorld(sim, [fabric], eager_threshold=EAGER_THRESHOLD)
    received = []

    def main(proc):
        comm = proc.comm_world
        peer = 1 - comm.rank
        for size in (EAGER_THRESHOLD // 2, 4 * EAGER_THRESHOLD):
            if comm.rank == 0:
                yield from comm.send(peer, size)
                received.append((yield from comm.recv(peer)))
            else:
                received.append((yield from comm.recv(peer)))
                yield from comm.send(peer, size)

    world.create_world([(ep, None) for ep in endpoints], main)
    chip = Processor(sim, XEON_E5_2680)
    wide = sim.process(chip.execute(flops=1e9, n_cores=0), name="wide")
    sim.run()
    assert len(received) == 4 and wide.ok
    return sim, world, chip


def test_exchange_and_wide_execute_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        alive = exchange()  # noqa: F841 - the run's own structures stay reachable
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted(
            type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, (Event, Message, PacketHeader))
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []
