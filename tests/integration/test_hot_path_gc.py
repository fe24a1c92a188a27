"""The per-message and per-claim hot path leaves nothing to the cyclic GC.

Every simulated message and core claim allocates a few kernel objects.
When one of them sits in a reference cycle, only the cyclic garbage
collector can free it, and its collections then take a measurable share
of a simulation's host time.  This test runs a small exchange with the
collector disabled and asks the collector which objects it would free:
none of them may be an :class:`Event` (which covers processes and
resource requests), a :class:`Message`, a :class:`PacketHeader`, a
:class:`TransferRecord` or a :class:`Status`.
"""

import gc

from repro.hardware import Processor
from repro.hardware.catalog import XEON_E5_2680
from repro.mpi import MPIWorld
from repro.mpi.pt2pt import PacketHeader
from repro.mpi.status import ANY_SOURCE, Status
from repro.network import (
    ClusterBoosterBridge,
    ExtollFabric,
    InfinibandFabric,
    SMFUGateway,
)
from repro.network.message import Message, TransferRecord
from repro.simkernel import Event, Simulator

EAGER_THRESHOLD = 4096
HOT_PATH_TYPES = (Event, Message, PacketHeader, TransferRecord, Status)


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


def bridged_exchange():
    """A Cluster rank sends an eager and a rendezvous message over the
    SMFU bridge to a Booster rank, which forwards one over the EXTOLL
    torus to a rank waiting in an ``ANY_SOURCE`` receive posted long
    before.  Returns what the run built."""
    sim = Simulator(seed=1)
    ib = InfinibandFabric(sim, ["cn0", "bi0"])
    ex = ExtollFabric(sim, ["bn0", "bn1", "bi0"])
    for fabric in (ib, ex):
        for ep in fabric.topo.endpoints:
            fabric.attach_endpoint(ep)
    bridge = ClusterBoosterBridge([SMFUGateway(sim, "bi0", ib, ex)])
    world = MPIWorld(sim, [ib, ex], bridge=bridge, eager_threshold=EAGER_THRESHOLD)
    received = []

    def main(proc):
        comm = proc.comm_world
        if comm.rank == 0:
            for size in (EAGER_THRESHOLD // 2, 4 * EAGER_THRESHOLD):
                yield from comm.send(1, size)
        elif comm.rank == 1:
            for _ in range(2):
                received.append((yield from comm.recv(0)))
            yield from comm.send(2, EAGER_THRESHOLD // 2)
        else:
            received.append((yield from comm.recv(ANY_SOURCE)))

    world.create_world([(ep, None) for ep in ("cn0", "bn0", "bn1")], main)
    sim.run()
    assert len(received) == 3 and received[-1][1].source == 1
    assert bridge.gateways[0].forwarded_messages == 4  # eager, RTS, CTS, data
    return sim, world, bridge


def cyclic_garbage(scenario):
    """Names of the hot-path objects *scenario* leaves to the cyclic GC."""
    gc.collect()
    gc.disable()
    try:
        alive = scenario()  # noqa: F841 - the run's own structures stay reachable
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted(
            type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, HOT_PATH_TYPES)
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_exchange_and_wide_execute_leave_no_cyclic_garbage():
    assert cyclic_garbage(exchange) == []


def test_bridged_torus_and_wildcard_receives_leave_no_cyclic_garbage():
    assert cyclic_garbage(bridged_exchange) == []
