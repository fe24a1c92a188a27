"""A finished simulation is freed by reference counting.

Owners hold their parts and parts hold their owners only weakly: the
simulator its trace recorder, a fabric its interfaces, an MPI world its
ranks, a rank its communicators.  So no reference cycle keeps a
finished simulation's links, resources, channels and queues alive
until a full collection.  The gate runs every sweep experiment with
the collector disabled and asks it how many objects it would free: the
answer must be 0.

A part used after its owner was freed raises
:class:`~repro.errors.OwnerFreedError` naming the owner, never an
``AttributeError`` on ``None`` or a silent answer.
"""

import gc
from collections import Counter

import pytest

from repro.errors import OwnerFreedError
from repro.mpi import MPIWorld
from repro.network import InfinibandFabric
from repro.network.message import Message
from repro.simkernel import Simulator
from repro.sweep.experiments import (
    effective_config,
    experiment_names,
    get_experiment,
)

#: Every sweep experiment at its defaults, and both fidelity tiers of
#: the two experiments that have them, whatever their defaults are.
CASES = [(name, {}) for name in experiment_names()] + [
    ("alltoall_bridge", {"fidelity": "analytic"}),
    ("collective_scale", {"fidelity": "analytic"}),
    ("collective_scale", {"fidelity": "exact", "ranks": 16}),
]


def _case_id(case) -> str:
    name, overrides = case
    return name + "".join(f"-{k}={v}" for k, v in overrides.items())


@pytest.mark.parametrize(
    "name, overrides", CASES, ids=[_case_id(c) for c in CASES]
)
def test_finished_experiment_leaves_no_cyclic_garbage(
    name, overrides, monkeypatch
):
    monkeypatch.delenv("REPRO_OBS_DIR", raising=False)  # untraced
    exp = get_experiment(name)
    config = effective_config(name, overrides)
    exp.fn(dict(config), 0)  # first-use imports and module-level caches
    gc.collect()
    gc.disable()
    try:
        exp.fn(dict(config), 0)
    finally:
        gc.enable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        unreachable = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert unreachable == 0, kinds.most_common(8)


# ---------------------------------------------------------------------------
# parts used after their owner was freed
# ---------------------------------------------------------------------------


def two_rank_world():
    sim = Simulator()
    ib = InfinibandFabric(sim, ["cn0", "cn1"])
    for ep in ("cn0", "cn1"):
        ib.attach_endpoint(ep)
    return sim, ib, MPIWorld(sim, [ib])


def ping(proc):
    comm = proc.comm_world
    if comm.rank == 0:
        yield from comm.send(1, 64)
    else:
        yield from comm.recv(0)


def test_rank_whose_world_was_dropped_names_the_world():
    sim, ib, world = two_rank_world()
    procs = world.create_world([("cn0", None), ("cn1", None)], ping)
    del world
    with pytest.raises(OwnerFreedError, match="MPI process 0 .* MPIWorld was freed"):
        procs[0].world
    # The send fails loudly instead of reaching a half-torn-down world.
    with pytest.raises(OwnerFreedError, match="MPIWorld was freed"):
        sim.run()


def test_communicator_whose_rank_was_dropped_names_the_rank():
    sim, ib, world = two_rank_world()
    comm = world.create_world([("cn0", None), ("cn1", None)], ping)[0].comm_world
    sim.run()
    del world
    assert (comm.rank, comm.size) == (0, 2)  # its own state stays readable
    with pytest.raises(OwnerFreedError, match="MPI process 0 was freed"):
        comm.proc
    with pytest.raises(OwnerFreedError, match="MPIWorld was freed"):
        comm.world
    with pytest.raises(OwnerFreedError, match="MPI process 0 was freed"):
        next(comm.send(1, 8))


def test_interface_whose_fabric_was_dropped_names_the_fabric():
    sim = Simulator()
    iface = InfinibandFabric(sim, ["cn0", "cn1"]).attach_endpoint("cn0")
    with pytest.raises(OwnerFreedError, match="fabric 'infiniband' was freed"):
        iface.fabric
    sim.process(iface.send(Message(src="cn0", dst="cn1", size_bytes=8)))
    with pytest.raises(OwnerFreedError, match="fabric 'infiniband' was freed"):
        sim.run()


def test_trace_recorder_whose_simulator_was_dropped_names_the_simulator():
    trace = Simulator(observe=True).trace
    with pytest.raises(OwnerFreedError, match="Simulator was freed"):
        trace.record("late")
    with pytest.raises(OwnerFreedError, match="Simulator was freed"):
        trace.span("late")
