"""Reverse offload and multi-rank-per-node placement.

Slide 7: "all nodes might act autonomously" — a Booster-native job can
spawn Cluster helpers (e.g. for an I/O or irregular section), the
mirror image of the usual Cluster->Booster spawn.
"""

import pytest

from repro.apps import stencil_graph
from repro.deep import (
    DeepSystem,
    MachineConfig,
    OFFLOAD_WORKER_COMMAND,
    offload_graph,
    offload_worker,
)
from repro.errors import SpawnError
from repro.mpi import SUM
from repro.units import mib


def test_booster_world_spawns_cluster_helpers():
    system = DeepSystem(MachineConfig(n_cluster=4, n_booster=4))
    out = {}

    def helper(proc):
        cw = proc.comm_world
        v = yield from cw.allreduce(1, SUM)
        out.setdefault("helper_endpoints", []).append(proc.endpoint)
        out["helper_sum"] = v
        if cw.rank == 0:
            val, st = yield from proc.parent_comm.recv(source=0)
            yield from proc.parent_comm.send(st.source, 8, val + 100)

    system.register_command("helper", helper)

    def booster_main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(
            cw, "helper", 3, info={"partition": "cluster"}
        )
        if cw.rank == 0:
            yield from inter.send(0, 64, value=5)
            v, _ = yield from inter.recv(source=0)
            out["reply"] = v
        yield from cw.barrier()

    system.launch_on_booster(booster_main)
    system.run()
    assert out["helper_sum"] == 3
    assert all(ep.startswith("cn") for ep in out["helper_endpoints"])
    assert out["reply"] == 105
    # Cluster nodes were claimed and released.
    assert system.cluster_partition.free_count == 4


def test_reverse_spawn_unknown_partition_rejected():
    system = DeepSystem(MachineConfig(n_cluster=2, n_booster=2))
    system.register_command("x", lambda p: None)

    def main(proc):
        yield from proc.spawn(
            proc.comm_world, "x", 1, info={"partition": "quantum"}
        )

    system.launch(main, n_ranks=1)
    with pytest.raises(SpawnError):
        system.run()


def test_offload_with_multiple_ranks_per_booster_node():
    """4 MPI ranks per KNC share the node's 60 cores through the
    node-level core resource (the rank-per-core placement mode)."""
    system = DeepSystem(
        MachineConfig(n_cluster=2, n_booster=2), procs_per_booster_node=4
    )
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)
    out = {}

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, OFFLOAD_WORKER_COMMAND, 8)
        if cw.rank == 0:
            # 15-core tasks: 4 ranks/node x 15 cores = exactly one KNC.
            g = stencil_graph(
                8, sweeps=2, slab_bytes=mib(2), flops_per_byte=500.0,
                n_cores_per_task=15,
            )
            result = yield from offload_graph(proc, inter, g, strategy="cyclic")
            out["result"] = result
        yield from cw.barrier()

    system.launch(main)
    system.run()
    assert out["result"].n_tasks == 16
    assert out["result"].n_ranks == 8
    # Only 2 physical nodes were used for the 8 ranks.
    assert system.booster_partition.size == 2
