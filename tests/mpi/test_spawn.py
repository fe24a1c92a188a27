"""``MPI_Comm_spawn`` and Global-MPI semantics (slides 26/27)."""

import pytest

from repro.errors import SpawnError
from repro.mpi import SUM
from repro.mpi.spawn import StaticPool

from tests.mpi.conftest import BridgedHarness


def test_spawn_creates_child_world_and_intercomm():
    h = BridgedHarness(n_cn=4, n_bn=8)
    out = {"child_worlds": []}

    def child(proc):
        cw = proc.comm_world
        v = yield from cw.allreduce(cw.rank, SUM)
        out["child_worlds"].append((cw.rank, cw.size, v))
        assert proc.parent_comm is not None
        assert proc.parent_comm.remote_size == 4

    h.world.register_command("child", child)

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, "child", 6)
        out.setdefault("inter_sizes", []).append(
            (inter.size, inter.remote_size)
        )
        yield from cw.barrier()

    h.run(main)
    assert out["inter_sizes"] == [(4, 6)] * 4
    assert len(out["child_worlds"]) == 6
    assert all(size == 6 and v == 15 for _, size, v in out["child_worlds"])


def test_child_world_disjoint_from_parent():
    """Slide 26: children get their own MPI_COMM_WORLD."""
    h = BridgedHarness()
    ctxs = {}

    def child(proc):
        ctxs["child"] = proc.comm_world.context_id
        yield from proc.comm_world.barrier()

    h.world.register_command("child", child)

    def main(proc):
        cw = proc.comm_world
        ctxs["parent"] = cw.context_id
        inter = yield from proc.spawn(cw, "child", 2)
        ctxs["inter"] = inter.context_id
        yield from cw.barrier()

    h.run(main)
    assert len({ctxs["child"], ctxs["parent"], ctxs["inter"]}) == 3


def test_parent_child_pt2pt_both_directions():
    h = BridgedHarness()
    out = {}

    def child(proc):
        v, st = yield from proc.parent_comm.recv(source=0)
        out["child_got"] = (v, st.source)
        yield from proc.parent_comm.send(0, 64, value=v * 2)

    h.world.register_command("child", child)

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, "child", 1)
        if cw.rank == 0:
            yield from inter.send(0, 64, value=21)
            v, _ = yield from inter.recv(source=0)
            out["parent_got"] = v
        yield from cw.barrier()

    h.run(main)
    assert out["child_got"] == (21, 0)
    assert out["parent_got"] == 42


def test_spawn_unknown_command_raises():
    h = BridgedHarness()

    def main(proc):
        yield from proc.spawn(proc.comm_world, "missing", 2)

    with pytest.raises(SpawnError):
        h.run(main)


def test_spawn_exceeding_pool_raises():
    h = BridgedHarness(n_bn=4)
    h.world.register_command("child", lambda proc: None)

    def main(proc):
        yield from proc.spawn(proc.comm_world, "child", 100)

    with pytest.raises(SpawnError):
        h.run(main)


def test_spawn_cost_grows_logarithmically():
    """Slide-21 startup: tree launch => cost ~ a + b log2(n) (E9 shape)."""

    def spawn_time(n_children):
        h = BridgedHarness(n_cn=2, n_bn=64)
        times = {}

        def child(proc):
            yield from proc.comm_world.barrier()

        h.world.register_command("child", child)

        def main(proc):
            cw = proc.comm_world
            t0 = proc.sim.now
            yield from proc.spawn(cw, "child", n_children)
            times[cw.rank] = proc.sim.now - t0
            yield from cw.barrier()

        h.run(main)
        return max(times.values())

    t2, t16, t64 = spawn_time(2), spawn_time(16), spawn_time(64)
    assert t2 < t16 < t64
    # Log growth: 64 children cost far less than 32x the 2-child cost.
    assert t64 < 4 * t2


def test_nodes_released_after_children_exit():
    h = BridgedHarness(n_bn=4)
    h.world.register_command("child", lambda proc: None)
    pool: StaticPool = h.world.spawn_backend

    def main(proc):
        cw = proc.comm_world
        for _ in range(3):  # would exhaust a 4-node pool without release
            inter = yield from proc.spawn(cw, "child", 3)
            yield from cw.barrier()

    h.run(main)
    assert len(pool.free) == 4


def test_sequential_spawns_give_distinct_worlds():
    h = BridgedHarness(n_bn=8)
    seen = []

    def child(proc):
        seen.append(proc.comm_world.context_id)
        yield from proc.comm_world.barrier()

    h.world.register_command("child", child)

    def main(proc):
        cw = proc.comm_world
        yield from proc.spawn(cw, "child", 2)
        yield from cw.barrier()
        yield from proc.spawn(cw, "child", 2)
        yield from cw.barrier()

    h.run(main)
    assert len(seen) == 4
    assert len(set(seen)) == 2


def test_intercomm_merge():
    h = BridgedHarness(n_cn=2, n_bn=4)
    out = {}

    def child(proc):
        merged = yield from proc.parent_comm.merge(high=True)
        v = yield from merged.allreduce(1, SUM)
        out.setdefault("sizes", []).append(merged.size)
        out["sum"] = v

    h.world.register_command("child", child)

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, "child", 3)
        merged = yield from inter.merge(high=False)
        v = yield from merged.allreduce(1, SUM)
        out.setdefault("parent_sum", v)
        yield from cw.barrier()

    h.run(main)
    assert out["sum"] == 5  # 2 parents + 3 children
    assert out["parent_sum"] == 5
