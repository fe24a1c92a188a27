"""MPI world and transport edge cases."""

import pytest

from repro.errors import CommunicatorError, MPIError, RoutingError
from repro.mpi import MPIWorld
from repro.mpi.world import Transport
from repro.network import InfinibandFabric, Message
from repro.simkernel import Simulator

from tests.mpi.conftest import BridgedHarness, WorldHarness


def test_transport_needs_fabric():
    with pytest.raises(CommunicatorError):
        Transport([])


def test_transport_unknown_endpoint():
    sim = Simulator()
    ib = InfinibandFabric(sim, ["a", "b"])
    ib.attach_endpoint("a")
    ib.attach_endpoint("b")
    t = Transport([ib])
    with pytest.raises(RoutingError):
        t.interface_of("ghost")

    def p(sim):
        yield from t.send_message(Message(src="ghost", dst="a", size_bytes=8))

    sim.process(p(sim))
    with pytest.raises(RoutingError):
        sim.run()


def test_cross_fabric_without_bridge_rejected():
    h = BridgedHarness()
    h.world.transport.bridge = None

    def child(proc):
        yield from proc.comm_world.barrier()

    h.world.register_command("child", child)

    def main(proc):
        yield from proc.spawn(proc.comm_world, "child", 2)

    with pytest.raises(RoutingError):
        h.run(main)


def test_world_unknown_gpid():
    h = WorldHarness(2)
    with pytest.raises(MPIError):
        h.world.endpoint_of(999)
    with pytest.raises(MPIError):
        h.world.process_of(999)


def test_agree_context_stable_per_key():
    h = WorldHarness(2)
    a = h.world.agree_context(("k", 1))
    b = h.world.agree_context(("k", 1))
    c = h.world.agree_context(("k", 2))
    assert a == b != c


def test_request_result_before_completion():
    h = WorldHarness(2)
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            req = cw.irecv(1)
            with pytest.raises(MPIError):
                req.result()
            value, _ = yield from req.wait()
            out["v"] = req.result()[0]
        else:
            yield from cw.send(0, 8, value=5)

    h.run(main)
    assert out["v"] == 5


def test_compute_without_node_rejected():
    h = WorldHarness(2)

    def main(proc):
        yield from proc.compute(1e9)

    with pytest.raises(MPIError):
        h.run(main)


def test_interface_byte_counters():
    h = WorldHarness(2)

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            yield from cw.send(1, 1000)
        else:
            yield from cw.recv(0)

    h.run(main)
    iface0 = h.fabric.interface("cn0")
    iface1 = h.fabric.interface("cn1")
    assert iface0.bytes_sent >= 1000
    assert iface1.bytes_received >= 1000


def test_intercomm_local_comm():
    h = BridgedHarness(n_cn=3)
    out = {}

    def child(proc):
        local = yield from proc.parent_comm.local_comm()
        from repro.mpi import SUM

        v = yield from local.allreduce(1, SUM)
        out.setdefault("child_sums", []).append(v)

    h.world.register_command("child", child)

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, "child", 2)
        yield from cw.barrier()

    h.run(main)
    assert out["child_sums"] == [2, 2]
