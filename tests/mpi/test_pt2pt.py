"""Point-to-point semantics: eager, rendezvous, matching, ordering."""

import gc
import weakref

import pytest

from repro.errors import DeadlockError, MPIError
from repro.mpi import ANY_SOURCE, ANY_TAG, Communicator, MPIProcess
from repro.mpi.request import wait_all, wait_any

from tests.mpi.conftest import WorldHarness


def test_eager_send_recv_value_and_status(world4):
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            yield from cw.send(1, 128, value={"k": 1}, tag=5)
        elif cw.rank == 1:
            value, st = yield from cw.recv(0, tag=5)
            out["value"] = value
            out["status"] = st

    world4.run(main)
    assert out["value"] == {"k": 1}
    assert out["status"].source == 0
    assert out["status"].tag == 5
    assert out["status"].count_bytes == 128


def test_rendezvous_large_message(world4):
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            t0 = proc.sim.now
            yield from cw.send(1, 10 << 20, value="bulk")
            out["send_done"] = proc.sim.now - t0
        elif cw.rank == 1:
            yield from proc.elapse(0.01)  # receiver late: RTS must wait
            value, st = yield from cw.recv(0)
            out["value"] = value

    world4.run(main)
    assert out["value"] == "bulk"
    # Sender completion includes waiting for the late receiver's CTS.
    assert out["send_done"] > 0.01


def test_eager_send_completes_before_recv_posted(world4):
    """Eager messages buffer at the receiver (slide-independent MPI law)."""
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            yield from cw.send(1, 64, value="early")
            out["send_done_at"] = proc.sim.now
        elif cw.rank == 1:
            yield from proc.elapse(1.0)
            value, _ = yield from cw.recv(0)
            out["recv_at"] = proc.sim.now

    world4.run(main)
    assert out["send_done_at"] < 0.001
    assert out["recv_at"] >= 1.0


def test_message_ordering_same_pair(world4):
    """Non-overtaking: same (src, dst, tag) arrives in order."""
    out = []

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            for i in range(5):
                yield from cw.send(1, 32, value=i, tag=9)
        elif cw.rank == 1:
            for _ in range(5):
                v, _ = yield from cw.recv(0, tag=9)
                out.append(v)

    world4.run(main)
    assert out == [0, 1, 2, 3, 4]


def test_any_source_any_tag(world4):
    got = []

    def main(proc):
        cw = proc.comm_world
        if cw.rank in (1, 2, 3):
            yield from proc.elapse(0.001 * cw.rank)
            yield from cw.send(0, 16, value=cw.rank, tag=cw.rank)
        else:
            for _ in range(3):
                v, st = yield from cw.recv(ANY_SOURCE, ANY_TAG)
                got.append((v, st.source, st.tag))

    world4.run(main)
    assert sorted(got) == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]


def test_tag_selectivity(world4):
    out = []

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            yield from cw.send(1, 16, value="first", tag=1)
            yield from cw.send(1, 16, value="second", tag=2)
        elif cw.rank == 1:
            v2, _ = yield from cw.recv(0, tag=2)
            v1, _ = yield from cw.recv(0, tag=1)
            out.extend([v2, v1])

    world4.run(main)
    assert out == ["second", "first"]


def test_isend_irecv_wait(world4):
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            reqs = [cw.isend(1, 64, value=i, tag=i) for i in range(3)]
            yield from wait_all(proc.sim, reqs)
        elif cw.rank == 1:
            reqs = [cw.irecv(0, tag=i) for i in range(3)]
            results = yield from wait_all(proc.sim, reqs)
            out["values"] = [v for v, _ in results]

    world4.run(main)
    assert out["values"] == [0, 1, 2]


def test_wait_any_returns_first(world4):
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 2:
            yield from proc.elapse(0.5)
            yield from cw.send(0, 16, value="late", tag=1)
        elif cw.rank == 3:
            yield from cw.send(0, 16, value="fast", tag=2)
        elif cw.rank == 0:
            reqs = [cw.irecv(2, tag=1), cw.irecv(3, tag=2)]
            idx, (value, _) = yield from wait_any(proc.sim, reqs)
            out["first"] = (idx, value)
            yield from reqs[0].wait()

    world4.run(main)
    assert out["first"] == (1, "fast")


def test_sendrecv_exchange(world4):
    out = {}

    def main(proc):
        cw = proc.comm_world
        partner = cw.rank ^ 1
        value, _ = yield from cw.sendrecv(
            partner, 64, send_value=f"from{cw.rank}", source=partner
        )
        out[cw.rank] = value

    world4.run(main)
    assert out[0] == "from1" and out[1] == "from0"
    assert out[2] == "from3" and out[3] == "from2"


def test_probe_nonblocking(world4):
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            out["before"] = cw.probe(1)
            yield from proc.elapse(0.01)
            out["after"] = cw.probe(1)
            yield from cw.recv(1)
        elif cw.rank == 1:
            yield from cw.send(0, 256, value="x")

    world4.run(main)
    assert out["before"] is None
    assert out["after"] is not None
    assert out["after"].count_bytes == 256


def test_negative_size_rejected(world4):
    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            yield from cw.send(1, -5)

    with pytest.raises(MPIError):
        world4.run(main)


def test_mutual_rendezvous_sends_deadlock(world4):
    """Two blocking large sends to each other deadlock, like real MPI."""

    def main(proc):
        cw = proc.comm_world
        if cw.rank in (0, 1):
            yield from cw.send(cw.rank ^ 1, 10 << 20)
            yield from cw.recv(cw.rank ^ 1)

    with pytest.raises(DeadlockError):
        world4.run(main)


def test_mutual_eager_sends_fine(world4):
    done = []

    def main(proc):
        cw = proc.comm_world
        if cw.rank in (0, 1):
            yield from cw.send(cw.rank ^ 1, 1024)
            yield from cw.recv(cw.rank ^ 1)
            done.append(cw.rank)

    world4.run(main)
    assert sorted(done) == [0, 1]


def test_self_send(world4):
    """Rank sends to itself (loopback path)."""
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            req = cw.isend(0, 64, value="self")
            v, _ = yield from cw.recv(0)
            yield from req.wait()
            out["v"] = v

    world4.run(main)
    assert out["v"] == "self"


def test_eager_threshold_boundary():
    """Messages exactly at the threshold go eager; one byte more goes
    rendezvous (observable through sender completion semantics)."""
    h = WorldHarness(2, eager_threshold=1000)
    out = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            t0 = proc.sim.now
            yield from cw.send(1, 1000, value="eager")
            out["eager_done"] = proc.sim.now - t0
            t0 = proc.sim.now
            yield from cw.send(1, 1001, value="rndv")
            out["rndv_done"] = proc.sim.now - t0
        else:
            yield from proc.elapse(0.5)
            yield from cw.recv(0)
            yield from proc.elapse(0.5)
            yield from cw.recv(0)

    h.run(main)
    assert out["eager_done"] < 0.1  # completed before receiver woke
    assert out["rndv_done"] > 0.4  # waited for the CTS


def test_named_receives_wait_on_their_packet_key():
    """A receive that names its source and tag parks on the packet_key
    of the envelope it names; only a wildcard receive parks a predicate."""
    h = WorldHarness(2)
    parked = {}

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 1:
            exact = cw.irecv(0, tag=3)
            wild = cw.irecv(ANY_SOURCE, tag=4)
            yield from proc.elapse(0.5)
            parked["keys"] = list(proc._inbox._keyed_getters)
            parked["predicates"] = len(proc._inbox._matched_getters)
            parked["want"] = ("env", proc.gpid, cw.context_id, cw.remote_gpid(0), 3)
            yield from exact.wait()
            yield from wild.wait()
        else:
            yield from proc.elapse(1.0)
            yield from cw.send(1, 16, tag=4)
            yield from cw.send(1, 16, tag=3)

    h.run(main)
    assert parked["keys"] == [parked["want"]]
    assert parked["predicates"] == 1


def test_receive_predicates_are_freed_with_their_job(monkeypatch):
    """A wildcard receive, the one receive that still builds a
    predicate, must not keep it alive past its job."""
    from repro.mpi import communicator as communicator_module

    made = []
    make_match = communicator_module.make_match

    def tracked(*args):
        pred = make_match(*args)
        made.append(weakref.ref(pred))
        return pred

    monkeypatch.setattr(communicator_module, "make_match", tracked)

    def main(proc):
        cw = proc.comm_world
        if cw.rank == 0:
            yield from cw.send(1, 128, tag=3)
        else:
            yield from cw.recv(ANY_SOURCE, tag=3)

    WorldHarness(n=2).run(main)
    assert made
    gc.collect()
    assert [ref() for ref in made] == [None] * len(made)



def test_communicators_are_the_only_point_to_point_api():
    """A rank sends and receives through its communicators; the rank's
    handle keeps only its state."""
    names = ("send", "recv", "isend", "irecv", "sendrecv", "probe")
    assert [n for n in names if hasattr(MPIProcess, n)] == []
    assert [n for n in names if n not in vars(Communicator)] == []
