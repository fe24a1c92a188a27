"""Communicators: per-rank views of process groups.

In this simulation every rank holds its own :class:`Communicator`
object (the analogue of an ``MPI_Comm`` handle); objects for the same
communicator share the (group, context_id) pair.  All communicating
methods are generators to ``yield from`` inside simulation processes.

The context id is what isolates communication universes — exactly the
mechanism DEEP's Global MPI leans on when ``MPI_Comm_spawn`` gives the
Booster its *own* ``MPI_COMM_WORLD`` (slide 26) plus an
inter-communicator back to the Cluster.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import CommunicatorError, MPIError, OwnerFreedError
from repro.mpi import collectives as coll
from repro.mpi.group import Group
from repro.mpi.ops import Op, SUM
from repro.mpi.pt2pt import (
    HEADER_BYTES,
    PacketHeader,
    envelope_key,
    make_match,
    protocol_key,
)
from repro.mpi.request import PersistentRequest, Request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import MPIProcess, MPIWorld


class Communicator:
    """An intra-communicator as seen by one rank.

    A rank owns its communicators (its world owns the rank), so a
    communicator holds its process and world only weakly; it keeps the
    rank's gpid, which every send and receive reads.
    """

    is_inter = False

    def __init__(
        self,
        world: "MPIWorld",
        proc: "MPIProcess",
        group: Group,
        context_id: int,
    ) -> None:
        if proc.gpid not in group:
            raise CommunicatorError(
                f"process {proc.gpid} is not a member of this communicator"
            )
        self._world = weakref.ref(world)
        self._proc = weakref.ref(proc)
        self._gpid = proc.gpid
        self.group = group
        self.context_id = context_id
        self._coll_seq = 0

    @property
    def world(self) -> "MPIWorld":
        """The MPI universe of this communicator."""
        world = self._world()
        if world is None:
            raise OwnerFreedError(
                f"communicator (context {self.context_id}) used after its "
                f"MPIWorld was freed"
            )
        return world

    @property
    def proc(self) -> "MPIProcess":
        """The rank's process handle this communicator belongs to."""
        proc = self._proc()
        if proc is None:
            raise OwnerFreedError(
                f"communicator (context {self.context_id}) used after its "
                f"MPI process {self._gpid} was freed"
            )
        return proc

    # -- identity -----------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank in the communicator."""
        return self.group.rank_of(self._gpid)

    @property
    def size(self) -> int:
        """Number of processes in the communicator."""
        return self.group.size

    def remote_gpid(self, rank: int) -> int:
        """gpid of *rank* (in the remote group for inter-communicators)."""
        return self.group.gpid_of(rank)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} ctx={self.context_id} "
            f"rank={self.rank}/{self.size}>"
        )

    # -- point-to-point ------------------------------------------------------------
    def send(self, dest: int, size_bytes: int, value: Any = None, tag: int = 0):
        """Generator: blocking standard-mode send to *dest*.

        Eager below the world's threshold (completes on network
        acceptance), rendezvous above it (completes once the receiver
        has posted a matching receive and the data has drained).
        """
        if size_bytes < 0:
            raise MPIError(f"negative message size {size_bytes}")
        proc = self.proc
        world = self.world
        gpid = self._gpid
        ctx = self.context_id
        dst_gpid = self.remote_gpid(dest)
        dst_ep = world.endpoint_of(dst_gpid)
        my_rank = self.rank
        seq = next(proc._seq)
        world._m_sent.add(1)
        world._m_sent_bytes.add(size_bytes)
        tr = proc.sim.trace
        if tr:
            tr.record(
                "mpi.send", src_rank=my_rank, dest=dest, size=size_bytes,
                tag=tag, context=ctx,
            )
        transport = world.transport
        src_ep = proc.endpoint
        if size_bytes <= world.eager_threshold:
            header = PacketHeader(
                "eager", ctx, gpid, dst_gpid, my_rank, tag, seq, size_bytes, value,
            )
            msg = Message(
                src=src_ep, dst=dst_ep,
                size_bytes=size_bytes + HEADER_BYTES, payload=header,
            )
            yield from transport.send_message(msg)
            return
        # Rendezvous: RTS -> (wait CTS) -> DATA.
        rts = PacketHeader("rts", ctx, gpid, dst_gpid, my_rank, tag, seq, size_bytes)
        yield from transport.send_message(
            Message(src=src_ep, dst=dst_ep, size_bytes=HEADER_BYTES, payload=rts)
        )
        yield proc._inbox.get(key=protocol_key(gpid, "cts", dst_gpid, seq))
        data = PacketHeader(
            "data", ctx, gpid, dst_gpid, my_rank, tag, seq, size_bytes, value,
        )
        yield from transport.send_message(
            Message(
                src=src_ep, dst=dst_ep,
                size_bytes=size_bytes + HEADER_BYTES, payload=data,
            )
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: blocking receive; returns ``(value, Status)``."""
        proc = self.proc
        gpid = self._gpid
        ctx = self.context_id
        inbox = proc._inbox
        src_gpid = None if source == ANY_SOURCE else self.remote_gpid(source)
        if src_gpid is None or tag == ANY_TAG:
            msg = yield inbox.get(make_match(gpid, ctx, src_gpid, tag))
        else:
            msg = yield inbox.get(key=envelope_key(gpid, ctx, src_gpid, tag))
        world = self.world
        world._m_matched.add(1)
        header: PacketHeader = msg.payload
        overhead = proc._iface.recv_overhead_s
        if overhead > 0:
            yield proc.sim.timeout(overhead)
        if header.kind == "eager":
            return header.value, Status(header.src_rank, header.tag, header.size_bytes)
        # Rendezvous: grant the sender and wait for the bulk data.
        cts = PacketHeader(
            "cts", header.context_id, gpid, header.src_gpid,
            -1, header.tag, header.seq, HEADER_BYTES,
        )
        src_ep = world.endpoint_of(header.src_gpid)
        yield from world.transport.send_message(
            Message(src=proc.endpoint, dst=src_ep, size_bytes=HEADER_BYTES, payload=cts)
        )
        data_msg = yield inbox.get(
            key=protocol_key(gpid, "data", header.src_gpid, header.seq)
        )
        data_header: PacketHeader = data_msg.payload
        return data_header.value, Status(
            header.src_rank, header.tag, data_header.size_bytes
        )

    def isend(
        self, dest: int, size_bytes: int, value: Any = None, tag: int = 0
    ) -> Request:
        """Nonblocking send; returns a :class:`Request`."""
        sim = self.proc.sim
        op = sim.process(
            self.send(dest, size_bytes, value, tag),
            name=f"isend:{self._gpid}->{dest}",
        )
        return Request(sim, op, kind="isend")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; the request's result is ``(value, Status)``."""
        sim = self.proc.sim
        op = sim.process(
            self.recv(source, tag), name=f"irecv:{self._gpid}<-{source}"
        )
        return Request(sim, op, kind="irecv")

    def sendrecv(
        self,
        dest: int,
        send_size: int,
        send_value: Any = None,
        source: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ):
        """Generator: simultaneous send and receive (deadlock-free)."""
        sreq = self.isend(dest, send_size, send_value, send_tag)
        rreq = self.irecv(source, recv_tag)
        result = yield from rreq.wait()
        yield from sreq.wait()
        return result

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking probe of the unexpected queue.

        Returns a :class:`Status` if a matching envelope is buffered,
        else ``None``.  (Not a generator — costs no simulated time.)
        """
        src_gpid = None if source == ANY_SOURCE else self.remote_gpid(source)
        msg = self.proc._inbox.peek_match(
            make_match(self._gpid, self.context_id, src_gpid, tag)
        )
        if msg is None:
            return None
        h: PacketHeader = msg.payload
        return Status(h.src_rank, h.tag, h.size_bytes)

    def send_init(self, dest: int, size_bytes: int, value: Any = None, tag: int = 0):
        """Persistent-send template (``MPI_Send_init``)."""
        return PersistentRequest(
            self.proc.sim,
            lambda: self.proc.sim.process(
                self.send(dest, size_bytes, value, tag),
                name=f"psend:{self.rank}->{dest}",
            ),
            kind="persistent-send",
        )

    def recv_init(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Persistent-receive template (``MPI_Recv_init``)."""
        return PersistentRequest(
            self.proc.sim,
            lambda: self.proc.sim.process(
                self.recv(source, tag),
                name=f"precv:{self.rank}<-{source}",
            ),
            kind="persistent-recv",
        )

    # -- collectives ------------------------------------------------------------
    def _next_coll_key(self, purpose: str) -> tuple:
        self._coll_seq += 1
        return (self.context_id, purpose, self._coll_seq)

    def barrier(self):
        """Generator: dissemination barrier."""
        yield from coll.barrier(self)

    def bcast(self, value: Any = None, root: int = 0, size_bytes: int = 8):
        """Generator: binomial-tree broadcast; returns the value at all ranks."""
        result = yield from coll.bcast(self, value, root, size_bytes)
        return result

    def reduce(
        self, value: Any, op: Op = SUM, root: int = 0, size_bytes: int = 8
    ):
        """Generator: binomial-tree reduction; result at *root*, None elsewhere."""
        result = yield from coll.reduce(self, value, op, root, size_bytes)
        return result

    def allreduce(
        self,
        value: Any,
        op: Op = SUM,
        size_bytes: int = 8,
        algorithm: str = "auto",
    ):
        """Generator: allreduce; returns the reduction at every rank.

        ``algorithm``: ``"auto"``, ``"recursive-doubling"``, ``"ring"``,
        or ``"reduce-bcast"`` (the ablation of E12/E5 sweeps these).
        """
        result = yield from coll.allreduce(self, value, op, size_bytes, algorithm)
        return result

    def gather(self, value: Any, root: int = 0, size_bytes: int = 8):
        """Generator: gather; returns the rank-ordered list at *root*."""
        result = yield from coll.gather(self, value, root, size_bytes)
        return result

    def allgather(self, value: Any, size_bytes: int = 8):
        """Generator: ring allgather; returns the rank-ordered list everywhere."""
        result = yield from coll.allgather(self, value, size_bytes)
        return result

    def scatter(self, values: Optional[list] = None, root: int = 0, size_bytes: int = 8):
        """Generator: scatter ``values`` (significant at root) to all ranks."""
        result = yield from coll.scatter(self, values, root, size_bytes)
        return result

    def alltoall(self, values: Optional[list] = None, size_bytes: int = 8):
        """Generator: pairwise-exchange all-to-all."""
        result = yield from coll.alltoall(self, values, size_bytes)
        return result

    def scan(self, value: Any, op: Op = SUM, size_bytes: int = 8):
        """Generator: inclusive prefix reduction."""
        result = yield from coll.scan(self, value, op, size_bytes)
        return result

    def gatherv(
        self,
        value: Any,
        size_bytes: int = 8,
        sizes: Optional[list[int]] = None,
        root: int = 0,
    ):
        """Generator: gather with per-rank byte counts (``MPI_Gatherv``)."""
        result = yield from coll.gatherv(self, value, size_bytes, sizes, root)
        return result

    def scatterv(
        self,
        values: Optional[list] = None,
        sizes: Optional[list[int]] = None,
        root: int = 0,
    ):
        """Generator: scatter with per-rank byte counts (``MPI_Scatterv``)."""
        result = yield from coll.scatterv(self, values, sizes, root)
        return result

    def allgatherv(self, value: Any, size_bytes: int = 8):
        """Generator: allgather where each rank contributes its own size."""
        result = yield from coll.allgatherv(self, value, size_bytes)
        return result

    def reduce_scatter(self, values: list, op: Op = SUM, size_bytes: int = 8):
        """Generator: ring reduce-scatter; rank r gets reduce of values[r]."""
        result = yield from coll.reduce_scatter(self, values, op, size_bytes)
        return result

    # -- nonblocking collectives ----------------------------------------------
    def _nb_tag(self) -> int:
        self._nb_seq = getattr(self, "_nb_seq", 0) + 1
        return -1000 - self._nb_seq

    def ibarrier(self):
        """Nonblocking barrier; returns a Request (``MPI_Ibarrier``).

        Each nonblocking collective runs on a private tag, so several
        may be in flight simultaneously — they must still be *started*
        in the same order on every rank (the MPI rule).
        """
        tag = self._nb_tag()
        proc = self.proc.sim.process(
            coll.barrier(self, tag=tag), name=f"ibarrier:{self.rank}"
        )
        return Request(self.proc.sim, proc, kind="ibarrier")

    def ibcast(self, value: Any = None, root: int = 0, size_bytes: int = 8):
        """Nonblocking broadcast; the request's result is the value."""
        tag = self._nb_tag()
        proc = self.proc.sim.process(
            coll.bcast(self, value, root, size_bytes, tag=tag),
            name=f"ibcast:{self.rank}",
        )
        return Request(self.proc.sim, proc, kind="ibcast")

    def ireduce(self, value: Any, op: Op = SUM, root: int = 0, size_bytes: int = 8):
        """Nonblocking reduction; result at root, None elsewhere."""
        tag = self._nb_tag()
        proc = self.proc.sim.process(
            coll.reduce(self, value, op, root, size_bytes, tag=tag),
            name=f"ireduce:{self.rank}",
        )
        return Request(self.proc.sim, proc, kind="ireduce")

    # -- Cartesian topology ------------------------------------------------------
    def create_cart(
        self,
        dims: list[int],
        periods: Optional[list[bool]] = None,
        reorder: bool = False,
    ):
        """Generator (collective): Cartesian view of this communicator.

        See :mod:`repro.mpi.cartesian`; with ``reorder=True`` on an
        EXTOLL torus, grid neighbours become physical neighbours.
        """
        from repro.mpi.cartesian import create_cart

        cart = yield from create_cart(self, dims, periods, reorder)
        return cart

    # -- communicator management ---------------------------------------------------
    def dup(self):
        """Generator: duplicate (same group, fresh context).  Collective."""
        key = self._next_coll_key("dup")
        yield from coll.barrier(self)  # synchronising handshake
        ctx = self.world.agree_context(key)
        return Communicator(self.world, self.proc, self.group, ctx)

    def split(self, color: Optional[int], key: int = 0):
        """Generator: split into disjoint sub-communicators.  Collective.

        Ranks with the same *color* land in one communicator, ordered
        by (*key*, old rank).  ``color=None`` returns None for this
        rank (``MPI_UNDEFINED``).
        """
        coll_key = self._next_coll_key("split")
        entries = yield from coll.allgather(
            self, (color, key, self.rank), size_bytes=12
        )
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in entries if c == color
        )
        new_group = Group([self.group.gpid_of(r) for _, r in members])
        ctx = self.world.agree_context((coll_key, color))
        return Communicator(self.world, self.proc, new_group, ctx)

    def create_subcomm(self, ranks: list[int]):
        """Generator: communicator over a rank subset.  Collective.

        Returns None on ranks outside *ranks* (like
        ``MPI_Comm_create`` with a subgroup).
        """
        key = self._next_coll_key("create")
        yield from coll.barrier(self)
        if self.rank not in ranks:
            return None
        new_group = self.group.incl(ranks)
        ctx = self.world.agree_context(key)
        return Communicator(self.world, self.proc, new_group, ctx)


class Intercommunicator(Communicator):
    """Two disjoint groups talking to each other (slide 26's picture).

    Point-to-point ranks address the *remote* group.  ``merge()``
    builds the flat intra-communicator used when cluster and booster
    parts need a single universe.
    """

    is_inter = True
    #: Set by ``MPI_Comm_spawn``: fires if any remote (child) rank dies.
    failure_event = None

    def __init__(
        self,
        world: "MPIWorld",
        proc: "MPIProcess",
        local_group: Group,
        remote_group: Group,
        context_id: int,
    ) -> None:
        super().__init__(world, proc, local_group, context_id)
        if proc.gpid in remote_group:
            raise CommunicatorError("process cannot be in both sides of an intercomm")
        self.remote_group = remote_group

    @property
    def remote_size(self) -> int:
        """Size of the remote group."""
        return self.remote_group.size

    def remote_gpid(self, rank: int) -> int:
        return self.remote_group.gpid_of(rank)

    def merge(self, high: bool = False):
        """Generator: merge both groups into one intra-communicator.

        *high* orders the local group after the remote one (must be
        consistent within each side, like ``MPI_Intercomm_merge``).
        """
        key = self._next_coll_key("merge")
        yield from coll.barrier_local(self)
        if high:
            merged = Group(list(self.remote_group.gpids) + list(self.group.gpids))
        else:
            merged = Group(list(self.group.gpids) + list(self.remote_group.gpids))
        ctx = self.world.agree_context((key, "merged"))
        return Communicator(self.world, self.proc, merged, ctx)

    def local_comm(self):
        """Generator: intra-communicator over the local group only."""
        key = self._next_coll_key("localcomm")
        yield from coll.barrier_local(self)
        ctx = self.world.agree_context(key)
        return Communicator(self.world, self.proc, self.group, ctx)
