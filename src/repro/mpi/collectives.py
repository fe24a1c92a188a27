"""Collective algorithms over simulated point-to-point.

Each function is a generator executed *by every rank* of the
communicator (SPMD style); the algorithms are the classic MPICH /
ParaStation ones, so collective cost emerges from the network model:

=============  ==========================================  =============
collective     algorithm                                   steps
=============  ==========================================  =============
barrier        dissemination                               ceil(log2 n)
bcast          binomial tree                               ceil(log2 n)
reduce         binomial tree                               ceil(log2 n)
allreduce      recursive doubling / ring / reduce+bcast    log2 n / 2(n-1)
gather         binomial tree (subtree aggregation)         ceil(log2 n)
scatter        binomial tree (subtree halving)             ceil(log2 n)
allgather      ring                                        n-1
alltoall       pairwise exchange                           n-1
scan           linear pipeline                             n-1
=============  ==========================================  =============

Message values really travel, so functional tests can verify results,
while message *sizes* are whatever the caller declares (the simulated
application data volume).

When the world runs with ``fidelity.collectives = "analytic"``, each
blocking collective below short-circuits into
:class:`repro.mpi.analytic.AnalyticCollectiveEngine`: the ranks meet on
one shared event, the closed form of the *same* algorithm is charged,
and results are computed from the gathered contributions — so the
functional contract (who returns what) is identical across tiers, only
the event schedule differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import MPIError, RankError
from repro.mpi.analytic import RING_MIN_BYTES, RING_MIN_RANKS
from repro.mpi.ops import Op, SUM

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator, Intercommunicator

#: Reserved tag for collective traffic (context ids isolate user tags).
COLL_TAG = -7


def _check_root(comm: "Communicator", root: int) -> None:
    if not 0 <= root < comm.size:
        raise RankError(root, comm.size, what="root")


def _analytic_engine(comm: "Communicator", tag: int = COLL_TAG):
    """The world's analytic-collective engine, iff this call qualifies.

    Only *blocking* intra-communicator collectives on the default
    collective tag take the analytic path.  Nonblocking variants run
    their algorithm under per-request tags and are not guaranteed to
    start in the same program order on every rank, which the shared
    rendezvous' sequence numbering requires — they stay exact.
    """
    if tag != COLL_TAG or comm.is_inter:
        return None
    return getattr(comm.world, "analytic_collectives", None)


def _fold(op: Op, contribs: dict, ranks) -> Any:
    """Reduce contributions in rank order (collective ops are expected
    to be associative and commutative, as in every MPI built-in)."""
    it = iter(ranks)
    acc = contribs[next(it)]
    for r in it:
        acc = op(acc, contribs[r])
    return acc


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


def barrier(comm: "Communicator", tag: int = COLL_TAG):
    """Dissemination barrier: ceil(log2 n) rounds of paired messages."""
    n, rank = comm.size, comm.rank
    if n == 1:
        return
    engine = _analytic_engine(comm, tag)
    if engine is not None:
        yield from engine.rendezvous(comm, "barrier", 0, None)
        return
    k = 1
    while k < n:
        dst = (rank + k) % n
        src = (rank - k) % n
        req = comm.isend(dst, 0, None, tag)
        yield from comm.recv(src, tag)
        yield from req.wait()
        k <<= 1


def barrier_local(comm: "Intercommunicator"):
    """Barrier over the *local* group of an inter-communicator.

    Implemented as a dissemination barrier addressed via gpids of the
    local group (used by merge/local_comm handshakes).
    """
    # Build a temporary intra-view of the local group.
    from repro.mpi.communicator import Communicator

    local_view = Communicator(comm.world, comm.proc, comm.group, comm.context_id)
    yield from barrier(local_view)


# ---------------------------------------------------------------------------
# bcast / reduce
# ---------------------------------------------------------------------------


def bcast(comm: "Communicator", value: Any, root: int, size_bytes: int, tag: int = COLL_TAG):
    """Binomial-tree broadcast (MPICH's default for short messages)."""
    _check_root(comm, root)
    n, rank = comm.size, comm.rank
    if n == 1:
        return value
    engine = _analytic_engine(comm, tag)
    if engine is not None:
        contribs = yield from engine.rendezvous(comm, "bcast", size_bytes, value)
        return contribs[root]
    relrank = (rank - root) % n

    mask = 1
    while mask < n:
        if relrank & mask:
            src = (relrank - mask + root) % n
            value, _ = yield from comm.recv(src, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if relrank + mask < n:
            dst = (relrank + mask + root) % n
            yield from comm.send(dst, size_bytes, value, tag)
        mask >>= 1
    return value


def reduce(comm: "Communicator", value: Any, op: Op, root: int, size_bytes: int, tag: int = COLL_TAG):
    """Binomial-tree reduction; the result lands at *root* only."""
    _check_root(comm, root)
    n, rank = comm.size, comm.rank
    if n == 1:
        return value
    engine = _analytic_engine(comm, tag)
    if engine is not None:
        contribs = yield from engine.rendezvous(comm, "reduce", size_bytes, value)
        return _fold(op, contribs, range(n)) if rank == root else None
    relrank = (rank - root) % n
    acc = value
    mask = 1
    while mask < n:
        if relrank & mask == 0:
            src_rel = relrank | mask
            if src_rel < n:
                src = (src_rel + root) % n
                other, _ = yield from comm.recv(src, tag)
                acc = op(acc, other)
        else:
            dst = ((relrank & ~mask) + root) % n
            yield from comm.send(dst, size_bytes, acc, tag)
            break
        mask <<= 1
    return acc if rank == root else None


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------


def allreduce(
    comm: "Communicator",
    value: Any,
    op: Op,
    size_bytes: int,
    algorithm: str = "auto",
):
    """Allreduce with a selectable algorithm.

    ``auto`` follows the MPICH heuristic: latency-optimal recursive
    doubling for short messages or tiny communicators,
    bandwidth-optimal ring for long messages.
    """
    if algorithm == "auto":
        algorithm = (
            "ring"
            if (size_bytes >= RING_MIN_BYTES and comm.size > RING_MIN_RANKS)
            else "recursive-doubling"
        )
    engine = _analytic_engine(comm)
    if engine is not None:
        if algorithm not in ("recursive-doubling", "ring", "reduce-bcast"):
            raise MPIError(f"unknown allreduce algorithm {algorithm!r}")
        contribs = yield from engine.rendezvous(
            comm, "allreduce", size_bytes, value, algorithm=algorithm
        )
        return _fold(op, contribs, range(comm.size))
    if algorithm == "recursive-doubling":
        result = yield from _allreduce_recursive_doubling(comm, value, op, size_bytes)
    elif algorithm == "ring":
        result = yield from _allreduce_ring(comm, value, op, size_bytes)
    elif algorithm == "reduce-bcast":
        partial = yield from reduce(comm, value, op, 0, size_bytes)
        result = yield from bcast(comm, partial, 0, size_bytes)
    else:
        raise MPIError(f"unknown allreduce algorithm {algorithm!r}")
    return result


def _allreduce_recursive_doubling(
    comm: "Communicator", value: Any, op: Op, size_bytes: int
):
    """Recursive doubling with the standard non-power-of-two fold."""
    n, rank = comm.size, comm.rank
    if n == 1:
        return value
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2
    acc = value

    # Fold the first 2*rem ranks pairwise so pof2 ranks remain.
    newrank: Optional[int]
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield from comm.send(rank + 1, size_bytes, acc, COLL_TAG)
            newrank = None
        else:
            other, _ = yield from comm.recv(rank - 1, COLL_TAG)
            acc = op(other, acc)
            newrank = rank // 2
    else:
        newrank = rank - rem

    if newrank is not None:
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            other, _ = yield from comm.sendrecv(
                partner, size_bytes, acc,
                source=partner, send_tag=COLL_TAG, recv_tag=COLL_TAG,
            )
            acc = op(acc, other)
            mask <<= 1

    # Hand results back to the folded-away even ranks.
    if rank < 2 * rem:
        if rank % 2 == 0:
            acc, _ = yield from comm.recv(rank + 1, COLL_TAG)
        else:
            yield from comm.send(rank - 1, size_bytes, acc, COLL_TAG)
    return acc


def _allreduce_ring(comm: "Communicator", value: Any, op: Op, size_bytes: int):
    """Ring allreduce: 2(n-1) steps of size/n chunks.

    Bandwidth-optimal: each rank moves ``2 * size * (n-1)/n`` bytes
    regardless of n.  Values are reduced by circulating every rank's
    contribution once around the ring (reduce-scatter phase), then the
    allgather phase is simulated for its traffic.
    """
    n, rank = comm.size, comm.rank
    if n == 1:
        return value
    chunk = max(size_bytes // n, 1)
    right = (rank + 1) % n
    left = (rank - 1) % n
    acc = value
    forward = value
    for _ in range(n - 1):
        received = yield from comm.sendrecv(
            right, chunk, forward,
            source=left, send_tag=COLL_TAG, recv_tag=COLL_TAG,
        )
        forward = received[0]
        acc = op(acc, forward)
    for _ in range(n - 1):
        yield from comm.sendrecv(
            right, chunk, None,
            source=left, send_tag=COLL_TAG, recv_tag=COLL_TAG,
        )
    return acc


# ---------------------------------------------------------------------------
# gather / scatter / allgather / alltoall
# ---------------------------------------------------------------------------


def gather(comm: "Communicator", value: Any, root: int, size_bytes: int):
    """Binomial-tree gather; returns the rank-ordered list at *root*."""
    _check_root(comm, root)
    n, rank = comm.size, comm.rank
    engine = _analytic_engine(comm)
    if engine is not None:
        contribs = yield from engine.rendezvous(comm, "gather", size_bytes, value)
        return [contribs[r] for r in range(n)] if rank == root else None
    relrank = (rank - root) % n
    bucket: dict[int, Any] = {rank: value}
    mask = 1
    while mask < n:
        if relrank & mask == 0:
            src_rel = relrank | mask
            if src_rel < n:
                src = (src_rel + root) % n
                other, _ = yield from comm.recv(src, COLL_TAG)
                bucket.update(other)
        else:
            dst = ((relrank & ~mask) + root) % n
            yield from comm.send(dst, size_bytes * len(bucket), bucket, COLL_TAG)
            break
        mask <<= 1
    if rank == root:
        return [bucket[r] for r in range(n)]
    return None


def scatter(
    comm: "Communicator", values: Optional[list], root: int, size_bytes: int
):
    """Binomial-tree scatter of a rank-indexed list held at *root*."""
    _check_root(comm, root)
    n, rank = comm.size, comm.rank
    if rank == root and (values is None or len(values) != n):
        raise MPIError(f"scatter needs a list of {n} values at the root")
    engine = _analytic_engine(comm)
    if engine is not None:
        contribs = yield from engine.rendezvous(
            comm, "scatter", size_bytes, values if rank == root else None
        )
        return contribs[root][rank]
    if rank == root:
        bucket = {r: v for r, v in enumerate(values)}
    else:
        bucket = None

    relrank = (rank - root) % n
    # Receive my subtree's bucket from my parent.
    mask = 1
    while mask < n:
        if relrank & mask:
            src = ((relrank & ~mask) + root) % n
            bucket, _ = yield from comm.recv(src, COLL_TAG)
            break
        mask <<= 1
    if bucket is None:  # pragma: no cover - defensive; root always has one
        raise MPIError("scatter protocol error: no bucket received")
    # Send the upper halves of my range down the tree.
    mask = mask >> 1 if relrank != 0 else _highest_pow2_below(n)
    while mask > 0:
        if relrank + mask < n:
            dst_rel = relrank + mask
            dst = (dst_rel + root) % n
            sub = {
                r: v for r, v in bucket.items()
                if dst_rel <= ((r - root) % n) < dst_rel + mask
            }
            if sub:
                yield from comm.send(dst, size_bytes * len(sub), sub, COLL_TAG)
                for r in sub:
                    del bucket[r]
        mask >>= 1
    return bucket[rank]


def _highest_pow2_below(n: int) -> int:
    mask = 1
    while mask * 2 < n:
        mask *= 2
    return mask if n > 1 else 0


def allgather(comm: "Communicator", value: Any, size_bytes: int):
    """Ring allgather: n-1 steps, each forwarding one rank's block."""
    n, rank = comm.size, comm.rank
    engine = _analytic_engine(comm)
    if engine is not None:
        contribs = yield from engine.rendezvous(comm, "allgather", size_bytes, value)
        return [contribs[r] for r in range(n)]
    result: list[Any] = [None] * n
    result[rank] = value
    if n == 1:
        return result
    right = (rank + 1) % n
    left = (rank - 1) % n
    send_idx = rank
    for _ in range(n - 1):
        payload = (send_idx, result[send_idx])
        received = yield from comm.sendrecv(
            right, size_bytes, payload,
            source=left, send_tag=COLL_TAG, recv_tag=COLL_TAG,
        )
        idx, val = received[0]
        result[idx] = val
        send_idx = idx
    return result


def alltoall(comm: "Communicator", values: Optional[list], size_bytes: int):
    """Pairwise-exchange all-to-all (n-1 sendrecv rounds)."""
    n, rank = comm.size, comm.rank
    if values is None:
        values = [None] * n
    if len(values) != n:
        raise MPIError(f"alltoall needs one value per rank ({n}), got {len(values)}")
    engine = _analytic_engine(comm)
    if engine is not None:
        contribs = yield from engine.rendezvous(comm, "alltoall", size_bytes, values)
        return [contribs[src][rank] for src in range(n)]
    result: list[Any] = [None] * n
    result[rank] = values[rank]
    for i in range(1, n):
        dst = (rank + i) % n
        src = (rank - i) % n
        received = yield from comm.sendrecv(
            dst, size_bytes, values[dst],
            source=src, send_tag=COLL_TAG, recv_tag=COLL_TAG,
        )
        result[src] = received[0]
    return result


def scan(comm: "Communicator", value: Any, op: Op, size_bytes: int):
    """Inclusive prefix reduction via a linear pipeline."""
    n, rank = comm.size, comm.rank
    engine = _analytic_engine(comm)
    if engine is not None:
        contribs = yield from engine.rendezvous(comm, "scan", size_bytes, value)
        return _fold(op, contribs, range(rank + 1))
    acc = value
    if rank > 0:
        other, _ = yield from comm.recv(rank - 1, COLL_TAG)
        acc = op(other, acc)
    if rank < n - 1:
        yield from comm.send(rank + 1, size_bytes, acc, COLL_TAG)
    return acc


# ---------------------------------------------------------------------------
# variable-count collectives
# ---------------------------------------------------------------------------


def gatherv(
    comm: "Communicator",
    value: Any,
    size_bytes: int,
    sizes: Optional[list[int]],
    root: int,
):
    """Gather with per-rank byte counts, like ``MPI_Gatherv``.

    Every rank passes its own ``size_bytes``; *sizes* (significant at
    the root, or None to skip the check) declares the expected counts.
    Linear algorithm: each rank sends straight to the root — the usual
    choice for irregular counts where tree aggregation cannot assume
    uniform subtree volume.
    """
    _check_root(comm, root)
    n, rank = comm.size, comm.rank
    if rank == root:
        if sizes is not None and len(sizes) != n:
            raise MPIError(f"gatherv needs {n} sizes, got {len(sizes)}")
        result: list[Any] = [None] * n
        result[root] = value
        for _ in range(n - 1):
            msg, status = yield from comm.recv(tag=COLL_TAG - 1)
            src, val = msg
            if sizes is not None and status.count_bytes != sizes[src]:
                raise MPIError(
                    f"gatherv: rank {src} sent {status.count_bytes} B, "
                    f"expected {sizes[src]}"
                )
            result[src] = val
        return result
    yield from comm.send(root, size_bytes, (rank, value), COLL_TAG - 1)
    return None


def scatterv(
    comm: "Communicator",
    values: Optional[list],
    sizes: Optional[list[int]],
    root: int,
):
    """Scatter with per-rank byte counts, like ``MPI_Scatterv``.

    Linear from the root; the root's *sizes* list gives the bytes sent
    to each rank.  Returns this rank's value.
    """
    _check_root(comm, root)
    n, rank = comm.size, comm.rank
    if rank == root:
        if values is None or len(values) != n:
            raise MPIError(f"scatterv needs {n} values at the root")
        if sizes is None or len(sizes) != n:
            raise MPIError(f"scatterv needs {n} sizes at the root")
        reqs = [
            comm.isend(r, sizes[r], values[r], COLL_TAG - 2)
            for r in range(n)
            if r != root
        ]
        from repro.mpi.request import wait_all

        yield from wait_all(comm.proc.sim, reqs)
        return values[root]
    value, _ = yield from comm.recv(root, COLL_TAG - 2)
    return value


def allgatherv(comm: "Communicator", value: Any, size_bytes: int):
    """Ring allgather with per-rank sizes (each rank's own size)."""
    n, rank = comm.size, comm.rank
    result: list[Any] = [None] * n
    result[rank] = (size_bytes, value)
    if n == 1:
        return [value]
    right = (rank + 1) % n
    left = (rank - 1) % n
    send_idx = rank
    for _ in range(n - 1):
        block_size, _ = result[send_idx]
        payload = (send_idx, result[send_idx])
        received = yield from comm.sendrecv(
            right, block_size, payload,
            source=left, send_tag=COLL_TAG - 3, recv_tag=COLL_TAG - 3,
        )
        idx, block = received[0]
        result[idx] = block
        send_idx = idx
    return [v for _, v in result]


def reduce_scatter(comm: "Communicator", values: list, op: Op, size_bytes: int):
    """Ring reduce-scatter: rank r returns the reduction of everyone's
    ``values[r]``; each of the n-1 steps moves one block of
    ``size_bytes / n``.

    The bandwidth-optimal first phase of ring allreduce, exposed
    because halo-accumulation patterns use it directly.
    """
    n, rank = comm.size, comm.rank
    if len(values) != n:
        raise MPIError(f"reduce_scatter needs one value per rank ({n})")
    if n == 1:
        return values[0]
    engine = _analytic_engine(comm)
    if engine is not None:
        contribs = yield from engine.rendezvous(
            comm, "reduce_scatter", size_bytes, values
        )
        return _fold(op, {r: contribs[r][rank] for r in range(n)}, range(n))
    chunk = max(size_bytes // n, 1)
    right = (rank + 1) % n
    left = (rank - 1) % n
    partial = list(values)
    # Standard ring: at step s send chunk (rank - s), receive and merge
    # chunk (rank - s - 1); after n-1 steps rank r owns chunk (r+1)%n
    # fully reduced, so we target block (rank+1)%n ... shifted so the
    # caller sees "my block is my rank": iterate with a -1 offset.
    for s in range(n - 1):
        idx_send = (rank - s) % n
        idx_recv = (rank - s - 1) % n
        received = yield from comm.sendrecv(
            right, chunk, partial[idx_send],
            source=left, send_tag=COLL_TAG - 4, recv_tag=COLL_TAG - 4,
        )
        partial[idx_recv] = op(partial[idx_recv], received[0])
    complete = (rank + 1) % n
    # One final neighbour shift moves each completed block to its owner.
    received = yield from comm.sendrecv(
        right, chunk, partial[complete],
        source=left, send_tag=COLL_TAG - 5, recv_tag=COLL_TAG - 5,
    )
    return received[0]
