"""Point-to-point protocol: headers, matching, eager/rendezvous.

Like every production MPI (ParaStation MPI included), small messages
travel **eager** — data goes immediately and is buffered at the
receiver — while large messages use **rendezvous**: a small
request-to-send (RTS) control message, a clear-to-send (CTS) reply once
the receive is posted, then the bulk data.  The threshold trades copy
cost against synchronisation latency and is a
:class:`~repro.mpi.world.MPIWorld` parameter (ablated in E12).

Matching follows MPI rules: (context id, source rank, tag), with
wildcards, non-overtaking per (source, context, tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.mpi.status import ANY_SOURCE, ANY_TAG

#: Size of protocol control messages (RTS/CTS) and of the envelope
#: prepended to eager data, in bytes.
HEADER_BYTES = 64


@dataclass(slots=True)
class PacketHeader:
    """Envelope of every simulated MPI packet.

    ``kind`` is one of ``"eager"``, ``"rts"``, ``"cts"``, ``"data"``.
    ``src_rank`` is the sender's rank *within the sending communicator*
    so matching does not need reverse lookups.  ``value`` carries the
    actual Python payload (eager and data packets only).
    """

    kind: str
    context_id: int
    src_gpid: int
    dst_gpid: int
    src_rank: int
    tag: int
    seq: int
    size_bytes: int
    value: Any = None


def packet_key(msg) -> Optional[tuple]:
    """The exact-match index key of an incoming packet, or ``None``.

    Installed as the inbox :attr:`~repro.simkernel.resources.Channel.key_of`
    so waiting receives are served by dict lookup instead of a predicate
    scan.  Envelope packets (eager/RTS) key on their matching tuple
    (destination, context, source, tag); protocol packets (CTS/data) key
    on (destination, kind, source, seq).  The contract with the
    predicates below: ``pred(msg)`` is true iff ``pred.exact_key ==
    packet_key(msg)`` for every predicate that advertises an
    ``exact_key``.
    """
    h = msg.payload
    if not isinstance(h, PacketHeader):
        return None
    if h.kind in ("eager", "rts"):
        return ("env", h.dst_gpid, h.context_id, h.src_gpid, h.tag)
    return ("seq", h.dst_gpid, h.kind, h.src_gpid, h.seq)


class _EnvelopeMatch:
    """The predicate :func:`make_match` returns.

    An object, not a closure, because each rank keeps its predicates
    for the life of its world: the collector tracks at most two objects
    for it (itself and its key) where a closure with its cells makes
    seven.  ``exact_key`` is set only on wildcard-free predicates.
    """

    # ``__weakref__``: predicates stay weakly referenceable, as functions are.
    __slots__ = (
        "my_gpid", "context_id", "src_gpid", "tag", "exact_key", "__weakref__",
    )

    def __init__(
        self, my_gpid: int, context_id: int, src_gpid: Optional[int], tag: int
    ) -> None:
        self.my_gpid = my_gpid
        self.context_id = context_id
        self.src_gpid = src_gpid
        self.tag = tag
        if src_gpid is not None and tag != ANY_TAG:
            self.exact_key = ("env", my_gpid, context_id, src_gpid, tag)

    def __call__(self, msg) -> bool:
        h: PacketHeader = msg.payload
        if not isinstance(h, PacketHeader) or h.kind not in ("eager", "rts"):
            return False
        if h.dst_gpid != self.my_gpid or h.context_id != self.context_id:
            return False
        if self.src_gpid is not None and h.src_gpid != self.src_gpid:
            return False
        if self.tag != ANY_TAG and h.tag != self.tag:
            return False
        return True


def make_match(
    my_gpid: int,
    context_id: int,
    src_gpid: Optional[int],
    tag: int,
):
    """Predicate matching an incoming *envelope* (eager or RTS) message.

    ``src_gpid=None`` means ``MPI_ANY_SOURCE``; ``tag=ANY_TAG`` matches
    any tag.  CTS/data packets never match an envelope receive.

    The predicate is pure in its arguments, so a rank may reuse one
    for repeated receives on the same (context, source, tag), the
    common streaming pattern; :class:`~repro.mpi.world.MPIProcess`
    keeps such a memo per rank, so predicates are freed with their
    world.  Wildcard-free predicates carry an ``exact_key`` equal to
    :func:`packet_key` of the (unique) envelope they accept, enabling
    the channel's keyed waiter index; wildcard receives stay on the
    predicate-scan path.
    """
    return _EnvelopeMatch(my_gpid, context_id, src_gpid, tag)


def make_seq_match(my_gpid: int, kind: str, src_gpid: int, seq: int):
    """Predicate matching a protocol packet (CTS or data) by sequence.

    Always exact — the predicate carries the :func:`packet_key` it
    accepts, so a parked CTS/data wait costs O(1) to wake.
    """

    def match(msg) -> bool:
        h: PacketHeader = msg.payload
        return (
            isinstance(h, PacketHeader)
            and h.kind == kind
            and h.dst_gpid == my_gpid
            and h.src_gpid == src_gpid
            and h.seq == seq
        )

    match.exact_key = ("seq", my_gpid, kind, src_gpid, seq)
    return match
