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


def envelope_key(dst_gpid: int, context_id: int, src_gpid: int, tag: int) -> tuple:
    """The :func:`packet_key` of an eager or RTS packet: its MPI envelope."""
    return ("env", dst_gpid, context_id, src_gpid, tag)


def protocol_key(dst_gpid: int, kind: str, src_gpid: int, seq: int) -> tuple:
    """The :func:`packet_key` of a CTS or data packet of one rendezvous."""
    return ("seq", dst_gpid, kind, src_gpid, seq)


def packet_key(msg) -> Optional[tuple]:
    """What identifies an incoming packet to a receive, or ``None``.

    Installed as the inbox :attr:`~repro.simkernel.resources.Channel.key_of`.
    Envelope packets (eager/RTS) key on their :func:`envelope_key`,
    protocol packets (CTS/data) on their :func:`protocol_key`; foreign
    payloads have no key.

    This is the one definition of a packet's envelope: a receive that
    names its source and tag, and every rendezvous CTS and data wait,
    waits on its key (``Channel.get(key=...)``).  Predicates from
    :func:`make_match` serve only what no single key can name: wildcard
    receives, and probes.
    """
    h = msg.payload
    if not isinstance(h, PacketHeader):
        return None
    if h.kind in ("eager", "rts"):
        return envelope_key(h.dst_gpid, h.context_id, h.src_gpid, h.tag)
    return protocol_key(h.dst_gpid, h.kind, h.src_gpid, h.seq)


class _EnvelopeMatch:
    """The predicate :func:`make_match` returns.

    An object, not a closure: the collector tracks one object for it
    where a closure with its cells makes seven.
    """

    # ``__weakref__``: predicates stay weakly referenceable, as functions are.
    __slots__ = ("my_gpid", "context_id", "src_gpid", "tag", "__weakref__")

    def __init__(
        self, my_gpid: int, context_id: int, src_gpid: Optional[int], tag: int
    ) -> None:
        self.my_gpid = my_gpid
        self.context_id = context_id
        self.src_gpid = src_gpid
        self.tag = tag

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
    any tag.  CTS/data packets never match an envelope receive.  With a
    named source and tag it accepts exactly the packets whose
    :func:`packet_key` is ``envelope_key(my_gpid, context_id, src_gpid,
    tag)``, so a probe agrees with the keyed receive it stands for.
    """
    return _EnvelopeMatch(my_gpid, context_id, src_gpid, tag)
