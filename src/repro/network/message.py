"""Messages and transfer bookkeeping."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_msg_counter = itertools.count()


@dataclass(slots=True)
class Message:
    """A unit of communication between two endpoints of a fabric.

    ``src``/``dst`` are fabric endpoint names (node names).  ``tag`` and
    ``context`` exist for the MPI layer's matching; the fabric itself
    only looks at ``dst`` and ``size_bytes``.
    """

    src: str
    dst: str
    size_bytes: int
    tag: int = 0
    context: int = 0
    payload: Any = None
    kind: str = "data"
    msg_id: int = field(default_factory=_msg_counter.__next__)
    #: Simulated time the message was injected / delivered (filled by fabric).
    sent_at: Optional[float] = None
    received_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency once delivered, else None."""
        if self.sent_at is None or self.received_at is None:
            return None
        return self.received_at - self.sent_at


# Not frozen: a frozen dataclass's __init__ sets each field through
# object.__setattr__, several times the cost of plain stores, and one
# record is built per transfer.
@dataclass(slots=True)
class TransferRecord:
    """One completed transfer, for statistics."""

    src: str
    dst: str
    size_bytes: int
    start: float
    end: float
    hops: int
    kind: str = "data"

    @property
    def duration(self) -> float:
        return self.end - self.start
