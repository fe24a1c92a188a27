"""Receive status and matching wildcards."""

from __future__ import annotations

from dataclasses import dataclass

#: Match a message from any source rank.
ANY_SOURCE = -1
#: Match a message with any tag.
ANY_TAG = -1


# Not frozen, for the same reason as TransferRecord: one is built per
# receive.
@dataclass(slots=True)
class Status:
    """Outcome of a completed receive (like ``MPI_Status``)."""

    source: int
    tag: int
    count_bytes: int
    error: int = 0

    def count(self, datatype_size: int = 1) -> int:
        """Number of elements received for a given datatype size."""
        return self.count_bytes // datatype_size
