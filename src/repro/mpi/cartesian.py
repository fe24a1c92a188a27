"""Cartesian (torus) communicators — ``MPI_Cart_*``.

The EXTOLL Booster is a physical 3D torus (slide 16), and stencil-like
HSCPs communicate along grid dimensions, so the Cartesian communicator
is the natural Booster programming interface.  ``create_cart`` supports
``reorder=True``: ranks are permuted so that Cartesian neighbours land
on *physically adjacent* torus nodes when the communicator's processes
live on an :class:`~repro.network.extoll.ExtollFabric` — the classic
topology-mapping optimisation (extension experiment X14 measures it).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import CommunicatorError, ConfigurationError, RankError
from repro.mpi.communicator import Communicator
from repro.mpi.group import Group

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import MPIProcess, MPIWorld


def dims_create(nnodes: int, ndims: int) -> tuple[int, ...]:
    """Balanced dimensions like ``MPI_Dims_create`` (descending)."""
    if nnodes < 1 or ndims < 1:
        raise ConfigurationError("nnodes and ndims must be >= 1")
    from repro.network.extoll import balanced_dims

    return balanced_dims(nnodes, ndims)


class CartComm(Communicator):
    """A communicator with an attached Cartesian grid view."""

    def __init__(
        self,
        world: "MPIWorld",
        proc: "MPIProcess",
        group: Group,
        context_id: int,
        dims: Sequence[int],
        periods: Sequence[bool],
    ) -> None:
        super().__init__(world, proc, group, context_id)
        if math.prod(dims) != group.size:
            raise CommunicatorError(
                f"cart dims {tuple(dims)} do not cover {group.size} ranks"
            )
        if len(periods) != len(dims):
            raise CommunicatorError("periods must match dims in length")
        self.dims = tuple(int(d) for d in dims)
        self.periods = tuple(bool(p) for p in periods)

    # -- coordinate algebra -----------------------------------------------
    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Cartesian coordinates of *rank* (row-major, like MPI)."""
        if not 0 <= rank < self.size:
            raise RankError(rank, self.size)
        coords = []
        rem = rank
        for d in reversed(self.dims):
            coords.append(rem % d)
            rem //= d
        return tuple(reversed(coords))

    def rank_of(self, coords: Sequence[int]) -> int:
        """Rank at *coords*; periodic dims wrap, others must be in range."""
        if len(coords) != len(self.dims):
            raise CommunicatorError("coords dimensionality mismatch")
        rank = 0
        for c, d, per in zip(coords, self.dims, self.periods):
            if per:
                c %= d
            elif not 0 <= c < d:
                raise CommunicatorError(f"coordinate {c} out of [0, {d}) and not periodic")
            rank = rank * d + c
        return rank

    @property
    def coords(self) -> tuple[int, ...]:
        """This rank's coordinates."""
        return self.coords_of(self.rank)

    def shift(self, dimension: int, displacement: int = 1) -> tuple[Optional[int], Optional[int]]:
        """(source, dest) ranks for a shift, like ``MPI_Cart_shift``.

        Returns None in a slot when the shift leaves a non-periodic
        grid (MPI_PROC_NULL).
        """
        if not 0 <= dimension < len(self.dims):
            raise CommunicatorError(f"dimension {dimension} out of range")
        me = list(self.coords)

        def neighbour(delta: int) -> Optional[int]:
            c = list(me)
            c[dimension] += delta
            d = self.dims[dimension]
            if self.periods[dimension]:
                c[dimension] %= d
            elif not 0 <= c[dimension] < d:
                return None
            return self.rank_of(c)

        return neighbour(-displacement), neighbour(+displacement)

    def neighbours(self) -> list[int]:
        """All +/-1 neighbours across every dimension (unique, sorted)."""
        out = set()
        for dim in range(len(self.dims)):
            src, dst = self.shift(dim, 1)
            for r in (src, dst):
                if r is not None and r != self.rank:
                    out.add(r)
        return sorted(out)

    # -- halo exchange -------------------------------------------------------
    def halo_exchange(self, size_bytes: int, value=None, dims: Optional[Sequence[int]] = None):
        """Generator: sendrecv with both neighbours of each dimension.

        Returns ``{(dim, direction): received_value}`` with direction
        in (-1, +1).  The workhorse of every stencil HSCP.
        """
        received = {}
        for dim in dims if dims is not None else range(len(self.dims)):
            lo, hi = self.shift(dim, 1)
            # Exchange with the +1 neighbour, receive from the -1 side.
            if hi is not None or lo is not None:
                if hi is not None and lo is not None:
                    val, _ = yield from self.sendrecv(
                        hi, size_bytes, value, source=lo,
                        send_tag=4_000_000 + dim, recv_tag=4_000_000 + dim,
                    )
                    received[(dim, -1)] = val
                elif hi is not None:
                    yield from self.send(hi, size_bytes, value, 4_000_000 + dim)
                elif lo is not None:
                    val, _ = yield from self.recv(lo, 4_000_000 + dim)
                    received[(dim, -1)] = val
            # And the mirror direction.
            if hi is not None and lo is not None:
                val, _ = yield from self.sendrecv(
                    lo, size_bytes, value, source=hi,
                    send_tag=4_100_000 + dim, recv_tag=4_100_000 + dim,
                )
                received[(dim, +1)] = val
            elif lo is not None:
                yield from self.send(lo, size_bytes, value, 4_100_000 + dim)
            elif hi is not None:
                val, _ = yield from self.recv(hi, 4_100_000 + dim)
                received[(dim, +1)] = val
        return received


def create_cart(
    comm: Communicator,
    dims: Sequence[int],
    periods: Optional[Sequence[bool]] = None,
    reorder: bool = False,
):
    """Generator (collective): build a :class:`CartComm` from *comm*.

    With ``reorder=True`` and processes living on an EXTOLL torus, the
    grid is aligned to the physical torus coordinates so that logical
    neighbours are physical neighbours wherever the two shapes agree.
    """
    if math.prod(dims) != comm.size:
        raise CommunicatorError(
            f"cart dims {tuple(dims)} need exactly {comm.size} ranks"
        )
    periods = tuple(periods) if periods is not None else (True,) * len(dims)

    key = comm._next_coll_key("cart")
    # Collective agreement + synchronisation.
    endpoints = yield from comm.allgather(
        comm.world.endpoint_of(comm.group.gpid_of(comm.rank)), size_bytes=16
    )
    ctx = comm.world.agree_context(key)

    order = list(range(comm.size))
    if reorder:
        order = _torus_aligned_order(comm, endpoints, dims) or order
    new_group = Group([comm.group.gpid_of(r) for r in order])
    return CartComm(comm.world, comm.proc, new_group, ctx, dims, periods)


def _torus_aligned_order(
    comm: Communicator, endpoints: Sequence[str], dims: Sequence[int]
) -> Optional[list[int]]:
    """Old ranks ordered so row-major cart coords follow torus coords.

    Requires every endpoint to expose a ``coord`` attribute on the same
    fabric topology (EXTOLL endpoints do).  Returns None when physical
    coordinates are unavailable or the shapes cannot align.
    """
    transport = comm.world.transport
    coords = {}
    for ep in endpoints:
        fabric = transport._fabric_of(ep)
        if fabric is None or ep not in fabric.topo.graph:
            return None
        data = fabric.topo.graph.nodes[ep]
        if "coord" not in data:
            return None
        coords[ep] = data["coord"]
    # Sort old ranks by physical coordinate, then lay them out
    # row-major onto the requested grid: contiguous physical blocks
    # become contiguous grid rows, minimising the hop count of
    # logical-neighbour traffic.
    by_phys = sorted(range(comm.size), key=lambda r: coords[endpoints[r]])
    return by_phys
