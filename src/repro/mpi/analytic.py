"""LogGP-analytic collective costs and the in-sim rendezvous engine.

The analytic fidelity tier replaces a collective's per-rank pt2pt
cascade with a single shared event: every rank of the communicator
deposits its contribution, the last arrival charges the closed-form
cost of the *same algorithm the exact model would run* (dissemination
barrier, binomial trees, recursive doubling / ring, ...), and all ranks
resume together with functionally correct results.  Event count per
collective drops from ``O(n log n)`` to ``O(n)`` (one resume per rank),
and the cost model itself — :class:`CollectiveCostModel` — is pure
arithmetic, so sweeps can evaluate it directly at 10^5 ranks without
building a world at all (see the ``collective_scale`` experiment).

Calibration: one LogGP fit per fabric, produced by
:func:`repro.network.calibration.collective_loggp` from the same ideal
path times a ping-pong microbenchmark would measure.  Messages are
costed the way the exact transport charges them: ``HEADER_BYTES`` of
envelope on every packet, eager below the world's threshold,
rendezvous (RTS/CTS handshake) above it.

What the analytic tier deliberately drops: link contention between
ranks, skew between ranks *inside* one collective, and per-pair
distance variation (the model is calibrated on one representative pair,
so distance-heterogeneous fabrics — tori, bridged worlds — are charged
a uniform per-message cost).  Cross-validation in the test suite bounds
the resulting error on uncontended fat-tree fabrics to <= 5% at
2^4..2^8 ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ConfigurationError, MPIError
from repro.mpi.pt2pt import HEADER_BYTES
from repro.network.loggp import LogGPModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator
    from repro.mpi.world import MPIWorld

#: MPICH-style allreduce auto heuristic thresholds (must mirror
#: ``repro.mpi.collectives.allreduce``).
RING_MIN_BYTES = 64 * 1024
RING_MIN_RANKS = 4


def _ceil_log2(n: int) -> int:
    rounds, k = 0, 1
    while k < n:
        k <<= 1
        rounds += 1
    return rounds


def _pof2_below(n: int) -> int:
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    return pof2


@dataclass(frozen=True, slots=True)
class CollectiveCostModel:
    """Closed-form collective costs over one calibrated LogGP model.

    ``msg_time`` mirrors the exact transport's per-message charging;
    the per-collective forms mirror the round structure of the exact
    algorithms in :mod:`repro.mpi.collectives` (sums over rounds, not
    textbook formulas), so the two tiers agree on non-power-of-two
    sizes and on the auto algorithm selection.
    """

    loggp: LogGPModel
    eager_threshold: int = 32 * 1024
    header_bytes: int = HEADER_BYTES

    def msg_time(self, payload_bytes: int) -> float:
        """One matched point-to-point message of *payload_bytes*.

        Eager: one packet of payload + header.  Rendezvous: RTS and CTS
        header round-trip, then the data packet.
        """
        if payload_bytes < 0:
            raise ConfigurationError(f"negative message size {payload_bytes}")
        t_data = self.loggp.transfer_time(payload_bytes + self.header_bytes)
        if payload_bytes <= self.eager_threshold:
            return t_data
        t_hdr = self.loggp.transfer_time(self.header_bytes)
        return 2 * t_hdr + t_data

    # -- per-collective closed forms ----------------------------------
    def barrier(self, n: int) -> float:
        """Dissemination barrier: ceil(log2 n) paired zero-byte rounds."""
        return _ceil_log2(n) * self.msg_time(0) if n > 1 else 0.0

    def bcast(self, n: int, size_bytes: int) -> float:
        """Binomial tree: the root's ceil(log2 n) sequential sends
        dominate; receivers' subtrees complete in their shadow."""
        return _ceil_log2(n) * self.msg_time(size_bytes) if n > 1 else 0.0

    def reduce(self, n: int, size_bytes: int) -> float:
        """Binomial tree, mirror image of bcast."""
        return self.bcast(n, size_bytes)

    def allreduce(
        self, n: int, size_bytes: int, algorithm: str = "auto"
    ) -> float:
        if n <= 1:
            return 0.0
        if algorithm == "auto":
            algorithm = (
                "ring"
                if (size_bytes >= RING_MIN_BYTES and n > RING_MIN_RANKS)
                else "recursive-doubling"
            )
        if algorithm == "recursive-doubling":
            pof2 = _pof2_below(n)
            rem = n - pof2
            msg = self.msg_time(size_bytes)
            # Fold-in + log2(pof2) doubling rounds + hand-back.
            return (2 * msg if rem else 0.0) + _ceil_log2(pof2) * msg
        if algorithm == "ring":
            chunk = max(size_bytes // n, 1)
            return 2 * (n - 1) * self.msg_time(chunk)
        if algorithm == "reduce-bcast":
            return self.reduce(n, size_bytes) + self.bcast(n, size_bytes)
        raise MPIError(f"unknown allreduce algorithm {algorithm!r}")

    def _tree_ladder(self, n: int, size_bytes: int) -> float:
        """Shared cost of binomial gather/scatter: the root moves one
        message per round whose payload covers the round's subtree
        (mask .. min(2*mask, n) ranks); subtree work overlaps."""
        total, mask = 0.0, 1
        while mask < n:
            blocks = min(2 * mask, n) - mask
            total += self.msg_time(size_bytes * blocks)
            mask <<= 1
        return total

    def gather(self, n: int, size_bytes: int) -> float:
        return self._tree_ladder(n, size_bytes) if n > 1 else 0.0

    def scatter(self, n: int, size_bytes: int) -> float:
        return self._tree_ladder(n, size_bytes) if n > 1 else 0.0

    def allgather(self, n: int, size_bytes: int) -> float:
        """Ring: n-1 neighbour rounds of one block each."""
        return (n - 1) * self.msg_time(size_bytes) if n > 1 else 0.0

    def alltoall(self, n: int, size_bytes: int) -> float:
        """Pairwise exchange: n-1 sendrecv rounds."""
        return (n - 1) * self.msg_time(size_bytes) if n > 1 else 0.0

    def scan(self, n: int, size_bytes: int) -> float:
        """Linear pipeline: the last rank waits for n-1 chained hops."""
        return (n - 1) * self.msg_time(size_bytes) if n > 1 else 0.0

    def reduce_scatter(self, n: int, size_bytes: int) -> float:
        """Ring reduce-scatter: n-1 reducing rounds + the final shift."""
        if n <= 1:
            return 0.0
        chunk = max(size_bytes // n, 1)
        return n * self.msg_time(chunk)

    def collective_time(
        self, op: str, n: int, size_bytes: int, algorithm: Optional[str] = None
    ) -> float:
        """Dispatch by collective name (the engine's single entry)."""
        if n < 1:
            raise ConfigurationError(f"communicator size must be >= 1, got {n}")
        if size_bytes < 0:
            raise ConfigurationError(f"negative collective size {size_bytes}")
        if op == "barrier":
            return self.barrier(n)
        if op == "bcast":
            return self.bcast(n, size_bytes)
        if op == "reduce":
            return self.reduce(n, size_bytes)
        if op == "allreduce":
            return self.allreduce(n, size_bytes, algorithm or "auto")
        if op == "gather":
            return self.gather(n, size_bytes)
        if op == "scatter":
            return self.scatter(n, size_bytes)
        if op == "allgather":
            return self.allgather(n, size_bytes)
        if op == "alltoall":
            return self.alltoall(n, size_bytes)
        if op == "scan":
            return self.scan(n, size_bytes)
        if op == "reduce_scatter":
            return self.reduce_scatter(n, size_bytes)
        raise MPIError(f"no analytic model for collective {op!r}")


class _Rendezvous:
    """Shared state of one in-flight analytic collective."""

    __slots__ = ("event", "contribs", "size")

    def __init__(self, event, size: int) -> None:
        self.event = event
        self.contribs: dict[int, Any] = {}
        self.size = size


class AnalyticCollectiveEngine:
    """Synchronises the ranks of a collective on one shared event.

    Ranks arriving at a blocking collective call :meth:`rendezvous`;
    the state is keyed by ``(context_id, first_gpid, op, seq)`` where
    ``seq`` is a per-communicator call counter — identical across ranks
    because blocking collectives execute in program order on every rank
    (nonblocking collectives stay on the exact path precisely because
    their *process start* order is not guaranteed).  ``first_gpid``
    disambiguates the two local groups of an inter-communicator, which
    share a context id in ``barrier_local``.  State is popped by the
    last arrival *before* the completion event is scheduled, so a
    reused key (e.g. the fresh per-call local views of
    ``Intercommunicator.merge``) can never collide with a live one.

    Completion fires ``collective_time(...)`` after the **last**
    arrival — the first-order behaviour of the exact algorithms, where
    stragglers stall round one for everyone.

    The world owns its engine, and every call names a communicator
    that leads back to the world, so the engine keeps no reference to
    it.
    """

    def __init__(self, world: "MPIWorld") -> None:
        self.sim = world.sim
        self._pending: dict[tuple, _Rendezvous] = {}
        #: fabric id -> calibrated per-fabric cost model
        self._fabric_models: dict[int, CollectiveCostModel] = {}
        #: (context_id, first_gpid) -> resolved per-communicator model
        self._comm_models: dict[tuple, CollectiveCostModel] = {}
        self._m_coll = world.sim.metrics.counter("mpi.analytic_collectives")

    # -- calibration ----------------------------------------------------
    def _fabric_model(
        self, fabric, src: str, dst: str, eager_threshold: int
    ) -> CollectiveCostModel:
        key = (id(fabric), src, dst)
        model = self._fabric_models.get(key)
        if model is None:
            from repro.network.calibration import collective_loggp

            model = CollectiveCostModel(
                collective_loggp(fabric, src, dst),
                eager_threshold=eager_threshold,
            )
            self._fabric_models[key] = model
        return model

    def model_for(self, comm: "Communicator") -> CollectiveCostModel:
        """The cost model of *comm*: calibrated once per fabric (or per
        bridged fabric pair) and cached per communicator identity."""
        key = (comm.context_id, comm.group.gpid_of(0))
        model = self._comm_models.get(key)
        if model is not None:
            return model
        world = comm.world
        transport = world.transport
        endpoints = [world.endpoint_of(g) for g in comm.group.gpids]
        fabrics = []
        for ep in endpoints:
            fab = transport._fabric_of(ep)
            if fab is None:
                raise MPIError(f"endpoint {ep!r} not attached to any fabric")
            if fab not in fabrics:
                fabrics.append(fab)
        if len(fabrics) == 1:
            # Calibrate on the *slower* of a near pair (adjacent ranks)
            # and a far pair (first vs last): synchronised collective
            # rounds are gated by their slowest hop, so on hierarchical
            # topologies (multi-leaf fat trees, tori) the distant pair
            # is what exact round times converge to.
            fab = fabrics[0]
            src = endpoints[0]
            near = next((ep for ep in endpoints if ep != src), src)
            far = next((ep for ep in reversed(endpoints) if ep != src), src)
            probe = 64 * 1024
            dst = max(
                (near, far),
                key=lambda ep: fab.ideal_transfer_time(src, ep, probe),
            )
            model = self._fabric_model(fab, src, dst, world.eager_threshold)
        else:
            # Mixed cluster/booster communicator: charge the calibrated
            # bridged-pair cost uniformly (conservative — intra-fabric
            # messages are cheaper, so the analytic tier upper-bounds
            # these collectives rather than matching them tightly).
            from repro.network.calibration import bridged_loggp

            bridge = transport.bridge
            if bridge is None:
                raise MPIError(
                    "communicator spans multiple fabrics but the world "
                    "has no Cluster-Booster bridge"
                )
            first = {id(f): None for f in fabrics}
            for ep in endpoints:
                fid = id(transport._fabric_of(ep))
                if first.get(fid) is None:
                    first[fid] = ep
            pair = [ep for ep in first.values() if ep is not None][:2]
            model = CollectiveCostModel(
                bridged_loggp(bridge, pair[0], pair[1]),
                eager_threshold=world.eager_threshold,
            )
        self._comm_models[key] = model
        return model

    # -- the rendezvous --------------------------------------------------
    def rendezvous(
        self,
        comm: "Communicator",
        op: str,
        size_bytes: int,
        contribution: Any,
        algorithm: Optional[str] = None,
    ):
        """Generator: deposit this rank's contribution, resume when the
        collective's closed-form cost has elapsed after the last
        arrival.  Returns the rank -> contribution dict shared by all
        ranks; callers compute their own result from it (functional
        semantics stay testable)."""
        n = comm.size
        if n == 1:
            return {comm.rank: contribution}
        sim = self.sim
        seq = getattr(comm, "_analytic_seq", 0) + 1
        comm._analytic_seq = seq
        key = (comm.context_id, comm.group.gpid_of(0), op, seq)
        state = self._pending.get(key)
        if state is None:
            state = _Rendezvous(sim.event(f"acoll:{op}:{comm.context_id}"), n)
            self._pending[key] = state
        elif state.size != n:  # pragma: no cover - defensive
            raise MPIError(
                f"analytic collective {op!r} key collision: "
                f"{state.size} vs {n} ranks"
            )
        state.contribs[comm.rank] = contribution
        t_arrive = sim.now
        if len(state.contribs) == n:
            # Last arrival: retire the key first (see class docstring),
            # then schedule completion.  succeed() runs inside this
            # rank's process, so the wake edges every waiter records
            # point at the straggler — causally correct blame for free.
            del self._pending[key]
            cost = self.model_for(comm).collective_time(
                op, n, size_bytes, algorithm
            )
            state.event.succeed(state.contribs, delay=cost)
            self._m_coll.add(1)
        contribs = yield state.event
        tr = sim.trace
        if tr.enabled:
            tr.record_span(
                "mpi", f"coll:{op}", t_arrive, sim.now,
                size=size_bytes, ranks=n,
            )
        return contribs
