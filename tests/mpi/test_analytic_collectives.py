"""Analytic (LogGP closed-form) collective tier vs the exact tier.

The analytic tier must (a) return the same *values* as the exact
algorithms, (b) land within the calibrated tolerance of the exact
*times* on uniform fabrics, and (c) leave every path it does not model
— nonblocking collectives, intercommunicators, default worlds —
running through the exact per-rank pt2pt machinery.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, MPIError
from repro.fidelity import ANALYTIC, EXACT, FidelityConfig
from repro.mpi import MPIWorld
from repro.mpi.analytic import (
    RING_MIN_BYTES,
    RING_MIN_RANKS,
    CollectiveCostModel,
)
from repro.mpi.ops import MAX, SUM
from repro.network import InfinibandFabric
from repro.network.calibration import collective_loggp
from repro.simkernel import Simulator

# Uniform (single-leaf) fabrics: the analytic model is homogeneous
# LogGP, so the tolerance contract only covers topologies without
# cross-leaf contention.  See docs/ARCHITECTURE.md #10.
LEAF_RADIX = 512
TOLERANCE = 0.05

OPS = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "scan",
    "reduce_scatter",
]


def run_collective(n, fidelity, op, size, seed=0):
    """(final sim time, per-rank results) of one collective round."""
    sim = Simulator(seed=seed)
    eps = [f"cn{i}" for i in range(n)]
    fab = InfinibandFabric(sim, eps, leaf_radix=LEAF_RADIX)
    for e in eps:
        fab.attach_endpoint(e)
    world = MPIWorld(sim, [fab], fidelity=fidelity)

    def main(proc):
        comm = proc.comm_world
        if op == "barrier":
            yield from comm.barrier()
        elif op == "bcast":
            return (yield from comm.bcast("payload", root=0, size_bytes=size))
        elif op == "reduce":
            return (yield from comm.reduce(comm.rank, root=0, size_bytes=size))
        elif op == "allreduce":
            return (yield from comm.allreduce(comm.rank + 1, size_bytes=size))
        elif op == "gather":
            return (yield from comm.gather(comm.rank, root=0, size_bytes=size))
        elif op == "scatter":
            vals = list(range(comm.size)) if comm.rank == 0 else None
            return (yield from comm.scatter(vals, root=0, size_bytes=size))
        elif op == "allgather":
            return (yield from comm.allgather(comm.rank, size_bytes=size))
        elif op == "alltoall":
            return (yield from comm.alltoall(
                [f"{comm.rank}->{d}" for d in range(comm.size)],
                size_bytes=size,
            ))
        elif op == "scan":
            return (yield from comm.scan(comm.rank + 1, size_bytes=size))
        elif op == "reduce_scatter":
            return (yield from comm.reduce_scatter(
                [comm.rank] * comm.size, size_bytes=size
            ))

    world.create_world([(e, None) for e in eps], main)
    sim.run()
    return sim.now, [d.value for d in world.rank_drivers[:n]]


# ---------------------------------------------------------------------------
# Cost model unit behavior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cost_model():
    sim = Simulator(seed=0)
    eps = ["cn0", "cn1", "cn2"]
    fab = InfinibandFabric(sim, eps, leaf_radix=LEAF_RADIX)
    for e in eps:
        fab.attach_endpoint(e)
    return CollectiveCostModel(collective_loggp(fab, "cn0", "cn1"))


class TestCostModel:
    @pytest.mark.parametrize("op", OPS)
    def test_single_rank_is_free(self, cost_model, op):
        assert cost_model.collective_time(op, 1, 64 * 1024) == 0.0

    @pytest.mark.parametrize("op", OPS)
    def test_positive_and_monotone_in_size(self, cost_model, op):
        small = cost_model.collective_time(op, 8, 1024)
        large = cost_model.collective_time(op, 8, 1 << 20)
        assert small > 0.0
        assert large >= small

    def test_zero_byte_collective_still_pays_latency(self, cost_model):
        # A zero-payload message is L + 2o + header serialization, not
        # free — barrier depends on this.
        assert cost_model.msg_time(0) > 0.0
        assert cost_model.collective_time("bcast", 4, 0) > 0.0

    def test_unknown_op_raises(self, cost_model):
        with pytest.raises(MPIError, match="no analytic model"):
            cost_model.collective_time("allfrobnicate", 4, 1024)

    def test_invalid_args_raise(self, cost_model):
        with pytest.raises(ConfigurationError):
            cost_model.collective_time("bcast", 0, 1024)
        with pytest.raises(ConfigurationError):
            cost_model.collective_time("bcast", 4, -1)

    def test_allreduce_auto_matches_exact_heuristic(self, cost_model):
        # Same ring-vs-recursive-doubling switch as collectives.allreduce.
        big, n = RING_MIN_BYTES, RING_MIN_RANKS + 4
        assert cost_model.allreduce(n, big) == cost_model.allreduce(
            n, big, algorithm="ring"
        )
        assert cost_model.allreduce(n, 1024) == cost_model.allreduce(
            n, 1024, algorithm="recursive-doubling"
        )


# ---------------------------------------------------------------------------
# Cross-validation against the exact tier
# ---------------------------------------------------------------------------


class TestCrossValidation:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("n", [16, 32])
    def test_within_tolerance_on_uniform_fabric(self, op, n):
        for size in (1024, 64 * 1024, 1 << 20):
            t_exact, _ = run_collective(n, EXACT, op, size)
            t_analytic, _ = run_collective(n, ANALYTIC, op, size)
            assert t_exact > 0.0
            err = abs(t_analytic - t_exact) / t_exact
            assert err <= TOLERANCE, (
                f"{op} n={n} size={size}: analytic {t_analytic:.3e} vs "
                f"exact {t_exact:.3e} ({err:.1%} > {TOLERANCE:.0%})"
            )

    @pytest.mark.parametrize("op", OPS)
    def test_same_values_as_exact(self, op):
        _, exact_vals = run_collective(8, EXACT, op, 4096)
        _, analytic_vals = run_collective(8, ANALYTIC, op, 4096)
        assert analytic_vals == exact_vals

    def test_odd_world_same_values(self):
        # Non-power-of-two worlds exercise the remainder handling in
        # the folds (recursive-doubling's pre/post phases in exact).
        for op in ("allreduce", "scan", "gather", "alltoall"):
            _, exact_vals = run_collective(5, EXACT, op, 4096)
            _, analytic_vals = run_collective(5, ANALYTIC, op, 4096)
            assert analytic_vals == exact_vals, op

    def test_deterministic_across_runs(self):
        a = run_collective(16, ANALYTIC, "allreduce", 64 * 1024)
        b = run_collective(16, ANALYTIC, "allreduce", 64 * 1024)
        assert a == b


# ---------------------------------------------------------------------------
# Analytic engine plumbing
# ---------------------------------------------------------------------------


def make_world(n, fidelity=None, observe=False):
    sim = Simulator(seed=0, observe=observe)
    eps = [f"cn{i}" for i in range(n)]
    fab = InfinibandFabric(sim, eps, leaf_radix=LEAF_RADIX)
    for e in eps:
        fab.attach_endpoint(e)
    world = MPIWorld(sim, [fab], fidelity=fidelity)
    return sim, world, eps


class TestEnginePlumbing:
    def test_default_world_has_no_engine(self):
        _, world, _ = make_world(2)
        assert world.fidelity.collectives == EXACT
        assert world.analytic_collectives is None

    def test_analytic_world_counts_collectives(self):
        sim, world, eps = make_world(4, fidelity="analytic", observe=True)

        def main(proc):
            yield from proc.comm_world.barrier()
            yield from proc.comm_world.allreduce(1, size_bytes=1024)

        world.create_world([(e, None) for e in eps], main)
        sim.run()
        m = sim.metrics
        # One count per collective round (barrier + allreduce).
        assert m.counter("mpi.analytic_collectives").value == 2
        # No pt2pt traffic was simulated for those collectives.
        assert m.counter("mpi.msgs_sent").value == 0

    def test_nonblocking_stays_exact(self):
        # ibarrier runs on a private tag; program order across ranks is
        # not guaranteed, so the shared-rendezvous trick would deadlock
        # or mismatch.  It must fall through to the exact path.
        sim, world, eps = make_world(4, fidelity="analytic", observe=True)

        def main(proc):
            req = proc.comm_world.ibarrier()
            yield from req.wait()

        world.create_world([(e, None) for e in eps], main)
        sim.run()
        m = sim.metrics
        assert m.counter("mpi.analytic_collectives").value == 0
        assert m.counter("mpi.msgs_sent").value > 0

    def test_mixed_ops_preserve_order(self):
        # Sequenced collectives of the same op on one communicator must
        # pair by program order, not race by arrival order.
        sim, world, eps = make_world(4, fidelity="analytic")

        def main(proc):
            comm = proc.comm_world
            first = yield from comm.allreduce(comm.rank, SUM, size_bytes=1024)
            second = yield from comm.allreduce(comm.rank, MAX, size_bytes=1024)
            return (first, second)

        world.create_world([(e, None) for e in eps], main)
        sim.run()
        n = len(eps)
        expected = (sum(range(n)), n - 1)
        assert [d.value for d in world.rank_drivers[:n]] == [expected] * n

    def test_scatter_validates_root_values(self):
        # Root-side validation fires before the rendezvous, so a bad
        # root call fails fast without desynchronizing the sequence
        # counters — the following valid scatter still pairs up.
        sim, world, eps = make_world(4, fidelity="analytic")

        def main(proc):
            comm = proc.comm_world
            if comm.rank == 0:
                with pytest.raises(MPIError):
                    yield from comm.scatter([1, 2], root=0)
            vals = list(range(comm.size)) if comm.rank == 0 else None
            got = yield from comm.scatter(vals, root=0)
            return got

        world.create_world([(e, None) for e in eps], main)
        sim.run()
        n = len(eps)
        assert [d.value for d in world.rank_drivers[:n]] == list(range(n))


# ---------------------------------------------------------------------------
# Fidelity configuration forms
# ---------------------------------------------------------------------------


class TestFidelityConfig:
    def test_coerce_forms(self):
        assert FidelityConfig.coerce(None) == FidelityConfig()
        assert FidelityConfig.coerce("analytic").collectives == ANALYTIC
        assert FidelityConfig.coerce("analytic").smfu == ANALYTIC
        mixed = FidelityConfig.coerce({"collectives": "analytic"})
        assert mixed.collectives == ANALYTIC
        assert mixed.smfu == EXACT
        cfg = FidelityConfig(collectives=ANALYTIC)
        assert FidelityConfig.coerce(cfg) is cfg

    def test_invalid_forms_raise(self):
        with pytest.raises(ConfigurationError):
            FidelityConfig.coerce("approximate")
        with pytest.raises(ConfigurationError):
            FidelityConfig.coerce({"collectives": "exactish"})
        with pytest.raises(ConfigurationError):
            FidelityConfig.coerce({"frobnication": "exact"})

    def test_as_dict_round_trips(self):
        cfg = FidelityConfig.coerce({"smfu": "analytic"})
        assert FidelityConfig.coerce(cfg.as_dict()) == cfg
