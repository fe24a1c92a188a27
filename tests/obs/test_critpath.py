"""Critical-path extraction, blame attribution and what-if replay.

The unit tests build :class:`CausalGraph` instances by hand from
segments and wake edges — a chain, a fork-join, a cross-process wake
with trigger latency — where the critical path is known exactly, plus
kernel-level tests that the wake edges the tracer records match what
really happened in a simulated run.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.critpath import (
    CausalGraph,
    Segment,
    classify,
    resolve_what_if,
)
from repro.simkernel import Simulator


def seg(start, end, pid, category="ompss", name="work", **fields):
    return Segment(start, end, pid, category, name, fields)


# ---------------------------------------------------------------------------
# Bucket classification and what-if knob resolution
# ---------------------------------------------------------------------------


class TestClassify:
    @pytest.mark.parametrize(
        "category,name,bucket",
        [
            ("net.infiniband", "data:a->b", "infiniband"),
            ("net.extoll", "rma:a->b", "extoll"),
            ("net.smfu", "forward", "smfu"),
            ("mpi", "spawn:worker", "spawn"),
            ("mpi", "send:0->1", "mpi"),
            ("ompss", "gemm(1,2)", "compute"),
            ("compute", "cn0.cpu", "compute"),
            ("parastation", "slot-wait", "scheduler"),
            ("custom", "x", "custom"),
        ],
    )
    def test_buckets(self, category, name, bucket):
        assert classify(category, name) == bucket


class TestResolveWhatIf:
    def test_bandwidth_keys_are_inverse(self):
        assert resolve_what_if("extoll.bw", 2.0) == {"extoll": 0.5}
        assert resolve_what_if("ib.bw", 4.0) == {"infiniband": 0.25}
        assert resolve_what_if("smfu.bw", 2.0) == {"smfu": 0.5}
        assert resolve_what_if("compute.speed", 2.0) == {"compute": 0.5}

    def test_latency_keys_are_direct(self):
        assert resolve_what_if("spawn.latency", 0.25) == {"spawn": 0.25}
        assert resolve_what_if("scheduler.latency", 0.5) == {"scheduler": 0.5}

    def test_raw_bucket_is_direct_multiplier(self):
        assert resolve_what_if("extoll", 0.5) == {"extoll": 0.5}

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            resolve_what_if("extoll.bw", 0.0)
        with pytest.raises(ValueError, match="factor"):
            resolve_what_if("extoll.bw", -1.0)

    def test_segment_bytes_needs_structural_model(self):
        # Without an analytic SMFU model the key is rejected, and the
        # message points at the structural backends that do work.
        with pytest.raises(ValueError, match="re-simulate"):
            resolve_what_if("smfu.segment_bytes", 2.0)
        with pytest.raises(ValueError, match="smfu_model"):
            resolve_what_if("smfu.segment_bytes", 2.0)


# ---------------------------------------------------------------------------
# Hand-built DAGs with known critical paths
# ---------------------------------------------------------------------------


class TestChain:
    """pid0 computes [0,2], wakes pid1, which transfers [2,5]."""

    def graph(self):
        segments = [
            seg(0.0, 2.0, 0, "ompss", "stage-a"),
            seg(2.0, 5.0, 1, "net.extoll", "rma:bn0->bn1"),
        ]
        wakes = [(2.0, 2.0, 0, 1)]
        return CausalGraph(segments, wakes)

    def test_blame_sums_to_makespan(self):
        blame = self.graph().blame()
        assert blame.makespan == 5.0
        assert sum(blame.seconds.values()) == pytest.approx(5.0)
        assert blame.seconds["compute"] == pytest.approx(2.0)
        assert blame.seconds["extoll"] == pytest.approx(3.0)
        assert not blame.partial

    def test_steps_tile_the_makespan(self):
        steps = self.graph().critical_path()
        # Last-to-first: each step's start is the next step's end.
        assert steps[0].end == 5.0
        assert steps[-1].start == 0.0
        for later, earlier in zip(steps, steps[1:]):
            assert later.start == earlier.end

    def test_route_detail_attributed(self):
        blame = self.graph().blame()
        assert blame.detail["extoll"] == {"rma:bn0->bn1": pytest.approx(3.0)}

    def test_what_if_exact_on_chain(self):
        g = self.graph()
        # Halving extoll durations: 2 + 1.5 = 3.5.
        assert g.project({"extoll": 0.5}) == pytest.approx(3.5)
        r = g.what_if("extoll.bw", 2.0)
        assert r.baseline_s == pytest.approx(5.0)
        assert r.projected_s == pytest.approx(3.5)
        assert r.speedup == pytest.approx(5.0 / 3.5)
        # Scaling compute instead: 1 + 3 = 4.
        assert g.project({"compute": 0.5}) == pytest.approx(4.0)
        # Identity replay reproduces the recorded makespan.
        assert g.project({}) == pytest.approx(5.0)


class TestForkJoin:
    """pid0 forks pid1 (3 s) and pid2 (5 s); joins, then finishes.

    The join is caused by the *last-arriving* branch, so pid2 owns the
    critical path and pid1 contributes nothing.
    """

    def graph(self):
        segments = [
            seg(0.0, 1.0, 0, "mpi", "spawn:worker"),
            seg(1.0, 4.0, 1, "ompss", "short-branch"),
            seg(1.0, 6.0, 2, "ompss", "long-branch"),
            seg(6.0, 7.0, 0, "net.infiniband", "data:cn0->cn1"),
        ]
        wakes = [
            (1.0, 1.0, 0, 1),
            (1.0, 1.0, 0, 2),
            (6.0, 6.0, 2, 0),  # join fired by the slow branch
        ]
        return CausalGraph(segments, wakes)

    def test_critical_path_follows_slow_branch(self):
        blame = self.graph().blame()
        assert blame.makespan == 7.0
        assert sum(blame.seconds.values()) == pytest.approx(7.0)
        assert blame.seconds["compute"] == pytest.approx(5.0)  # long branch
        assert blame.seconds["spawn"] == pytest.approx(1.0)
        assert blame.seconds["infiniband"] == pytest.approx(1.0)
        names = [s.detail for s in blame.steps if s.bucket == "compute"]
        assert names == [None]  # ompss segments carry no route detail
        pids = {s.pid for s in blame.steps}
        assert pids == {0, 2}  # the short branch never appears

    def test_what_if_on_noncritical_branch_is_bounded(self):
        g = self.graph()
        # Speeding the long branch x2: pid2 runs [1, 3.5], join at 3.5.
        assert g.project({"compute": 0.5}) == pytest.approx(4.5)
        # Slowing compute x2 doubles both branches; long one still wins.
        assert g.project({"compute": 2.0}) == pytest.approx(12.0)


class TestWakeLatency:
    """Trigger-to-resume latency surfaces as an idle/wake step."""

    def test_delayed_wake_is_idle(self):
        segments = [
            seg(0.0, 2.0, 0, "ompss", "producer"),
            seg(3.0, 4.0, 1, "ompss", "consumer"),
        ]
        # Triggered at 2.0 but resumed only at 3.0 (e.g. delayed succeed).
        wakes = [(3.0, 2.0, 0, 1)]
        blame = CausalGraph(segments, wakes).blame()
        assert blame.makespan == 4.0
        assert sum(blame.seconds.values()) == pytest.approx(4.0)
        assert blame.seconds["idle"] == pytest.approx(1.0)
        assert blame.detail["idle"] == {"wake": pytest.approx(1.0)}

    def test_untraced_gap_is_idle(self):
        segments = [
            seg(0.0, 1.0, 0, "ompss", "a"),
            seg(3.0, 4.0, 0, "ompss", "b"),  # bare-timeout gap between
        ]
        blame = CausalGraph(segments, []).blame()
        assert blame.seconds["idle"] == pytest.approx(2.0)
        assert sum(blame.seconds.values()) == pytest.approx(4.0)


class TestSpanlessIntermediary:
    """What-if must follow wake chains through processes without spans."""

    def test_projection_recurses_through_bare_process(self):
        # pid0 computes [0,2] -> wakes pid1 (no spans) -> pid1 wakes
        # pid2 one second later -> pid2 transfers [3,5].
        segments = [
            seg(0.0, 2.0, 0, "ompss", "stage"),
            seg(3.0, 5.0, 2, "net.extoll", "rma:a->b"),
        ]
        wakes = [(2.0, 2.0, 0, 1), (3.0, 3.0, 1, 2)]
        g = CausalGraph(segments, wakes)
        # Halve compute: pid0 ends at 1; pid1's relay shifts with it, so
        # pid2 starts at 2 and ends at 4 — NOT anchored at original t=3.
        assert g.project({"compute": 0.5}) == pytest.approx(4.0)

    def test_empty_graph(self):
        g = CausalGraph([], [])
        assert g.makespan == 0.0
        assert g.critical_path() == []
        blame = g.blame()
        assert blame.seconds == {}
        assert g.project({"compute": 0.5}) == 0.0


# ---------------------------------------------------------------------------
# Property: blame always partitions the makespan
# ---------------------------------------------------------------------------


@given(
    durations=st.lists(
        st.floats(min_value=1e-4, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=20,
    ),
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
        min_size=20,
        max_size=20,
    ),
    n_pids=st.integers(min_value=1, max_value=5),
)
def test_blame_fractions_sum_to_one(durations, gaps, n_pids):
    """Random hand-off chains: per-bucket seconds tile [0, makespan]."""
    cats = ["ompss", "net.extoll", "net.infiniband", "mpi", "net.smfu"]
    segments, wakes = [], []
    t, prev_pid = 0.0, None
    for i, dur in enumerate(durations):
        pid = i % n_pids
        t += gaps[i]  # idle gap before this stage
        if prev_pid is not None and pid != prev_pid:
            wakes.append((t, t, prev_pid, pid))
        segments.append(seg(t, t + dur, pid, cats[i % len(cats)], f"s{i}"))
        t += dur
        prev_pid = pid
    blame = CausalGraph(segments, wakes).blame()
    assert blame.makespan == pytest.approx(t)
    assert sum(blame.seconds.values()) == pytest.approx(blame.makespan)
    if blame.makespan > 0:
        assert sum(blame.fractions.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Kernel integration: recorded wake edges match real scheduling
# ---------------------------------------------------------------------------


class TestKernelWakeEdges:
    def test_cross_process_wake_recorded(self):
        sim = Simulator(observe=True)
        gate = sim.event("gate")

        def waiter(sim):
            yield gate

        def trigger(sim):
            yield sim.timeout(1.0)
            gate.succeed()

        w = sim.process(waiter(sim), name="waiter")
        tg = sim.process(trigger(sim), name="trigger")
        sim.run()
        tr = sim.trace
        edges = [
            (t_wake, t_trig, tr.proc_names[src], tr.proc_names[dst])
            for t_wake, t_trig, src, dst in tr.wakes
        ]
        assert (1.0, 1.0, "trigger", "waiter") in edges

    def test_finish_wake_attributed_to_finisher(self):
        """Waiting on a process: the finish-wake's source is the child."""
        sim = Simulator(observe=True)

        def child(sim):
            yield sim.timeout(2.0)
            return 42

        def parent(sim):
            value = yield sim.process(child(sim), name="child")
            assert value == 42

        sim.process(parent(sim), name="parent")
        sim.run()
        tr = sim.trace
        edges = [
            (t_wake, t_trig, tr.proc_names[src], tr.proc_names[dst])
            for t_wake, t_trig, src, dst in tr.wakes
        ]
        assert (2.0, 2.0, "child", "parent") in edges

    def test_yield_on_finished_process_records_no_edge(self):
        """A process that never blocks must not inherit a stale cause."""
        sim = Simulator(observe=True)

        def child(sim):
            yield sim.timeout(1.0)

        def parent(sim):
            c = sim.process(child(sim), name="c")
            yield sim.timeout(5.0)  # child long finished
            yield c  # relay resume, not a real block
            yield sim.timeout(1.0)

        sim.process(parent(sim), name="parent")
        sim.run()
        tr = sim.trace
        # No wake edge may claim the parent was woken by the child at
        # the child's (stale) finish time 1.0.
        for t_wake, t_trig, src, dst in tr.wakes:
            if tr.proc_names.get(dst) == "parent":
                assert tr.proc_names.get(src) != "c" or t_wake == t_trig

    def test_timeouts_record_no_wakes(self):
        sim = Simulator(observe=True)

        def p(sim):
            for _ in range(5):
                yield sim.timeout(1.0)

        sim.process(p(sim))
        sim.run()
        assert len(sim.trace.wakes) == 0

    def test_tracing_off_records_nothing(self):
        sim = Simulator()
        done = sim.event("done")

        def waiter(sim):
            yield done

        def trigger(sim):
            yield sim.timeout(1.0)
            done.succeed()

        sim.process(waiter(sim))
        sim.process(trigger(sim))
        sim.run()
        assert len(sim.trace.wakes) == 0
        assert len(sim.trace.counters) == 0


class TestPartialFlag:
    def test_from_trace_carries_names_and_segments(self):
        sim = Simulator(observe=True)

        def p(sim):
            with sim.trace.span("ompss", "work"):
                yield sim.timeout(3.0)

        sim.process(p(sim), name="worker")
        sim.run()
        g = CausalGraph.from_trace(sim.trace)
        assert g.makespan == pytest.approx(3.0)
        assert "worker" in g.proc_names.values()
        blame = g.blame()
        assert not blame.partial
        assert blame.seconds["compute"] == pytest.approx(3.0)


class TestSystemAPI:
    def test_untraced_system_raises(self):
        from repro.deep import DeepSystem, MachineConfig

        system = DeepSystem(MachineConfig(n_cluster=1, n_booster=1))
        with pytest.raises(ConfigurationError, match="trace"):
            system.causal_graph()

    def test_render_and_as_dict_shapes(self):
        blame = CausalGraph(
            [seg(0.0, 2.0, 0, "net.extoll", "rma:a->b")], []
        ).blame()
        text = blame.render()
        assert "critical path" in text and "extoll" in text
        d = blame.as_dict()
        assert set(d) == {
            "makespan_s", "partial", "n_steps", "seconds",
            "fractions", "detail",
        }
        assert d["seconds"]["extoll"] == pytest.approx(2.0)


class TestStructuralSegmentBytesWhatIf:
    """what_if("smfu.segment_bytes", ...) with an analytic SMFU model:
    bridged-transfer segments are rescaled by their route's closed-form
    ratio instead of the key being rejected."""

    @staticmethod
    def bridged_world(segment_bytes, seed=7):
        from repro.mpi import MPIWorld
        from repro.network import (
            ClusterBoosterBridge,
            ExtollFabric,
            InfinibandFabric,
            SMFUGateway,
        )
        from repro.network.smfu import SMFUSpec

        sim = Simulator(seed=seed, observe=True)
        cns, bns, gws = ["cn0", "cn1"], ["bn0", "bn1"], ["bi0"]
        ib = InfinibandFabric(sim, cns + gws)
        for e in cns + gws:
            ib.attach_endpoint(e)
        ex = ExtollFabric(sim, bns + gws)
        for e in bns + gws:
            ex.attach_endpoint(e)
        spec = SMFUSpec(segment_bytes=segment_bytes)
        bridge = ClusterBoosterBridge([SMFUGateway(sim, "bi0", ib, ex, spec=spec)])
        world = MPIWorld(sim, [ib, ex], bridge)

        def main(proc):
            comm = proc.comm_world
            for _ in range(2):
                yield from comm.alltoall(
                    list(range(comm.size)), size_bytes=1 << 20
                )

        world.create_world([(e, None) for e in cns + bns], main)
        sim.run()
        return sim, bridge

    def test_rejected_without_model(self):
        sim, _ = self.bridged_world(64 << 10)
        g = CausalGraph.from_trace(sim.trace)
        with pytest.raises(ValueError, match="smfu_model"):
            g.what_if("smfu.segment_bytes", 4.0)

    def test_nonpositive_factor_rejected(self):
        sim, bridge = self.bridged_world(64 << 10)
        g = CausalGraph.from_trace(sim.trace)
        with pytest.raises(ValueError, match="factor"):
            g.what_if("smfu.segment_bytes", 0.0, smfu_model=bridge)

    def test_projection_tracks_resimulation(self):
        sim, bridge = self.bridged_world(64 << 10)
        g = CausalGraph.from_trace(sim.trace)
        for factor, seg in ((4.0, 256 << 10), (0.25, 16 << 10)):
            result = g.what_if("smfu.segment_bytes", factor, smfu_model=bridge)
            true_sim, _ = self.bridged_world(seg)
            assert result.baseline_s == pytest.approx(sim.now)
            assert result.projected_s == pytest.approx(true_sim.now, rel=0.05)

    def test_control_packets_unscaled_data_scaled(self):
        # One route carries both rendezvous control packets (below the
        # segment size, structurally insensitive) and the 1 MiB data
        # transfers; the per-(route, size) ratios must not bleed into
        # each other.
        sim, bridge = self.bridged_world(64 << 10)
        g = CausalGraph.from_trace(sim.trace)
        result = g.what_if("smfu.segment_bytes", 4.0, smfu_model=bridge)
        def size_of(key):
            return int(key.rpartition(":")[2])

        small = [v for k, v in result.scales.items() if size_of(k) <= 64 << 10]
        data = [v for k, v in result.scales.items() if size_of(k) >= 1 << 20]
        assert small and all(v == pytest.approx(1.0) for v in small)
        assert data and all(v > 1.1 for v in data)

    def test_result_is_json_serializable(self):
        import json

        sim, bridge = self.bridged_world(64 << 10)
        g = CausalGraph.from_trace(sim.trace)
        result = g.what_if("smfu.segment_bytes", 2.0, smfu_model=bridge)
        json.dumps(result.as_dict())

    def test_system_what_if_routes_structurally(self):
        # DeepSystem.what_if hands its bridge to the graph, so the
        # structural key is accepted instead of raising — even for a
        # run with no bridged traffic, where the projection is the
        # identity.
        from repro.deep import DeepSystem, MachineConfig

        system = DeepSystem(
            MachineConfig(n_cluster=2, n_booster=4), observe=True
        )

        def main(proc):
            yield from proc.comm_world.barrier()

        system.launch(main)
        system.run()
        result = system.what_if("smfu.segment_bytes", 0.5)
        assert result.baseline_s > 0
        # No bridged segments were traced, so every segment keeps its
        # duration: the projection equals the graph's identity replay.
        assert result.projected_s == pytest.approx(
            system.causal_graph().project({})
        )
