"""Analytic (closed-form) tier of the SMFU bridge vs the exact tier.

``pipelined_bridge_time`` must reproduce the event-driven segmented
path on uncontended bridges, the ``fidelity="analytic"`` bridge mode
must keep every piece of accounting comparable to exact, and
``segment_bytes_ratio`` is the structural backend behind
``what_if("smfu.segment_bytes", ...)``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.network import (
    ClusterBoosterBridge,
    ExtollFabric,
    InfinibandFabric,
    SMFUGateway,
)
from repro.network.smfu import SMFUSpec, pipelined_bridge_time
from repro.simkernel import Simulator

from tests.conftest import run_to_end


def make_bridge(segment_bytes, fidelity="exact", seed=0, spec_kw=None):
    sim = Simulator(seed=seed, observe=True)
    cns, bns, gws = ["cn0", "cn1"], ["bn0", "bn1"], ["bi0"]
    ib = InfinibandFabric(sim, cns + gws)
    for e in cns + gws:
        ib.attach_endpoint(e)
    ex = ExtollFabric(sim, bns + gws)
    for e in bns + gws:
        ex.attach_endpoint(e)
    spec = SMFUSpec(segment_bytes=segment_bytes, **(spec_kw or {}))
    gw = SMFUGateway(sim, "bi0", ib, ex, spec=spec)
    return sim, ClusterBoosterBridge([gw], fidelity=fidelity), gw


def bridged_record(segment_bytes, size, fidelity="exact", spec_kw=None):
    sim, bridge, gw = make_bridge(segment_bytes, fidelity, spec_kw=spec_kw)

    def p(sim):
        rec = yield from bridge.transfer("cn0", "bn0", size)
        return rec

    rec = run_to_end(sim, p(sim))
    return rec, gw, sim


class TestClosedForm:
    def test_empty_is_free(self):
        assert pipelined_bridge_time([], 1e-6, 1e9, 1e9, 2, 1e-6, 1e-6, 1e9) == 0.0

    def test_engines_validated(self):
        with pytest.raises(ConfigurationError):
            pipelined_bridge_time([1024], 1e-6, 1e9, 1e9, 0, 0.0, 1e-6, 1e9)

    def test_single_segment_is_sum_of_stages(self):
        t = pipelined_bridge_time([1000], 1e-6, 1e9, 2e9, 2, 5e-7, 2e-6, 4e9)
        expected = (1000 / 1e9 + 1e-6) + (1000 / 2e9 + 5e-7) + (1000 / 4e9 + 2e-6)
        assert t == pytest.approx(expected)

    def test_pipelining_beats_store_and_forward(self):
        whole = pipelined_bridge_time([1 << 20], 1e-6, 1e9, 1e9, 2, 5e-7, 1e-6, 1e9)
        segmented = pipelined_bridge_time(
            [64 << 10] * 16, 1e-6, 1e9, 1e9, 2, 5e-7, 1e-6, 1e9
        )
        assert segmented < whole
        # Lower bound: the slowest stage's serialization time.
        assert segmented >= (1 << 20) / 1e9

    @pytest.mark.parametrize("size", [1 << 20, 8 << 20])
    @pytest.mark.parametrize("seg", [64 << 10, 256 << 10])
    @pytest.mark.parametrize("engines", [1, 2, 4])
    def test_matches_exact_segmented_path(self, size, seg, engines):
        rec, _, _ = bridged_record(seg, size, spec_kw={"engines": engines})
        sim, bridge, _ = make_bridge(seg, spec_kw={"engines": engines})
        t = bridge.analytic_transfer_time("cn0", "bn0", size)
        assert t == pytest.approx(rec.duration, rel=1e-6)

    def test_matches_exact_whole_message_path(self):
        rec, _, _ = bridged_record(None, 1 << 20)
        _, bridge, _ = make_bridge(None)
        t = bridge.analytic_transfer_time("cn0", "bn0", 1 << 20)
        assert t == pytest.approx(rec.duration, rel=1e-6)


class TestAnalyticBridgeMode:
    def test_duration_matches_exact(self):
        exact, _, _ = bridged_record(64 << 10, 4 << 20, fidelity="exact")
        analytic, _, _ = bridged_record(64 << 10, 4 << 20, fidelity="analytic")
        assert analytic.duration == pytest.approx(exact.duration, rel=1e-6)
        assert analytic.hops == exact.hops

    def test_accounting_matches_exact(self):
        size = 4 << 20
        _, gw_e, sim_e = bridged_record(64 << 10, size, fidelity="exact")
        _, gw_a, sim_a = bridged_record(64 << 10, size, fidelity="analytic")
        for gw in (gw_e, gw_a):
            assert gw.forwarded_bytes == size
            assert gw.forwarded_messages == 1
            assert gw.queued_bytes == 0

    def test_analytic_collapses_event_count(self):
        _, _, sim_e = bridged_record(16 << 10, 16 << 20, fidelity="exact")
        _, _, sim_a = bridged_record(16 << 10, 16 << 20, fidelity="analytic")
        # 1024 segments x 3 stages of events vs a single timeout.
        assert sim_a._events_processed < sim_e._events_processed / 10

    def test_small_messages_take_exact_path_in_both_tiers(self):
        # Below segment_bytes there is nothing to pipeline; the
        # analytic gate only replaces the segmented cascade.
        exact, _, _ = bridged_record(1 << 20, 64, fidelity="exact")
        analytic, _, _ = bridged_record(1 << 20, 64, fidelity="analytic")
        assert analytic.duration == pytest.approx(exact.duration)

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ConfigurationError):
            make_bridge(None, fidelity="sloppy")


class TestSegmentBytesRatio:
    def test_factor_must_be_positive(self):
        _, bridge, _ = make_bridge(64 << 10)
        with pytest.raises(ConfigurationError):
            bridge.segment_bytes_ratio("cn0", "bn0", 1 << 20, 0.0)

    def test_unknown_gateway_rejected(self):
        _, bridge, _ = make_bridge(64 << 10)
        with pytest.raises(RoutingError):
            bridge.analytic_transfer_time("cn0", "bn0", 1 << 20, gateway="bi9")

    def test_growing_segments_slows_segmented_transfer(self):
        _, bridge, _ = make_bridge(64 << 10)
        ratio = bridge.segment_bytes_ratio("cn0", "bn0", 4 << 20, 8.0)
        assert ratio > 1.0

    def test_ratio_matches_resimulation(self):
        size = 4 << 20
        base, _, _ = bridged_record(64 << 10, size)
        scaled, _, _ = bridged_record(256 << 10, size)
        _, bridge, _ = make_bridge(64 << 10)
        ratio = bridge.segment_bytes_ratio("cn0", "bn0", size, 4.0)
        assert ratio == pytest.approx(scaled.duration / base.duration, rel=1e-6)

    def test_none_baseline_introduces_pipelining(self):
        # Unsegmented machine: the baseline segment is the whole
        # message, so shrinking it pipelines and the ratio drops.
        _, bridge, _ = make_bridge(None)
        ratio = bridge.segment_bytes_ratio("cn0", "bn0", 16 << 20, 0.25)
        assert ratio < 1.0

    def test_tiny_messages_are_insensitive(self):
        _, bridge, _ = make_bridge(64 << 10)
        assert bridge.segment_bytes_ratio("cn0", "bn0", 64, 4.0) == pytest.approx(1.0)
