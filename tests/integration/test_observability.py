"""Whole-simulation observability: spans, exports, reconciliation.

One traced offload run must yield a valid Chrome trace with spans
from every major subsystem, and a metrics dump whose counters
reconcile with the simulation's own accounting — and turning
observability on must not change the simulated results.
"""

import json

import pytest

from repro import DeepSystem, MachineConfig
from repro.apps import stencil_graph
from repro.deep import OFFLOAD_WORKER_COMMAND, offload_graph, offload_worker


def run_offload(**obs_kwargs):
    system = DeepSystem(
        MachineConfig(n_cluster=2, n_booster=8, n_gateways=2), **obs_kwargs
    )
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)
    out = {}

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, OFFLOAD_WORKER_COMMAND, 8)
        if cw.rank == 0:
            out["result"] = yield from offload_graph(
                proc, inter, stencil_graph(8, sweeps=3)
            )
        yield from cw.barrier()

    system.launch(main)
    system.run()
    return system, out["result"]


@pytest.fixture(scope="module")
def observed():
    return run_offload(observe=True)


class TestSpans:
    def test_spans_cover_major_subsystems(self, observed):
        system, _ = observed
        cats = {sp.category for sp in system.sim.trace.spans}
        assert {"kernel", "mpi", "ompss", "net.smfu"} <= cats
        assert cats & {"net.infiniband", "net.extoll"}

    def test_spawn_span_recorded(self, observed):
        system, _ = observed
        spawn = [sp for sp in system.sim.trace.select_spans("mpi")
                 if sp.name.startswith("spawn:")]
        assert len(spawn) == 1
        assert spawn[0]["n"] == 8
        assert spawn[0].duration > 0

    def test_task_spans_match_result(self, observed):
        system, result = observed
        tasks = list(system.sim.trace.select_spans("ompss"))
        assert len(tasks) == result.n_tasks


class TestChromeTraceExport:
    def test_valid_trace_with_all_subsystem_lanes(self, observed, tmp_path):
        system, _ = observed
        path = tmp_path / "trace.json"
        system.write_trace(path)
        doc = json.loads(path.read_text())
        groups = {e["args"]["name"] for e in doc["traceEvents"]
                  if e["ph"] == "M"}
        assert {"kernel", "mpi", "ompss", "net.smfu"} <= groups
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(system.sim.trace.spans)
        for e in xs:
            assert e["dur"] >= 0
            assert "span_id" in e["args"]


class TestMetricsReconciliation:
    def test_smfu_bytes_match_gateway_counters(self, observed):
        system, _ = observed
        m = system.sim.metrics
        gw_bytes = sum(
            g.forwarded_bytes for g in system.machine.bridge.gateways
        )
        gw_msgs = sum(
            g.forwarded_messages for g in system.machine.bridge.gateways
        )
        assert m.get("smfu.bytes_forwarded").value == gw_bytes > 0
        assert m.get("smfu.msgs_forwarded").value == gw_msgs > 0

    def test_net_bytes_match_fabric_counters(self, observed):
        system, _ = observed
        m = system.sim.metrics
        fabric_bytes = sum(f.total_bytes() for f in system.machine.fabrics)
        # net.bytes counts transfer payloads; fabric byte counters count
        # per-link carried bytes (a transfer crosses several links), so
        # the fabric total must dominate.
        assert 0 < m.get("net.bytes").value <= fabric_bytes

    def test_ompss_task_counter_matches_result(self, observed):
        system, result = observed
        assert system.sim.metrics.get("ompss.tasks_run").value == result.n_tasks

    def test_spawn_histogram_observed_once(self, observed):
        system, _ = observed
        assert system.sim.metrics.get("mpi.spawns").value == 1
        h = system.sim.metrics.get("spawn.latency_s")
        assert h.count == 1
        assert h.total > 0

    def test_mpi_counters_positive(self, observed):
        system, _ = observed
        m = system.sim.metrics
        assert m.get("mpi.msgs_sent").value > 0
        assert m.get("mpi.msgs_matched").value > 0
        assert m.get("mpi.bytes_sent").value > 0

    def test_metrics_dump_exports(self, observed, tmp_path):
        system, _ = observed
        path = tmp_path / "metrics.json"
        system.write_metrics(path)
        d = json.loads(path.read_text())
        assert d["counters"]["smfu.bytes_forwarded"] > 0
        assert d["kernel"]["now"] == system.sim.now


class TestNonPerturbation:
    def test_observability_does_not_change_results(self, observed):
        _, traced = observed
        plain_system, plain = run_offload()
        assert plain.n_tasks == traced.n_tasks
        assert plain.elapsed_s == traced.elapsed_s
        assert plain_system.sim.now == observed[0].sim.now

    def test_disabled_run_records_nothing(self):
        system, _ = run_offload()
        assert len(system.sim.trace.events) == 0
        assert len(system.sim.trace.spans) == 0
        assert len(system.sim.metrics) == 0


class TestContentionReport:
    def test_report_names_hot_components(self, observed):
        system, _ = observed
        report = system.contention_report()
        assert "contention report" in report
        assert "smfu bi0" in report
        assert "fabric" in report
        assert "kernel:" in report
