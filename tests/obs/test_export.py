"""Exporters: lane assignment, Chrome trace schema, JSONL, metrics dumps."""

import json

import pytest

from repro.obs.export import (
    assign_lanes,
    chrome_trace,
    iter_jsonl,
    metrics_dict,
    render_metrics_text,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.simkernel import Simulator
from repro.simkernel.trace import TraceRecorder


class TestAssignLanes:
    def test_disjoint_share_one_lane(self):
        assert assign_lanes([(0, 1), (1, 2), (2, 3)]) == [0, 0, 0]

    def test_overlapping_get_distinct_lanes(self):
        assert assign_lanes([(0, 2), (1, 3), (2.5, 4)]) == [0, 1, 0]

    def test_identical_start_times(self):
        assert assign_lanes([(0, 1), (0, 1), (0, 1)]) == [0, 1, 2]

    def test_zero_duration_interval_frees_its_lane(self):
        # A zero-duration span occupies lane 0 only for an instant; the
        # next span starting at the same time may reuse it.
        assert assign_lanes([(1, 1), (1, 2)]) == [0, 0]

    def test_zero_duration_overlapping_open_interval(self):
        assert assign_lanes([(0, 2), (1, 1), (1, 3)]) == [0, 1, 1]

    def test_empty(self):
        assert assign_lanes([]) == []


def _traced_recorder():
    tr = TraceRecorder(enabled=True)
    tr.record_span("ompss", "t0", 0.0, 2.0, task_id=0)
    tr.record_span("ompss", "t1", 1.0, 3.0, task_id=1)
    tr.record_span("net.extoll", "x", 0.5, 1.5, size=64)
    tr.record("mpi.send", time=0.25, dest=1)
    return tr


class TestChromeTrace:
    def test_category_process_groups(self):
        doc = chrome_trace(_traced_recorder())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"ompss", "net.extoll", "mpi.send"}
        assert len({e["pid"] for e in meta}) == 3

    def test_overlapping_spans_get_distinct_tids(self):
        doc = chrome_trace(_traced_recorder())
        tasks = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["cat"] == "ompss"]
        assert len(tasks) == 2
        assert tasks[0]["tid"] != tasks[1]["tid"]

    def test_span_args_carry_ids_and_fields(self):
        doc = chrome_trace(_traced_recorder())
        t0 = next(e for e in doc["traceEvents"] if e.get("name") == "t0")
        assert t0["args"]["task_id"] == 0
        assert "span_id" in t0["args"]
        assert t0["ts"] == 0.0
        assert t0["dur"] == pytest.approx(2e6)  # 2 s in us

    def test_point_events_become_instants(self):
        doc = chrome_trace(_traced_recorder())
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(inst) == 1
        assert inst[0]["name"] == "mpi.send"
        assert inst[0]["args"] == {"dest": 1}

    def test_written_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, _traced_recorder())
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestJsonl:
    def test_each_line_parses(self):
        lines = list(iter_jsonl(_traced_recorder()))
        docs = [json.loads(line) for line in lines]
        assert [d["type"] for d in docs] == ["event", "span", "span", "span"]
        span_names = {d["name"] for d in docs if d["type"] == "span"}
        assert span_names == {"t0", "t1", "x"}


class TestMetricsDumps:
    def test_metrics_dict_includes_kernel_counters(self):
        sim = Simulator(observe=True)

        def proc(sim):
            yield sim.timeout(1.0)

        sim.process(proc(sim))
        sim.run()
        sim.metrics.counter("a").add(3)
        d = metrics_dict(sim.metrics, sim)
        assert d["counters"]["a"] == 3
        assert d["kernel"]["now"] == 1.0
        assert d["kernel"]["events_processed"] > 0

    def test_text_vs_json_by_suffix(self, tmp_path):
        m = MetricsRegistry()
        m.counter("c").add(1)
        jpath = tmp_path / "m.json"
        tpath = tmp_path / "m.txt"
        write_metrics(jpath, m)
        write_metrics(tpath, m)
        assert json.loads(jpath.read_text())["counters"]["c"] == 1
        assert "c 1" in tpath.read_text()

    def test_render_text_with_sim(self):
        sim = Simulator(observe=True)
        text = render_metrics_text(sim.metrics, sim)
        assert "kernel.now 0" in text
