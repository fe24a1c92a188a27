"""Counter timelines: change points, resampling, CSV and Chrome tracks."""

import csv

import pytest

from repro.obs.timeline import (
    chrome_counter_events,
    counter_series,
    resample,
    write_counters_csv,
)
from repro.simkernel import Simulator
from repro.simkernel.trace import TraceRecorder


def recorder_with(points):
    """A recorder pre-loaded with (time, name, value) change points."""
    tr = TraceRecorder(enabled=True)
    now = {"t": 0.0}
    tr.bind_clock(lambda: now["t"])
    for t, name, value in points:
        now["t"] = t
        tr.record_counter(name, value)
    return tr


class TestCounterSeries:
    def test_groups_by_name_in_time_order(self):
        tr = recorder_with([
            (0.0, "q:a", 1.0),
            (1.0, "q:b", 5.0),
            (2.0, "q:a", 2.0),
        ])
        series = counter_series(tr)
        assert series == {
            "q:a": [(0.0, 1.0), (2.0, 2.0)],
            "q:b": [(1.0, 5.0)],
        }

    def test_disabled_recorder_records_nothing(self):
        tr = TraceRecorder(enabled=False)
        tr.record_counter("q", 1.0)
        assert counter_series(tr) == {}


class TestResample:
    def test_sample_and_hold(self):
        points = [(0.5, 1.0), (2.0, 3.0)]
        grid = resample(points, step=1.0, t_end=4.0)
        assert grid == [
            (0.0, 0.0),  # before the first change point
            (1.0, 1.0),
            (2.0, 3.0),
            (3.0, 3.0),
            (4.0, 3.0),
        ]

    def test_default_end_is_last_point(self):
        assert resample([(0.0, 1.0), (2.0, 2.0)], step=1.0) == [
            (0.0, 1.0), (1.0, 1.0), (2.0, 2.0),
        ]

    def test_empty_points(self):
        assert resample([], step=1.0) == [(0.0, 0.0)]

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            resample([(0.0, 1.0)], step=0.0)


class TestChromeCounterEvents:
    def test_counter_phase_and_microseconds(self):
        tr = recorder_with([(0.001, "q:a", 2.0), (0.002, "q:a", 0.0)])
        events = chrome_counter_events(tr, pid=7)
        assert [e["ph"] for e in events] == ["C", "C"]
        assert events[0]["ts"] == pytest.approx(1000.0)  # 1 ms -> 1000 us
        assert events[0]["pid"] == 7
        assert events[0]["args"] == {"value": 2.0}

    def test_step_bounds_event_count(self):
        tr = recorder_with([
            (i * 0.01, "q:a", float(i)) for i in range(100)
        ])
        events = chrome_counter_events(tr, step=0.25)
        assert len(events) == 4  # grid 0, .25, .5, .75 (t_end = 0.99)


class TestCountersCsv:
    def test_wide_csv_round_trip(self, tmp_path):
        tr = recorder_with([
            (0.0, "q:a", 1.0),
            (1.0, "q:b", 5.0),
            (2.0, "q:a", 2.0),
        ])
        path = tmp_path / "counters.csv"
        write_counters_csv(path, tr, step=1.0)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["time_s", "q:a", "q:b"]
        assert rows[1] == ["0", "1", "0"]
        assert rows[2] == ["1", "1", "5"]
        assert rows[3] == ["2", "2", "5"]

    def test_name_filter(self, tmp_path):
        tr = recorder_with([(0.0, "q:a", 1.0), (0.0, "q:b", 2.0)])
        path = tmp_path / "one.csv"
        write_counters_csv(path, tr, step=1.0, names=["q:b"])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["time_s", "q:b"]


class TestInstrumentedSources:
    def test_resource_queue_depth_changes_recorded(self):
        from repro.simkernel.resources import Resource

        sim = Simulator(observe=True)
        res = Resource(sim, capacity=1, name="cores")

        def user(sim, hold):
            req = res.request()
            yield req
            yield sim.timeout(hold)
            res.release(req)

        sim.process(user(sim, 2.0))
        sim.process(user(sim, 1.0))
        sim.run()
        series = counter_series(sim.trace)
        assert "queue:cores" in series
        depths = [v for _, v in series["queue:cores"]]
        assert max(depths) >= 1.0  # someone queued
        assert depths[-1] == 0.0  # drained at the end
