"""Unit tests for harness telemetry (`repro.obs.telemetry`).

All channel fixtures here are synthetic with hand-picked epoch
timestamps, so every derived quantity (queue wait, ETA, utilization,
straggler factors) is exact — no real clock.  Only the follower tests
wait, for the thread that follows a channel.
"""

import io
import json
import threading
import time

import pytest

from repro.obs.telemetry import (
    FleetState,
    JobTelemetry,
    LiveProgress,
    TelemetryTail,
    TelemetryWriter,
    fleet_chrome_trace,
    read_events,
    render_top,
    snapshot,
    stragglers,
    summarize,
    summary_path_for,
    write_summary,
)


def make_writer(tmp_path, t0=1000.0):
    """Writer with a deterministic, monotonically ticking clock."""
    clock = {"t": t0}

    def tick():
        clock["t"] += 1.0
        return clock["t"]

    return TelemetryWriter(tmp_path / "tele.jsonl", clock=tick)


def synthetic_events():
    """A 4-job sweep on 2 workers: 1 cache hit, 3 computed, one slow.

    Timeline (epoch seconds):
      t=100  sweep.start (4 jobs, 2 workers)
      t=100  job 0 cache.hit
      t=101  jobs 1..3 submitted
      t=102  job 1 starts on w0; job 2 starts on w1
      t=104  job 1 ends (wall 2s); t=105 job 2 ends (wall 3s)
      t=105  job 3 starts on w0, ends t=115 (wall 10s) + promote
      t=116  sweep.end
    """
    return [
        {"schema": 1, "kind": "sweep.start", "t": 100.0, "n_jobs": 4,
         "n_workers": 2, "experiments": ["pingpong"]},
        {"schema": 1, "kind": "cache.hit", "t": 100.5, "job": 0,
         "digest": "d0", "experiment": "pingpong", "seed": 0},
        {"schema": 1, "kind": "job.submit", "t": 101.0, "job": 1,
         "digest": "d1", "experiment": "pingpong", "seed": 1},
        {"schema": 1, "kind": "job.submit", "t": 101.0, "job": 2,
         "digest": "d2", "experiment": "pingpong", "seed": 2},
        {"schema": 1, "kind": "job.submit", "t": 101.0, "job": 3,
         "digest": "d3", "experiment": "pingpong", "seed": 3},
        {"schema": 1, "kind": "job.start", "t": 102.0, "job": 1, "worker": 0},
        {"schema": 1, "kind": "job.start", "t": 102.0, "job": 2, "worker": 1},
        {"schema": 1, "kind": "job.end", "t": 104.0, "job": 1, "worker": 0,
         "wall_s": 2.0},
        {"schema": 1, "kind": "job.end", "t": 105.0, "job": 2, "worker": 1,
         "wall_s": 3.0},
        {"schema": 1, "kind": "job.start", "t": 105.0, "job": 3, "worker": 0},
        {"schema": 1, "kind": "job.end", "t": 115.0, "job": 3, "worker": 0,
         "wall_s": 10.0},
        {"schema": 1, "kind": "cache.promote", "t": 115.1, "job": 3,
         "digest": "d3", "bytes": 2048, "n_artifacts": 3},
        {"schema": 1, "kind": "sweep.end", "t": 116.0, "n_done": 4,
         "cache": {"hits": 1, "misses": 3, "corrupt": 0, "stores": 3,
                   "bytes_promoted": 2048}},
    ]


# ---------------------------------------------------------------------------
# Writer / readers
# ---------------------------------------------------------------------------


class TestWriterAndReaders:
    def test_emit_roundtrip(self, tmp_path):
        w = make_writer(tmp_path)
        w.emit("sweep.start", n_jobs=2, n_workers=1, experiments=["pingpong"])
        w.emit("job.submit", job=0, digest="abc", experiment="pingpong", seed=0)
        events = read_events(w.path)
        assert [e["kind"] for e in events] == ["sweep.start", "job.submit"]
        assert all(e["schema"] == 1 for e in events)
        # Clock ticks monotonically between emits.
        assert events[0]["t"] < events[1]["t"]
        assert events[1]["job"] == 0 and events[1]["seed"] == 0

    def test_read_events_missing_file(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []

    def test_read_events_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "tele.jsonl"
        path.write_text(
            '{"schema": 1, "kind": "job.start", "t": 1.0, "job": 0}\n'
            "not json at all\n"
            '{"this": "is json but no kind/t"}\n'
            '[1, 2, 3]\n'
            '\n'
            '{"schema": 1, "kind": "job.end", "t": 2.0, "job": 0, "wall_'
        )  # last line torn mid-record, no newline
        events = read_events(path)
        assert [e["kind"] for e in events] == ["job.start"]

    def test_line_that_is_not_utf8_is_skipped(self, tmp_path):
        w = make_writer(tmp_path)
        tail = TelemetryTail(w.path)
        w.emit("job.submit", job=0)
        with open(w.path, "ab") as fh:
            fh.write(b"\xff\xfe not utf-8\n")
        w.emit("job.submit", job=1)
        assert [e["job"] for e in read_events(w.path)] == [0, 1]
        assert [e["job"] for e in tail.poll()] == [0, 1]

    def test_tail_is_incremental(self, tmp_path):
        w = make_writer(tmp_path)
        tail = TelemetryTail(w.path)
        assert tail.poll() == []  # file does not exist yet
        w.emit("job.submit", job=0)
        w.emit("job.submit", job=1)
        first = tail.poll()
        assert [e["job"] for e in first] == [0, 1]
        assert tail.poll() == []  # nothing new
        w.emit("job.submit", job=2)
        assert [e["job"] for e in tail.poll()] == [2]

    def test_tail_leaves_partial_line_for_next_poll(self, tmp_path):
        path = tmp_path / "tele.jsonl"
        tail = TelemetryTail(path)
        with open(path, "w") as fh:
            fh.write('{"schema": 1, "kind": "job.start", "t": 1.0, "job": 0}\n')
            fh.write('{"schema": 1, "kind": "job.en')  # torn tail
        assert [e["kind"] for e in tail.poll()] == ["job.start"]
        # Writer finishes the record: the tail picks it up whole.
        with open(path, "a") as fh:
            fh.write('d", "t": 2.0, "job": 0, "wall_s": 1.0}\n')
        got = tail.poll()
        assert [e["kind"] for e in got] == ["job.end"]
        assert got[0]["wall_s"] == 1.0


# ---------------------------------------------------------------------------
# FleetState folding
# ---------------------------------------------------------------------------


class TestFleetState:
    def test_counts_after_full_sweep(self):
        state = FleetState().apply_all(synthetic_events())
        assert state.n_total == 4
        assert len(state.completed()) == 4
        assert state.running() == [] and state.queued() == []
        assert state.t_sweep_start == 100.0 and state.t_sweep_end == 116.0
        assert state.cache_counts["hits"] == 1
        assert state.cache_hit_rate() == 0.25

    def test_midsweep_running_and_queued(self):
        # Stop folding before job 2 finishes and job 3 starts.
        events = [e for e in synthetic_events() if e["t"] <= 104.0]
        state = FleetState().apply_all(events)
        assert {j.index for j in state.completed()} == {0, 1}
        assert {j.index for j in state.running()} == {2}
        assert {j.index for j in state.queued()} == {3}
        # No sweep.end yet: hit rate derives from completed jobs.
        assert state.cache_hit_rate() == 0.5

    def test_queue_wait_and_job_labels(self):
        state = FleetState().apply_all(synthetic_events())
        j1 = state.jobs[1]
        assert j1.queue_wait_s == pytest.approx(1.0)  # submit 101 -> start 102
        assert j1.label == "pingpong seed=1"
        assert state.jobs[0].cached and state.jobs[0].wall_s == 0.0
        assert state.jobs[3].promoted_bytes == 2048

    def test_workers_rows(self):
        state = FleetState().apply_all(synthetic_events())
        rows = state.workers()
        assert [r["worker"] for r in rows] == [0, 1]
        w0 = rows[0]
        assert w0["state"] == "idle" and w0["n_done"] == 2
        assert w0["job"] == "pingpong seed=3"  # last job w0 ran
        assert w0["elapsed_s"] == pytest.approx(10.0)

    def test_eta_before_any_completion_is_none(self):
        events = [e for e in synthetic_events() if e["t"] <= 102.0]
        state = FleetState().apply_all(events)
        assert state.eta_s() is None

    def test_eta_spreads_over_workers(self):
        # After jobs 1 and 2 complete: EWMA = 2.0 then 2.0+0.3*(3-2)=2.3.
        events = [e for e in synthetic_events() if e["t"] <= 105.0
                  and not (e["kind"] == "job.start" and e.get("job") == 3)]
        state = FleetState().apply_all(events)
        assert state.ewma.value == pytest.approx(2.3)
        # 1 queued job, none running, 2 workers.
        assert state.eta_s() == pytest.approx(2.3 / 2)

    def test_eta_discounts_running_job_elapsed(self):
        events = [e for e in synthetic_events() if e["t"] <= 106.0]
        state = FleetState().apply_all(events)
        # Job 3 running since t=105; at now=106 it has 1s elapsed, so its
        # remaining cost is max(2.3 - 1, 0); nothing queued.
        assert state.eta_s(now=106.0) == pytest.approx((2.3 - 1.0) / 2)

    def test_utilization(self):
        state = FleetState().apply_all(synthetic_events())
        # busy = 0 (hit) + 2 + 3 + 10 = 15s over 2 workers * 16s window.
        assert state.utilization() == pytest.approx(15.0 / 32.0)

    def test_accumulates_across_multiple_sweeps(self):
        # A cold+warm smoke shares one channel: totals accumulate.
        cold = synthetic_events()
        warm = [dict(e) for e in synthetic_events()]
        for e in warm:
            e["t"] += 100.0
            if "job" in e:
                e["job"] += 4
        state = FleetState().apply_all(cold + warm)
        assert state.n_total == 8
        assert state.t_sweep_start == 100.0  # earliest start wins
        assert state.t_sweep_end == 216.0


# ---------------------------------------------------------------------------
# Stragglers
# ---------------------------------------------------------------------------


class TestStragglers:
    def test_flags_job_over_k_median(self):
        state = FleetState().apply_all(synthetic_events())
        # Peer walls (non-cached): [2, 3, 10] -> median 3, threshold 9.
        flagged = stragglers(state)
        assert len(flagged) == 1
        s = flagged[0]
        assert s["job"] == 3 and s["state"] == "done"
        assert s["digest"] == "d3" and s["experiment"] == "pingpong"
        assert s["factor"] == pytest.approx(10.0 / 3.0)

    def test_min_peers_gate(self):
        # Only 2 completed simulated peers -> no baseline, no flags.
        events = [e for e in synthetic_events() if e["t"] <= 105.0]
        state = FleetState().apply_all(events)
        assert stragglers(state) == []

    def test_flags_running_job_on_elapsed_time(self):
        events = synthetic_events()
        events = [e for e in events
                  if not (e.get("job") == 3 and e["kind"] == "job.end")
                  and e["kind"] != "sweep.end"]
        state = FleetState().apply_all(events)
        state.t_last = 140.0  # job 3 has been running 35s
        flagged = stragglers(state, min_peers=2)
        assert [s["job"] for s in flagged] == [3]
        assert flagged[0]["state"] == "running"
        assert flagged[0]["wall_s"] == pytest.approx(35.0)

    def test_cache_hits_excluded_from_peers(self):
        # 3 hits + 3 computed: hits must not drag the median to zero.
        events = [{"kind": "sweep.start", "t": 0.0, "n_jobs": 6, "n_workers": 1}]
        for i in range(3):
            events.append({"kind": "cache.hit", "t": 1.0, "job": i,
                           "digest": f"h{i}", "experiment": "x", "seed": i})
        for i, wall in ((3, 2.0), (4, 2.0), (5, 2.5)):
            events.append({"kind": "job.start", "t": 2.0, "job": i, "worker": 0})
            events.append({"kind": "job.end", "t": 2.0 + wall, "job": i,
                           "worker": 0, "wall_s": wall})
        state = FleetState().apply_all(events)
        # Median of [2, 2, 2.5] = 2: nothing is over 3x that.
        assert stragglers(state) == []


# ---------------------------------------------------------------------------
# snapshot / summarize
# ---------------------------------------------------------------------------


class TestSnapshotAndSummary:
    def test_snapshot_totals(self):
        state = FleetState().apply_all(synthetic_events())
        snap = snapshot(state)
        assert snap["n_total"] == 4 and snap["n_completed"] == 4
        assert snap["n_running"] == 0 and snap["n_queued"] == 0
        assert snap["n_cached"] == 1 and snap["finished"] is True
        assert snap["cache_hit_rate"] == 0.25
        assert snap["elapsed_s"] == pytest.approx(16.0)
        assert snap["experiments"] == ["pingpong"]
        assert len(snap["workers"]) == 2
        assert [s["job"] for s in snap["stragglers"]] == [3]

    def test_snapshot_counts_unsubmitted_jobs_as_queued(self):
        events = [e for e in synthetic_events() if e["t"] <= 100.5]
        snap = snapshot(FleetState().apply_all(events))
        # 4 announced, only the cache hit has a job record.
        assert snap["n_total"] == 4
        assert snap["n_completed"] == 1 and snap["n_queued"] == 3

    def test_summarize_totals(self):
        summary = summarize(synthetic_events())
        assert summary["n_jobs"] == 4 and summary["n_completed"] == 4
        assert summary["n_cached"] == 1 and summary["n_ran"] == 3
        assert summary["n_workers"] == 2
        assert summary["harness_wall_s"] == pytest.approx(16.0)
        assert summary["job_wall"]["n"] == 3
        assert summary["job_wall"]["median"] == pytest.approx(3.0)
        assert summary["job_wall"]["total"] == pytest.approx(15.0)
        assert summary["queue_wait"]["mean"] == pytest.approx((1 + 1 + 4) / 3)
        assert summary["cache"]["hits"] == 1
        assert summary["cache"]["bytes_promoted"] == 2048
        assert summary["cache"]["hit_rate"] == 0.25
        assert [s["job"] for s in summary["stragglers"]] == [3]

    def test_summarize_empty_channel(self):
        summary = summarize([])
        assert summary["n_jobs"] == 0 and summary["n_completed"] == 0
        assert summary["harness_wall_s"] is None
        assert summary["job_wall"] is None and summary["queue_wait"] is None

    def test_summary_path_for(self, tmp_path):
        assert summary_path_for("a/b/telemetry.jsonl") == (
            summary_path_for("a/b/telemetry.jsonl")
        )
        assert str(summary_path_for("x/sweep.telemetry.jsonl")).endswith(
            "sweep.telemetry.json"
        )
        odd = summary_path_for(tmp_path / "channel.log")
        assert odd.name == "channel.log.summary.json"

    def test_write_summary(self, tmp_path):
        channel = tmp_path / "t.jsonl"
        with open(channel, "w") as fh:
            for e in synthetic_events():
                fh.write(json.dumps(e) + "\n")
        out = write_summary(channel)
        assert out == tmp_path / "t.json"
        doc = json.loads(out.read_text())
        assert doc["n_jobs"] == 4 and doc["cache"]["hits"] == 1


# ---------------------------------------------------------------------------
# Chrome export of the fleet
# ---------------------------------------------------------------------------


class TestFleetChromeTrace:
    def test_worker_lanes_and_cache_hit_group(self):
        trace = fleet_chrome_trace(synthetic_events())
        events = trace["traceEvents"]
        metas = [e for e in events if e.get("ph") == "M"]
        assert {m["args"]["name"] for m in metas} == {
            "sweep workers", "cache hits",
        }
        computed = [e for e in events if e.get("cat") == "computed"]
        hits = [e for e in events if e.get("cat") == "cache-hit"]
        assert len(computed) == 3 and len(hits) == 1
        assert all(e["pid"] == 1 for e in computed)
        assert all(e["pid"] == 2 and e["cname"] == "good" for e in hits)
        # Jobs 1 and 3 ran on worker 0 -> same tid, non-overlapping.
        by_job = {e["args"]["job"]: e for e in computed}
        assert by_job[1]["tid"] == by_job[3]["tid"]
        assert by_job[1]["tid"] != by_job[2]["tid"]
        # Timestamps are relative to sweep start (t0 = 100).
        assert by_job[1]["ts"] == pytest.approx(2.0 * 1e6)
        assert by_job[1]["dur"] == pytest.approx(2.0 * 1e6)
        assert by_job[3]["args"]["promoted_bytes"] == 2048

    def test_running_job_extends_to_last_event(self):
        events = [e for e in synthetic_events()
                  if not (e.get("job") == 3 and e["kind"] == "job.end")
                  and e["kind"] != "sweep.end"]
        trace = fleet_chrome_trace(events)
        span = next(e for e in trace["traceEvents"]
                    if e.get("args", {}).get("job") == 3)
        # t_last is the promote at 115.1; start was 105.
        assert span["dur"] == pytest.approx(10.1 * 1e6)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


class TestRendering:
    def test_render_top_content(self):
        text = render_top(snapshot(FleetState().apply_all(synthetic_events())))
        assert "sweep done:" in text
        assert "4/4 jobs" in text
        assert "1 cache-served" in text
        assert "cache hit rate 25%" in text
        assert "workers:" in text and "w0" in text
        assert "STRAGGLER job 3" in text and "3.3x median" in text

    def test_render_top_empty_state(self):
        text = render_top(snapshot(FleetState()))
        assert "0/0 jobs" in text
        assert "eta -" in text and "cache hit rate -" in text

    def test_live_progress_non_tty(self, tmp_path):
        channel = tmp_path / "t.jsonl"
        write_events(channel, synthetic_events())
        out = io.StringIO()
        LiveProgress(channel, out=out, interval=0.0).follow()
        text = out.getvalue()
        # The channel already holds sweep.end: one frame, the last.
        assert text.count("sweep ") == 1
        assert "sweep done:" in text and "4/4 jobs" in text
        assert "\x1b[" not in text  # no ANSI control on a non-TTY

    def test_render_top_shows_an_abort_without_failures(self):
        # A sweep that raised ends its channel with an aborted sweep.end
        # and no failure-policy record.
        events = synthetic_events()
        events[-1] = {**events[-1], "aborted": True}
        text = render_top(snapshot(FleetState().apply_all(events)))
        assert "0 quarantined  [ABORTED]" in text


# ---------------------------------------------------------------------------
# The follower (sweep --progress, obs top --follow): these wait on a thread
# ---------------------------------------------------------------------------


def write_events(channel, events, mode="w"):
    with open(channel, mode) as fh:
        for e in events:
            fh.write(json.dumps(e) + "\n")


def following(live):
    """Run *live*'s follow loop on a thread of the test's own, so that
    the test can bound its join."""
    follower = threading.Thread(target=live.follow, daemon=True)
    follower.start()
    return follower


def wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert predicate()


class TestFollower:
    def test_stops_by_itself_after_sweep_end(self, tmp_path):
        channel = tmp_path / "t.jsonl"
        events = synthetic_events()
        write_events(channel, events[:-1])
        out = io.StringIO()
        live = LiveProgress(channel, out=out, interval=0.01)
        follower = following(live)
        wait_for(lambda: "sweep running:" in out.getvalue())
        write_events(channel, events[-1:], mode="a")
        follower.join(timeout=10.0)
        assert not follower.is_alive()
        text = out.getvalue()
        # One final frame, the one that holds sweep.end, and none after.
        assert text.count("sweep done:") == 1
        assert text.index("sweep done:") > text.rindex("sweep running:")
        assert "4/4 jobs" in text[text.index("sweep done:"):]

    def test_close_stops_it_after_one_final_frame(self, tmp_path):
        channel = tmp_path / "t.jsonl"
        events = synthetic_events()
        write_events(channel, events[:3])
        out = io.StringIO()
        # The interval outlasts the test: only close() can wake it.
        live = LiveProgress(channel, out=out, interval=600.0)
        follower = following(live)
        wait_for(lambda: "sweep running:" in out.getvalue())
        write_events(channel, events[3:-1], mode="a")  # no sweep.end
        live.close()
        follower.join(timeout=10.0)
        assert not follower.is_alive()
        frames = out.getvalue().split("sweep running:")[1:]
        assert len(frames) == 2
        assert "1/4 jobs" in frames[0] and "4/4 jobs" in frames[1]

    def test_nothing_is_drawn_before_the_sweep_starts(self, tmp_path):
        out = io.StringIO()
        live = LiveProgress(tmp_path / "t.jsonl", out=out, interval=0.01)
        follower = following(live)
        time.sleep(0.05)
        assert out.getvalue() == ""
        live.close()
        follower.join(timeout=10.0)
        assert not follower.is_alive()
        assert "0/0 jobs" in out.getvalue()  # the final frame, still


# ---------------------------------------------------------------------------
# Failure-policy record folding
# ---------------------------------------------------------------------------


def failure_events():
    """A 3-job sweep: job 0 retries then completes, job 1 times out and
    is quarantined, job 2 completes; one pool restart along the way."""
    return [
        {"schema": 1, "kind": "sweep.start", "t": 100.0, "n_jobs": 3,
         "n_workers": 2, "experiments": ["pingpong"]},
        {"schema": 1, "kind": "job.submit", "t": 101.0, "job": 0,
         "digest": "d0", "experiment": "pingpong", "seed": 0, "attempt": 0},
        {"schema": 1, "kind": "job.submit", "t": 101.0, "job": 1,
         "digest": "d1", "experiment": "pingpong", "seed": 1, "attempt": 0},
        {"schema": 1, "kind": "job.submit", "t": 101.0, "job": 2,
         "digest": "d2", "experiment": "pingpong", "seed": 2, "attempt": 0},
        {"schema": 1, "kind": "job.start", "t": 102.0, "job": 0, "worker": 0,
         "attempt": 0},
        {"schema": 1, "kind": "job.start", "t": 102.0, "job": 1, "worker": 1,
         "attempt": 0},
        # Job 0 fails once and goes back to queued ...
        {"schema": 1, "kind": "job.retry", "t": 103.0, "job": 0,
         "failures": 1, "delay_s": 0.05, "error": "ChaosCrash"},
        {"schema": 1, "kind": "pool.restart", "t": 103.1, "reason": "crash",
         "restarts": 1, "n_requeued": 2},
        # ... then runs to completion on a fresh attempt.
        {"schema": 1, "kind": "job.submit", "t": 104.0, "job": 0,
         "digest": "d0", "experiment": "pingpong", "seed": 0, "attempt": 1},
        {"schema": 1, "kind": "job.start", "t": 104.5, "job": 0, "worker": 0,
         "attempt": 1},
        {"schema": 1, "kind": "job.end", "t": 106.5, "job": 0, "worker": 0,
         "wall_s": 2.0},
        # Job 1 trips the wall-clock budget and exhausts its retries.
        {"schema": 1, "kind": "job.timeout", "t": 107.0, "job": 1,
         "attempt": 0, "elapsed_s": 5.0, "timeout_s": 5.0},
        {"schema": 1, "kind": "job.quarantine", "t": 107.1, "job": 1,
         "error": "JobTimeoutError: budget", "attempts": 1,
         "timed_out": True, "experiment": "pingpong", "seed": 1},
        {"schema": 1, "kind": "job.start", "t": 108.0, "job": 2, "worker": 1,
         "attempt": 0},
        {"schema": 1, "kind": "job.end", "t": 110.0, "job": 2, "worker": 1,
         "wall_s": 2.0},
        {"schema": 1, "kind": "sweep.end", "t": 111.0, "n_done": 2,
         "n_quarantined": 1, "aborted": False,
         "cache": {"hits": 0, "misses": 3, "corrupt": 0, "stores": 2,
                   "bytes_promoted": 0}},
    ]


class TestFailureFolding:
    def test_retry_returns_job_to_queued(self):
        events = [e for e in failure_events() if e["t"] <= 103.5]
        state = FleetState().apply_all(events)
        j0 = state.jobs[0]
        assert j0.failures == 1
        assert j0.t_start is None and j0.worker is None
        assert 0 in {j.index for j in state.queued()}
        assert state.n_retries == 1 and state.n_pool_restarts == 1

    def test_quarantined_job_leaves_running_and_queued(self):
        state = FleetState().apply_all(failure_events())
        assert {j.index for j in state.quarantined()} == {1}
        assert state.running() == [] and state.queued() == []
        assert len(state.completed()) == 2
        j1 = state.jobs[1]
        assert j1.quarantined and j1.timeouts == 1
        assert state.n_timeouts == 1 and state.aborted is False

    def test_quarantined_jobs_excluded_from_workers_and_stragglers(self):
        state = FleetState().apply_all(failure_events())
        rows = state.workers()
        # Worker 1's visible job is the completed job 2, not the
        # quarantined job 1 it was running before the timeout.
        w1 = next(r for r in rows if r["worker"] == 1)
        assert w1["job"] == "pingpong seed=2"
        assert all(s["job"] != 1 for s in stragglers(state))

    def test_snapshot_and_summary_carry_failure_block(self):
        state = FleetState().apply_all(failure_events())
        for doc in (snapshot(state), summarize(failure_events())):
            block = doc["failures"]
            assert block == {
                "retries": 1, "timeouts": 1, "pool_restarts": 1,
                "quarantined": 1, "aborted": False,
            }

    def test_aborted_sweep_end_folds(self):
        events = failure_events()
        events[-1] = dict(events[-1], aborted=True)
        state = FleetState().apply_all(events)
        assert state.aborted is True
        assert snapshot(state)["failures"]["aborted"] is True

    def test_aborted_sweep_end_closes_the_attempt_that_raised(self):
        # Without a failure policy the attempt that raises writes
        # job.start and no job.end; the aborted sweep.end follows.
        events = [
            {"schema": 1, "kind": "sweep.start", "t": 100.0, "n_jobs": 2,
             "n_workers": 1, "experiments": ["collective_scale"]},
            {"schema": 1, "kind": "job.submit", "t": 100.1, "job": 0,
             "digest": "d0", "experiment": "collective_scale", "seed": 0},
            {"schema": 1, "kind": "job.start", "t": 100.2, "job": 0,
             "worker": 0},
            {"schema": 1, "kind": "sweep.end", "t": 101.0, "aborted": True,
             "cache": {"hits": 0, "misses": 2, "corrupt": 0, "stores": 0,
                       "bytes_promoted": 0}},
        ]
        assert [j.index for j in FleetState().apply_all(events[:-1]).running()] == [0]
        state = FleetState().apply_all(events)
        assert state.running() == [] and state.workers() == []
        snap = snapshot(state)
        assert (snap["n_completed"], snap["n_running"], snap["n_queued"]) == (0, 0, 2)
        text = render_top(snap)
        assert "0/2 jobs  (0 running, 2 queued" in text and "[ABORTED]" in text
        assert "running collective_scale" not in text

    def test_render_top_failure_line(self):
        text = render_top(snapshot(FleetState().apply_all(failure_events())))
        assert "failures: 1 retries, 1 timeouts, 1 pool restarts, " \
               "1 quarantined" in text
        assert "[ABORTED]" not in text
        events = failure_events()
        events[-1] = dict(events[-1], aborted=True)
        aborted = render_top(snapshot(FleetState().apply_all(events)))
        assert "[ABORTED]" in aborted

    def test_clean_sweep_renders_no_failure_line(self):
        text = render_top(snapshot(FleetState().apply_all(synthetic_events())))
        assert "failures:" not in text
