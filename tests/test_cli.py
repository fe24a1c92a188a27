"""The ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "deep-sim" in out
    assert "2013" in out


def test_machine(capsys):
    assert main(["machine", "--cluster", "2", "--booster", "4"]) == 0
    out = capsys.readouterr().out
    assert "Xeon Phi" in out
    assert "EXTOLL torus" in out


def test_positioning(capsys):
    assert main(["positioning"]) == 0
    out = capsys.readouterr().out
    assert "DEEP System" in out
    assert "BlueGene" in out


def test_roofline(capsys):
    assert main(["roofline"]) == 0
    out = capsys.readouterr().out
    assert "spmv" in out
    assert "balance points" in out


def test_demo_with_observability_exports(capsys, tmp_path):
    import json

    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert main([
        "demo", "--trace-out", str(trace),
        "--metrics-out", str(metrics), "--report",
    ]) == 0
    out = capsys.readouterr().out
    assert "contention report" in out
    doc = json.loads(trace.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    dump = json.loads(metrics.read_text())
    assert dump["counters"]["smfu.bytes_forwarded"] > 0


def test_demo_runs_one_scenario_observed_or_not(capsys, tmp_path, monkeypatch):
    index = tmp_path / "runs.jsonl"
    monkeypatch.setenv("REPRO_FLEET_INDEX", str(index))
    assert main(["demo"]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert not index.exists()  # an unobserved demo records nothing
    assert main(["demo", "--report"]) == 0
    reported = capsys.readouterr().out.splitlines()
    assert plain[0] == reported[0]
    assert plain[0].startswith("offloaded ")


def test_ci_demo_smoke_builds_one_causal_graph(capsys, tmp_path, monkeypatch):
    from repro.obs.critpath import CausalGraph
    from repro.obs.fleet import FleetIndex

    builds = []
    from_trace = CausalGraph.from_trace.__func__

    def counting(cls, trace):
        builds.append(trace)
        return from_trace(cls, trace)

    monkeypatch.setattr(CausalGraph, "from_trace", classmethod(counting))
    index = tmp_path / "runs.jsonl"
    monkeypatch.setenv("REPRO_FLEET_INDEX", str(index))
    assert main([
        "demo", "--blame", "--what-if", "extoll.bw=2",
        "--what-if", "spawn.latency=0.25", "--what-if", "smfu.segment_bytes=0.25",
        "--report", "--report-top", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert len(builds) == 1
    assert "critical path: makespan" in out
    assert sum(line.startswith("what-if ") for line in out.splitlines()) == 3
    assert "critpath=" in out  # the report carries the same blame
    [manifest] = FleetIndex(index).load()
    assert manifest.source == "demo" and manifest.blame_s


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_reader_gone_before_output_exits_1_without_traceback(unbuffered):
    # The reading end is closed before the command starts, so its first
    # write (or the flush of a buffered stdout) meets a broken pipe, as
    # after ``python -m repro sweep --list | head -1``.
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--list"], stdout=write_end,
            stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# -- seed-spec parsing ------------------------------------------------------


class TestParseSeeds:
    def _parse(self, spec):
        from repro.__main__ import _parse_seeds

        return _parse_seeds(spec)

    def test_accepted_forms(self):
        assert self._parse("0:8") == list(range(8))
        assert self._parse(":4") == [0, 1, 2, 3]
        assert self._parse("3:5") == [3, 4]
        assert self._parse("0,1,5") == [0, 1, 5]
        assert self._parse("7") == [7]

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self._parse("5:2")
        with pytest.raises(ValueError, match="empty"):
            self._parse("3:3")

    def test_open_ended_range_rejected(self):
        with pytest.raises(ValueError, match="half-open"):
            self._parse("4:")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty seed spec"):
            self._parse("")
        with pytest.raises(ValueError, match="empty seed spec"):
            self._parse(",")

    def test_negative_seeds_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            self._parse("-1")
        with pytest.raises(ValueError, match=">= 0"):
            self._parse("0,-3,5")

    def test_garbage_rejected_with_context(self):
        with pytest.raises(ValueError, match="bad seed 'two'"):
            self._parse("0,two")
        with pytest.raises(ValueError, match="bad range end"):
            self._parse("0:none")

    def test_cli_exit_code_on_bad_seeds(self, capsys):
        assert main(["sweep", "--seeds", "5:2", "--experiments", "pingpong"]) == 2
        assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--jobs", "-1"], "--jobs must be >= 1"),
        (["--experiments", "nosuch"], "unknown experiment 'nosuch'"),
        (["--set", "pingpong.nosuch=1"], "no config field 'nosuch'"),
    ],
    ids=["jobs", "experiment", "config-field"],
)
def test_sweep_input_mistakes_exit_2(capsys, tmp_path, argv, message):
    cache = tmp_path / "cache"
    assert main(["sweep", "--cache-dir", str(cache), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep: ") and message in err
    assert "Traceback" not in err
    assert not cache.exists()  # rejected before any job ran


class TestDefaultJobs:
    def test_affinity_mask_sets_the_default(self, monkeypatch):
        from repro.__main__ import _default_jobs

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _default_jobs() == 1

    def test_cpu_count_where_there_is_no_affinity(self, monkeypatch):
        from repro.__main__ import _default_jobs

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _default_jobs() == 3

    def test_sweep_without_jobs_uses_the_affinity_mask(self, monkeypatch, tmp_path):
        from repro.obs.telemetry import read_events

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        channel = tmp_path / "telemetry.jsonl"
        assert main(["sweep", "-e", "pingpong", "-s", "0,1", "--no-cache",
                     "--quiet", "--set", "pingpong.rounds=1",
                     "--set", "pingpong.n_pairs=1",
                     "--telemetry", str(channel)]) == 0
        start = read_events(channel)[0]
        assert start["kind"] == "sweep.start" and start["n_workers"] == 1


# -- failure policy (sweep --retries/--fail-fast, exit code 4) ---------------


class TestFailurePolicyCli:
    SWEEP = ["sweep", "-e", "pingpong", "-s", "0,1", "-j", "1", "--no-cache",
             "--quiet", "--set", "pingpong.rounds=1",
             "--set", "pingpong.sizes_kib=[1]", "--set", "pingpong.n_pairs=1"]

    def test_quarantine_exits_4_and_reports(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt:1")
        assert main([*self.SWEEP, "--retries", "0"]) == 4
        err = capsys.readouterr().err
        assert "QUARANTINED pingpong seed=0" in err
        assert "ResultIntegrityError" in err

    def test_bad_policy_flags_exit_2(self, capsys):
        assert main([*self.SWEEP, "--timeout", "-1"]) == 2
        assert "timeout_s" in capsys.readouterr().err

    def test_clean_run_with_policy_flags_exits_0(self, capsys):
        assert main([*self.SWEEP, "--retries", "2", "--fail-fast"]) == 0
        err = capsys.readouterr().err
        assert "QUARANTINED" not in err and "failure policy" not in err


# -- harness telemetry (sweep --telemetry/--progress, obs top) --------------


class TestTelemetryCli:
    SWEEP = ["sweep", "-e", "checkpoint_resilience", "-s", "0,1", "-j", "1",
             "--set", "checkpoint_resilience.work_s=200.0",
             "--set", "checkpoint_resilience.mtbf_s=120.0"]

    def test_sweep_telemetry_writes_channel_and_summary(self, capsys, tmp_path):
        import json

        channel = tmp_path / "telemetry.jsonl"
        assert main([*self.SWEEP, "--cache-dir", str(tmp_path / "cache"),
                     "--telemetry", str(channel)]) == 0
        out = capsys.readouterr().out
        assert "telemetry: wall" in out
        assert "obs top" in out  # points the user at the viewer
        assert channel.exists()
        summary = json.loads((tmp_path / "telemetry.json").read_text())
        assert summary["n_jobs"] == summary["n_completed"] == 2

    def test_sweep_progress_implies_telemetry(self, capsys, tmp_path):
        assert main([*self.SWEEP, "--cache-dir", str(tmp_path / "cache"),
                     "--progress"]) == 0
        err = capsys.readouterr().err
        # The live view rendered at least its final block (non-TTY).
        assert "2/2 jobs" in err
        default = (tmp_path / "cache" / "v1" / "telemetry"
                   / "sweep.telemetry.jsonl")
        assert default.exists()

    def test_obs_top_text_json_chrome(self, capsys, tmp_path):
        import json

        channel = tmp_path / "telemetry.jsonl"
        assert main([*self.SWEEP, "--cache-dir", str(tmp_path / "cache"),
                     "--telemetry", str(channel)]) == 0
        capsys.readouterr()

        assert main(["obs", "top", str(channel)]) == 0
        out = capsys.readouterr().out
        assert "sweep done:" in out and "2/2 jobs" in out

        # With --json, following draws no frame before the document.
        for follow in ([], ["--follow", "--interval", "0.05"]):
            assert main(["obs", "top", str(channel), "--json", *follow]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["finished"] is True
            assert doc["n_completed"] == doc["n_total"] == 2

        trace_path = tmp_path / "fleet.trace.json"
        assert main(["obs", "top", str(channel),
                     "--chrome-out", str(trace_path)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == 2
        assert all(e["cat"] == "computed" for e in spans)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_obs_top_follow_returns_on_a_raising_sweep(
        self, capsys, tmp_path, jobs
    ):
        # The sweep raises, yet its channel ends with sweep.end: following
        # it returns at once, on an [ABORTED] frame.
        import threading

        from repro.errors import ConfigurationError

        channel = tmp_path / "telemetry.jsonl"
        with pytest.raises(ConfigurationError, match="ranks must be >= 1"):
            main(["sweep", "-e", "collective_scale", "-s", "0,1", "-j", jobs,
                  "--no-cache", "--quiet",
                  "--set", "collective_scale.ranks=0",
                  "--telemetry", str(channel)])
        capsys.readouterr()
        codes = []
        follower = threading.Thread(
            target=lambda: codes.append(main(
                ["obs", "top", "--follow", "--interval", "0.05", str(channel)]
            )),
            daemon=True,
        )
        follower.start()
        follower.join(timeout=20.0)
        assert codes == [0], "obs top --follow did not return"
        out = capsys.readouterr().out
        assert out.count("sweep done:") == 1 and "[ABORTED]" in out

    def test_obs_top_missing_channel_is_usage_error(self, capsys, tmp_path):
        assert main(["obs", "top", str(tmp_path / "nope.jsonl")]) == 2
        assert "no telemetry channel" in capsys.readouterr().err
