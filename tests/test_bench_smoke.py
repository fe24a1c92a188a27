"""Smoke tests for the hot-path benchmark harness.

Runs the suite in ``--tiny`` mode (sub-second) so CI catches bit-rot in
the harness itself — a broken benchmark is worse than none, because
performance regressions then land silently.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

EXPECTED_METRICS = {
    "event_loop_events_per_s",
    "p2p_msgs_per_s",
    "alltoall_wall_s",
    "checkpoint_runs_per_s",
}


def test_run_suite_tiny_in_process():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from bench_kernel_hotpath import run_suite
    finally:
        sys.path.remove(str(BENCH_DIR))
    results, invariants = run_suite(tiny=True)
    assert set(results) == EXPECTED_METRICS
    assert set(invariants) == EXPECTED_METRICS
    assert all(v > 0 for v in results.values())
    # Every workload must report the simulated clock it reached, so the
    # artifact can prove optimizations did not change simulated results.
    assert all("final_time" in inv for inv in invariants.values())
    ck = invariants["checkpoint_runs_per_s"]
    assert ck["total_checkpoints"] > 0


def test_cli_tiny_writes_artifact(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "bench_kernel_hotpath.py"),
            "--tiny",
            "--out",
            str(out),
            "--label",
            "smoke",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["current"]["label"] == "smoke"
    assert payload["current"]["tiny"] is True
    assert set(payload["current"]["results"]) == EXPECTED_METRICS


def test_cli_fails_when_invariants_drift(tmp_path, monkeypatch):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench_kernel_hotpath as bench
    finally:
        sys.path.remove(str(BENCH_DIR))
    results, invariants = bench.run_suite(tiny=True)
    baseline = tmp_path / "baseline.json"
    monkeypatch.setattr(bench, "BASELINE_PATH", baseline)
    out = str(tmp_path / "BENCH_kernel.json")
    baseline.write_text(json.dumps(
        {"tiny": True, "results": results, "invariants": invariants}
    ))
    assert bench.main(["--tiny", "--out", out]) == 0
    invariants["alltoall_wall_s"]["final_time"] += 1e-9
    baseline.write_text(json.dumps(
        {"tiny": True, "results": results, "invariants": invariants}
    ))
    assert bench.main(["--tiny", "--out", out]) == 1
