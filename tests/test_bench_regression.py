"""The wall-clock gates of ``scripts/bench_regression.py``, on a fake clock.

The script is loaded by path.  Its ``perf_counter`` is replaced by a
clock that moves only when a stub callable runs, so every timing and
every verdict here is exact and nothing real is timed.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_regression.py"


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location("bench_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def stub(self, *seconds: float):
        """A callable whose i-th call takes ``seconds[i]``; the last repeats."""
        calls = itertools.count()

        def run():
            self.now += seconds[min(next(calls), len(seconds) - 1)]

        return run


@pytest.fixture
def clock(gates, monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(gates, "perf_counter", fake)
    return fake


def test_on_side_five_percent_slower_fails(gates, clock):
    failures = gates.paired_gate("demo gate", clock.stub(1.0), clock.stub(1.05), 0.03)
    assert len(failures) == 1
    assert failures[0].startswith("demo gate: median on/off 1.050")
    assert failures[0].endswith("over budget 1.03")


def test_on_side_one_percent_slower_passes(gates, clock):
    assert gates.paired_gate("demo gate", clock.stub(1.0), clock.stub(1.01), 0.03) == []


def test_one_fast_off_sample_does_not_fail_an_equal_gate(gates, clock):
    # The off side's call 2 (pair 1, after the warm-up and pair 0) runs
    # 20% fast: best-of-N would read 1.0 / 0.8 = 1.25x.
    off = clock.stub(1.0, 1.0, 0.8, 1.0)
    assert gates.paired_gate("demo gate", off, clock.stub(1.0), 0.03) == []


def test_pairs_alternate_which_side_runs_first(gates, clock):
    calls = []

    def side(label):
        def run():
            calls.append(label)
            clock.now += 1.0

        return run

    assert gates.paired_gate("demo gate", side("off"), side("on"), 0.03) == []
    assert calls[:2] == ["off", "on"]  # untimed warm-up
    pairs = [tuple(calls[i:i + 2]) for i in range(2, len(calls), 2)]
    assert pairs == [("off", "on"), ("on", "off")] * (gates.BLOCK_PAIRS // 2)


def test_gate_times_blocks_until_its_ci_clears_the_budget(gates, clock, capsys):
    # A clear verdict stops after one block ...
    gates.paired_gate("clear", clock.stub(1.0), clock.stub(1.10), 0.03)
    assert f"{gates.BLOCK_PAIRS} pairs" in capsys.readouterr().out
    # ... ratios of 0.9 and 1.1 straddle 1.03 at any count, so the
    # gate times its cap and judges the median, 1.0.
    on = clock.stub(*[0.9, 1.1] * (gates.MAX_PAIRS + 1))
    assert gates.paired_gate("undecided", clock.stub(1.0), on, 0.03) == []
    assert f"{gates.MAX_PAIRS} pairs" in capsys.readouterr().out


def test_obs_gate_reports_an_artifact_written_by_an_unobserved_run(
    gates, clock, monkeypatch
):
    seen_obs_dir = set()

    def leaky(config, seed):
        clock.now += 0.01
        seen_obs_dir.add(os.environ.get("REPRO_OBS_DIR"))
        index = os.environ.get("REPRO_FLEET_INDEX")
        if index:
            Path(index, "runs.jsonl").write_text("{}\n")

    monkeypatch.setattr(
        gates, "get_experiment", lambda name: types.SimpleNamespace(fn=leaky)
    )
    monkeypatch.setenv("REPRO_OBS_DIR", "obs-dir-of-the-caller")
    monkeypatch.delenv("REPRO_FLEET_INDEX", raising=False)
    assert gates.obs_overhead_gate() == [
        "obs overhead gate: unobserved runs wrote fleet artifacts: runs.jsonl"
    ]
    assert seen_obs_dir == {None}
    assert os.environ["REPRO_OBS_DIR"] == "obs-dir-of-the-caller"
    assert "REPRO_FLEET_INDEX" not in os.environ


BASELINE = {
    "results": {"p2p_msgs_per_s": 1000.0, "alltoall_wall_s": 0.05},
    "invariants": {"alltoall_wall_s": {"final_time": 1.0}},
}


def test_compare_fails_on_invariant_drift(gates):
    drifted = {"alltoall_wall_s": {"final_time": 1.5}}
    assert gates.compare(dict(BASELINE["results"]), drifted, BASELINE) == [
        "simulated invariants differ from baseline: ['alltoall_wall_s']"
    ]


@pytest.mark.parametrize("slowdown, failures", [
    (0.16, ["alltoall_wall_s: 0.840x of baseline (allowed >= 0.85x)"]),
    (0.14, []),
])
def test_compare_kernel_floor_is_fifteen_percent(gates, slowdown, failures):
    # A slowdown is lost speed: the wall time grows to base / (1 - slowdown).
    results = dict(BASELINE["results"], alltoall_wall_s=0.05 / (1 - slowdown))
    assert gates.compare(results, BASELINE["invariants"], BASELINE) == failures


def test_main_runs_the_kernel_floor_after_a_gate_fails(gates, monkeypatch, capsys):
    monkeypatch.setattr(gates, "fidelity_guard", lambda: [])
    monkeypatch.setattr(gates, "obs_overhead_gate", lambda: ["obs overhead gate: slow"])
    monkeypatch.setattr(gates, "telemetry_overhead_gate", lambda: [])
    monkeypatch.setattr(gates, "policy_overhead_gate", lambda: ["policy overhead gate: slow"])
    baseline = json.loads(gates.BASELINE_PATH.read_text())
    drifted = dict(baseline["invariants"], alltoall_wall_s={"final_time": -1.0})
    monkeypatch.setattr(
        gates, "run_suite", lambda repeats: (baseline["results"], drifted)
    )
    assert gates.main(["--repeats", "1"]) == 1
    failed = capsys.readouterr().out.split("BENCH REGRESSION GATE FAILED:")[1]
    assert failed.split("\n  - ")[1:] == [
        "obs overhead gate: slow",
        "policy overhead gate: slow",
        "simulated invariants differ from baseline: ['alltoall_wall_s']\n",
    ]
