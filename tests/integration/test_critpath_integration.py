"""End-to-end causal analysis on the E6-style offload scenario.

Covers the tentpole's acceptance criteria: blame sums to the simulated
makespan, what-if projections agree with actual re-simulation, causal
tagging keeps determinism intact and does not perturb simulated
results.  The strict <3% disabled-observability overhead budget is
enforced by ``scripts/bench_regression.py`` against the committed
kernel baseline; here we only sanity-bound the *enabled* overhead.
"""

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import pytest

from repro.apps import stencil_graph
from repro.deep import (
    DeepSystem,
    MachineConfig,
    OFFLOAD_WORKER_COMMAND,
    offload_graph,
    offload_worker,
)
from repro.network.extoll import EXTOLL_TOURMALET
from repro.simkernel import Simulator

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_offload(extoll_spec=None, observe=True):
    """The quickstart/E6 offload scenario; returns (system, result)."""
    cfg = {"n_cluster": 4, "n_booster": 8, "n_gateways": 2}
    if extoll_spec is not None:
        cfg["extoll"] = extoll_spec
    system = DeepSystem(MachineConfig(**cfg), observe=observe)
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)
    out = {}

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, OFFLOAD_WORKER_COMMAND, 8)
        if cw.rank == 0:
            g = stencil_graph(8, sweeps=4)
            out["result"] = yield from offload_graph(proc, inter, g)
        yield from cw.barrier()

    system.launch(main)
    system.run()
    return system, out["result"]


class TestBlame:
    def test_blame_sums_to_makespan_within_1pct(self):
        system, _ = run_offload()
        blame = system.blame_report()
        assert blame.makespan > 0
        total = sum(blame.seconds.values())
        assert total == pytest.approx(blame.makespan, rel=0.01)
        assert not blame.partial
        # The offload's known shape: the spawn round-trip and the two
        # wire times dominate; pure idle is negligible.
        assert blame.seconds.get("spawn", 0.0) > 0
        assert blame.seconds.get("extoll", 0.0) > 0
        assert blame.seconds.get("infiniband", 0.0) > 0
        assert blame.seconds.get("idle", 0.0) < 0.05 * blame.makespan

    def test_critical_path_steps_are_contiguous(self):
        system, _ = run_offload()
        graph = system.causal_graph()
        steps = graph.critical_path()
        # The chain tiles [0, makespan] (the last *traced* activity;
        # the final untraced barrier tail may end slightly later).
        assert steps[0].end == pytest.approx(graph.makespan)
        assert graph.makespan == pytest.approx(system.now, rel=0.01)
        for later, earlier in zip(steps, steps[1:]):
            assert later.start == pytest.approx(earlier.end)

    def test_smfu_blame_names_gateways(self):
        system, _ = run_offload()
        blame = system.blame_report()
        if "smfu" in blame.detail:  # gateway names, not span names
            assert all(
                k.startswith("bi") for k in blame.detail["smfu"]
            )


class TestWhatIfVsResimulation:
    @pytest.mark.parametrize("factor", [2.0, 4.0])
    def test_extoll_bandwidth_projection_brackets_truth(self, factor):
        system, base = run_offload()
        projection = system.what_if("extoll.bw", factor)
        fast_spec = dataclasses.replace(
            EXTOLL_TOURMALET,
            bandwidth_bytes_per_s=EXTOLL_TOURMALET.bandwidth_bytes_per_s
            * factor,
        )
        _, fast = run_offload(extoll_spec=fast_spec)
        true_speedup = base.elapsed_s / fast.elapsed_s
        # Same sign (both are real speedups)...
        assert true_speedup > 1.0
        assert projection.speedup > 1.0
        # ...and within 20% relative error of the re-simulation.
        assert projection.speedup == pytest.approx(true_speedup, rel=0.20)

    def test_neutral_projection_is_identity(self):
        """Replaying with factor 1.0 reconstructs the recorded makespan
        (up to sub-permille wake-to-start local delays the analytic
        replay folds into the wake arrival)."""
        system, _ = run_offload()
        r = system.what_if("extoll.bw", 1.0)
        assert r.projected_s == pytest.approx(r.baseline_s, rel=1e-3)


class TestDeterminismAndPerturbation:
    def test_check_determinism_script_passes_with_tagging(self):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        # A minimal environment, but the caller's no-bytecode setting
        # carries through: without it the script writes .pyc files
        # under src/.
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_determinism.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "deterministic (observability on)" in proc.stdout
        assert "pinned digests match" in proc.stdout

    def test_check_determinism_script_fails_when_results_move(
        self, monkeypatch, capsys
    ):
        """Two runs that agree with each other but not with the pinned
        digest fail, and the message names the constant to update."""
        path = REPO_ROOT / "scripts" / "check_determinism.py"
        spec = importlib.util.spec_from_file_location("check_determinism", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "SCENARIO_DIGEST_OBSERVED", "0" * 64)
        assert script.main([]) == 1
        out = capsys.readouterr().out
        assert "SIMULATED RESULTS MOVED" in out
        assert "update SCENARIO_DIGEST_OBSERVED in" in out

    def test_tracing_does_not_perturb_simulated_results(self):
        traced, traced_result = run_offload(observe=True)
        plain, plain_result = run_offload(observe=False)
        assert traced.now == plain.now
        assert traced_result.elapsed_s == plain_result.elapsed_s
        assert traced_result.n_tasks == plain_result.n_tasks

    def test_traced_rerun_is_deterministic(self):
        a, _ = run_offload()
        b, _ = run_offload()
        assert a.blame_report().as_dict() == b.blame_report().as_dict()
        assert list(a.sim.trace.wakes) == list(b.sim.trace.wakes)


class TestEnabledOverheadSanity:
    def test_tracing_on_is_not_catastrophic(self):
        """Loose sanity bound: the per-event tagging cost with tracing
        *enabled* stays within 2x of the disabled path on a bare event
        loop, as the median ratio of 9 paired runs (the strict
        disabled-path budget lives in scripts/bench_regression.py)."""

        def loop(trace):
            sim = Simulator(observe=trace)

            def ticker(sim):
                for _ in range(2000):
                    yield sim.timeout(1e-6)

            for _ in range(8):
                sim.process(ticker(sim))
            t0 = perf_counter()
            sim.run()
            return perf_counter() - t0

        ratios = []
        for i in range(9):
            # Each pair runs both sides back to back, alternating which
            # goes first, so a burst of host load lands on both.
            if i % 2:
                on, off = loop(True), loop(False)
            else:
                off, on = loop(False), loop(True)
            ratios.append(on / max(off, 1e-6))
        assert median(ratios) < 2.0
