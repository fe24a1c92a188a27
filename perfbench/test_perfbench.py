"""Tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke tests run every workload for about a second in both modes,
so the file takes a minute or two.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.layers import HOST_BUCKETS, LAYER_METRICS, group_self_time, package_of  # noqa: E402

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def test_summary_of_known_sample():
    s = stats.summarize([5, 1, 4, 2, 3, 9, 7, 8, 6, 10])
    assert s.n == 10
    assert s.median == 5.5
    # statistics.quantiles(n=4), the "exclusive" method.
    assert (s.q1, s.q3) == (2.75, 8.25)
    # n=10: ranks 2 and 9 give 1 - 2 * 11/1024 = 97.9% coverage.
    assert (s.ci_lo, s.ci_hi) == (2, 9)
    assert s.ci_coverage == pytest.approx(1 - 2 * 11 / 1024)


def test_median_ci_small_samples_report_true_coverage():
    lo, hi, cov = stats.median_ci([3.0, 1.0, 2.0])
    assert (lo, hi) == (1.0, 3.0)
    assert cov == pytest.approx(0.75)
    assert stats.median_ci([4.0]) == (4.0, 4.0, 0.0)
    # n=6 is the smallest sample whose full range reaches 95%.
    assert stats.median_ci(range(6))[2] == pytest.approx(1 - 2 / 64)


def test_single_sample_summary():
    s = stats.summarize([0.5])
    assert (s.median, s.q1, s.q3, s.n) == (0.5, 0.5, 0.5, 1)


def test_verdict_gain_needs_nine_of_ten_wins_and_iqr_gap():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [v * 0.8 for v in parent]
    verdict, detail = stats.verdict(parent, change, "lower", bound=0.1)
    assert verdict == stats.IMPROVED and detail["wins"] == 10
    # Eight wins of ten is not a gain, even with a large median gap.
    change = [v * 0.8 for v in parent[:8]] + [v * 1.01 for v in parent[8:]]
    verdict, _ = stats.verdict(parent, change, "lower", bound=0.1)
    assert verdict == stats.UNCHANGED


def test_verdict_refuses_fewer_than_ten_pairs():
    with pytest.raises(ValueError):
        stats.verdict([10.0] * 9, [5.0] * 9, "lower", bound=0.1)
    with pytest.raises(ValueError):
        stats.verdict([10.0] * 10, [5.0] * 11, "lower", bound=0.1)


def test_verdict_regression_and_unchanged():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.4, 99.6]
    verdict, _ = stats.verdict(parent, [v * 1.2 for v in parent], "lower", bound=0.1)
    assert verdict == stats.REGRESSED
    verdict, _ = stats.verdict(parent, [v * 1.02 for v in parent], "lower", bound=0.1)
    assert verdict == stats.UNCHANGED
    # "higher is better": a throughput drop is the regression.
    verdict, _ = stats.verdict(parent, [v * 0.8 for v in parent], "higher", bound=0.1)
    assert verdict == stats.REGRESSED


def test_verdict_wide_spread_is_unresolved_not_unchanged():
    parent = [1.0, 2.0] * 5
    change = [1.1, 1.9, 1.1, 2.1, 0.9, 2.0, 1.0, 1.9, 1.1, 2.0]
    verdict, _ = stats.verdict(parent, change, "lower", bound=0.1)
    assert verdict == stats.UNRESOLVED
    # ...unless every change run beats every parent run.  The median gap
    # (0.9) is inside the parent's IQR (1.0), so it is no gain either.
    change = [0.5, 0.6, 0.7, 0.5, 0.6, 0.9, 0.6, 0.5, 0.7, 0.6]
    verdict, _ = stats.verdict(parent, change, "lower", bound=0.1)
    assert verdict == stats.UNCHANGED


def test_passes_are_scaled_by_the_kernel_times_at_their_ends():
    from perfbench.speed import REFERENCE_S, at_reference

    k = REFERENCE_S
    # Kernel at reference speed, then twice as slow: the second pass ran
    # between a 1x and a 2x kernel, so it is scaled by 1 / 1.5.
    assert at_reference([1.0, 3.0], [k, k, 2 * k]) == pytest.approx([1.0, 2.0])
    with pytest.raises(ValueError):
        at_reference([1.0, 3.0], [k, k])


def test_peak_rss_covers_only_its_own_block():
    from perfbench.rss import PeakRss

    with PeakRss() as big:
        block = bytearray(64 << 20)
        block[::4096] = b"\1" * (len(block) // 4096)
        del block
    with PeakRss() as small:
        pass
    assert big.mib - small.mib > 48


# ---------------------------------------------------------------------------
# Self time by package
# ---------------------------------------------------------------------------

PKG = "/ck/src/repro"


def _f(path, name, line=1):
    return (path, line, name)


def test_package_of():
    assert package_of(f"{PKG}/simkernel/simulator.py", PKG) == "simkernel"
    assert package_of(f"{PKG}/fsutil.py", PKG) == "fsutil"
    assert package_of(f"{PKG}/units.py", PKG) == "other"
    assert package_of(f"{PKG}/analysis/report.py", PKG) == "other"
    assert package_of("/usr/lib/python3.11/json/encoder.py", PKG) is None
    assert package_of("~", PKG) is None


def test_builtins_are_charged_to_their_repro_callers():
    run = _f(f"{PKG}/simkernel/simulator.py", "run")
    send = _f(f"{PKG}/network/fabric.py", "send")
    put = _f(f"{PKG}/sweep/cache.py", "put")
    write = _f(f"{PKG}/fsutil.py", "atomic_write_json")
    heappop = _f("~", "<built-in method _heapq.heappop>", 0)
    dumps = _f("/usr/lib/python3.11/json/__init__.py", "dumps")
    encode = _f("~", "<method 'encode' of '_json.Encoder' objects>", 0)
    fsync = _f("~", "<built-in method posix.fsync>", 0)
    acquire = _f("~", "<method 'acquire' of '_thread.lock' objects>", 0)
    root = _f("/bench/run.py", "main")
    table = {
        # func: (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})
        root: (1, 1, 0.5, 10.0, {}),
        run: (1, 1, 2.0, 4.0, {root: (1, 1, 2.0, 4.0)}),
        send: (5, 5, 1.0, 1.5, {run: (5, 5, 1.0, 1.5)}),
        put: (2, 2, 0.1, 2.0, {root: (2, 2, 0.1, 2.0)}),
        write: (2, 2, 0.2, 1.9, {put: (2, 2, 0.2, 1.9)}),
        # heappop: 1.5 s on behalf of the kernel, 0.5 s of the fabric.
        heappop: (9, 9, 2.0, 2.0, {run: (6, 6, 1.5, 1.5), send: (3, 3, 0.5, 0.5)}),
        # json.dumps (stdlib) is called only from fsutil, so its C
        # encoder's time climbs through it to fsutil.
        dumps: (2, 2, 0.1, 0.7, {write: (2, 2, 0.1, 0.7)}),
        encode: (2, 2, 0.6, 0.6, {dumps: (2, 2, 0.6, 0.6)}),
        fsync: (2, 2, 1.0, 1.0, {write: (2, 2, 1.0, 1.0)}),
        acquire: (3, 3, 3.0, 3.0, {root: (3, 3, 3.0, 3.0)}),
    }
    out = group_self_time(table, PKG)
    assert set(out) == set(HOST_BUCKETS)
    assert out["simkernel"] == pytest.approx(2.0 + 1.5)
    assert out["network"] == pytest.approx(1.0 + 0.5)
    assert out["sweep"] == pytest.approx(0.1)
    assert out["fsutil"] == pytest.approx(0.2 + 0.1 + 0.6 + 1.0)
    assert out["wait"] == pytest.approx(3.0)
    assert out["other"] == pytest.approx(0.5)
    total = sum(v[2] for v in table.values())
    assert sum(out.values()) == pytest.approx(total)


def test_builtin_time_splits_by_caller_share():
    a = _f(f"{PKG}/mpi/pt2pt.py", "send")
    b = _f(f"{PKG}/deep/offload.py", "offload")
    helper = _f("/usr/lib/python3.11/copy.py", "deepcopy")
    builtin = _f("~", "<built-in method builtins.isinstance>", 0)
    table = {
        a: (1, 1, 0.0, 3.0, {}),
        b: (1, 1, 0.0, 1.0, {}),
        # deepcopy's cumulative time is 3:1 between mpi and deep.
        helper: (4, 4, 0.4, 4.0, {a: (3, 3, 0.3, 3.0), b: (1, 1, 0.1, 1.0)}),
        builtin: (8, 8, 2.0, 2.0, {helper: (8, 8, 2.0, 2.0)}),
    }
    out = group_self_time(table, PKG)
    assert out["mpi"] == pytest.approx(0.3 + 1.5)
    assert out["deep"] == pytest.approx(0.1 + 0.5)
    assert sum(out.values()) == pytest.approx(2.4)


def test_recursive_stdlib_cycle_terminates():
    f = _f("/usr/lib/python3.11/ast.py", "visit")
    g = _f("/usr/lib/python3.11/ast.py", "generic_visit")
    caller = _f(f"{PKG}/obs/report.py", "render")
    table = {
        caller: (1, 1, 0.0, 1.0, {}),
        f: (3, 1, 0.5, 1.0, {caller: (1, 1, 0.2, 1.0), g: (2, 2, 0.3, 0.6)}),
        g: (2, 2, 0.5, 0.6, {f: (2, 2, 0.5, 0.6)}),
    }
    out = group_self_time(table, PKG)
    assert out["obs"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    from perfbench.run import E2E_METRICS
    from perfbench.workloads import WORKLOADS

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS
    ]


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------


def _run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )


@pytest.mark.parametrize("workload", ["sim_serial", "sweep_cold", "sweep_warm"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_metric_emitted_and_checked(workload, trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(workload, trace, seed=17)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = doc["per_layer"] if trace else doc["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        from perfbench.run import RAW_METRICS

        raw_line = next(line for line in out.stdout.splitlines() if line.startswith("raw "))
        raw = json.loads(raw_line[4:])
        assert {(k, v["unit"], v["better"]) for k, v in raw.items()} == set(RAW_METRICS)
        assert all(v["value"] > 0 for v in raw.values())
    elif workload == "sweep_warm":
        assert result["metrics"]["sweep.cache_hit_frac"]["value"] == 1.0
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_without_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    out = _run("sim_serial", 0, cwd=tmp_path)
    assert out.returncode == 2
    assert out.stdout.strip() == ""


def test_refuses_armed_chaos():
    env = dict(os.environ, REPRO_CHAOS="crash:0.5")
    out = _run("sim_serial", 0, env=env)
    assert out.returncode == 2 and "REPRO_CHAOS" in out.stderr


def test_perturbed_reference_fails_the_run(tmp_path):
    """A wrong reference digest or headline makes the command exit 1."""
    import shutil

    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench, ignore=shutil.ignore_patterns("__pycache__"))
    refs = json.loads((bench / "references.json").read_text())
    ref = refs["workloads"]["sim_serial"]
    ref["report_digest"][0] = "0" * 64
    ref["headline"]["pingpong"]["all"] += 1e-9
    (bench / "references.json").write_text(json.dumps(refs))
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sim_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "report digest" in out.stderr and "end_time_s" in out.stderr
