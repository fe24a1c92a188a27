#!/usr/bin/env python
"""Wall-clock gates for the simulator and its sweep harness.

Every invocation runs five gates, lists every failure and exits 1 if
there is any.

Four are paired gates (:func:`paired_gate`).  Each times an ``off``
and an ``on`` callable back to back, alternating which goes first, and
fails when the median of the paired on/off wall-time ratios exceeds
``1 + budget``:

* fidelity guard: ``alltoall_bridge`` at ``fidelity=analytic`` against
  ``fidelity=exact``, budget 0 (the analytic tier is no slower);
* obs overhead gate: ``alltoall_bridge`` with ``REPRO_FLEET_INDEX`` set
  against unset, observability off, budget 3%; nothing may be indexed;
* telemetry overhead gate: a serial sweep with a telemetry channel
  against one without, budget 3%;
* policy overhead gate: the same sweep with an armed but idle
  :class:`~repro.sweep.policy.FailurePolicy` against none, budget 3%;
  no job may fail or retry.

The median of paired ratios is what the benchmark reports too
(``perfbench/stats.py``): a best-of-N per side turns one lucky sample
into a verdict, while one pair's noise moves a median by at most a rank.

The fifth is the kernel floor.  It runs the ``bench_kernel_hotpath``
micro-suite (best-of-``--repeats``) and compares it against the
committed ``benchmarks/baseline_kernel.json``.  It fails when any
metric's speed (throughput, or baseline over current wall time) falls
below 0.85x of the baseline's, or when any *simulated* invariant
differs: a speedup that changes simulated results is a bug.  Refresh
the baseline deliberately with
``python benchmarks/bench_kernel_hotpath.py --save-baseline``.

Usage::

    python scripts/bench_regression.py               # kernel floor best-of-5
    python scripts/bench_regression.py --repeats 3   # as CI runs it
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_kernel_hotpath import BASELINE_PATH, run_suite  # noqa: E402
from perfbench.stats import summarize  # noqa: E402
from repro.sweep.engine import SweepSpec, run_sweep  # noqa: E402
from repro.sweep.experiments import effective_config, get_experiment  # noqa: E402
from repro.sweep.policy import FailurePolicy  # noqa: E402

#: A paired gate times pairs in blocks of this many and stops after the
#: first block whose median CI lies wholly above or below its limit.
BLOCK_PAIRS = 20
#: ... or after this many pairs, where it judges the median alone.  On a
#: 2-vCPU Xeon, 20-pair blocks of an unchanged obs gate read medians of
#: 0.938-1.092 but 200 pairs 1.000 [0.980, 1.013]; 200 telemetry-gate
#: pairs take one to two minutes there.
MAX_PAIRS = 200
#: Fractional wall-time budget of each overhead gate.
OVERHEAD_BUDGET = 0.03
#: Fractional speed loss against the kernel baseline that fails the floor.
KERNEL_THRESHOLD = 0.15
#: ``alltoall_bridge`` runs per obs-gate sample (about 21 ms in all).
OBS_INNER = 3
#: ~100 ms of simulation per job, so the harness wiring is measured
#: against a realistic serving workload, not pure overhead.
SWEEP = SweepSpec(
    experiments=["pingpong"], seeds=[0, 1],
    overrides={"pingpong": {"rounds": 120}},
)


def paired_gate(name: str, off, on, budget: float) -> list[str]:
    """Fail *name* when *on* costs more than ``1 + budget`` times *off*.

    After one untimed warm-up of each side, times the two callables back
    to back, alternating which goes first, in blocks of
    :data:`BLOCK_PAIRS` pairs.  It stops once the order-statistic CI of
    the median on/off ratio clears ``1 + budget`` on either side, or
    after :data:`MAX_PAIRS` pairs, and fails when that median exceeds
    ``1 + budget``.  Returns the failure messages (empty when it passes).
    """
    off()
    on()
    limit = 1.0 + budget
    ratios: list[float] = []
    while True:
        for _ in range(BLOCK_PAIRS):
            off_first = len(ratios) % 2 == 0
            t0 = perf_counter()
            (off if off_first else on)()
            t1 = perf_counter()
            (on if off_first else off)()
            t2 = perf_counter()
            first, second = t1 - t0, t2 - t1
            ratios.append(second / first if off_first else first / second)
        s = summarize(ratios)
        if s.ci_lo > limit or s.ci_hi < limit or s.n >= MAX_PAIRS:
            break
    stats = (
        f"median on/off {s.median:.3f} (quartiles {s.q1:.3f}-{s.q3:.3f}, "
        f"{s.ci_coverage:.0%} CI [{s.ci_lo:.3f}, {s.ci_hi:.3f}], {s.n} pairs)"
    )
    ok = s.median <= limit
    print(f"  {name}: {stats}, budget {limit:.2f}  [{'ok' if ok else 'OVER BUDGET'}]")
    return [] if ok else [f"{name}: {stats} over budget {limit:.2f}"]


def fidelity_guard() -> list[str]:
    """The analytic fidelity tier costs no more wall clock than exact.

    The tier exists to be cheaper than per-rank event simulation, so a
    ratio above 1 means the closed-form path grew an accidental hot loop.
    """
    exp = get_experiment("alltoall_bridge")
    exact = effective_config("alltoall_bridge", {"fidelity": "exact"})
    analytic = effective_config("alltoall_bridge", {"fidelity": "analytic"})
    return paired_gate(
        "fidelity guard",
        lambda: exp.fn(exact, seed=0),
        lambda: exp.fn(analytic, seed=0),
        budget=0.0,
    )


def obs_overhead_gate() -> list[str]:
    """The fleet run index does not tax unobserved runs.

    With ``REPRO_OBS_DIR`` unset, ``alltoall_bridge`` with
    ``REPRO_FLEET_INDEX`` pointing at a temporary index (on) stays within
    the budget of a clean environment (off), and writes nothing there.
    """
    exp = get_experiment("alltoall_bridge")
    config = effective_config("alltoall_bridge", {})
    saved = {k: os.environ.pop(k, None) for k in ("REPRO_OBS_DIR", "REPRO_FLEET_INDEX")}

    def off():
        for _ in range(OBS_INNER):
            exp.fn(config, seed=0)

    try:
        with tempfile.TemporaryDirectory() as tmp:
            def on():
                os.environ["REPRO_FLEET_INDEX"] = tmp
                try:
                    off()
                finally:
                    del os.environ["REPRO_FLEET_INDEX"]

            failures = paired_gate("obs overhead gate", off, on, OVERHEAD_BUDGET)
            leftovers = [p for p in Path(tmp).rglob("*") if p.is_file()]
    finally:
        for k, v in saved.items():
            if v is not None:
                os.environ[k] = v
    if leftovers:
        failures.append(
            "obs overhead gate: unobserved runs wrote fleet artifacts: "
            + ", ".join(p.name for p in leftovers[:5])
        )
    return failures


def telemetry_overhead_gate() -> list[str]:
    """The harness-telemetry channel costs a sweep at most the budget.

    The channel path is per-record ``O_APPEND`` writes and the
    end-of-sweep summary; each telemetry-on sweep gets a fresh channel.
    """
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        channels = (Path(tmp) / f"{i}.telemetry.jsonl" for i in itertools.count())
        failures = paired_gate(
            "telemetry overhead gate",
            lambda: run_sweep(SWEEP, jobs=1),
            lambda: reports.append(run_sweep(SWEEP, jobs=1, telemetry=next(channels))),
            OVERHEAD_BUDGET,
        )
    if any(r.telemetry is None for r in reports):
        failures.append("telemetry overhead gate: a telemetry-on sweep has no telemetry summary")
    return failures


def policy_overhead_gate() -> list[str]:
    """An armed but idle failure policy costs a sweep at most the budget.

    The policy path is bookkeeping around each execute call (attempt
    counters, deadline stamps, dead chaos branches); none of its
    timeouts, retries or backoffs may fire on healthy jobs.
    """
    policy = FailurePolicy(timeout_s=300.0, max_retries=3)
    reports = []
    failures = paired_gate(
        "policy overhead gate",
        lambda: run_sweep(SWEEP, jobs=1),
        lambda: reports.append(run_sweep(SWEEP, jobs=1, policy=policy)),
        OVERHEAD_BUDGET,
    )
    if not all(r.ok and r.n_retries == 0 for r in reports):
        failures.append("policy overhead gate: an idle policy failed or retried a healthy job")
    return failures


def compare(results: dict, invariants: dict, baseline: dict) -> list[str]:
    """Kernel-floor failure messages for one suite run (empty = pass)."""
    failures: list[str] = []
    for key, base_v in baseline["results"].items():
        now_v = results.get(key)
        if now_v is None or not base_v:
            continue
        if key.endswith("_wall_s"):
            ratio = base_v / now_v  # >1 = faster
        else:
            ratio = now_v / base_v
        verdict = "ok" if ratio >= 1.0 - KERNEL_THRESHOLD else "REGRESSION"
        print(f"  {key:32s} {ratio:6.3f}x vs baseline  [{verdict}]")
        if ratio < 1.0 - KERNEL_THRESHOLD:
            failures.append(
                f"{key}: {ratio:.3f}x of baseline "
                f"(allowed >= {1.0 - KERNEL_THRESHOLD:.2f}x)"
            )

    base_inv = baseline.get("invariants", {})
    if invariants != base_inv:
        diffs = [k for k in base_inv if invariants.get(k) != base_inv[k]]
        failures.append(
            f"simulated invariants differ from baseline: {diffs or 'keys'}"
        )
    else:
        print("  simulated invariants match baseline")
    return failures


def kernel_floor(repeats: int) -> list[str]:
    """The hot-path suite, best-of-*repeats*, against the committed baseline."""
    if not BASELINE_PATH.exists():
        print(f"  no baseline at {BASELINE_PATH}; nothing to gate against")
        return []
    baseline = json.loads(BASELINE_PATH.read_text())
    print(f"  hot-path suite best-of-{repeats} against baseline "
          f"{baseline.get('label')!r} (threshold {KERNEL_THRESHOLD:.0%}):")
    results, invariants = run_suite(repeats=repeats)
    return compare(results, invariants, baseline)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--repeats", type=int, default=5,
        help="kernel floor: best-of-N runs per benchmark (default 5)",
    )
    args = ap.parse_args(argv)

    failures: list[str] = []
    for title, gate in (
        ("fidelity guard (analytic vs exact wall clock)", fidelity_guard),
        ("observability-off overhead gate (fleet wiring)", obs_overhead_gate),
        ("harness-telemetry overhead gate (sweep wall clock)", telemetry_overhead_gate),
        ("failure-policy overhead gate (sweep wall clock)", policy_overhead_gate),
        ("kernel floor", lambda: kernel_floor(args.repeats)),
    ):
        print(f"{title}:")
        failures += gate()

    if failures:
        print("\nBENCH REGRESSION GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
