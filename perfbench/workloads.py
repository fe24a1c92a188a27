"""The benchmark's workloads, their job lists and their output checks.

Each workload is a closed loop of sweep passes driven from one process
through the public API (:func:`repro.sweep.run_sweep`): a pass starts
only after the previous one returned.  The workload seed picks one of
:data:`N_BASES` seed windows; the job list of a run is fixed by it, so
every pass of a run does the same work and the stored references
(``references.json``, written by ``make_references.py``) cover every
seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

#: Seed windows: the workload seed ``s`` starts its window at ``s % N_BASES``.
N_BASES = 16

#: Job digests embed a code-version digest of every source file.  The
#: benchmark pins it, so report digests depend only on experiments,
#: configs, seeds and payloads, and stay comparable across commits that
#: keep simulated results bit-identical.
CODE_VERSION_PIN = "perfbench-v1"

REFERENCES_PATH = Path(__file__).with_name("references.json")

# The six simulator-backed experiments plus exact collective_scale,
# scaled so that each job takes roughly 100-200 ms of host time.
SIM_SERIAL_OVERRIDES = {
    "alltoall_bridge": {"n_cluster": 16, "n_booster": 16, "n_gateways": 4},
    "checkpoint_resilience": {"work_s": 3.0e6},
    "collective_scale": {"fidelity": "exact", "ranks": 32},
    "coupled_modes": {"iterations": 8},
    "offload_stencil": {"tiles": 64, "sweeps": 4},
    "pingpong": {"rounds": 120, "n_pairs": 4},
    "spawn_cost": {"n_children": 128, "n_booster": 128},
}

ALL_EXPERIMENTS = tuple(sorted(SIM_SERIAL_OVERRIDES))

#: The cheapest experiments at their defaults (0.2-4 ms per job).
WARM_EXPERIMENTS = ("checkpoint_resilience", "collective_scale", "pingpong")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple[str, ...]
    n_seeds: int
    #: ``jobs=nproc`` when true, else ``jobs=1``.
    pooled: bool
    #: ``"none"`` (no cache), ``"fresh"`` (a new cache per pass) or
    #: ``"warm"`` (one cache filled before timing starts).
    cache: str
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def seeds(self, seed: int) -> list[int]:
        base = seed % N_BASES
        return list(range(base, base + self.n_seeds))

    def universe(self) -> list[int]:
        """Every seed some window of this workload uses."""
        return list(range(N_BASES - 1 + self.n_seeds))

    def spec(self, seeds: list[int]):
        from repro.sweep import SweepSpec

        return SweepSpec(
            experiments=list(self.experiments),
            seeds=list(seeds),
            overrides={k: dict(v) for k, v in self.overrides.items()},
        )

    def n_jobs(self) -> int:
        return len(self.experiments) * self.n_seeds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_serial",
            "seven simulator-bound jobs of 0.1-0.2 s run serially without a "
            "cache: the simulator packages do the work, the harness almost none",
            ALL_EXPERIMENTS, n_seeds=1, pooled=False, cache="none",
            overrides=SIM_SERIAL_OVERRIDES,
        ),
        Workload(
            "sweep_cold",
            "CLI-default sweep of all seven experiments x 16 seeds into a fresh "
            "cache with jobs=nproc: pool spawn, IPC and cache writes dominate",
            ALL_EXPERIMENTS, n_seeds=16, pooled=True, cache="fresh",
        ),
        # 3000 jobs make a pass of about 0.2 s, long enough to average
        # out the host's sub-second speed swings, while filling the
        # cache (about 3 ms of fsync'd writes per job) stays under 10 s.
        Workload(
            "sweep_warm",
            "3000 jobs served entirely from a cache filled before timing: cache "
            "reads, digests and the run index; no simulator, no pool",
            WARM_EXPERIMENTS, n_seeds=1000, pooled=True, cache="warm",
        ),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def jobs_for(workload: Workload) -> int:
    return nproc() if workload.pooled else 1


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def headline_of(experiment: str, payload: dict):
    from repro.sweep import get_experiment

    return payload.get("metrics", {}).get(get_experiment(experiment).headline)


def check_report(
    workload: Workload,
    seed: int,
    report,
    digest: str,
    references: dict,
    expect_cached: bool,
    expect_digest: Optional[str] = None,
) -> tuple[int, list[str]]:
    """Compare one pass against the stored references: ``(n_failed, errors)``.

    A job fails when it is missing (it raised or was quarantined), was
    served from the wrong place (cache vs simulation), or its headline
    value differs from the reference for its seed.  A report digest
    that differs from the reference (or from *expect_digest*, the cold
    digest a warm pass must reproduce) fails every job of the pass.
    """
    ref = references["workloads"][workload.name]
    base = seed % N_BASES
    n = workload.n_jobs()
    errors: list[str] = []
    bad: set[tuple[str, int]] = set()
    seen = set()
    for result in report.results:
        job = result.job
        key = (job.experiment, job.seed)
        seen.add(key)
        if result.cached != expect_cached:
            bad.add(key)
            errors.append(
                f"{job.label}: served from {'cache' if result.cached else 'simulation'}"
            )
        head = ref["headline"][job.experiment]
        want = head["all"] if "all" in head else head["by_seed"].get(str(job.seed))
        got = headline_of(job.experiment, result.payload)
        if got != want:
            bad.add(key)
            errors.append(f"{job.label}: {head['key']} = {got!r}, reference {want!r}")
    missing = n - len(seen)
    if missing:
        errors.append(f"{missing} of {n} jobs did not settle")
    for failure in report.failures:
        errors.append(f"{failure.label}: quarantined ({failure.error_class})")
    n_failed = len(bad) + missing
    want_digest = ref["report_digest"][base]
    for label, expected in (("reference", want_digest), ("cold pass", expect_digest)):
        if expected is not None and digest != expected:
            errors.append(f"report digest {digest[:16]} != {label} {expected[:16]}")
            n_failed = n
    return n_failed, errors
