#!/usr/bin/env python
"""Determinism check: one mixed-workload experiment, run twice.

The simulator promises bit-identical results for identical seeds.  This
script runs a scenario exercising every major subsystem — the event
kernel, contended fabric transfers, MPI point-to-point and collectives,
SMFU bridging with dynamic gateway selection, and checkpoint/restart —
twice from scratch, digests everything observable (simulated times,
byte counters, per-gateway load, checkpoint statistics; when
observed, also the metrics, the whole trace and its blame) and exits 0
only if the two digests agree and, at the default seed, equal the
pinned digests below.

Run it before and after touching the kernel or network hot paths::

    python scripts/check_determinism.py          # exit 0 = deterministic
    python scripts/check_determinism.py --show   # also print the digest
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.mpi.world import MPIWorld  # noqa: E402
from repro.network import (  # noqa: E402
    ClusterBoosterBridge,
    ExtollFabric,
    InfinibandFabric,
    SMFUGateway,
)
from repro.network.smfu import SMFUSpec  # noqa: E402
from repro.resilience.checkpoint import simulate_checkpointed_run  # noqa: E402
from repro.simkernel.simulator import Simulator  # noqa: E402

#: The scenario's digests at the default seed, with observability off
#: and on.  They pin the simulated results, and the observed one also
#: pins the whole trace (see :func:`trace_digest`), so a change that
#: moves either fails here even when it moves them deterministically.
#: A deliberate model change updates both constants and says why.
DEFAULT_SEED = 7
SCENARIO_DIGEST = "a5d54620baef2e858c27d7e62cc31467fd2d0802991f0b491e0d5d03ca5323f4"
SCENARIO_DIGEST_OBSERVED = (
    "f02be3a7bc08dc8b7411eab399c9d4d870e95572e751574ab34c1c6494b7256d"
)


def run_scenario(seed: int = DEFAULT_SEED, observe: bool = False) -> dict:
    """One bridged Cluster-Booster run; returns everything observable.

    With *observe* the run is observed (trace, metrics, profiled
    resources), and the metrics dump joins the digest — observability
    must be deterministic too, and must not perturb the simulated
    results.
    """
    sim = Simulator(seed=seed, observe=observe)
    cns = [f"cn{i}" for i in range(4)]
    bns = [f"bn{i}" for i in range(4)]
    gw_names = ["bi0", "bi1"]
    ib = InfinibandFabric(sim, cns + gw_names)
    for e in cns + gw_names:
        ib.attach_endpoint(e)
    ex = ExtollFabric(sim, bns + gw_names, dims=(3, 2, 1))
    for e in bns + gw_names:
        ex.attach_endpoint(e)
    gws = [
        SMFUGateway(sim, n, ib, ex, spec=SMFUSpec(segment_bytes=256 << 10))
        for n in gw_names
    ]
    bridge = ClusterBoosterBridge(gws, selection="dynamic")
    world = MPIWorld(sim, [ib, ex], bridge=bridge)

    ckpt_stats = []

    def main(proc):
        comm = proc.comm_world
        rank, size = comm.rank, comm.size
        # Neighbour ring of medium messages (eager + rendezvous mix).
        for nbytes in (1024, 64 << 10, 1 << 20):
            if rank % 2 == 0:
                yield from comm.send((rank + 1) % size, nbytes)
                yield from comm.recv((rank - 1) % size)
            else:
                yield from comm.recv((rank - 1) % size)
                yield from comm.send((rank + 1) % size, nbytes)
        # A collective across the bridge (cluster + booster ranks).
        yield from comm.alltoall([rank] * size, size_bytes=16 << 10)
        # Rank 0 simulates a checkpointed run on the side.
        if rank == 0:
            stats = yield from simulate_checkpointed_run(
                proc.sim, 2000.0, 45.0, 4.0, 20.0, 600.0
            )
            ckpt_stats.append(stats)

    placements = [(e, None) for e in cns + bns]
    world.create_world(placements, main)
    end = sim.run()

    observed = {}
    if observe:
        from repro.obs.critpath import CausalGraph
        from repro.obs.export import metrics_dict

        blame = CausalGraph.from_trace(sim.trace).blame()
        observed = {
            "metrics": metrics_dict(sim.metrics, sim),
            "trace": trace_digest(sim.trace),
            # Causal analysis must be as deterministic as the run.
            "blame": blame.as_dict(),
        }

    return {
        **observed,
        "end_time": end,
        "ib_bytes": ib.total_bytes(),
        "ex_bytes": ex.total_bytes(),
        "ib_hottest": ib.hottest_links(3),
        "gateways": [
            {
                "name": g.name,
                "forwarded_bytes": g.forwarded_bytes,
                "forwarded_messages": g.forwarded_messages,
                "queued_bytes": g.queued_bytes,
            }
            for g in gws
        ],
        "checkpoint": {
            "elapsed_s": ckpt_stats[0].elapsed_s,
            "work_s": ckpt_stats[0].work_s,
            "wasted_s": ckpt_stats[0].wasted_s,
            "n_checkpoints": ckpt_stats[0].n_checkpoints,
            "n_failures": ckpt_stats[0].n_failures,
        },
    }


def digest(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trace_digest(trace) -> str:
    """Digest of a trace's whole content, not just its size.

    Covers every span (id, parent, category, name, start, end, process
    and fields), every point event, wake edge and counter change point,
    and the process names, so a renamed process or a re-parented span
    moves it even when every count stays the same.
    """
    return digest({
        "spans": [
            [sp.span_id, sp.parent_id, sp.category, sp.name,
             sp.start, sp.end, sp.proc, sp.fields]
            for sp in trace.spans
        ],
        "events": [[ev.time, ev.category, ev.fields] for ev in trace.events],
        "wakes": trace.wakes,
        "counters": trace.counters,
        "proc_names": trace.proc_names,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--show", action="store_true", help="print digests and results")
    args = ap.parse_args(argv)

    first = run_scenario(args.seed)
    second = run_scenario(args.seed)
    d1, d2 = digest(first), digest(second)
    if args.show:
        print(json.dumps(first, indent=2))
        print(f"run 1: {d1}")
        print(f"run 2: {d2}")
    if d1 != d2:
        print("DETERMINISM VIOLATION: identical seeds produced different results")
        for key in first:
            if first[key] != second[key]:
                print(f"  {key}: {first[key]!r} != {second[key]!r}")
        return 1
    print(f"deterministic (observability off): {d1}")

    # With tracing + metrics on: deterministic too, and the simulated
    # results must be identical to the plain run (observability is
    # read-only).
    obs1 = run_scenario(args.seed, observe=True)
    obs2 = run_scenario(args.seed, observe=True)
    od1, od2 = digest(obs1), digest(obs2)
    if od1 != od2:
        print("DETERMINISM VIOLATION with observability enabled")
        for key in obs1:
            if obs1[key] != obs2[key]:
                print(f"  {key}: differs between runs")
        return 1
    perturbed = [k for k in first if obs1.get(k) != first[k]]
    if perturbed:
        print(f"OBSERVABILITY PERTURBED THE SIMULATION: {perturbed}")
        for key in perturbed:
            print(f"  {key}: {first[key]!r} != {obs1[key]!r}")
        return 1
    print(f"deterministic (observability on):  {od1}")
    if args.seed == DEFAULT_SEED:
        pins = {
            "SCENARIO_DIGEST": (SCENARIO_DIGEST, d1),
            "SCENARIO_DIGEST_OBSERVED": (SCENARIO_DIGEST_OBSERVED, od1),
        }
        moved = {name: pin for name, pin in pins.items() if pin[0] != pin[1]}
        if moved:
            print("SIMULATED RESULTS MOVED: digests differ from the pinned ones")
            for name, (pinned, got) in moved.items():
                print(f"  {name}: pinned {pinned}, got {got}")
            print(
                f"  for a deliberate model change, update {' and '.join(moved)} "
                "in scripts/check_determinism.py"
            )
            return 1
        print("pinned digests match")

    # Harness telemetry is wall-clock-only: a sweep's simulated digest
    # must be bit-identical with the telemetry channel on or off.
    import tempfile

    from repro.sweep.engine import SweepSpec, run_sweep

    spec = SweepSpec(experiments=["pingpong"], seeds=[0, 1])
    plain_report = run_sweep(spec, jobs=1)
    with tempfile.TemporaryDirectory() as tmp:
        tele_report = run_sweep(
            spec, jobs=1, telemetry=Path(tmp) / "telemetry.jsonl"
        )
    td1, td2 = plain_report.digest(), tele_report.digest()
    if td1 != td2:
        print(
            "TELEMETRY PERTURBED THE SWEEP: digest "
            f"{td1} (off) != {td2} (on)"
        )
        return 1
    if tele_report.telemetry is None:
        print("TELEMETRY MISSING: sweep ran with a channel but no summary")
        return 1
    print(f"deterministic (harness telemetry): {td1}")

    # The failure-policy layer must be inert when nothing fails: a
    # policy-armed sweep of healthy jobs reports zero retries and the
    # same digest as the plain run.
    from repro.sweep.policy import FailurePolicy

    armed = FailurePolicy(timeout_s=60.0, max_retries=3)
    armed_report = run_sweep(spec, jobs=1, policy=armed)
    pd = armed_report.digest()
    if pd != td1:
        print(
            "FAILURE POLICY PERTURBED THE SWEEP: digest "
            f"{td1} (off) != {pd} (on)"
        )
        return 1
    if (
        armed_report.n_retries
        or armed_report.n_timeouts
        or armed_report.n_pool_restarts
        or armed_report.failures
    ):
        print(
            "FAILURE POLICY NOT INERT: clean sweep reported "
            f"{armed_report.n_retries} retries, "
            f"{armed_report.n_timeouts} timeouts, "
            f"{armed_report.n_pool_restarts} pool restarts, "
            f"{len(armed_report.failures)} quarantined"
        )
        return 1
    print(f"deterministic (failure policy on): {pd}")

    # Pooled placement parity: without a policy or isolation up to
    # 2n+1 jobs are in flight on n workers; with the armed policy, and
    # with a fresh worker per job, at most one job per worker is.  How
    # jobs reach the workers must not change a digest byte.
    placements = (
        ("submitted ahead", {}),
        ("throttled", {"policy": armed}),
        ("isolated", {"isolate": True}),
    )
    for label, placement in placements:
        placed = run_sweep(spec, jobs=2, **placement).digest()
        if placed != td1:
            print(
                f"POOLED PLACEMENT PERTURBED THE SWEEP ({label}): digest "
                f"{td1} (serial) != {placed} (jobs=2)"
            )
            return 1
    print(f"deterministic (pooled placement):  {td1}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
