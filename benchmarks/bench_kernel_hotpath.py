"""Hot-path micro-suite: event kernel and network layer throughput.

Unlike the ``bench_eNN`` files (which reproduce paper figures under
pytest-benchmark), this is a plain script producing the repo's
performance trajectory artifact, ``BENCH_kernel.json``:

* ``event_loop_events_per_s`` — process resumptions through the bare
  event loop (timeout yield per iteration);
* ``p2p_msgs_per_s`` — eager MPI messages through a contended
  InfiniBand fabric model (2 ranks, one-way stream);
* ``alltoall_wall_s`` — wall time of pairwise-exchange all-to-all
  rounds on a 16-rank world;
* ``checkpoint_runs_per_s`` — full checkpointed-run simulations per
  second (the resilience hot loop).

Each benchmark also records *simulated* invariants (final simulated
time, failure/checkpoint counts).  Those must be bit-identical across
optimization work — a speedup that changes simulated results is a bug,
and the JSON makes the comparison explicit.  The script exits 1 when
they differ from the baseline's.

Usage::

    python benchmarks/bench_kernel_hotpath.py                 # -> BENCH_kernel.json
    python benchmarks/bench_kernel_hotpath.py --tiny          # smoke mode (CI)
    python benchmarks/bench_kernel_hotpath.py --save-baseline # refresh baseline_kernel.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.mpi.world import MPIWorld  # noqa: E402
from repro.network.infiniband import InfinibandFabric  # noqa: E402
from repro.resilience.checkpoint import simulate_checkpointed_run  # noqa: E402
from repro.simkernel.simulator import Simulator  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_kernel.json"

#: (full, tiny) workload sizes.
SIZES = {
    "event_loop": ((64, 2000), (4, 50)),
    "p2p": ((4000,), (40,)),
    "alltoall": ((16, 5, 4096), (4, 1, 256)),
    "checkpoint": ((40,), (2,)),
}


# ---------------------------------------------------------------------------
# Workloads.  Each returns (work_units, wall_seconds, invariants).
# ---------------------------------------------------------------------------


def bench_event_loop(n_procs: int, n_steps: int):
    """Bare event loop: n_procs processes, each yielding n_steps timeouts."""
    sim = Simulator()

    def ticker(sim, dt):
        for _ in range(n_steps):
            yield sim.timeout(dt)

    for i in range(n_procs):
        sim.process(ticker(sim, 1e-6 * (i + 1)))
    t0 = perf_counter()
    sim.run()
    wall = perf_counter() - t0
    return n_procs * n_steps, wall, {"final_time": sim.now}


def bench_p2p(n_msgs: int):
    """Eager point-to-point stream between two ranks on an IB fabric."""
    sim = Simulator()
    eps = ["n0", "n1"]
    ib = InfinibandFabric(sim, eps)
    for e in eps:
        ib.attach_endpoint(e)
    world = MPIWorld(sim, [ib])

    def main(proc):
        comm = proc.comm_world
        if comm.rank == 0:
            for _ in range(n_msgs):
                yield from comm.send(1, 1024)
        else:
            for _ in range(n_msgs):
                yield from comm.recv(0)

    world.create_world([("n0", None), ("n1", None)], main)
    t0 = perf_counter()
    sim.run()
    wall = perf_counter() - t0
    return n_msgs, wall, {"final_time": sim.now}


def bench_alltoall(n_ranks: int, rounds: int, size_bytes: int):
    """Pairwise-exchange all-to-all on one fat-tree IB fabric."""
    sim = Simulator()
    eps = [f"n{i}" for i in range(n_ranks)]
    ib = InfinibandFabric(sim, eps)
    for e in eps:
        ib.attach_endpoint(e)
    world = MPIWorld(sim, [ib])

    def main(proc):
        comm = proc.comm_world
        for _ in range(rounds):
            values = [comm.rank] * comm.size
            yield from comm.alltoall(values, size_bytes=size_bytes)

    world.create_world([(e, None) for e in eps], main)
    t0 = perf_counter()
    sim.run()
    wall = perf_counter() - t0
    return rounds, wall, {"final_time": sim.now}


def bench_checkpoint(n_runs: int):
    """Back-to-back checkpointed-run simulations (resilience hot loop)."""
    sim = Simulator(seed=3)
    collected = []

    def p(sim):
        for i in range(n_runs):
            stats = yield from simulate_checkpointed_run(
                sim, 5000.0, 60.0, 5.0, 30.0, 3600.0, rng_stream=f"ck{i}"
            )
            collected.append(stats)

    sim.process(p(sim))
    t0 = perf_counter()
    sim.run()
    wall = perf_counter() - t0
    invariants = {
        "final_time": sim.now,
        "total_elapsed": sum(s.elapsed_s for s in collected),
        "total_failures": sum(s.n_failures for s in collected),
        "total_checkpoints": sum(s.n_checkpoints for s in collected),
    }
    return n_runs, wall, invariants


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_suite(tiny: bool = False, repeats: int = 5):
    """Run every benchmark, best-of-*repeats*; returns (results, invariants)."""
    idx = 1 if tiny else 0
    if tiny:
        repeats = 1
    plans = [
        ("event_loop_events_per_s", bench_event_loop, SIZES["event_loop"][idx], True),
        ("p2p_msgs_per_s", bench_p2p, SIZES["p2p"][idx], True),
        ("alltoall_wall_s", bench_alltoall, SIZES["alltoall"][idx], False),
        ("checkpoint_runs_per_s", bench_checkpoint, SIZES["checkpoint"][idx], True),
    ]
    results: dict[str, float] = {}
    invariants: dict[str, dict] = {}
    for name, fn, args, is_rate in plans:
        best = None
        inv = None
        for _ in range(repeats):
            units, wall, inv = fn(*args)
            wall = max(wall, 1e-9)
            metric = units / wall if is_rate else wall
            if best is None or (metric > best if is_rate else metric < best):
                best = metric
        results[name] = best
        invariants[name] = inv
    return results, invariants


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true", help="tiny smoke-test workloads")
    ap.add_argument("--out", default=str(REPO_ROOT / "BENCH_kernel.json"))
    ap.add_argument(
        "--save-baseline",
        action="store_true",
        help=f"also write results as the new baseline ({BASELINE_PATH.name})",
    )
    ap.add_argument("--label", default="current", help="label stored in the JSON")
    args = ap.parse_args(argv)

    results, invariants = run_suite(tiny=args.tiny)
    payload = {
        "label": args.label,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "results": results,
        "invariants": invariants,
    }

    if args.save_baseline:
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline saved to {BASELINE_PATH}")

    out = {"current": payload}
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        out["baseline"] = baseline
        if baseline.get("tiny") == args.tiny:
            speedup = {}
            for key, now_v in results.items():
                base_v = baseline["results"].get(key)
                if not base_v:
                    continue
                # For wall-time metrics lower is better; report ratio > 1 = faster.
                if key.endswith("_wall_s"):
                    speedup[key] = base_v / now_v
                else:
                    speedup[key] = now_v / base_v
            out["speedup"] = speedup
            out["invariants_match"] = invariants == baseline.get("invariants")
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")

    print(json.dumps(out.get("speedup", results), indent=2))
    if "invariants_match" in out:
        print(f"simulated invariants match baseline: {out['invariants_match']}")
    print(f"wrote {args.out}")
    return 0 if out.get("invariants_match", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
