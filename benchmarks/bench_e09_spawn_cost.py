"""E9 — Slides 21/26/27: the cost of the Global-MPI spawn.

``MPI_Comm_spawn`` is DEEP's startup mechanism for Booster code parts;
its cost is resource-manager latency + ParaStation's tree startup +
the readiness handshake across the SMFU bridge.  The bench sweeps the
child-world size and verifies logarithmic growth — the property that
makes per-phase dynamic spawning viable (slide 21).
"""

import math

import pytest

import numpy as np

from repro.analysis import Table
from repro.deep import DeepSystem, MachineConfig

from benchmarks.conftest import export_run, observing, run_once

SIZES = [1, 2, 4, 8, 16, 32, 64]


def spawn_time(n_children: int) -> float:
    system = DeepSystem(
        MachineConfig(n_cluster=2, n_booster=64, n_gateways=2),
        observe=observing(),
    )
    times = {}

    def child(proc):
        yield from proc.comm_world.barrier()

    system.register_command("child", child)

    def main(proc):
        cw = proc.comm_world
        t0 = proc.sim.now
        yield from proc.spawn(cw, "child", n_children)
        times[cw.rank] = proc.sim.now - t0
        yield from cw.barrier()

    system.launch(main)
    system.run()
    export_run(system, f"e09_spawn_{n_children}")
    return max(times.values())


def build():
    return {n: spawn_time(n) for n in SIZES}


def test_e09_spawn_cost(benchmark):
    times = run_once(benchmark, build)

    table = Table(
        ["booster procs", "spawn time [ms]", "per-proc [us]"],
        title="E9 / slides 21+27: MPI_Comm_spawn cost vs child-world size",
    )
    for n in SIZES:
        table.add_row(n, times[n] * 1e3, times[n] / n * 1e6)
    table.print()

    # Fit t = a + b*log2(n): the residual must be small (log shape).
    ns = np.array(SIZES, dtype=float)
    ts = np.array([times[n] for n in SIZES])
    X = np.vstack([np.ones_like(ns), np.log2(np.maximum(ns, 1.0))]).T
    coeff, residual, *_ = np.linalg.lstsq(X, ts, rcond=None)
    a, b = coeff
    predicted = X @ coeff
    rel_err = np.max(np.abs(predicted - ts) / ts)
    print(f"log fit: t(n) = {a*1e3:.2f} ms + {b*1e3:.3f} ms * log2(n), "
          f"max rel err {rel_err:.3f}")

    # --- shape assertions ---------------------------------------------
    assert times[64] > times[2] > 0
    # Log growth, not linear: 32x more children < 4x the cost.
    assert times[64] < 4 * times[2]
    assert b > 0                     # levels cost something
    assert rel_err < 0.15            # and log2 explains the curve
    # Startup is milliseconds, not seconds (cheap enough per phase).
    assert times[64] < 0.1
