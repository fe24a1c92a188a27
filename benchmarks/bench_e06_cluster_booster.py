"""E6 — Slides 10/14: the Cluster-Booster architecture end-to-end.

The headline comparison: one coupled application (non-scalable main
part + offloadable HSCP, identical problem size) on three machines:

* **cluster-only**   — everything on the Xeon/IB cluster;
* **accelerated**    — HSCP on PCIe-attached accelerators in the CNs
                       (the slide 6 baseline);
* **cluster-booster**— HSCP offloaded to the KNC/EXTOLL Booster via
                       Global MPI (the DEEP architecture).

Swept over the HSCP's arithmetic intensity: at low intensity the
offload's data movement dominates and staying home wins; past the
crossover the Booster's throughput takes over — slide 8's "offload
more complex (including parallel) kernels ... larger messages".
"""

import pytest

from repro.analysis import Table
from repro.apps import coupled_application
from repro.deep import DeepSystem, MachineConfig
from repro.deep.application import run_application
from repro.units import mib

from benchmarks.conftest import export_run, observing, run_once

INTENSITIES = [30.0, 150.0, 600.0]
MODES = ["cluster-only", "accelerated", "cluster-booster", "advisor"]


def run_mode(mode: str, intensity: float):
    app = coupled_application(
        iterations=2,
        hscp_sweeps=3,
        hscp_slabs=16,
        hscp_slab_bytes=mib(8),
        hscp_intensity=intensity,
    )
    system = DeepSystem(
        MachineConfig(n_cluster=4, n_booster=16, n_gateways=2),
        observe=observing(),
    )
    result = run_application(system, app, mode=mode)
    export_run(system, f"e06_{mode}_{int(intensity)}")
    return result


def build():
    return {
        (mode, i): run_mode(mode, i) for i in INTENSITIES for mode in MODES
    }


def test_e06_cluster_booster_endtoend(benchmark):
    res = run_once(benchmark, build)

    table = Table(
        ["HSCP intensity [flop/B]"] + [f"{m} [ms]" for m in MODES]
        + ["winner", "CB speedup vs cluster"],
        title="E6 / slides 10+14: one application, three architectures",
    )
    for i in INTENSITIES:
        times = {m: res[(m, i)].total_time_s for m in MODES}
        winner = min(times, key=times.get)
        table.add_row(
            i,
            *[times[m] * 1e3 for m in MODES],
            winner,
            times["cluster-only"] / times["cluster-booster"],
        )
    table.print()

    energy = Table(
        ["HSCP intensity"] + [f"{m} [J]" for m in MODES],
        title="E6b: energy to solution",
    )
    for i in INTENSITIES:
        energy.add_row(i, *[res[(m, i)].energy_joules for m in MODES])
    energy.print()

    # --- shape assertions ---------------------------------------------
    lo, hi = INTENSITIES[0], INTENSITIES[-1]
    t = lambda m, i: res[(m, i)].total_time_s
    # Low intensity: offloading does not pay; cluster-only wins or ties.
    assert t("cluster-only", lo) <= t("cluster-booster", lo)
    # High intensity: the Booster wins outright (who-wins flips).
    assert t("cluster-booster", hi) < t("cluster-only", hi)
    assert t("cluster-booster", hi) < t("accelerated", hi)
    # The CB advantage grows monotonically with intensity.
    gains = [t("cluster-only", i) / t("cluster-booster", i) for i in INTENSITIES]
    assert gains[0] < gains[1] < gains[2]
    # The booster was actually used.
    assert res[("cluster-booster", hi)].booster_utilization > 0.2
    # The advisor mode (slide 9 automated) tracks the better of the
    # two placements at every intensity: stays home at low intensity,
    # offloads at high.
    for i in INTENSITIES:
        best = min(t("cluster-only", i), t("cluster-booster", i))
        assert t("advisor", i) <= best * 1.02
    assert res[("advisor", lo)].booster_utilization == 0.0
    assert res[("advisor", hi)].booster_utilization > 0.2
