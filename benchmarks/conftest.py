"""Benchmark-harness helpers.

Every ``bench_eNN_*.py`` file regenerates one figure/claim of the
paper (see DESIGN.md §3 and EXPERIMENTS.md).  Each benchmark:

* runs the simulation experiment once under ``benchmark.pedantic``
  (wall-time of the simulator is what pytest-benchmark reports);
* **prints** the table/series the paper's figure expresses — the
  console output of ``pytest benchmarks/ --benchmark-only -s`` is the
  reproduction artifact;
* asserts the figure's qualitative *shape* (who wins, crossovers,
  growth laws), so a regression in the models fails the suite.

The ``REPRO_OBS_DIR`` export helpers delegate to
:mod:`repro.sweep.obsglue` — the same code path the sweep engine's
workers use — so bench exports are written atomically and flow through
the content-addressed result cache when a bench scenario runs under
``python -m repro sweep``.
"""

from __future__ import annotations

from repro.sweep.obsglue import (  # noqa: F401  (re-exported for benches)
    observing,
    obs_dir,
)
from repro.sweep.obsglue import export_metrics_only as _export_metrics_only
from repro.sweep.obsglue import export_sim as _export_sim


def run_once(benchmark, fn, *args, **kwargs):
    """Time one execution of *fn* (simulations are deterministic;
    repeating them only reruns identical event streams)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def export_run(system, name: str) -> None:
    """Export trace + metrics + blame of a DeepSystem run into
    ``$REPRO_OBS_DIR`` and print the contention report of its
    machine's fabrics and gateways.  No-op unless the variable is
    set."""
    machine = system.machine
    gateways = machine.bridge.gateways if machine.bridge else ()
    export_sim(system.sim, name, fabrics=machine.fabrics, gateways=gateways)


def export_sim(sim, name: str, fabrics=(), gateways=()) -> None:
    """Export trace + metrics + blame of *sim* into ``$REPRO_OBS_DIR``
    and print the contention report of *fabrics* and *gateways*
    (drivers that assemble their own fabrics).  No-op unless the
    variable is set."""
    _export_sim(sim, name, fabrics=fabrics, gateways=gateways, report=True)


def export_metrics_only(metrics, name: str) -> None:
    """Export a bare :class:`MetricsRegistry` (analytic drivers with no
    simulator) into ``$REPRO_OBS_DIR``."""
    _export_metrics_only(metrics, name)
