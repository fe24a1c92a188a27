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

With ``REPRO_OBS_DIR`` set, the benches run observed and export into
that directory through :mod:`repro.sweep.obsglue`, the code the sweep
experiments export with.  An exported run is indexed under
``REPRO_FLEET_INDEX`` when that names an index, and a simulated run
prints its contention report.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.sweep import obsglue


def obs_dir() -> Optional[Path]:
    """The export directory ``$REPRO_OBS_DIR``, or ``None``."""
    value = os.environ.get("REPRO_OBS_DIR")
    return Path(value) if value else None


def observing() -> bool:
    """Whether benches run observed (``REPRO_OBS_DIR`` is set).  Pass
    as ``observe=`` to a :class:`Simulator` or :class:`DeepSystem`."""
    return obs_dir() is not None


def run_once(benchmark, fn, *args, **kwargs):
    """Time one execution of *fn* (simulations are deterministic;
    repeating them only reruns identical event streams)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def export_run(system, name: str) -> None:
    """:func:`export_sim` of a DeepSystem run, reporting its machine's
    fabrics and gateways."""
    machine = system.machine
    export_sim(system.sim, name, fabrics=machine.fabrics, gateways=machine.gateways)


def export_sim(sim, name: str, fabrics=(), gateways=()) -> None:
    """Export trace + metrics + blame of *sim* into ``$REPRO_OBS_DIR``,
    index the run, and print the contention report of *fabrics* and
    *gateways* (drivers that assemble their own fabrics).  No-op
    unless the variable is set."""
    blame = obsglue.export_sim(sim, obs_dir(), name)
    if blame is None:
        return
    from repro.obs.export import metrics_dict
    from repro.obs.report import contention_report

    _index(name, metrics_dict(sim.metrics, sim), blame.as_dict())
    print(contention_report(sim, fabrics=fabrics, gateways=gateways, blame=blame))


def export_metrics_only(metrics, name: str) -> None:
    """Export a bare :class:`MetricsRegistry` (analytic drivers with no
    simulator) into ``$REPRO_OBS_DIR`` and index the run.  No-op
    unless the variable is set."""
    out = obs_dir()
    if out is None:
        return
    from repro.obs.export import metrics_dict

    obsglue.export_metrics_only(metrics, out, name)
    _index(name, metrics_dict(metrics))


def _index(name: str, metrics_doc: dict, blame_doc: Optional[dict] = None) -> None:
    """Append the run's manifest to ``$REPRO_FLEET_INDEX``, when set."""
    from repro.obs.fleet import FleetIndex, env_index_path, manifest_from_exports

    index_path = env_index_path()
    if index_path is not None:
        FleetIndex(index_path).record(
            manifest_from_exports(name, metrics_doc=metrics_doc, blame_doc=blame_doc)
        )
