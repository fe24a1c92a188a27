"""Observability-export glue shared by the sweep experiments and the benches.

One implementation of "dump everything observable about this run into a
directory": trace + metrics + blame of a
:class:`~repro.simkernel.simulator.Simulator` (a
:class:`~repro.deep.system.DeepSystem` passes its ``sim``), and a
metrics-only variant for analytic drivers.  The caller names the
directory: a sweep experiment gets its job's private staging directory
from the engine as ``obs_dir`` (the engine promotes the files into the
job's cache entry), and ``benchmarks/conftest.py`` passes
``$REPRO_OBS_DIR``.  The functions write files and nothing else: the
run index and the printed contention report belong to their callers.

All writes are atomic with parents created (see :mod:`repro.fsutil`),
so a crashed worker never leaves a torn artifact for the cache to pick
up.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.fsutil import atomic_write_json

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.critpath import BlameReport


def export_sim(sim, out_dir, name: str) -> Optional["BlameReport"]:
    """Write ``<name>.{trace,metrics,blame}.json`` of an observed run
    into *out_dir* and return the run's blame report.

    A no-op returning ``None`` when *out_dir* is ``None``.
    """
    if out_dir is None:
        return None
    from repro.obs.critpath import CausalGraph
    from repro.obs.export import write_chrome_trace, write_metrics

    out = Path(out_dir)
    write_chrome_trace(out / f"{name}.trace.json", sim.trace)
    write_metrics(out / f"{name}.metrics.json", sim.metrics, sim)
    blame = CausalGraph.from_trace(sim.trace).blame()
    atomic_write_json(out / f"{name}.blame.json", blame.as_dict())
    return blame


def export_metrics_only(metrics, out_dir, name: str) -> None:
    """Write ``<name>.metrics.json`` of a bare :class:`MetricsRegistry`
    (analytic drivers with no simulator) into *out_dir*; a no-op when
    *out_dir* is ``None``."""
    if out_dir is None:
        return
    from repro.obs.export import write_metrics

    write_metrics(Path(out_dir) / f"{name}.metrics.json", metrics)
