"""Observability-export glue shared by the sweep engine and the benches.

One implementation of "dump everything observable about this run into a
directory": trace + metrics + blame of a
:class:`~repro.simkernel.simulator.Simulator` (a
:class:`~repro.deep.system.DeepSystem` passes its ``sim`` and its
machine's fabrics and gateways), and a metrics-only variant for
analytic drivers.  ``benchmarks/conftest.py``
delegates here, and sweep workers call the same functions with
``REPRO_OBS_DIR`` pointed at a per-job staging directory — which is how
bench-style exports flow through the content-addressed result cache.

All writes are atomic with parents created (see :mod:`repro.fsutil`),
so a crashed worker never leaves a torn artifact for the cache to pick
up.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.fsutil import atomic_write_json

#: Directory exports land in when set (the bench/sweep convention).
OBS_DIR_ENV = "REPRO_OBS_DIR"


def _record_fleet(
    name: str,
    out: Path,
    metrics_doc=None,
    blame_doc=None,
    source: str = "bench",
) -> None:
    """Summarise one export into a ``<name>.manifest.json`` artifact
    and, when ``$REPRO_FLEET_INDEX`` names an index, append it there.

    Sweep workers never reach the index branch: the engine clears the
    variable around each job and records the authoritative sweep
    manifest itself (keyed by the job digest).  The standalone manifest
    file still rides along into the cache as a per-run summary.
    """
    from repro.obs.fleet import (
        FleetIndex,
        env_index_path,
        manifest_from_exports,
        write_manifest_file,
    )

    manifest = manifest_from_exports(
        name, metrics_doc=metrics_doc, blame_doc=blame_doc, source=source
    )
    write_manifest_file(out / f"{name}.manifest.json", manifest)
    index_path = env_index_path()
    if index_path is not None:
        FleetIndex(index_path).record(manifest)


def obs_dir() -> Optional[Path]:
    """The active export directory (``$REPRO_OBS_DIR``), or ``None``."""
    value = os.environ.get(OBS_DIR_ENV)
    return Path(value) if value else None


def observing() -> bool:
    """Whether runs should be observed: ``REPRO_OBS_DIR`` is set (else
    off, preserving the hot path).  Pass as ``observe=`` to a
    :class:`Simulator` or :class:`DeepSystem`."""
    return obs_dir() is not None


def export_sim(
    sim, name: str, fabrics=(), gateways=(), out_dir=None, report: bool = True
) -> list[Path]:
    """Export trace + metrics + blame of an observed run.

    Writes into *out_dir* (default ``$REPRO_OBS_DIR``; no-op when
    neither is set) and optionally prints the contention report of
    *fabrics* and *gateways*, with the same blame.  Returns the written
    paths.
    """
    out = Path(out_dir) if out_dir else obs_dir()
    if out is None:
        return []
    from repro.obs.critpath import CausalGraph
    from repro.obs.export import metrics_dict, write_chrome_trace, write_metrics
    from repro.obs.report import contention_report

    paths = [
        out / f"{name}.trace.json",
        out / f"{name}.metrics.json",
        out / f"{name}.blame.json",
    ]
    write_chrome_trace(paths[0], sim.trace)
    write_metrics(paths[1], sim.metrics, sim)
    blame = CausalGraph.from_trace(sim.trace).blame()
    blame_doc = blame.as_dict()
    atomic_write_json(paths[2], blame_doc)
    _record_fleet(
        name, out, metrics_doc=metrics_dict(sim.metrics, sim), blame_doc=blame_doc
    )
    paths.append(out / f"{name}.manifest.json")
    if report:
        print(
            contention_report(sim, fabrics=fabrics, gateways=gateways, blame=blame)
        )
    return paths


def export_metrics_only(metrics, name: str, out_dir=None) -> list[Path]:
    """Export a bare :class:`MetricsRegistry` (analytic drivers with no
    simulator)."""
    out = Path(out_dir) if out_dir else obs_dir()
    if out is None:
        return []
    from repro.obs.export import metrics_dict, write_metrics

    path = out / f"{name}.metrics.json"
    write_metrics(path, metrics)
    _record_fleet(name, out, metrics_doc=metrics_dict(metrics))
    return [path, out / f"{name}.manifest.json"]
