"""Observability: spans, metrics and exporters for the whole stack.

The three pieces (DESIGN rationale in ``docs/OBSERVABILITY.md``):

* **spans** — nested intervals in simulated time, recorded by
  :class:`~repro.simkernel.trace.TraceRecorder` (``sim.trace.span``)
  and carried per subsystem category;
* **metrics** — a :class:`MetricsRegistry` of named counters, gauges
  and fixed-bucket histograms (``sim.metrics``), with free no-op
  handles when disabled;
* **exporters** — Chrome/Perfetto traces, JSONL event streams, flat
  metrics dumps, and the hottest-links/engines contention report;
* **causal analysis** — :class:`CausalGraph` critical paths, blame
  reports and what-if projections (:mod:`repro.obs.critpath`), plus
  counter timelines (:mod:`repro.obs.timeline`);
* **fleet observability** — run manifests + the cross-run JSONL index
  (:mod:`repro.obs.fleet`), seed-level aggregation, blame diffs and
  the regression sentinel (:mod:`repro.obs.compare`); CLI
  ``python -m repro obs ls/show/diff/sentinel/rebuild``.

Quick use::

    sim = Simulator(observe=True)
    ... run a model ...
    write_chrome_trace("trace.json", sim.trace)
    write_metrics("metrics.json", sim.metrics, sim)
    print(contention_report(sim, fabrics=[ib, extoll], gateways=gws))
    graph = CausalGraph.from_trace(sim.trace)
    print(graph.blame().render())
    print(graph.what_if("extoll.bw", 2.0).render())

The names below and every module of the package load on first access
(PEP 562), so importing one module of the package, as the sweep engine
imports :mod:`repro.obs.fleet` and the simulator
:mod:`repro.obs.metrics`, loads that module only.
"""

from repro import _lazy_attributes

#: Public name -> the module that defines it, resolved on first access.
_EXPORTS = {
    name: f"repro.obs.{module}"
    for module, names in {
        "compare": (
            "DEFAULT_TOLERANCES", "DiffReport", "SliceAggregate", "Stats",
            "aggregate_slice", "diff_slices", "mean_ci", "run_sentinel",
            "slice_runs", "write_baselines",
        ),
        "critpath": (
            "BlameReport", "CausalGraph", "Segment", "Step", "WHAT_IF_KEYS",
            "WhatIfResult", "classify", "resolve_what_if",
        ),
        "export": (
            "assign_lanes", "chrome_trace", "iter_jsonl", "metrics_dict",
            "render_metrics_text", "write_chrome_trace", "write_jsonl",
            "write_metrics",
        ),
        "fleet": (
            "FLEET_INDEX_ENV", "FleetIndex", "RunManifest", "build_manifest",
            "manifest_from_exports", "manifest_from_system",
        ),
        "metrics": (
            "Counter", "DEFAULT_SIZE_BUCKETS", "DEFAULT_TIME_BUCKETS", "Gauge",
            "Histogram", "MetricsRegistry", "NULL_METRICS", "NullMetrics",
            "log_buckets", "merge_histograms",
        ),
        "report": ("contention_report", "link_blame", "system_report"),
        "timeline": (
            "chrome_counter_events", "counter_series", "resample",
            "write_counters_csv",
        ),
    }.items()
    for name in names
}

#: Modules reachable as ``repro.obs.<name>`` without an explicit
#: ``import repro.obs.<name>``.
_SUBMODULES = frozenset({
    "compare", "critpath", "export", "fleet", "metrics", "report",
    "telemetry", "timeline",
})

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_attributes(globals(), _EXPORTS, _SUBMODULES)
