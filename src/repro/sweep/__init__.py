"""``repro.sweep`` — the sharded sweep engine with a result cache.

The experiment set (E1-E12, X13-X24) is an embarrassingly parallel
sweep over seeds and configs; this package is the backbone that serves
it at scale:

* :mod:`repro.sweep.experiments` — the registry of sweepable
  ``fn(config, seed) -> metrics`` experiment drivers;
* :mod:`repro.sweep.digests` — deterministic job digests keyed by
  ``(experiment, config, seed, code version)``;
* :mod:`repro.sweep.cache` — the content-addressed, atomically-written
  on-disk result cache (repeated sweeps are ~free);
* :mod:`repro.sweep.spec` — the :class:`SweepSpec` of experiments x
  seeds and the jobs it resolves to;
* :mod:`repro.sweep.engine` — the process-pool executor, progress
  reporting and merged summary;
* :mod:`repro.sweep.policy` — the failure policy (per-job timeouts,
  bounded deterministic retries, pool-crash recovery, quarantine);
* :mod:`repro.sweep.chaos` — the env-gated deterministic fault
  injector CI uses to prove chaos-ridden sweeps converge;
* :mod:`repro.sweep.obsglue` — shared observability-export helpers
  (also used by ``benchmarks/conftest.py``).

Front-end: ``python -m repro sweep`` (see ``docs/SWEEP.md``).

The names below and every submodule load on first access (PEP 562), so
resolving a spec and opening a cache load neither the engine nor the
run index nor ``multiprocessing``.
"""

from repro import _lazy_attributes

#: Public name -> the module that defines it, resolved on first access.
_EXPORTS = {
    name: f"repro.sweep.{module}"
    for module, names in {
        "cache": ("ResultCache",),
        "chaos": ("ChaosSpec",),
        "digests": (
            "canonical", "canonical_json", "code_version", "config_digest",
            "job_digest",
        ),
        "engine": (
            "JobResult", "SweepReport", "execute_job", "run_chaos_smoke",
            "run_smoke", "run_sweep",
        ),
        "experiments": (
            "EXPERIMENTS", "Experiment", "effective_config", "experiment_names",
            "get_experiment", "register",
        ),
        "policy": ("FailurePolicy", "JobFailure", "PROPAGATE"),
        "spec": ("Job", "SweepSpec"),
    }.items()
    for name in names
}

#: Submodules reachable as ``repro.sweep.<name>`` without an explicit
#: ``import repro.sweep.<name>``.
_SUBMODULES = frozenset({
    "cache", "chaos", "digests", "engine", "experiments", "obsglue",
    "policy", "spec",
})

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_attributes(globals(), _EXPORTS, _SUBMODULES)
