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
* :mod:`repro.sweep.engine` — the process-pool executor, progress
  reporting and merged summary;
* :mod:`repro.sweep.policy` — the failure policy (per-job timeouts,
  bounded deterministic retries, pool-crash recovery, quarantine);
* :mod:`repro.sweep.chaos` — the env-gated deterministic fault
  injector CI uses to prove chaos-ridden sweeps converge;
* :mod:`repro.sweep.obsglue` — shared observability-export helpers
  (also used by ``benchmarks/conftest.py``).

Front-end: ``python -m repro sweep`` (see ``docs/SWEEP.md``).
"""

from repro.sweep.cache import ResultCache
from repro.sweep.chaos import ChaosSpec
from repro.sweep.digests import (
    canonical,
    canonical_json,
    code_version,
    config_digest,
    job_digest,
)
from repro.sweep.engine import (
    Job,
    JobResult,
    SweepReport,
    SweepSpec,
    execute_job,
    run_chaos_smoke,
    run_smoke,
    run_sweep,
)
from repro.sweep.policy import PROPAGATE, FailurePolicy, JobFailure
from repro.sweep.experiments import (
    EXPERIMENTS,
    Experiment,
    effective_config,
    experiment_names,
    get_experiment,
    register,
)

__all__ = [
    "EXPERIMENTS",
    "ChaosSpec",
    "Experiment",
    "FailurePolicy",
    "Job",
    "JobFailure",
    "JobResult",
    "PROPAGATE",
    "ResultCache",
    "SweepReport",
    "SweepSpec",
    "canonical",
    "canonical_json",
    "code_version",
    "config_digest",
    "effective_config",
    "execute_job",
    "experiment_names",
    "get_experiment",
    "job_digest",
    "register",
    "run_chaos_smoke",
    "run_smoke",
    "run_sweep",
]
