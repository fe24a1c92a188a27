"""What a sweep runs: a :class:`SweepSpec` and the jobs it expands to.

Kept apart from :mod:`repro.sweep.engine` so that resolving a spec
loads the experiment registry and the digests only, not the scheduler,
the run index or the process pool.  The engine re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.sweep import digests
from repro.sweep.experiments import (
    effective_config,
    experiment_names,
    get_experiment,
)


@dataclass(frozen=True)
class Job:
    """One fully-resolved unit of sweep work."""

    experiment: str
    config: dict
    seed: int
    digest: str

    @property
    def label(self) -> str:
        return f"{self.experiment} seed={self.seed}"


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: experiments x seeds, with config overrides."""

    experiments: Sequence[str]
    seeds: Sequence[int]
    #: ``{experiment: {field: value}}``; the key ``"*"`` applies to
    #: every experiment that has the field.
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def resolve(self) -> list[Job]:
        """Expand into concrete jobs with digests (experiment-major,
        seed-minor order — the canonical serial order)."""
        names = list(self.experiments)
        if names == ["all"]:
            names = experiment_names()
        jobs = []
        code = digests.code_version()
        for name in names:
            exp = get_experiment(name)
            # "*" overrides apply where the field exists; per-experiment
            # overrides must name real fields (effective_config raises).
            merged = {
                k: v
                for k, v in self.overrides.get("*", {}).items()
                if k in exp.defaults
            }
            merged.update(self.overrides.get(name, {}))
            config = digests.canonical(effective_config(name, merged))
            seeds = [int(seed) for seed in self.seeds]
            # One canonical encoding of the config serves every seed.
            addresses = digests.job_digests(name, config, seeds, code)
            jobs.extend(
                Job(experiment=name, config=config, seed=seed, digest=digest)
                for seed, digest in zip(seeds, addresses)
            )
        return jobs
