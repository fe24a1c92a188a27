"""Write ``perfbench/references.json``: the outputs every pass is checked against.

Run from the root of a checkout whose simulated results are the
reference::

    python3 perfbench/make_references.py

Every job of every seed window of every workload is executed once with
:func:`repro.sweep.execute_job`.  For each workload the file stores the
:meth:`SweepReport.digest` of each window (under the benchmark's pinned
code version) and each experiment's headline value per seed, collapsed
to one value when every seed gives the same.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_ROOT)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def workload_references(workload) -> dict:
    from repro.sweep import JobResult, SweepReport, execute_job, get_experiment

    from perfbench.workloads import N_BASES, headline_of

    results = {}
    for job in workload.spec(workload.universe()).resolve():
        payload = execute_job(job.experiment, job.config, job.seed)
        results[(job.experiment, job.seed)] = JobResult(job, payload, False, 0.0)
    digests = []
    for base in range(N_BASES):
        jobs = workload.spec(workload.seeds(base)).resolve()
        report = SweepReport([results[(j.experiment, j.seed)] for j in jobs])
        digests.append(report.digest())
    headline = {}
    for name in workload.experiments:
        values = {
            str(seed): headline_of(name, results[(name, seed)].payload)
            for seed in workload.universe()
        }
        entry = {"key": get_experiment(name).headline}
        if len(set(map(json.dumps, values.values()))) == 1:
            entry["all"] = next(iter(values.values()))
        else:
            entry["by_seed"] = values
        headline[name] = entry
    return {"report_digest": digests, "headline": headline}


def main() -> int:
    from repro.sweep.digests import CODE_VERSION_ENV

    from perfbench.workloads import CODE_VERSION_PIN, N_BASES, REFERENCES_PATH, WORKLOADS

    os.environ[CODE_VERSION_ENV] = CODE_VERSION_PIN
    doc = {
        "code_version_pin": CODE_VERSION_PIN,
        "n_bases": N_BASES,
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        print(f"references: {name} ({len(workload.universe())} seeds)", flush=True)
        doc["workloads"][name] = workload_references(workload)
    with open(REFERENCES_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
