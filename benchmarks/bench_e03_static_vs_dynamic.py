"""E3 — Slides 6/7: accelerated cluster vs cluster of accelerators.

Slide 6's criticism: "static assignment of accelerators to CPUs" —
an accelerator bound to its host idles whenever the host's job does
cluster-side work or uses no accelerator at all.  Slide 7/8's pooled
alternative assigns Booster nodes *dynamically, per offload phase*.

This bench runs the same random job mix (half the jobs never touch an
accelerator; offloading jobs hold one only ~35% of their runtime)
through both policies and reports the waste and queueing difference.
"""

import pytest

from repro.analysis import Table
from repro.apps import JobMix, random_job_mix
from repro.hardware.catalog import booster_node_spec, cluster_node_spec
from repro.hardware.node import BoosterNode, ClusterNode
from repro.parastation import BoosterPolicy, JobSpec, Partition, Scheduler
from repro.simkernel import Simulator

from benchmarks.conftest import export_sim, observing, run_once

MIX = JobMix(
    n_jobs=60,
    accel_fraction=0.5,
    offload_duty=0.35,
    mean_runtime_s=100.0,
    mean_interarrival_s=12.0,
    max_cluster_nodes=3,
    max_booster_nodes=6,
    seed=7,
)


def run_policy(policy: BoosterPolicy) -> dict:
    sim = Simulator(seed=1, observe=observing())
    cluster = Partition(
        sim, "cluster", [ClusterNode(sim, cluster_node_spec(), i) for i in range(8)]
    )
    booster = Partition(
        sim, "booster", [BoosterNode(sim, booster_node_spec(), i) for i in range(12)]
    )
    sched = Scheduler(sim, cluster, booster, policy=policy)
    used_booster_seconds = [0.0]

    def make_body(gjob):
        def body(job):
            runtime, duty = gjob.runtime_s, gjob.offload_duty
            if gjob.n_booster == 0:
                yield sim.timeout(runtime)
                return
            pre = runtime * (1 - duty) / 2
            yield sim.timeout(pre)
            if policy is BoosterPolicy.DYNAMIC:
                nodes = yield from sched.claim_booster_wait(job, gjob.n_booster)
                yield sim.timeout(runtime * duty)
                sched.release_booster(job, nodes)
            else:
                yield sim.timeout(runtime * duty)
            used_booster_seconds[0] += runtime * duty * gjob.n_booster
            yield sim.timeout(pre)

        return body

    def submitter(sim):
        t = 0.0
        for gjob in random_job_mix(MIX):
            yield sim.timeout(gjob.arrival_s - t)
            t = gjob.arrival_s
            spec = JobSpec(
                name=gjob.name,
                n_cluster=gjob.n_cluster,
                # Under DYNAMIC the scheduler does not co-allocate
                # booster nodes at start; under STATIC it must.
                n_booster=gjob.n_booster,
                walltime_estimate_s=gjob.runtime_s * 1.3,
                body=make_body(gjob),
            )
            sched.submit(spec)

    sim.process(submitter(sim))
    sim.process(sched.drain())
    sim.run()
    export_sim(sim, f"e03_{policy.name.lower()}")

    allocated = booster.allocated_node_seconds()
    used = used_booster_seconds[0]
    return {
        "makespan": sched.ledger.makespan(),
        "mean_wait": sched.ledger.mean_wait(),
        "allocated_bns": allocated,
        "used_bns": used,
        "waste_fraction": (allocated - used) / allocated if allocated else 0.0,
        "booster_utilization": booster.utilization(),
    }


def build():
    return {
        "static": run_policy(BoosterPolicy.STATIC),
        "dynamic": run_policy(BoosterPolicy.DYNAMIC),
    }


def test_e03_static_vs_dynamic(benchmark):
    res = run_once(benchmark, build)
    s, d = res["static"], res["dynamic"]

    table = Table(
        ["metric", "static (slide 6)", "dynamic pool (slides 7/8)"],
        title="E3: accelerator assignment policy on a mixed workload",
    )
    table.add_row("makespan [s]", s["makespan"], d["makespan"])
    table.add_row("mean queue wait [s]", s["mean_wait"], d["mean_wait"])
    table.add_row("booster node-seconds allocated", s["allocated_bns"], d["allocated_bns"])
    table.add_row("booster node-seconds used", s["used_bns"], d["used_bns"])
    table.add_row("allocated-but-idle fraction", s["waste_fraction"], d["waste_fraction"])
    table.print()

    # --- shape assertions ---------------------------------------------
    # Static assignment strands booster nodes: most allocated time idle.
    assert s["waste_fraction"] > 0.5
    # Dynamic claims only during offload phases: minimal waste.
    assert d["waste_fraction"] < 0.05
    # Less hoarding -> the same work finishes sooner.  (Mean queue wait
    # is reported but not asserted: dynamic jobs start earlier yet hold
    # cluster nodes while waiting for booster nodes mid-run, so its
    # direction depends on which partition is the bottleneck.)
    assert d["makespan"] <= s["makespan"]
    # Both policies execute the same booster work.
    assert d["used_bns"] == pytest.approx(s["used_bns"], rel=1e-6)
