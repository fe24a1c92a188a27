"""The sweepable experiment registry.

Each entry is a pure function ``fn(config, seed) -> dict`` that builds
a fresh simulator, runs one scenario, and returns plain-JSON metrics —
the unit of work the sweep engine fans out across processes and stores
in the content-addressed cache.  These mirror the paper's experiment
drivers (E6 offload crossover, E9 spawn cost, X13/X24 checkpointing,
the determinism scenario's bridged all-to-all) in parameterised,
seedable form; the ``benchmarks/`` suite remains the figure-faithful
presentation layer on top of the same models.

Conventions:

* the function must be deterministic in ``(config, seed)`` — the cache
  depends on it;
* returned metrics must be JSON scalars/lists/dicts, no timestamps or
  wall-clock values (those belong to the engine's meta, not the
  payload);
* observability is enabled exactly when ``REPRO_OBS_DIR`` is set (see
  :mod:`repro.sweep.obsglue`); exports are written there and picked up
  into the cache by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.sweep import obsglue
from repro.units import kib

ExperimentFn = Callable[[dict, int], dict]


@dataclass(frozen=True)
class Experiment:
    """One registered sweepable experiment."""

    name: str
    title: str
    #: Metrics key shown in the merged summary table.
    headline: str
    fn: ExperimentFn
    defaults: Mapping[str, Any]


EXPERIMENTS: dict[str, Experiment] = {}


def register(name: str, title: str, headline: str, defaults: dict):
    """Decorator adding ``fn(config, seed)`` to the registry."""

    def deco(fn: ExperimentFn) -> ExperimentFn:
        EXPERIMENTS[name] = Experiment(name, title, headline, fn, dict(defaults))
        return fn

    return deco


def experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {', '.join(experiment_names())}"
        ) from None


def effective_config(name: str, overrides: Mapping[str, Any]) -> dict:
    """Defaults of *name* merged with *overrides* (unknown keys rejected).

    The full effective config is what gets digested, so changing a
    default in code *or* passing an override both re-key the cache.
    """
    exp = get_experiment(name)
    config = dict(exp.defaults)
    for key, value in overrides.items():
        if key not in config:
            raise ConfigurationError(
                f"experiment {name!r} has no config field {key!r}; "
                f"fields: {', '.join(sorted(config))}"
            )
        config[key] = value
    return config


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@register(
    "pingpong",
    "IB pt2pt ping-pong (eager + rendezvous mix)",
    "end_time_s",
    {"rounds": 3, "sizes_kib": [1, 64, 1024], "n_pairs": 2},
)
def run_pingpong(config: dict, seed: int) -> dict:
    """Neighbour ping-pong over one InfiniBand fabric."""
    from repro.mpi.world import MPIWorld
    from repro.network import InfinibandFabric
    from repro.simkernel.simulator import Simulator

    sim = Simulator(seed=seed, observe=obsglue.observing())
    n_ranks = 2 * int(config["n_pairs"])
    endpoints = [f"cn{i}" for i in range(n_ranks)]
    ib = InfinibandFabric(sim, endpoints)
    for ep in endpoints:
        ib.attach_endpoint(ep)
    world = MPIWorld(sim, [ib])
    sizes = [int(kib(s)) for s in config["sizes_kib"]]

    def main(proc):
        comm = proc.comm_world
        rank = comm.rank
        peer = rank ^ 1
        for _ in range(int(config["rounds"])):
            for nbytes in sizes:
                if rank % 2 == 0:
                    yield from comm.send(peer, nbytes)
                    yield from comm.recv(peer)
                else:
                    yield from comm.recv(peer)
                    yield from comm.send(peer, nbytes)

    world.create_world([(ep, None) for ep in endpoints], main)
    end = sim.run()
    obsglue.export_sim(sim, f"pingpong_seed{seed}", fabrics=[ib], report=False)
    return {
        "end_time_s": end,
        "ib_bytes": ib.total_bytes(),
        "n_ranks": n_ranks,
    }


@register(
    "alltoall_bridge",
    "bridged Cluster-Booster all-to-all over the SMFU gateways",
    "end_time_s",
    {
        "n_cluster": 4,
        "n_booster": 4,
        "n_gateways": 2,
        "payload_kib": 16,
        "segment_kib": 256,
        "selection": "dynamic",
        "fidelity": "exact",
    },
)
def run_alltoall_bridge(config: dict, seed: int) -> dict:
    """All ranks (cluster + booster) exchange across the bridge.

    ``fidelity`` is a tier string or ``{"collectives"|"smfu": tier}``
    mapping (:class:`repro.fidelity.FidelityConfig`); ``"analytic"``
    charges the LogGP collective + pipelined-SMFU closed forms.
    """
    from repro.fidelity import FidelityConfig
    from repro.mpi.world import MPIWorld
    from repro.network import (
        ClusterBoosterBridge,
        ExtollFabric,
        InfinibandFabric,
        SMFUGateway,
    )
    from repro.network.smfu import SMFUSpec
    from repro.simkernel.simulator import Simulator

    sim = Simulator(seed=seed, observe=obsglue.observing())
    fidelity = FidelityConfig.coerce(config["fidelity"])
    cns = [f"cn{i}" for i in range(int(config["n_cluster"]))]
    bns = [f"bn{i}" for i in range(int(config["n_booster"]))]
    gw_names = [f"bi{i}" for i in range(int(config["n_gateways"]))]
    ib = InfinibandFabric(sim, cns + gw_names)
    for ep in cns + gw_names:
        ib.attach_endpoint(ep)
    ex = ExtollFabric(sim, bns + gw_names)
    for ep in bns + gw_names:
        ex.attach_endpoint(ep)
    gws = [
        SMFUGateway(
            sim, n, ib, ex,
            spec=SMFUSpec(segment_bytes=int(kib(config["segment_kib"]))),
        )
        for n in gw_names
    ]
    bridge = ClusterBoosterBridge(
        gws, selection=str(config["selection"]), fidelity=fidelity.smfu
    )
    world = MPIWorld(sim, [ib, ex], bridge=bridge, fidelity=fidelity)

    def main(proc):
        comm = proc.comm_world
        yield from comm.alltoall(
            [comm.rank] * comm.size, size_bytes=int(kib(config["payload_kib"]))
        )
        yield from comm.barrier()

    world.create_world([(ep, None) for ep in cns + bns], main)
    end = sim.run()
    obsglue.export_sim(
        sim, f"alltoall_bridge_seed{seed}",
        fabrics=[ib, ex], gateways=gws, report=False,
    )
    return {
        "end_time_s": end,
        "ib_bytes": ib.total_bytes(),
        "ex_bytes": ex.total_bytes(),
        "gateways": [
            {
                "name": g.name,
                "forwarded_bytes": g.forwarded_bytes,
                "forwarded_messages": g.forwarded_messages,
            }
            for g in gws
        ],
    }


@register(
    "collective_scale",
    "collective cost vs rank count (exact sim or LogGP-analytic form)",
    "cost_s",
    {
        "collective": "allreduce",
        "ranks": 10000,
        "size_kib": 64,
        "algorithm": "auto",
        "fidelity": "analytic",
        "calib_endpoints": 4,
    },
)
def run_collective_scale(config: dict, seed: int) -> dict:
    """Cost of one collective at *ranks* ranks.

    ``fidelity="analytic"`` calibrates a LogGP model off a small
    ``calib_endpoints``-node InfiniBand fabric and evaluates the closed
    form — pure arithmetic, so 10^4..10^5 ranks run in milliseconds.
    ``fidelity="exact"`` builds a real *ranks*-endpoint world and
    executes the per-rank algorithm (keep ranks <= a few hundred).
    """
    from repro.fidelity import ANALYTIC, FidelityConfig
    from repro.mpi.analytic import CollectiveCostModel
    from repro.mpi.world import MPIWorld
    from repro.network import InfinibandFabric
    from repro.network.calibration import collective_loggp
    from repro.simkernel.simulator import Simulator

    op = str(config["collective"])
    ranks = int(config["ranks"])
    if ranks < 1:
        raise ConfigurationError(f"ranks must be >= 1, got {ranks}")
    size = int(kib(config["size_kib"]))
    algorithm = str(config["algorithm"])
    fidelity = FidelityConfig.coerce(config["fidelity"])

    if fidelity.collectives == ANALYTIC:
        sim = Simulator(seed=seed)
        n_calib = max(int(config["calib_endpoints"]), 2)
        eps = [f"cn{i}" for i in range(n_calib)]
        ib = InfinibandFabric(sim, eps)
        for ep in eps:
            ib.attach_endpoint(ep)
        model = CollectiveCostModel(collective_loggp(ib, eps[0], eps[1]))
        cost = model.collective_time(op, ranks, size, algorithm)
        return {
            "cost_s": cost,
            "ranks": ranks,
            "collective": op,
            "fidelity": "analytic",
        }

    sim = Simulator(seed=seed, observe=obsglue.observing())
    eps = [f"cn{i}" for i in range(ranks)]
    ib = InfinibandFabric(sim, eps)
    for ep in eps:
        ib.attach_endpoint(ep)
    world = MPIWorld(sim, [ib], fidelity=fidelity)

    def main(proc):
        comm = proc.comm_world
        if op == "barrier":
            yield from comm.barrier()
        elif op == "bcast":
            yield from comm.bcast(comm.rank, root=0, size_bytes=size)
        elif op == "reduce":
            yield from comm.reduce(1, root=0, size_bytes=size)
        elif op == "allreduce":
            yield from comm.allreduce(1, size_bytes=size, algorithm=algorithm)
        elif op == "allgather":
            yield from comm.allgather(comm.rank, size_bytes=size)
        elif op == "alltoall":
            yield from comm.alltoall([comm.rank] * comm.size, size_bytes=size)
        else:
            raise ConfigurationError(
                f"collective_scale cannot run {op!r} in exact mode"
            )

    world.create_world([(ep, None) for ep in eps], main)
    end = sim.run()
    obsglue.export_sim(
        sim, f"collective_scale_seed{seed}", fabrics=[ib], report=False
    )
    return {
        "cost_s": end,
        "ranks": ranks,
        "collective": op,
        "fidelity": world.fidelity.collectives,
    }


@register(
    "offload_stencil",
    "OmpSs stencil graph offloaded to Booster workers (demo scenario)",
    "offload_elapsed_s",
    {"n_cluster": 2, "n_booster": 8, "n_gateways": 2, "tiles": 8, "sweeps": 2},
)
def run_offload_stencil(config: dict, seed: int) -> dict:
    """The quickstart scenario: spawn workers, offload a stencil graph."""
    from repro.apps import stencil_graph
    from repro.deep import (
        OFFLOAD_WORKER_COMMAND,
        DeepSystem,
        MachineConfig,
        offload_graph,
        offload_worker,
    )

    n_workers = int(config["n_booster"])
    system = DeepSystem(
        MachineConfig(
            n_cluster=int(config["n_cluster"]),
            n_booster=n_workers,
            n_gateways=int(config["n_gateways"]),
        ),
        seed=seed,
        observe=obsglue.observing(),
    )
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)
    out = {}

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, OFFLOAD_WORKER_COMMAND, n_workers)
        if cw.rank == 0:
            g = stencil_graph(int(config["tiles"]), sweeps=int(config["sweeps"]))
            out["result"] = yield from offload_graph(proc, inter, g)
        yield from cw.barrier()

    system.launch(main)
    system.run()
    result = out["result"]
    obsglue.export_sim(system.sim, f"offload_stencil_seed{seed}", report=False)
    return {
        "offload_elapsed_s": result.elapsed_s,
        "n_tasks": result.n_tasks,
        "end_time_s": system.now,
        "energy_joules": system.energy_joules(),
    }


@register(
    "coupled_modes",
    "E6-style coupled application under one architecture mode",
    "total_time_s",
    {
        "mode": "cluster-booster",
        "intensity": 150.0,
        "iterations": 1,
        "slabs": 8,
        "slab_mib": 2,
        "sweeps": 2,
        "n_cluster": 4,
        "n_booster": 8,
        "n_gateways": 2,
    },
)
def run_coupled_modes(config: dict, seed: int) -> dict:
    """One coupled-application run (mode x intensity point of E6)."""
    from repro.apps import coupled_application
    from repro.deep import DeepSystem, MachineConfig
    from repro.deep.application import run_application
    from repro.units import mib

    app = coupled_application(
        iterations=int(config["iterations"]),
        hscp_sweeps=int(config["sweeps"]),
        hscp_slabs=int(config["slabs"]),
        hscp_slab_bytes=int(mib(config["slab_mib"])),
        hscp_intensity=float(config["intensity"]),
    )
    system = DeepSystem(
        MachineConfig(
            n_cluster=int(config["n_cluster"]),
            n_booster=int(config["n_booster"]),
            n_gateways=int(config["n_gateways"]),
        ),
        seed=seed,
        observe=obsglue.observing(),
    )
    report = run_application(system, app, mode=str(config["mode"]))
    obsglue.export_sim(system.sim, f"coupled_modes_seed{seed}", report=False)
    return {
        "total_time_s": report.total_time_s,
        "energy_joules": report.energy_joules,
        "booster_utilization": report.booster_utilization,
    }


@register(
    "spawn_cost",
    "E9-style MPI_Comm_spawn cost for one child-world size",
    "spawn_s",
    {"n_children": 16, "n_cluster": 2, "n_booster": 32, "n_gateways": 2},
)
def run_spawn_cost(config: dict, seed: int) -> dict:
    """Global-MPI spawn of a Booster child world; max latency per rank."""
    from repro.deep import DeepSystem, MachineConfig

    system = DeepSystem(
        MachineConfig(
            n_cluster=int(config["n_cluster"]),
            n_booster=int(config["n_booster"]),
            n_gateways=int(config["n_gateways"]),
        ),
        seed=seed,
        observe=obsglue.observing(),
    )
    times = {}

    def child(proc):
        yield from proc.comm_world.barrier()

    system.register_command("child", child)

    def main(proc):
        cw = proc.comm_world
        t0 = proc.sim.now
        yield from proc.spawn(cw, "child", int(config["n_children"]))
        times[cw.rank] = proc.sim.now - t0
        yield from cw.barrier()

    system.launch(main)
    system.run()
    obsglue.export_sim(system.sim, f"spawn_cost_seed{seed}", report=False)
    return {
        "spawn_s": max(times.values()),
        "end_time_s": system.now,
        "n_children": int(config["n_children"]),
    }


@register(
    "checkpoint_resilience",
    "X13/X24-style checkpointed run under exponential failures",
    "elapsed_s",
    {
        "work_s": 2000.0,
        "interval_s": 45.0,
        "checkpoint_cost_s": 4.0,
        "restart_cost_s": 20.0,
        "mtbf_s": 600.0,
    },
)
def run_checkpoint_resilience(config: dict, seed: int) -> dict:
    """Checkpoint/restart efficiency; the one seed-sensitive experiment
    (failure times are drawn from the seeded ``checkpoint`` stream)."""
    from repro.resilience.checkpoint import simulate_checkpointed_run
    from repro.simkernel.simulator import Simulator

    sim = Simulator(seed=seed, observe=obsglue.observing())
    stats = []

    def main():
        s = yield from simulate_checkpointed_run(
            sim,
            float(config["work_s"]),
            float(config["interval_s"]),
            float(config["checkpoint_cost_s"]),
            float(config["restart_cost_s"]),
            float(config["mtbf_s"]),
        )
        stats.append(s)

    sim.process(main(), name="checkpointed-run")
    sim.run()
    st = stats[0]
    obsglue.export_sim(sim, f"checkpoint_resilience_seed{seed}", report=False)
    return {
        "elapsed_s": st.elapsed_s,
        "work_s": st.work_s,
        "wasted_s": st.wasted_s,
        "n_checkpoints": st.n_checkpoints,
        "n_failures": st.n_failures,
    }
