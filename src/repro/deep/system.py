"""DeepSystem: machine + resource management + Global MPI.

The one-stop object for experiments::

    system = DeepSystem(MachineConfig(n_cluster=8, n_booster=16))

    def main(proc):
        inter = yield from proc.spawn(proc.comm_world, "worker", 16)
        ...

    system.register_command("worker", worker_fn)
    system.launch(main)
    system.run()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.deep.machine import Machine, MachineConfig
from repro.errors import ConfigurationError
from repro.mpi.world import MPIProcess, MPIWorld
from repro.parastation.nodes import Partition
from repro.parastation.scheduler import BoosterPolicy, Scheduler
from repro.parastation.spawner import ParaStationSpawner, StartupModel
from repro.simkernel.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node


class DeepSystem:
    """A complete simulated DEEP installation."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
        eager_threshold: int = 32 * 1024,
        booster_policy: BoosterPolicy = BoosterPolicy.DYNAMIC,
        startup: StartupModel = StartupModel(),
        procs_per_booster_node: int = 1,
        observe: bool = False,
    ) -> None:
        self.config = config or MachineConfig()
        self.sim = Simulator(seed=seed, observe=observe)
        self.machine = Machine(self.sim, self.config)

        # Resource management --------------------------------------------
        self.cluster_partition = Partition(
            self.sim, "cluster", self.machine.cluster_nodes
        )
        self.booster_partition = Partition(
            self.sim, "booster", self.machine.booster_nodes
        )
        self.batch = Scheduler(
            self.sim,
            self.cluster_partition,
            self.booster_partition,
            policy=booster_policy,
        )
        self.spawner = ParaStationSpawner(
            self.sim,
            self.booster_partition,
            startup=startup,
            procs_per_node=procs_per_booster_node,
        )
        # Reverse offload (slide 7: "all nodes might act autonomously"):
        # a Booster-native world can spawn Cluster helpers by passing
        # info={"partition": "cluster"} to MPI_Comm_spawn.
        self.cluster_spawner = ParaStationSpawner(
            self.sim, self.cluster_partition, startup=startup
        )

        # Global MPI ------------------------------------------------------
        self.world = MPIWorld(
            self.sim,
            self.machine.fabrics,
            bridge=self.machine.bridge,
            eager_threshold=eager_threshold,
            fidelity=self.config.fidelity,
        )
        self.world.spawn_backend = self.spawner
        self.world.spawn_backends = {
            "booster": self.spawner,
            "cluster": self.cluster_spawner,
        }

    # -- application startup ------------------------------------------------
    def register_command(self, name: str, fn: Callable[[MPIProcess], Any]) -> None:
        """Register a Booster executable for ``MPI_Comm_spawn``."""
        self.world.register_command(name, fn)

    def launch(
        self,
        main: Callable[[MPIProcess], Any],
        n_ranks: Optional[int] = None,
        ranks_per_node: int = 1,
    ) -> list[MPIProcess]:
        """Start the application's ``main()`` part on the Cluster.

        One MPI rank per cluster node by default (*ranks_per_node*
        packs more).  Returns the rank handles.
        """
        if ranks_per_node < 1:
            raise ConfigurationError("ranks_per_node must be >= 1")
        nodes = self.machine.cluster_nodes
        max_ranks = len(nodes) * ranks_per_node
        if n_ranks is None:
            n_ranks = max_ranks
        if not 1 <= n_ranks <= max_ranks:
            raise ConfigurationError(
                f"n_ranks {n_ranks} out of range 1..{max_ranks} "
                f"({len(nodes)} nodes x {ranks_per_node})"
            )
        placements = [
            (nodes[i // ranks_per_node].name, nodes[i // ranks_per_node])
            for i in range(n_ranks)
        ]
        return self.world.create_world(placements, main, name="cluster")

    def launch_on_booster(
        self,
        main: Callable[[MPIProcess], Any],
        n_ranks: Optional[int] = None,
        ranks_per_node: int = 1,
    ) -> list[MPIProcess]:
        """Start an MPI world directly on Booster nodes.

        The Booster is autonomous (slide 7: "all nodes might act
        autonomously") — booster-native jobs need no Cluster involvement.
        """
        nodes = self.machine.booster_nodes
        max_ranks = len(nodes) * ranks_per_node
        if n_ranks is None:
            n_ranks = max_ranks
        if not 1 <= n_ranks <= max_ranks:
            raise ConfigurationError(
                f"n_ranks {n_ranks} out of range 1..{max_ranks}"
            )
        placements = [
            (nodes[i // ranks_per_node].name, nodes[i // ranks_per_node])
            for i in range(n_ranks)
        ]
        return self.world.create_world(placements, main, name="booster")

    # -- execution ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation to completion (or *until*)."""
        return self.sim.run(until=until)

    @property
    def now(self) -> float:
        return self.sim.now

    # -- reporting -------------------------------------------------------------
    def energy_joules(self) -> float:
        """Machine-wide energy so far."""
        return self.machine.energy_joules()

    def booster_utilization(self) -> float:
        """Fraction of booster nodes allocated, averaged over time."""
        return self.booster_partition.utilization()

    # -- observability exports ---------------------------------------------
    def write_trace(self, path) -> None:
        """Write the whole-simulation Chrome/Perfetto trace to *path*."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, self.sim.trace)

    def write_metrics(self, path) -> None:
        """Write a metrics dump (``.json`` = JSON, else text) to *path*."""
        from repro.obs.export import write_metrics

        write_metrics(path, self.sim.metrics, self.sim)

    def contention_report(self, top: int = 5) -> str:
        """Hottest links / gateways / engines, as a text report."""
        from repro.obs.report import system_report

        return system_report(self, top=top)

    # -- causal analysis ---------------------------------------------------
    def causal_graph(self):
        """The run's :class:`~repro.obs.critpath.CausalGraph`.

        Requires the system to have been created with ``observe=True``.
        """
        from repro.obs.critpath import CausalGraph

        if not self.sim.trace.enabled:
            raise ConfigurationError(
                "causal analysis needs a traced run; create the system "
                "with observe=True"
            )
        return CausalGraph.from_trace(self.sim.trace)

    def critical_path(self):
        """The makespan-critical chain of the finished run."""
        return self.causal_graph().critical_path()

    def blame_report(self):
        """Per-subsystem critical-path attribution
        (:class:`~repro.obs.critpath.BlameReport`)."""
        return self.causal_graph().blame()

    def what_if(self, key: str, factor: float):
        """Projected makespan under a scaling such as
        ``what_if("extoll.bw", 2.0)`` — see
        :data:`~repro.obs.critpath.WHAT_IF_KEYS`.  Structural keys
        (``smfu.segment_bytes``) project through the machine's bridge
        analytic model."""
        return self.causal_graph().what_if(
            key, factor, smfu_model=self.machine.bridge
        )
