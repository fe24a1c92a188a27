"""Node partitions with allocation state and utilisation accounting."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.errors import AllocationError, ConfigurationError
from repro.simkernel.resources import window_utilization

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node
    from repro.simkernel.simulator import Simulator


class NodeState(enum.Enum):
    """Allocation state of a node in a partition."""

    FREE = "free"
    ALLOCATED = "allocated"
    DOWN = "down"


class Partition:
    """A named pool of nodes (e.g. ``cluster``, ``booster``).

    Tracks per-node state and integrates allocated node-seconds so
    experiments can report partition utilisation (the E3/E12 static-
    versus-dynamic comparison is exactly a utilisation statement).
    """

    def __init__(self, sim: "Simulator", name: str, nodes: Sequence["Node"]) -> None:
        if not nodes:
            raise ConfigurationError(f"partition {name!r} needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"partition {name!r} has duplicate node names")
        self.sim = sim
        self.name = name
        self.nodes = list(nodes)
        self._state: dict[str, NodeState] = {n.name: NodeState.FREE for n in nodes}
        self._by_name = {n.name: n for n in nodes}
        self._allocated_integral = 0.0
        self._last_change = self._created = sim.now

    # -- state ------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.nodes)

    def state_of(self, node_name: str) -> NodeState:
        try:
            return self._state[node_name]
        except KeyError:
            raise AllocationError(
                f"node {node_name!r} is not in partition {self.name!r}"
            ) from None

    def node(self, node_name: str) -> "Node":
        return self._by_name[node_name]

    @property
    def free_count(self) -> int:
        return sum(1 for s in self._state.values() if s is NodeState.FREE)

    @property
    def allocated_count(self) -> int:
        return sum(1 for s in self._state.values() if s is NodeState.ALLOCATED)

    def free_nodes(self) -> list["Node"]:
        """Currently free nodes, in partition order."""
        return [n for n in self.nodes if self._state[n.name] is NodeState.FREE]

    # -- accounting ----------------------------------------------------------
    def _account(self) -> None:
        now = self.sim.now
        self._allocated_integral += self.allocated_count * (now - self._last_change)
        self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of nodes allocated over [since, now], for
        *since* at or before the partition's creation (see
        :func:`~repro.simkernel.resources.window_utilization`)."""
        self._account()
        return window_utilization(
            self._allocated_integral, self.size, self._created, since,
            self.sim.now, self.name,
        )

    def allocated_node_seconds(self) -> float:
        """Integral of allocated nodes over time."""
        self._account()
        return self._allocated_integral

    # -- allocation -------------------------------------------------------------
    def allocate(self, n: int) -> list["Node"]:
        """Claim *n* free nodes (first-fit) or raise AllocationError."""
        free = self.free_nodes()
        if n > len(free):
            raise AllocationError(
                f"partition {self.name!r}: requested {n} nodes, {len(free)} free"
            )
        self._account()
        chosen = free[:n]
        for node in chosen:
            self._state[node.name] = NodeState.ALLOCATED
        return chosen

    def release(self, nodes: Iterable["Node"]) -> None:
        """Return nodes to the free pool."""
        self._account()
        for node in nodes:
            state = self.state_of(node.name)
            if state is not NodeState.ALLOCATED:
                raise AllocationError(
                    f"release of node {node.name!r} in state {state.value}"
                )
            self._state[node.name] = NodeState.FREE

    def mark_down(self, node_name: str) -> None:
        """Take a node out of service (failure injection)."""
        if self.state_of(node_name) is NodeState.ALLOCATED:
            raise AllocationError(f"cannot mark allocated node {node_name!r} down")
        self._account()
        self._state[node_name] = NodeState.DOWN

    def mark_up(self, node_name: str) -> None:
        """Return a DOWN node to service."""
        if self.state_of(node_name) is not NodeState.DOWN:
            raise AllocationError(f"node {node_name!r} is not down")
        self._account()
        self._state[node_name] = NodeState.FREE
