"""Power and energy accounting.

The DEEP rationale (slide 3: "are ~100 MW acceptable?"; slide 15: KNC's
~5 GFlop/W) is fundamentally an energy argument, so every node carries
a :class:`PowerModel` and an :class:`EnergyMeter` that integrates
``idle + (tdp - idle) * busy_fraction`` over simulated time using the
core-resource utilisation integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.processor import Processor
    from repro.simkernel.simulator import Simulator


@dataclass(frozen=True, slots=True)
class PowerModel:
    """Linear-in-utilisation node power model.

    ``power(u) = idle_watts + u * (busy_watts - idle_watts)`` for core
    utilisation ``u`` in [0, 1].  ``overhead_watts`` covers the node's
    non-CPU components (NIC, board, fans, PSU losses) and is always on.
    """

    idle_watts: float
    busy_watts: float
    overhead_watts: float = 0.0

    def __post_init__(self) -> None:
        if self.idle_watts < 0 or self.busy_watts < self.idle_watts:
            raise ConfigurationError(
                f"need 0 <= idle ({self.idle_watts}) <= busy ({self.busy_watts})"
            )
        if self.overhead_watts < 0:
            raise ConfigurationError("overhead_watts must be >= 0")

    def power(self, utilization: float) -> float:
        """Instantaneous node power at the given core utilisation."""
        u = min(max(utilization, 0.0), 1.0)
        return self.overhead_watts + self.idle_watts + u * (
            self.busy_watts - self.idle_watts
        )


class EnergyMeter:
    """Integrates a node's energy from its processor's busy-core integral."""

    def __init__(
        self, sim: "Simulator", processor: "Processor", model: PowerModel
    ) -> None:
        self.sim = sim
        self.processor = processor
        self.model = model
        self._start = sim.now

    def energy_joules(self) -> float:
        """Energy consumed since meter creation."""
        elapsed = self.sim.now - self._start
        if elapsed <= 0:
            return 0.0
        u = self.processor.utilization(since=self._start)
        return self.model.power(u) * elapsed
