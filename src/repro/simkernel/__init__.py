"""Discrete-event simulation kernel.

A small, self-contained, SimPy-like engine: simulated actors are Python
generator functions ("processes") that ``yield`` :class:`Event` objects
(timeouts, resource requests, store gets, other processes, ...) and are
resumed by the :class:`Simulator` when those events fire.  Virtual time
is a float in seconds and advances only between events, so a simulation
is deterministic given its inputs and RNG seed.

Quick example::

    from repro.simkernel import Simulator

    sim = Simulator()

    def worker(sim, out):
        yield sim.timeout(1.5)
        out.append(sim.now)

    out = []
    sim.process(worker(sim, out))
    sim.run()
    assert out == [1.5]
"""

from repro.simkernel.event import AllOf, AnyOf, Event, Timeout
from repro.simkernel.process import Process
from repro.simkernel.simulator import Simulator
from repro.simkernel.resources import (
    Channel,
    PriorityResource,
    Resource,
    Store,
)
from repro.simkernel.rng import RandomStreams
from repro.simkernel.trace import SpanRecord, TraceEvent, TraceRecorder

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Event",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "SpanRecord",
    "Store",
    "Timeout",
    "TraceEvent",
    "TraceRecorder",
]
