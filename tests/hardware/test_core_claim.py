"""Core claims of ``Processor.execute``: one n-slot request per kernel.

``execute`` claims its cores with one ``n_cores``-slot request.  The
request must behave exactly like the per-core loop it replaced, which
claimed ``n_cores`` single-slot requests and waited for each in turn:
the same kernels start and end at the same times, in the same order,
with the same busy cores and busy integral at every change time and the
same grant and wait counts.  That loop is kept below as the reference.
"""

import random

import pytest

from repro.hardware import Processor
from repro.hardware.catalog import XEON_E5_2680
from repro.simkernel import Resource, Simulator


class LoggedCores(Resource):
    """A core pool that logs (time, busy cores, busy integral) at every
    change of its busy count."""

    __slots__ = ("log",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log: list[tuple[float, int, float]] = []

    def _changed(self, busy: int) -> None:
        super()._changed(busy)
        self.log.append((self.sim.now, len(self.users), self._busy_integral))


def per_core_execute(chip: Processor, flops: float, n_cores: int):
    """The per-core claim loop ``execute`` used before the n-slot request."""
    if n_cores == 0:
        n_cores = chip.spec.n_cores
    n_cores = min(n_cores, chip.spec.n_cores)
    lock = chip._alloc_lock.request()
    yield lock
    requests = [chip.cores.request() for _ in range(n_cores)]
    try:
        try:
            for req in requests:
                yield req
        finally:
            chip._alloc_lock.release(lock)
        yield chip.sim.timeout(chip.kernel_time(flops, 0.0, n_cores))
    finally:
        for req in requests:
            if req.triggered:
                chip.cores.release(req)
            else:
                chip.cores.cancel(req)


def n_slot_execute(chip: Processor, flops: float, n_cores: int):
    yield from chip.execute(flops, n_cores=n_cores)


def kernels(seed: int, n: int = 40) -> list[tuple[float, float, int]]:
    """(arrival, flops, n_cores) of contended wide and narrow kernels."""
    rng = random.Random(seed)
    return [
        (
            round(rng.uniform(0.0, 0.05), 3),
            rng.choice([1e9, 5e9, 2e10, 6e10]),
            rng.choice([0, 1, 1, 2, 3, 5, 8]),
        )
        for _ in range(n)
    ]


def run(execute, plan, kill=None):
    """Run *plan* on an E5-2680; return everything a claim can change.

    *kill* is ``(index, at)``: kernel *index* is killed at time *at*.
    """
    sim = Simulator()
    chip = Processor(sim, XEON_E5_2680)
    chip.cores = LoggedCores(sim, chip.spec.n_cores, chip.cores.name)
    ends = []

    def kernel(i, arrival, flops, n_cores):
        yield sim.timeout(arrival)
        yield from execute(chip, flops, n_cores)
        ends.append((i, sim.now))

    procs = [sim.process(kernel(i, *k)) for i, k in enumerate(plan)]
    if kill is not None:
        victim, at = kill

        def killer():
            yield sim.timeout(at)
            procs[victim].kill()

        sim.process(killer())
    end = sim.run()
    return {
        "ends": ends,
        "end": end,
        # The last entry at each change time: the per-core loop changes
        # the count once per core where a wide claim changes it once.
        "busy": {t: (busy, integral) for t, busy, integral in chip.cores.log},
        "utilization": chip.cores.utilization(),
        "lock": (chip._alloc_lock.grants, chip._alloc_lock.waits),
        "cores_held": chip.cores.count,
        "queued": len(chip.cores.queue),
        "events": sim._events_processed,
        "grants": chip.cores.grants,
        "waits": chip.cores.waits,
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_n_slot_claim_matches_per_core_loop(seed):
    plan = kernels(seed)
    ref = run(per_core_execute, plan)
    new = run(n_slot_execute, plan)
    assert new["waits"] > 0  # the plan does contend
    assert new["ends"] == ref["ends"]  # times *and* completion order
    assert new["end"] == ref["end"]
    assert list(new["busy"].items()) == list(ref["busy"].items())
    assert new["utilization"] == ref["utilization"]
    assert (new["grants"], new["waits"]) == (ref["grants"], ref["waits"])
    assert new["lock"] == ref["lock"]
    # One grant event per claim instead of one per core.
    assert new["events"] < ref["events"]


def test_killed_partial_claim_returns_every_slot():
    """Kernel 1 holds 2 of its 8 cores when it is killed."""
    plan = [
        (0.0, 6 * 4e10, 6),  # 6 cores until about t=2.06
        (0.5, 1e9, 8),  # takes the 2 free cores, waits for 6 more
        (1.0, 1e9, 1),  # waits for the alloc lock behind kernel 1
        (1.5, 1e9, 3),
    ]
    kill = (1, 1.2)
    ref = run(per_core_execute, plan, kill)
    new = run(n_slot_execute, plan, kill)
    assert [i for i, _ in new["ends"]] == [2, 0, 3]
    assert new["ends"] == ref["ends"]
    assert list(new["busy"].items()) == list(ref["busy"].items())
    assert new["utilization"] == ref["utilization"]
    assert new["cores_held"] == 0 and new["queued"] == 0


def test_killed_while_queued_for_alloc_lock_does_not_hold_it():
    """A kernel killed while it waits for the alloc lock must not leave
    its lock request to be granted to nobody."""
    sim = Simulator()
    chip = Processor(sim, XEON_E5_2680)
    done = []

    def kernel(name, arrival, n_cores):
        yield sim.timeout(arrival)
        yield from chip.execute(8 * 2e10, n_cores=n_cores)
        done.append(name)

    sim.process(kernel("hog", 0.0, 8))
    sim.process(kernel("wide", 0.1, 8))  # holds the lock, waits for cores
    queued = sim.process(kernel("queued", 0.2, 1))  # waits for the lock

    def killer():
        yield sim.timeout(0.3)
        queued.kill()

    sim.process(killer())
    sim.process(kernel("late", 1.0, 1))
    sim.run()
    assert done == ["hog", "wide", "late"]
    assert chip._alloc_lock.count == 0
    assert not chip._alloc_lock.queue
