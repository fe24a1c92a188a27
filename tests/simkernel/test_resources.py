"""Unit tests for resources, stores, and channels."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simkernel import Channel, PriorityResource, Resource, Simulator, Store

from tests.conftest import run_to_end


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_capacity_enforced(sim):
    res = Resource(sim, capacity=2)
    done = []

    def worker(sim, res, tag):
        req = res.request()
        yield req
        yield sim.timeout(1.0)
        res.release(req)
        done.append((tag, sim.now))

    for tag in range(5):
        sim.process(worker(sim, res, tag))
    sim.run()
    times = [t for _, t in done]
    assert times == [1.0, 1.0, 2.0, 2.0, 3.0]


def test_resource_rejects_bad_capacity(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_release_without_hold_raises(sim):
    res = Resource(sim)
    req = res.request()  # granted immediately

    class Fake:
        pass

    with pytest.raises(SimulationError):
        res.release(Fake())


def test_resource_utilization_full(sim):
    res = Resource(sim, capacity=1)

    def worker(sim, res):
        req = res.request()
        yield req
        yield sim.timeout(4.0)
        res.release(req)

    sim.process(worker(sim, res))
    sim.run()
    assert res.utilization() == pytest.approx(1.0)


def test_resource_utilization_half(sim):
    res = Resource(sim, capacity=2)

    def worker(sim, res):
        req = res.request()
        yield req
        yield sim.timeout(4.0)
        res.release(req)

    sim.process(worker(sim, res))
    sim.run()
    assert res.utilization() == pytest.approx(0.5)


def test_cancel_queued_request(sim):
    res = Resource(sim, capacity=1)
    hold = res.request()  # taken
    queued = res.request()
    res.cancel(queued)
    res.release(hold)
    assert res.count == 0
    assert not queued.triggered


def test_priority_resource_orders_waiters(sim):
    res = PriorityResource(sim, capacity=1)
    order = []

    def worker(sim, res, prio, tag):
        req = res.request(priority=prio)
        yield req
        yield sim.timeout(1.0)
        res.release(req)
        order.append(tag)

    def spawner(sim):
        sim.process(worker(sim, res, 0, "first"))  # grabs the slot
        yield sim.timeout(0.1)
        sim.process(worker(sim, res, 5, "low"))
        sim.process(worker(sim, res, 1, "high"))

    sim.process(spawner(sim))
    sim.run()
    assert order == ["first", "high", "low"]


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_fifo(sim):
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(3):
            yield store.put(i)

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(2.0)
        store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [("late", 2.0)]


def test_bounded_store_put_blocks(sim):
    store = Store(sim, capacity=1)
    log = []

    def producer(sim, store):
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer(sim, store):
        yield sim.timeout(3.0)
        item = yield store.get()
        log.append((f"got-{item}", sim.now))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert ("put-a", 0.0) in log
    assert ("put-b", 3.0) in log  # unblocked by the get


def test_store_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


# ---------------------------------------------------------------------------
# Channel (matched gets)
# ---------------------------------------------------------------------------


def test_channel_match_skips_nonmatching(sim):
    ch = Channel(sim)
    ch.put(1)
    ch.put(2)
    ch.put(3)

    def p(sim, ch):
        item = yield ch.get(match=lambda x: x % 2 == 0)
        return item

    assert run_to_end(sim, p(sim, ch)) == 2
    assert list(ch.items) == [1, 3]


def test_channel_matched_getter_waits(sim):
    ch = Channel(sim)
    got = []

    def consumer(sim, ch):
        item = yield ch.get(match=lambda x: x == "target")
        got.append((item, sim.now))

    def producer(sim, ch):
        yield sim.timeout(1.0)
        ch.put("noise")
        yield sim.timeout(1.0)
        ch.put("target")

    sim.process(consumer(sim, ch))
    sim.process(producer(sim, ch))
    sim.run()
    assert got == [("target", 2.0)]
    assert list(ch.items) == ["noise"]


def test_channel_fifo_within_match(sim):
    ch = Channel(sim)
    for i in range(4):
        ch.put(("x", i))

    def p(sim, ch):
        a = yield ch.get(match=lambda m: m[0] == "x")
        b = yield ch.get(match=lambda m: m[0] == "x")
        return [a, b]

    assert run_to_end(sim, p(sim, ch)) == [("x", 0), ("x", 1)]


def test_channel_peek_match(sim):
    ch = Channel(sim)
    ch.put(10)
    ch.put(25)
    assert ch.peek_match(lambda x: x > 20) == 25
    assert ch.peek_match(lambda x: x > 100) is None
    assert len(ch) == 2  # peek does not remove


def test_channel_matched_getters_have_priority(sim):
    ch = Channel(sim)
    results = {}

    def selective(sim, ch):
        item = yield ch.get(match=lambda x: x == "special")
        results["selective"] = (item, sim.now)

    def greedy(sim, ch):
        item = yield ch.get()
        results["greedy"] = (item, sim.now)

    def producer(sim, ch):
        yield sim.timeout(1.0)
        ch.put("special")
        yield sim.timeout(1.0)
        ch.put("plain")

    sim.process(selective(sim, ch))
    sim.process(greedy(sim, ch))
    sim.process(producer(sim, ch))
    sim.run()
    assert results["selective"] == ("special", 1.0)
    assert results["greedy"] == ("plain", 2.0)


def test_killed_getter_does_not_consume_items(sim):
    """A process killed while blocked on a matched get must not eat a
    later matching item (its registration is withdrawn)."""
    ch = Channel(sim)
    got = []

    def victim(sim, ch):
        yield ch.get(match=lambda x: x == "prize")

    def survivor(sim, ch):
        item = yield ch.get(match=lambda x: x == "prize")
        got.append(item)

    v = sim.process(victim(sim, ch))
    sim.process(survivor(sim, ch))

    def script(sim):
        yield sim.timeout(1.0)
        v.kill()
        yield sim.timeout(1.0)
        ch.put("prize")

    sim.process(script(sim))
    sim.run()
    assert got == ["prize"]


def test_killed_plain_getter_withdrawn(sim):
    store = Store(sim)
    got = []

    def victim(sim, store):
        yield store.get()

    def survivor(sim, store):
        item = yield store.get()
        got.append(item)

    v = sim.process(victim(sim, store))
    sim.process(survivor(sim, store))

    def script(sim):
        yield sim.timeout(1.0)
        v.kill()
        yield sim.timeout(1.0)
        store.put("only-item")

    sim.process(script(sim))
    sim.run()
    assert got == ["only-item"]


# ---------------------------------------------------------------------------
# try_acquire (uncontended fast path)
# ---------------------------------------------------------------------------


def test_try_acquire_grants_free_slot(sim):
    res = Resource(sim, capacity=2)
    a = res.try_acquire()
    b = res.try_acquire()
    assert a is not None and b is not None
    assert a.triggered and b.triggered  # uniform cleanup protocol
    assert res.count == 2
    assert res.try_acquire() is None  # full
    res.release(a)
    assert res.count == 1
    res.release(b)
    assert res.count == 0


def test_try_acquire_respects_waiters(sim):
    """A released slot goes to the FIFO queue, not a later try_acquire."""
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim, res):
        req = res.request()
        yield req
        yield sim.timeout(1.0)
        res.release(req)

    def waiter(sim, res):
        req = res.request()
        yield req
        order.append(("waiter", sim.now))
        res.release(req)

    sim.process(holder(sim, res))
    sim.process(waiter(sim, res))
    sim.run(until=0.5)
    assert res.try_acquire() is None  # occupied by holder
    sim.run()
    assert order == [("waiter", 1.0)]


def test_try_acquire_interoperates_with_requests(sim):
    """Slots and requests share capacity and release identically."""
    res = Resource(sim, capacity=1)
    tok = res.try_acquire()
    req = res.request()  # queued behind the fast-path slot
    assert not req.triggered
    res.release(tok)
    assert req.triggered
    res.release(req)


# ---------------------------------------------------------------------------
# Windowed utilization
# ---------------------------------------------------------------------------


def test_utilization_windowed_does_not_exceed_one(sim):
    """Regression: utilization(since > 0) used the full-history integral,
    overstating (even above 1.0) when the resource was busy early.  Only
    the busy integral is kept now, so a window that starts after
    creation is refused rather than answered from the whole run."""
    res = Resource(sim, capacity=1)

    def worker(sim, res):
        req = res.request()
        yield req
        yield sim.timeout(4.0)
        res.release(req)
        yield sim.timeout(6.0)  # idle tail

    sim.process(worker(sim, res))
    sim.run()
    assert sim.now == 10.0
    assert res.utilization() == pytest.approx(0.4)
    for since in (2.0, 3.9999, 5.0):
        with pytest.raises(SimulationError):
            res.utilization(since=since)
    assert res.utilization() == pytest.approx(0.4)  # a refusal changes nothing


def test_utilization_windowed_mid_busy(sim):
    """A resource created mid-run: windows from its creation or earlier
    are exact, a window from mid-busy is refused."""

    def worker(sim, res, hold):
        req = res.request()
        yield req
        yield sim.timeout(hold)
        res.release(req)

    def scenario(sim):
        yield sim.timeout(2.0)
        res = Resource(sim, capacity=2)
        sim.process(worker(sim, res, 10.0))
        sim.process(worker(sim, res, 4.0))
        return res

    res = sim.process(scenario(sim))
    sim.run()
    res = res.value
    assert sim.now == 12.0
    # [2,6]: 2 busy; [6,12]: 1 busy.  From creation: 14 / (10 * 2).
    assert res.utilization(since=2.0) == pytest.approx(14 / 20)
    # Nothing was busy before creation: [0,12] -> 14 / (12 * 2).
    assert res.utilization() == pytest.approx(14 / 24)
    with pytest.raises(SimulationError):
        res.utilization(since=6.0)


def test_utilization_future_window_is_zero(sim):
    res = Resource(sim)
    assert res.utilization(since=5.0) == 0.0


# ---------------------------------------------------------------------------
# multi-slot claims
# ---------------------------------------------------------------------------


def test_multi_slot_request_validated(sim):
    res = Resource(sim, capacity=4)
    for slots in (0, -1, 5):
        with pytest.raises(SimulationError):
            res.request(slots=slots)


def test_multi_slot_claim_holds_part_while_queued(sim):
    res = Resource(sim, capacity=4)
    hold = res.request(slots=3)
    wide = res.request(slots=3)  # takes the free slot, queues for two
    assert hold.triggered and not wide.triggered
    assert res.count == 4 and wide._need == 2
    assert (res.grants, res.waits) == (4, 2)
    with pytest.raises(SimulationError):
        res.release(wide)  # still queued: cancel() it instead
    assert res.count == 4
    res.release(hold)
    assert wide.triggered and res.count == 3
    res.release(wide)
    assert res.count == 0 and wide.value is None  # no self-reference left
    with pytest.raises(SimulationError):
        res.release(wide)


def test_cancelled_partial_claim_hands_its_slots_on_in_fifo_order(sim):
    res = Resource(sim, capacity=3)
    hold = res.request(slots=2)
    wide = res.request(slots=3)  # holds 1, needs 2
    first = res.request()
    second = res.request()
    res.cancel(wide)
    assert first.triggered and not second.triggered
    assert res.count == 3 and list(res.queue) == [second]
    res.release(hold)
    assert second.triggered and res.count == 2


# ---------------------------------------------------------------------------
# deliver (no put event)
# ---------------------------------------------------------------------------


def test_deliver_serves_getter_without_an_event(sim):
    ch = Channel(sim)
    getter = ch.get(match=lambda x: x == "m")
    assert getter._abandon is not None
    ch.deliver("m")
    assert getter.triggered and getter._abandon is None  # served: hook dropped
    assert len(sim._queue) == 1  # the getter's wake-up, and no put event
    ch.deliver("other")
    assert list(ch.items) == ["other"]


def test_deliver_into_full_store_raises(sim):
    store = Store(sim, capacity=1)
    store.deliver("a")
    with pytest.raises(SimulationError):
        store.deliver("b")


# ---------------------------------------------------------------------------
# claim accounting (property)
# ---------------------------------------------------------------------------


class ClaimModel:
    """A FIFO resource's busy count, grants and waits, kept independently.

    Claims take free slots at once and queue for the rest; each freed
    slot goes to the oldest waiter.  ``log`` holds (time, busy) after
    every change, for integrating utilization.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.busy = 0
        self.grants = 0
        self.waits = 0
        self.held: dict[int, int] = {}
        self.need: dict[int, int] = {}
        self.queue: list[int] = []
        self.log = [(0, 0)]

    def claim(self, cid: int, slots: int) -> None:
        take = min(slots, self.capacity - self.busy)
        self.busy += take
        self.grants += take
        self.held[cid] = take
        self.need[cid] = slots - take
        if self.need[cid]:
            self.waits += self.need[cid]
            self.queue.append(cid)

    def give_back(self, cid: int) -> None:
        if cid in self.queue:
            self.queue.remove(cid)
        for _ in range(self.held.pop(cid)):
            self.busy -= 1
            if self.queue:
                head = self.queue[0]
                self.busy += 1
                self.grants += 1
                self.held[head] += 1
                self.need[head] -= 1
                if not self.need[head]:
                    self.queue.pop(0)
        del self.need[cid]

    def utilization(self, now: int) -> float:
        total = 0
        for (t0, busy), (t1, _) in zip(self.log, self.log[1:] + [(now, 0)]):
            total += busy * (t1 - t0)
        return total / (now * self.capacity) if now else 0.0


_claim_ops = st.lists(
    st.tuples(
        st.integers(0, 2),  # simulated seconds before the op
        st.sampled_from(["try", "request", "release", "cancel", "query"]),
        st.integers(0, 7),  # slots or victim index
    ),
    max_size=40,
)


@pytest.mark.parametrize("kind", [Resource, PriorityResource])
@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 3), ops=_claim_ops)
def test_claim_accounting_matches_integrated_busy_log(kind, capacity, ops):
    """Random interleavings of immediate, queued, released and
    cancelled claims at advancing times.  Integer times keep every
    integral exact, so utilization must equal the model's bit for bit
    after every change of the busy count."""
    sim = Simulator()
    res = kind(sim, capacity=capacity)
    model = ClaimModel(capacity)
    handles: dict[int, object] = {}
    ids = itertools.count()

    def driver():
        for dt, op, arg in ops:
            if dt:
                yield sim.timeout(dt)
            granted = [c for c in handles if not model.need[c]]
            queued = list(model.queue)
            if op == "try":
                handle = res.try_acquire()
                assert (handle is not None) == (model.busy < capacity)
                if handle is None:
                    continue
                handles[cid := next(ids)] = handle
                model.claim(cid, 1)
            elif op == "request":
                handles[cid := next(ids)] = req = res.request(slots=1 + arg % capacity)
                model.claim(cid, req.slots)
            elif op == "release" and granted:
                cid = granted[arg % len(granted)]
                res.release(handles.pop(cid))
                model.give_back(cid)
            elif op == "cancel" and queued:
                cid = queued[arg % len(queued)]
                res.cancel(handles.pop(cid))
                model.give_back(cid)
            elif op == "query":
                assert res.utilization() == model.utilization(sim.now)
                continue
            else:
                continue
            model.log.append((sim.now, model.busy))
            assert res.count == model.busy
            assert res.utilization() == model.utilization(sim.now)
            for cid, handle in handles.items():
                assert handle.triggered == (not model.need[cid])

    sim.process(driver())
    sim.run()
    assert (res.grants, res.waits) == (model.grants, model.waits)

