"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — *n* interchangeable slots (cores of a CPU, DMA
  engines of a NIC); FIFO queueing.
* :class:`PriorityResource` — like :class:`Resource` but the wait queue
  is ordered by a numeric priority (lower first).
* :class:`Store` — an unbounded-or-bounded FIFO buffer of items with
  blocking ``put``/``get`` (message queues, mailboxes).
* :class:`Channel` — a :class:`Store` specialised for message passing
  whose ``get`` can wait for one item key or a predicate (used by the
  MPI layer's unexpected-message queue).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError
from repro.simkernel.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.simulator import Simulator


class Request(Event):
    """A pending claim on one or more :class:`Resource` slots.

    Fires (with itself as value) once the claim holds all its slots.  A
    claim of *slots* > 1 takes slots one at a time in FIFO order, exactly
    as that many single claims queued back to back would: it holds the
    slots it got while it waits for the rest, but fires only once.  Pass
    it to :meth:`Resource.release` when done, or to
    :meth:`Resource.cancel` to give up while it is still queued.
    """

    __slots__ = ("resource", "priority", "_order", "slots", "_need")

    def __init__(
        self, resource: "Resource", priority: float = 0.0, slots: int = 1
    ) -> None:
        super().__init__(resource.sim, name=resource.name)
        self.resource = resource
        self.priority = priority
        self._order = 0
        #: Slots this claim takes in all.
        self.slots = slots
        #: Slots still to be granted (nonzero only while queued).
        self._need = 0

    def __lt__(self, other: "Request") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)


class _Slot:
    """A slot handed out by :meth:`Resource.try_acquire`.

    Behaves enough like a granted one-slot :class:`Request` for the
    common acquire/release dance: it is always ``triggered`` (the grant
    was immediate) and :meth:`Resource.release` accepts it.
    """

    # ``_value`` only gives release() a slot to clear, as it does on a
    # Request: a fast-path slot never carries a value.
    __slots__ = ("_value",)

    #: A fast-path grant is immediate by definition, so a uniform
    #: ``if handle.triggered: release() else cancel()`` cleanup works
    #: for Requests and slots alike.
    triggered = True
    slots = 1


def window_utilization(
    integral: float, capacity: int, created: float, since: float, now: float,
    name: str = "",
) -> float:
    """Mean busy fraction of *capacity* slots over [since, now].

    *integral* is the busy-slot integral kept from *created* to *now*.
    Nothing was busy before *created*, so the answer is exact for every
    window that starts at or before it; an empty window reads 0.0.  A
    window that starts later would need the history the integral folds
    away, so it is refused rather than answered from the whole run.
    """
    elapsed = now - since
    if elapsed <= 0:
        return 0.0
    if since > created:
        raise SimulationError(
            f"utilization of {name or 'resource'} since t={since}: only "
            f"windows from its creation (t={created}) or earlier are kept"
        )
    return integral / (elapsed * capacity)


class Resource:
    """*capacity* interchangeable slots with FIFO waiters."""

    __slots__ = (
        "sim", "capacity", "name", "users", "queue",
        "_busy_integral", "_last_change", "_created", "grants", "waits",
    )

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: Holders, one entry per slot held (a wide claim appears once
        #: for each of its slots).
        self.users: list = []
        self.queue: deque[Request] = deque()
        # Utilisation accounting: the integral of busy slots over time
        # since creation, which is all ``utilization()`` reads.
        self._busy_integral = 0.0
        self._last_change = self._created = sim.now
        #: Slots granted (immediately or after queueing).
        self.grants = 0
        #: Slots that found the resource busy and had to queue.
        self.waits = 0
        if sim.observe:
            sim._profiled_resources.append(self)

    # -- accounting ------------------------------------------------------
    def _changed(self, busy: int) -> None:
        """Integrate *busy* slots up to now.

        Claims, releases and cancels call it with the busy count from
        before their change; a query calls it with the current count.
        """
        now = self.sim.now
        last = self._last_change
        if now != last:
            self._busy_integral += busy * (now - last)
            self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of slots busy over [since, now], for *since* at
        or before the resource's creation (see :func:`window_utilization`)."""
        self._changed(len(self.users))
        return window_utilization(
            self._busy_integral, self.capacity, self._created, since,
            self.sim.now, self.name,
        )

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    # -- protocol --------------------------------------------------------
    def try_acquire(self) -> Optional[_Slot]:
        """Claim a free slot without allocating a :class:`Request`.

        Returns a :class:`_Slot` handle (pass it to :meth:`release`)
        when a slot is free, else ``None`` — callers then fall back to
        :meth:`request`.  This is the uncontended fast path: no Request
        event, no scheduler round-trip.
        """
        users = self.users
        busy = len(users)
        if busy < self.capacity:
            slot = _Slot()
            users.append(slot)
            self.grants += 1
            self._changed(busy)
            return slot
        return None

    def request(self, priority: float = 0.0, slots: int = 1) -> Request:
        """Claim *slots* slots; yield the returned request to wait for them.

        The claim takes the free slots now and queues for the rest (a
        slot is free only while nobody waits, so it queues at the head).
        """
        if slots != 1 and not 1 <= slots <= self.capacity:
            raise SimulationError(
                f"cannot claim {slots} of {self.capacity} slots of "
                f"{self.name or 'resource'}"
            )
        req = Request(self, priority, slots)
        users = self.users
        busy = len(users)
        free = self.capacity - busy
        if free >= slots:
            if slots == 1:
                users.append(req)
            else:
                users.extend([req] * slots)
            self.grants += slots
            req.succeed(req)
        else:
            if free:
                users.extend([req] * free)
                self.grants += free
            req._need = need = slots - free
            self.waits += need
            self._enqueue(req)
            # Contended path only: queue-depth change points feed the
            # counter timelines (repro.obs.timeline).
            if self.sim.trace.enabled:
                self._trace_queue(need)
        self._changed(busy)
        return req

    def release(self, request: Request) -> None:
        """Return a granted claim's slots; each one wakes the next waiter."""
        users = self.users
        busy = len(users)
        try:
            users.remove(request)
        except ValueError:
            raise SimulationError(
                f"release() of a request that does not hold {self.name or 'resource'}"
            ) from None
        if request.slots == 1:
            if self.queue:
                self._grant_head()
        elif request._need:
            users.append(request)  # put the slot back
            raise SimulationError(
                f"release() of a claim still queued for {self.name or 'resource'}; "
                "cancel() it"
            )
        else:
            if self.queue:
                self._grant_head()
            self._free(request, request.slots - 1)
        # A granted Request carries itself as its value; dropping that
        # cycle lets reference counting free the claim.
        request._value = None
        self._changed(busy)

    def cancel(self, request: Request) -> None:
        """Withdraw a queued claim, returning any slots it already holds."""
        try:
            self._withdraw(request)
        except ValueError:
            raise SimulationError("cancel() of a request not in queue") from None
        if self.sim.trace.enabled:
            self._trace_queue(-request._need)
        held = request.slots - request._need
        if held:
            busy = len(self.users)
            self._free(request, held)
            self._changed(busy)

    def _free(self, claim: Request, n: int) -> None:
        """Take back *n* slots of *claim*, waking the next waiter for each."""
        users = self.users
        for _ in range(n):
            users.remove(claim)
            if self.queue:
                self._grant_head()

    def _grant_head(self) -> None:
        """Give a slot to the oldest waiter; it fires on its last slot."""
        head = self.queue[0]
        self.users.append(head)
        self.grants += 1
        head._need -= 1
        if not head._need:
            self._dequeue()
            head.succeed(head)
        if self.sim.trace.enabled:
            self._trace_queue(-1)

    def _trace_queue(self, change: int) -> None:
        """Record queue-depth change points (tracing only): one per slot
        queued (*change* > 0) or withdrawn (< 0), the points the same
        claims give as single-slot requests."""
        if self.name:
            depth = sum(r._need for r in self.queue)
            step = 1 if change > 0 else -1
            key = "queue:" + self.name
            for d in range(depth - change + step, depth + step, step):
                self.sim.trace.record_counter(key, d)

    # -- queue policy (overridden by PriorityResource) --------------------
    def _enqueue(self, req: Request) -> None:
        self.queue.append(req)

    def _dequeue(self) -> None:
        self.queue.popleft()

    def _withdraw(self, req: Request) -> None:
        self.queue.remove(req)


class PriorityResource(Resource):
    """A resource whose waiters are served lowest-priority-value first."""

    __slots__ = ("_counter",)

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        super().__init__(sim, capacity, name)
        #: Waiters as a heap ordered by (priority, arrival).
        self.queue: list[Request] = []
        self._counter = 0

    def _enqueue(self, req: Request) -> None:
        self._counter += 1
        req._order = self._counter
        heapq.heappush(self.queue, req)

    def _dequeue(self) -> None:
        heapq.heappop(self.queue)

    def _withdraw(self, req: Request) -> None:
        self.queue.remove(req)
        heapq.heapify(self.queue)


class Store:
    """A FIFO buffer of items with blocking put/get.

    ``capacity=None`` means unbounded (puts never block).
    """

    __slots__ = (
        "sim", "capacity", "name", "items", "_getters", "_putters",
        "_put_name", "_get_name",
    )

    def __init__(
        self, sim: "Simulator", capacity: Optional[int] = None, name: str = ""
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        # Event names are hot-path allocations; build them once.
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert *item*; the returned event fires when accepted."""
        ev = Event(self.sim, name=self._put_name)
        if self._match(item):
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def deliver(self, item: Any) -> None:
        """Insert *item* without a put event.

        For producers that never wait on acceptance, such as a fabric
        dropping a message into an inbox: an event that nothing yields
        would only cost the kernel a heap entry.  The item must be
        accepted at once, so a full bounded store raises.
        """
        if not self._match(item):
            raise SimulationError(f"deliver() into full store {self.name!r}")

    def _match(self, item: Any) -> bool:
        """Hand *item* to the oldest getter or buffer it; False when full."""
        if self._getters:
            getter = self._getters.popleft()
            getter._abandon = None
            getter.succeed(item)
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
        else:
            return False
        return True

    def get(self) -> Event:
        """Remove the oldest item; the returned event fires with it."""
        ev = Event(self.sim, name=self._get_name)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
            ev._abandon = lambda: self._discard_getter(ev)
        return ev

    def _discard_getter(self, ev: Event) -> None:
        try:
            self._getters.remove(ev)
        except ValueError:  # pragma: no cover - already served
            pass

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            pev, item = self._putters.popleft()
            self.items.append(item)
            pev.succeed()


class Channel(Store):
    """A :class:`Store` whose gets can wait for one key or a predicate.

    ``get(key=...)`` returns the oldest item whose :attr:`key_of` value
    equals the key; ``get(match=...)`` the oldest item a predicate
    accepts.  Both search the buffered items first and otherwise park
    the getter until a matching item is put: exactly the semantics an
    MPI receive needs against the unexpected-message queue.

    One rule keeps the two from disagreeing: :attr:`key_of` defines an
    item's identity (the MPI layer installs
    :func:`repro.mpi.pt2pt.packet_key`, a packet's envelope), a getter
    that names one item waits on its key, and predicates serve only
    wildcards, which no single key can name.

    **Waiter indexing.**  ``put()`` must find the oldest-posted matching
    getter.  A keyed getter is parked in a per-key bucket and served by
    one dict lookup; predicate getters are scanned FIFO.  Posting order
    across both structures is preserved via a monotone sequence number,
    so the oldest-posted match wins whichever structure holds it.
    """

    __slots__ = ("_matched_getters", "_keyed_getters", "_match_seq", "key_of")

    def __init__(
        self,
        sim: "Simulator",
        capacity: Optional[int] = None,
        name: str = "",
        key_of: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        super().__init__(sim, capacity, name)
        #: Predicate getters, FIFO by posting seq: (seq, Event, predicate).
        self._matched_getters: deque[tuple[int, Event, Callable[[Any], bool]]] = (
            deque()
        )
        #: Keyed getters: key -> FIFO deque of (seq, Event).
        self._keyed_getters: dict[Any, deque[tuple[int, Event]]] = {}
        self._match_seq = 0
        #: Item -> hashable key, needed by ``get(key=...)``.  May also be
        #: assigned after construction (the MPI layer does).
        self.key_of = key_of

    def _match(self, item: Any) -> bool:
        # Matched getters have priority over FIFO getters so that a
        # selective receive posted earlier is not starved.  Among the
        # matched getters the oldest-posted match wins (MPI posting
        # order): compare the keyed-bucket head against the predicate
        # scan by sequence number.
        bucket = None
        if self._keyed_getters:
            key = self.key_of(item)
            bucket = self._keyed_getters.get(key)
        getter = None
        if self._matched_getters:
            cutoff = bucket[0][0] if bucket else None
            for i, (seq, gev, pred) in enumerate(self._matched_getters):
                if cutoff is not None and seq > cutoff:
                    break  # the keyed getter is older than any further wildcard
                if pred(item):
                    del self._matched_getters[i]
                    getter = gev
                    break
        if getter is None and bucket:
            getter = bucket.popleft()[1]
            if not bucket:
                del self._keyed_getters[key]
        if getter is None and self._getters:
            getter = self._getters.popleft()
        if getter is not None:
            getter._abandon = None
            getter.succeed(item)
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
        else:
            return False
        return True

    def get(
        self, match: Optional[Callable[[Any], bool]] = None, key: Any = None
    ) -> Event:
        """Remove the oldest item whose ``key_of`` is *key*, or that
        *match* accepts (the oldest item if neither is given); the
        returned event fires with it."""
        key_of = self.key_of
        if key is None:
            if match is None:
                return super().get()
        elif key_of is None:
            raise SimulationError(f"get(key=...) on {self.name!r}, which has no key_of")
        elif match is not None:
            raise SimulationError("get() takes a key or a match predicate, not both")
        ev = Event(self.sim, name=self._get_name)
        for i, item in enumerate(self.items):
            if match(item) if key is None else key_of(item) == key:
                del self.items[i]
                ev.succeed(item)
                self._admit_putter()
                return ev
        self._match_seq += 1
        seq = self._match_seq
        if key is None:
            entry = (seq, ev, match)
            self._matched_getters.append(entry)
            ev._abandon = lambda: self._discard_matched(entry)
        else:
            entry = (seq, ev)
            self._keyed_getters.setdefault(key, deque()).append(entry)
            ev._abandon = lambda: self._discard_keyed(key, entry)
        return ev

    def _discard_matched(self, entry) -> None:
        try:
            self._matched_getters.remove(entry)
        except ValueError:  # pragma: no cover - already served
            pass

    def _discard_keyed(self, key, entry) -> None:
        bucket = self._keyed_getters.get(key)
        if bucket is None:
            return  # pragma: no cover - already served
        try:
            bucket.remove(entry)
        except ValueError:  # pragma: no cover - already served
            return
        if not bucket:
            del self._keyed_getters[key]

    def peek_match(self, match: Callable[[Any], bool]) -> Optional[Any]:
        """Return (without removing) the oldest buffered matching item."""
        for item in self.items:
            if match(item):
                return item
        return None
