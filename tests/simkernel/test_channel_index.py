"""The Channel keyed-waiter index: same semantics, dict-lookup serving.

These tests pin the contract that makes the index safe: with a
``key_of`` function installed, a getter that waits on a key
(``get(key=...)``) and a getter with a predicate must be served exactly
as one linear scan over all getters would serve them: oldest-posted
match first, across both the keyed buckets and the predicate deque.
"""

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.mpi.pt2pt import ANY_TAG, PacketHeader, make_match, packet_key
from repro.simkernel import Channel


def test_keyed_getter_served_by_index(sim):
    ch = Channel(sim, key_of=lambda item: item)
    got = []

    def consumer(sim, ch):
        item = yield ch.get(key="a")
        got.append((item, sim.now))

    def producer(sim, ch):
        yield sim.timeout(1.0)
        ch.put("b")  # different key: buffered, not delivered
        yield sim.timeout(1.0)
        ch.put("a")

    sim.process(consumer(sim, ch))
    sim.process(producer(sim, ch))
    sim.run()
    assert got == [("a", 2.0)]
    assert list(ch.items) == ["b"]
    assert ch._keyed_getters == {}  # bucket cleaned up after serving


def test_posting_order_between_keyed_and_wildcard(sim):
    """Oldest-posted match wins regardless of which structure holds it."""
    ch = Channel(sim, key_of=lambda item: item)
    order = []

    def wildcard(sim, ch, tag):
        item = yield ch.get(match=lambda x: True)
        order.append((tag, item))

    def keyed(sim, ch, tag):
        item = yield ch.get(key="k")
        order.append((tag, item))

    def scenario(sim, ch):
        # Post wildcard first, then keyed, then another wildcard.
        sim.process(wildcard(sim, ch, "w1"))
        yield sim.timeout(0.1)
        sim.process(keyed(sim, ch, "k1"))
        yield sim.timeout(0.1)
        sim.process(wildcard(sim, ch, "w2"))
        yield sim.timeout(0.1)
        # "k" matches all three; the oldest poster (w1) must win,
        # then the keyed getter, then w2.
        ch.put("k")
        ch.put("k")
        ch.put("k")

    sim.process(scenario(sim, ch))
    sim.run()
    assert order == [("w1", "k"), ("k1", "k"), ("w2", "k")]


def test_keyed_older_than_wildcard_wins(sim):
    ch = Channel(sim, key_of=lambda item: item)
    order = []

    def keyed(sim, ch):
        item = yield ch.get(key="k")
        order.append(("keyed", item))

    def wildcard(sim, ch):
        item = yield ch.get(match=lambda x: True)
        order.append(("wild", item))

    def scenario(sim, ch):
        sim.process(keyed(sim, ch))
        yield sim.timeout(0.1)
        sim.process(wildcard(sim, ch))
        yield sim.timeout(0.1)
        ch.put("k")
        ch.put("other")  # unblocks the wildcard getter

    sim.process(scenario(sim, ch))
    sim.run()
    assert order == [("keyed", "k"), ("wild", "other")]


def test_killed_keyed_getter_does_not_consume(sim):
    ch = Channel(sim, key_of=lambda item: item)
    got = []

    def doomed(sim, ch):
        yield ch.get(key="k")
        got.append("doomed")  # pragma: no cover - must never run

    def survivor(sim, ch):
        item = yield ch.get(key="k")
        got.append(("survivor", item))

    def scenario(sim, ch):
        victim = sim.process(doomed(sim, ch))
        yield sim.timeout(0.1)
        sim.process(survivor(sim, ch))
        yield sim.timeout(0.1)
        victim.kill()
        yield sim.timeout(0.1)
        ch.put("k")

    sim.process(scenario(sim, ch))
    sim.run()
    assert got == [("survivor", "k")]


def test_keyed_get_without_key_of_raises(sim):
    """Nothing could serve a keyed getter on a channel without key_of,
    so the get is refused instead of parked."""
    ch = Channel(sim)  # key_of is None
    ch.put("k")
    with pytest.raises(SimulationError):
        ch.get(key="k")
    assert ch._keyed_getters == {} and list(ch.items) == ["k"]


def test_get_takes_a_key_or_a_predicate_not_both(sim):
    ch = Channel(sim, key_of=lambda item: item)
    with pytest.raises(SimulationError):
        ch.get(match=lambda x: True, key="k")


def test_keyed_get_takes_the_oldest_buffered_item_with_its_key(sim):
    ch = Channel(sim, key_of=lambda item: item[0])
    for item in (("a", 1), ("b", 2), ("a", 3)):
        ch.put(item)
    got = ch.get(key="a")
    assert got.triggered and got.value == ("a", 1)
    assert list(ch.items) == [("b", 2), ("a", 3)]


# ---------------------------------------------------------------------------
# The MPI-layer contract: packet_key defines a packet's envelope, and a
# named-source, named-tag predicate accepts exactly that envelope
# ---------------------------------------------------------------------------


def envelope(kind="eager", ctx=1, src=3, dst=7, tag=9, seq=0):
    return SimpleNamespace(payload=PacketHeader(
        kind=kind, context_id=ctx, src_gpid=src, dst_gpid=dst,
        src_rank=0, tag=tag, seq=seq, size_bytes=64,
    ))


def test_make_match_exact_key_agrees_with_packet_key():
    """``probe`` builds this predicate where ``recv`` waits on the key
    ("env", dst, ctx, src, tag); they must accept the same packets."""
    pred = make_match(7, 1, 3, 9)
    key = ("env", 7, 1, 3, 9)
    msg = envelope()
    assert packet_key(msg) == key
    assert pred(msg)
    assert pred(envelope(kind="rts"))
    for other in (
        envelope(dst=8), envelope(ctx=2), envelope(src=4),
        envelope(tag=10), envelope(kind="cts"), envelope(kind="data"),
    ):
        assert pred(other) == (packet_key(other) == key)
        assert not pred(other)


def test_wildcard_matches_carry_no_exact_key():
    """A wildcard names no single envelope, so it stays a predicate and
    accepts every packet key its named fields allow."""
    any_src = make_match(7, 1, None, 9)
    assert any_src(envelope(src=3)) and any_src(envelope(src=99))
    assert not any_src(envelope(tag=10)) and not any_src(envelope(kind="cts"))
    any_tag = make_match(7, 1, 3, ANY_TAG)
    assert any_tag(envelope(tag=0)) and any_tag(envelope(tag=10))
    assert not any_tag(envelope(src=4))


def test_protocol_packets_key_on_kind_source_and_seq():
    """The rendezvous CTS and data waits name ("seq", dst, kind, src, seq)."""
    assert packet_key(envelope(kind="cts", seq=42)) == ("seq", 7, "cts", 3, 42)
    keys = {
        packet_key(m)
        for m in (
            envelope(kind="cts", seq=42), envelope(kind="cts", seq=43),
            envelope(kind="data", seq=42), envelope(kind="cts", seq=42, src=4),
            envelope(kind="eager", seq=42),
        )
    }
    assert len(keys) == 5


def test_packet_key_none_for_foreign_payloads():
    assert packet_key(SimpleNamespace(payload="not a header")) is None
