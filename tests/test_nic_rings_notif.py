"""Descriptor rings, notification queues, steering tables."""

import pytest

from repro import units
from repro.errors import NicError, NicResourceExhausted, RingEmpty, RingFull
from repro.host import MemorySystem
from repro.net import FiveTuple, IPv4Address, PROTO_TCP
from repro.nic import (
    DescriptorRing,
    Notification,
    NotificationQueue,
    RingPair,
    SteeringTable,
)
from repro.nic.notification import KIND_RX_READY, KIND_TX_DRAINED


def ring(entries=4, size=4_096, name="r"):
    mem = MemorySystem(total_bytes=1 * units.MB)
    return DescriptorRing(entries, mem.alloc_pinned(size, owner="t", name=name), name)


class TestDescriptorRing:
    def test_fifo_post_consume(self):
        r = ring()
        r.post("a")
        r.post("b")
        assert r.consume() == "a"
        assert r.consume() == "b"

    def test_full_and_empty_raise(self):
        r = ring(entries=2)
        r.post(1)
        r.post(2)
        with pytest.raises(RingFull):
            r.post(3)
        r.consume()
        r.consume()
        with pytest.raises(RingEmpty):
            r.consume()

    def test_try_variants(self):
        r = ring(entries=1)
        assert r.try_post("x") is True
        assert r.try_post("y") is False
        assert r.metrics.counter("full_drops").value == 1
        assert r.try_consume() == "x"
        assert r.try_consume() is None

    def test_head_tail_indices(self):
        r = ring(entries=4)
        for i in range(3):
            r.post(i)
        r.consume()
        assert (r.head, r.tail, r.occupancy, r.free_slots) == (3, 1, 2, 2)

    def test_slot_wraps(self):
        r = ring(entries=2)
        assert r.post("a") == 0
        r.consume()
        assert r.post("b") == 1
        r.consume()
        assert r.post("c") == 0

    def test_next_runs_cycle_through_region(self):
        r = ring(entries=4, size=256)  # 4 cache lines
        first = r.next_runs(4)
        again = r.next_runs(4)
        assert first == again  # wrapped around
        lines = {addr + i * r.line_bytes for addr, n in first for i in range(n)}
        assert len(lines) == 4

    def test_ring_pair_pinned_accounting(self):
        mem = MemorySystem(total_bytes=1 * units.MB)
        rx = DescriptorRing(4, mem.alloc_pinned(4_096, owner="c1"), "rx")
        tx = DescriptorRing(4, mem.alloc_pinned(2_048, owner="c1"), "tx")
        pair = RingPair(conn_id=1, rx=rx, tx=tx)
        assert pair.pinned_bytes == 6_144


class TestNotificationQueue:
    def test_subscriber_sees_posts(self):
        q = NotificationQueue(owner_pid=5)
        seen = []
        unsub = q.subscribe(seen.append)
        q.post(Notification(1, KIND_RX_READY, 0))
        q.post(Notification(2, KIND_TX_DRAINED, 1))
        assert [n.conn_id for n in seen] == [1, 2]
        unsub()
        q.post(Notification(3, KIND_RX_READY, 2))
        assert len(seen) == 2
        assert q.metrics.counter("posted").value == 3

    def test_interrupt_toggle(self):
        q = NotificationQueue(owner_pid=5)
        assert not q.interrupts_enabled
        q.enable_interrupts()
        assert q.interrupts_enabled

    def test_validation(self):
        with pytest.raises(NicError):
            Notification(1, "bogus", 0)


class TestSteeringTable:
    def flow(self, sport=1000):
        return FiveTuple(
            PROTO_TCP,
            IPv4Address.parse("10.0.0.1"), sport,
            IPv4Address.parse("10.0.0.2"), 80,
        )

    def test_exact_match_beats_rss(self):
        t = SteeringTable(n_queues=8)
        t.install(self.flow(), conn_id=42)
        assert t.lookup(self.flow()) == 42
        assert t.lookup(self.flow(sport=2000)) is None

    def test_capacity_enforced(self):
        t = SteeringTable(n_queues=4, capacity=2)
        t.install(self.flow(1), 1)
        t.install(self.flow(2), 2)
        with pytest.raises(NicResourceExhausted):
            t.install(self.flow(3), 3)
        # Updating an existing entry does not consume capacity.
        t.install(self.flow(1), 99)
        assert t.lookup(self.flow(1)) == 99

    def test_remove_frees_capacity(self):
        t = SteeringTable(n_queues=4, capacity=1)
        t.install(self.flow(1), 1)
        t.remove(self.flow(1))
        t.install(self.flow(2), 2)
        assert t.entries == 1

    def test_rss_fallback_deterministic_in_range(self):
        t = SteeringTable(n_queues=4)
        q = t.rss_fallback(self.flow())
        assert 0 <= q < 4
        assert q == t.rss_fallback(self.flow())
