"""Descriptor rings — the application/NIC shared-memory interface of §4.3.

A ring is a fixed-size circular buffer in pinned host memory with head/tail
indices mirrored in NIC MMIO registers. Applications produce into TX rings
and consume from RX rings "by merely accessing memory" (§4.3); the NIC side
moves packets via DMA.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, List, Optional

from .. import units
from ..errors import RingEmpty, RingFull
from ..host.memory import PinnedRegion
from ..sim import MetricSet


class DescriptorRing:
    """One direction's ring: entries + backing pinned region.

    The stored items are simulation objects (packets / message tuples); the
    region exists so the cache model sees real line addresses, and so pinned
    memory accounting reflects §5's per-connection footprint concern.
    ``line_bytes`` is the cache-line size transfers step through the region
    in; it must match the LLC the lines are written to.
    """

    def __init__(self, entries: int, region: PinnedRegion, name: str = "ring",
                 line_bytes: int = units.CACHE_LINE):
        if entries < 1:
            raise RingFull(f"ring must have at least 1 entry, got {entries}")
        self.entries = entries
        self.region = region
        self.name = name
        self._items: Deque[Any] = deque()
        self.head = 0  # producer index (total produced)
        self.tail = 0  # consumer index (total consumed)
        self.metrics = MetricSet(name)
        self.line_bytes = line_bytes
        self.first_line_addr = region.base - region.base % line_bytes
        self.line_count = -(-(region.end - self.first_line_addr) // line_bytes)
        self._cursor = 0  # round-robin cursor over the region's lines

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def free_slots(self) -> int:
        return self.entries - len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.entries

    def post(self, item: Any) -> int:
        """Produce one entry; returns the slot index. Raises RingFull."""
        if self.is_full:
            self.metrics.counter("full_drops").inc()
            raise RingFull(f"{self.name}: all {self.entries} slots in use")
        slot = self.head % self.entries
        self._items.append(item)
        self.head += 1
        self.metrics.counter("posted").inc()
        return slot

    def try_post(self, item: Any) -> bool:
        """Produce if space; returns False instead of raising."""
        if self.is_full:
            self.metrics.counter("full_drops").inc()
            return False
        self.post(item)
        return True

    def consume(self) -> Any:
        """Consume the oldest entry. Raises RingEmpty."""
        if not self._items:
            raise RingEmpty(f"{self.name}: nothing to consume")
        self.tail += 1
        self.metrics.counter("consumed").inc()
        return self._items.popleft()

    def try_consume(self) -> Optional[Any]:
        return self.consume() if self._items else None

    # --- burst interface ---------------------------------------------------

    def post_burst(self, items: Iterable[Any]) -> int:
        """Produce as many of ``items`` as fit, in order, under one doorbell.

        Returns the number posted; the remainder is dropped (counted in
        ``full_drops``) exactly as a real NIC tail-drops a full ring. Head
        and slot indices wrap identically to repeated :meth:`post` calls.
        """
        posted = 0
        offered = 0
        for item in items:
            offered += 1
            if self.is_full:
                self.metrics.counter("full_drops").inc()
                continue
            self._items.append(item)
            self.head += 1
            posted += 1
        if posted:
            self.metrics.counter("posted").inc(posted)
        if offered > 1:
            self.metrics.counter("burst_posts").inc()
        return posted

    def consume_burst(self, max_items: int) -> List[Any]:
        """Consume up to ``max_items`` oldest entries in FIFO order.

        Returns the (possibly empty) list; tail advances by its length.
        """
        if max_items < 0:
            raise RingEmpty(f"{self.name}: negative burst size {max_items}")
        n = min(max_items, len(self._items))
        out = [self._items.popleft() for _ in range(n)]
        if out:
            self.tail += n
            self.metrics.counter("consumed").inc(n)
        if max_items > 1:
            self.metrics.counter("burst_consumes").inc()
        return out

    def next_runs(self, count: int) -> "list[tuple[int, int]]":
        """The runs of consecutive cache lines, as ``(first address, line
        count)``, that the next transfer of ``count`` lines touches,
        advancing round-robin through the backing region (how a real ring
        cycles through its buffers). A transfer is capped at the region's
        line count; one that reaches the region's end wraps to a second
        run at its start."""
        total = self.line_count
        if count > total:
            count = total
        start = self._cursor % total
        self._cursor += count
        addr = self.first_line_addr + start * self.line_bytes
        head = total - start
        if count <= head:
            return [(addr, count)]
        return [(addr, head), (self.first_line_addr, count - head)]


class RingPair:
    """Per-connection RX+TX rings (§4.3: 'a pair of per-connection
    ring-buffers')."""

    def __init__(self, conn_id: int, rx: DescriptorRing, tx: DescriptorRing):
        self.conn_id = conn_id
        self.rx = rx
        self.tx = tx

    @property
    def pinned_bytes(self) -> int:
        return self.rx.region.size + self.tx.region.size

    def __repr__(self) -> str:
        return f"<RingPair conn={self.conn_id} rx={self.rx.occupancy} tx={self.tx.occupancy}>"
