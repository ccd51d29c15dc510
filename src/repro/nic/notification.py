"""Shared notification queues (§4.3).

"The Norman dataplane ... allows connections to be configured so that the
NIC adds a notification to a shared notification queue when packets are
added to a queue ... A process's notification queue is accessible to both
the process and the kernel, and the Norman kernel control plane is
responsible for monitoring notifications sent to blocked threads."

The queue therefore has two consumers: the owning process (polling mode)
and the kernel control-plane monitor (blocking mode, via ``subscribe``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from ..errors import NicError
from ..sim import MetricSet

KIND_RX_READY = "rx_ready"
KIND_TX_DRAINED = "tx_drained"

_KINDS = (KIND_RX_READY, KIND_TX_DRAINED)


@dataclass(frozen=True)
class Notification:
    conn_id: int
    kind: str
    time_ns: int

    count: int = 1
    """How many packets this notification covers. A ``tx_drained`` counts
    every packet its doorbell session drained, at any batch size, and a
    fluid epoch's notification counts the epoch's packets. An exact-path
    ``rx_ready`` counts 1; above batch size 1 it also stands for packets
    that land before the reader drains the ring (interrupt coalescing)."""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise NicError(f"unknown notification kind: {self.kind!r}")
        if self.count < 1:
            raise NicError(f"notification must cover >= 1 packet: {self.count}")


class NotificationQueue:
    """One process's notification queue."""

    def __init__(self, owner_pid: int, capacity: int = 4_096, name: str = ""):
        if capacity < 1:
            raise NicError(f"capacity must be >= 1: {capacity}")
        self.owner_pid = owner_pid
        self.capacity = capacity
        self.name = name or f"notifq.pid{owner_pid}"
        self._entries: Deque[Notification] = deque()
        self._subscribers: List[Callable[[Notification], None]] = []
        #: Immutable snapshot iterated by :meth:`post` — rebuilt on
        #: (un)subscribe so the hot path never copies the list.
        self._subs: tuple = ()
        self.metrics = MetricSet(self.name)
        self.interrupts_enabled = False

    def post(self, notif: Notification) -> bool:
        """NIC-side: append a notification; fan out to subscribers.

        Returns False when the queue storage overflowed (the *entry* is
        lost; polling consumers must treat the queue as lossy and rescan).
        Subscribers fire regardless — they tap the post operation itself,
        the way an MSI-X interrupt fires even when the event ring is full —
        so the kernel monitor can never miss a wake-up.
        """
        stored = len(self._entries) < self.capacity
        if stored:
            self._entries.append(notif)
            self.metrics.counter("posted").inc()
        else:
            self.metrics.counter("overflows").inc()
        for sub in self._subs:
            sub(notif)
        return stored

    def subscribe(self, fn: Callable[[Notification], None]) -> Callable[[], None]:
        """Kernel-monitor side: observe every posted notification.
        Returns an unsubscribe callable."""
        self._subscribers.append(fn)
        self._subs = tuple(self._subscribers)

        def _unsubscribe() -> None:
            self._subscribers.remove(fn)
            self._subs = tuple(self._subscribers)

        return _unsubscribe

    def poll(self) -> Optional[Notification]:
        """Process side: consume the oldest notification, if any."""
        if not self._entries:
            return None
        self.metrics.counter("polled").inc()
        return self._entries.popleft()

    def drain(self) -> List[Notification]:
        """Consume everything pending."""
        out = list(self._entries)
        self._entries.clear()
        self.metrics.counter("polled").inc(len(out))
        return out

    @property
    def depth(self) -> int:
        return len(self._entries)

    def enable_interrupts(self, enabled: bool = True) -> None:
        """Control-plane hint: deliver via interrupt for low-activity queues
        (§4.3). The KOPI control plane uses this to choose wake cost."""
        self.interrupts_enabled = enabled
