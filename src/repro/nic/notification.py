"""Shared notification queues (§4.3).

"The Norman dataplane ... allows connections to be configured so that the
NIC adds a notification to a shared notification queue when packets are
added to a queue ... A process's notification queue is accessible to both
the process and the kernel, and the Norman kernel control plane is
responsible for monitoring notifications sent to blocked threads."

In this model no process polls the queue: the kernel control-plane
monitor subscribes to it and sees each notification as it is posted, so
a post is a fan-out to the subscribers and nothing is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

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

    def __init__(self, owner_pid: int):
        self.owner_pid = owner_pid
        self._subscribers: List[Callable[[Notification], None]] = []
        #: Immutable snapshot iterated by :meth:`post` — rebuilt on
        #: (un)subscribe so the hot path never copies the list.
        self._subs: tuple = ()
        self.metrics = MetricSet(f"notifq.pid{owner_pid}")
        self.interrupts_enabled = False

    def post(self, notif: Notification) -> None:
        """NIC-side: count the notification and fan it out to the
        subscribers, the way an MSI-X interrupt taps the event."""
        self.metrics.counter("posted").inc()
        for sub in self._subs:
            sub(notif)

    def subscribe(self, fn: Callable[[Notification], None]) -> Callable[[], None]:
        """Kernel-monitor side: observe every posted notification.
        Returns an unsubscribe callable."""
        self._subscribers.append(fn)
        self._subs = tuple(self._subscribers)

        def _unsubscribe() -> None:
            self._subscribers.remove(fn)
            self._subs = tuple(self._subscribers)

        return _unsubscribe

    def enable_interrupts(self, enabled: bool = True) -> None:
        """Control-plane hint: deliver via interrupt for low-activity queues
        (§4.3). The KOPI control plane uses this to choose wake cost."""
        self.interrupts_enabled = enabled
