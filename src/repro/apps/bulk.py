"""Closed-loop bulk sender — the throughput workhorse of E1/E2/E7."""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from ..net.addresses import IPv4Address
from ..dataplanes.testbed import PEER_IP, Testbed
from .base import App


class BulkSender(App):
    """Sends ``count`` messages (or forever) back to back.

    Closed loop: the next send starts when the previous completed, so the
    achieved rate is set by the dataplane's per-message cost and the wire —
    exactly the quantity E1 compares across architectures.
    """

    def __init__(
        self,
        testbed: Testbed,
        payload_len: int = 1_458,
        count: Optional[int] = None,
        dst: Tuple[IPv4Address, int] = (PEER_IP, 9_000),
        burst: int = 1,
        **kwargs,
    ):
        super().__init__(testbed, **kwargs)
        self.payload_len = payload_len
        self.count = count
        self.dst = dst
        self.burst = max(1, burst)
        self.sent = 0
        self.sent_bytes = 0
        self.first_send_ns: Optional[int] = None
        self.last_send_ns: Optional[int] = None

    def run(self) -> Generator:
        yield self.ep.connect(self.dst[0], self.dst[1])
        # Hand the dataplane whole batches so its amortized paths (one
        # doorbell / one sendmmsg crossing per burst) engage; a burst of
        # one is a plain send. A refused send on a closed endpoint ends
        # the run.
        while self.count is None or self.sent < self.count:
            n = self.burst if self.count is None else min(self.burst, self.count - self.sent)
            admitted = yield self.ep.send_burst([self.payload_len] * n)
            if self.first_send_ns is None:
                self.first_send_ns = self.sim.now
            if admitted:
                self.sent += admitted
                self.sent_bytes += admitted * self.payload_len
                self.last_send_ns = self.sim.now
            elif self.ep.closed:
                return

    def goodput_bps(self, end_ns: Optional[int] = None) -> float:
        from .. import units

        if self.first_send_ns is None:
            return 0.0
        end = end_ns if end_ns is not None else self.last_send_ns
        assert end is not None
        return units.throughput_bps(self.sent_bytes, max(1, end - self.first_send_ns))
