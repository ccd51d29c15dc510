"""Closed-loop RPC client measuring request latency."""

from __future__ import annotations

from typing import Generator, Tuple

from ..net.addresses import IPv4Address
from ..dataplanes.testbed import PEER_IP, Testbed
from ..trace import STAGE_SCHED_WAKE
from .base import App


class RpcClient(App):
    """Request/response against an echoing peer; records RTT percentiles."""

    def __init__(
        self,
        testbed: Testbed,
        request_len: int = 128,
        count: int = 100,
        dst: Tuple[IPv4Address, int] = (PEER_IP, 9_100),
        think_ns: int = 0,
        polling: bool = False,
        **kwargs,
    ):
        super().__init__(testbed, **kwargs)
        self.request_len = request_len
        self.count = count
        self.dst = dst
        self.think_ns = think_ns
        self.polling = polling
        """Spin on non-blocking recv instead of sleeping — isolates the
        dataplane's latency from the blocking wake-up cost (the S1
        comparison needs both numbers)."""
        self.completed = 0

    def _await_reply(self) -> Generator:
        if not self.polling:
            return (yield self.ep.recv(blocking=True))
        from ..errors import WouldBlock

        core = self.tb.machine.cpus[self.proc.core_id]
        poll_ns = self.tb.machine.costs.poll_iteration_ns
        while True:
            try:
                return (yield self.ep.recv(blocking=False))
            except WouldBlock:
                yield core.execute(
                    self.tb.machine.tracer.loose(
                        STAGE_SCHED_WAKE, poll_ns, label="rpc_poll"
                    ),
                    "rpc_poll",
                )

    def run(self) -> Generator:
        yield self.ep.connect(self.dst[0], self.dst[1])
        for _ in range(self.count):
            start = self.sim.now
            yield self.ep.send(self.request_len)
            yield from self._await_reply()
            self.stats.histogram("rtt_ns").observe(self.sim.now - start)
            self.completed += 1
            if self.think_ns:
                yield self.think_ns

    @property
    def rtt(self):
        return self.stats.histogram("rtt_ns")
