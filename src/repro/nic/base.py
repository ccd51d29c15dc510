"""The conventional DMA NIC.

Fixed internal pipeline latency; RX steering over N queues; each queue is
either *handled* (a callback, e.g. the kernel stack's softirq entry) or
*pollable* (a descriptor ring an application reads directly, as in kernel
bypass). TX accepts packets from any producer and serializes onto the wire
link.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import CostModel
from ..errors import NicError
from ..host.copies import LAYER_DMA, LAYER_DMA_DIRECT
from ..host.pcie import DmaEngine
from ..interpose.fastpath import CHAIN_STEER
from ..net.link import Link
from ..net.packet import Packet
from ..sim import MetricSet, Simulator
from ..trace import STAGE_DMA, STAGE_NIC_PIPELINE, charge
from .rings import DescriptorRing
from .steering import SteeringTable

RxHandler = Callable[[List[Packet]], None]


class NicQueue:
    """One RX queue: a handler or a pollable ring (exactly one)."""

    def __init__(self, queue_id: int):
        self.queue_id = queue_id
        self.handler: Optional[RxHandler] = None
        self.ring: Optional[DescriptorRing] = None
        # NAPI-style coalescing state.
        self.rx_pending: List[Packet] = []
        self.flush_handle: Optional[object] = None

    def set_handler(self, handler: RxHandler) -> None:
        """Install the softirq entry. It receives each coalesced burst: up
        to the cost model's ``batch_size`` packets, one at batch size 1."""
        if self.ring is not None:
            raise NicError(f"queue {self.queue_id} already has a ring")
        self.handler = handler

    def set_ring(self, ring: DescriptorRing) -> None:
        if self.handler is not None:
            raise NicError(f"queue {self.queue_id} already has a handler")
        self.ring = ring


class BasicNic:
    """Conventional NIC: steer, DMA, hand off. No interposition ability."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        dma: DmaEngine,
        egress: Link,
        n_queues: int = 8,
        name: str = "nic0",
        fastpath=None,
        tracer=None,
    ):
        self.sim = sim
        self.costs = costs
        self.dma = dma
        self.egress = egress
        self.name = name
        # Optional FlowFastPath: caches the steering decision per flow so
        # repeat packets skip the exact-match/RSS classification walk.
        self.fastpath = fastpath
        # Tracing spine: RX contexts open here, where the host first sees
        # the frame (repro.trace). A disabled tracer opens nothing.
        self.tracer = tracer
        self.queues: List[NicQueue] = [NicQueue(i) for i in range(n_queues)]
        self.steering = SteeringTable(n_queues=n_queues, name=f"{name}.steer")
        self.metrics = MetricSet(name)
        self.offline = False

    # --- RX --------------------------------------------------------------

    def rx_from_wire(self, pkt: Packet) -> None:
        """Entry point wired to the ingress link."""
        if self.offline:
            self.metrics.counter("rx_offline_drops").inc()
            return
        self.metrics.counter("rx_pkts").inc()
        self.metrics.meter("rx_bytes").record(self.sim.now, pkt.wire_len)
        if self.tracer is not None:
            ctx = self.tracer.begin(pkt)
            # tenant: the fixed-function NIC is tenant-blind by design (the
            # paper's off-host asymmetry); ownership is resolved when the
            # kernel RX stage stamps meta.tenant_tid and these spans follow
            # the packet's trace to it.
            charge(STAGE_NIC_PIPELINE, self.costs.nic_pipeline_ns, ctx,
                   cpu=False, label="rx_pipeline")
        self.sim.after(self.costs.nic_pipeline_ns, self._rx_steer, pkt)

    def _rx_steer(self, pkt: Packet) -> None:
        queue_id = self.classify_rx(pkt)
        pkt.meta.queue_id = queue_id
        queue = self.queues[queue_id]
        if queue.handler is not None:
            self._rx_coalesce(queue, pkt)
        elif queue.ring is not None:
            if queue.ring.try_post(pkt):
                # Zero-copy delivery: the frame lands directly in the
                # app-visible ring (DDIO); no CPU touches the bytes.
                self.dma.account_placement(LAYER_DMA_DIRECT, pkt.wire_len, 0)
            else:
                self.metrics.counter("rx_ring_drops").inc()
        else:
            self.metrics.counter("rx_unconfigured_drops").inc()

    # --- handler RX (NAPI-style interrupt coalescing) ----------------------

    def _rx_coalesce(self, queue: NicQueue, pkt: Packet) -> None:
        """Buffer the packet; deliver a whole burst to the handler either
        when ``batch_size`` packets are pending or when the coalescing
        window expires — one DMA + one softirq event per burst. At batch
        size 1 every packet flushes at once and no timer is armed."""
        queue.rx_pending.append(pkt)
        if len(queue.rx_pending) >= self.costs.batch_size:
            self._rx_flush(queue)
        elif queue.flush_handle is None:
            queue.flush_handle = self.sim.after(
                self.costs.interrupt_coalesce_ns, self._rx_timer_flush, queue
            )

    def _rx_timer_flush(self, queue: NicQueue) -> None:
        queue.flush_handle = None
        if queue.rx_pending:
            self._rx_flush(queue)

    def _rx_flush(self, queue: NicQueue) -> None:
        if queue.flush_handle is not None:
            queue.flush_handle.cancel()
            queue.flush_handle = None
        burst, queue.rx_pending = queue.rx_pending, []
        if self.costs.batch_size > 1:
            self.metrics.counter("rx_bursts").inc()
        burst_ns = self.costs.dma_burst_ns(len(burst))
        self.dma.account_placement(
            LAYER_DMA, sum(p.wire_len for p in burst), burst_ns, ops=len(burst)
        )
        # One DMA covers the burst: the shared latency lands on the lead
        # packet's trace; siblings absorb it as softirq wait at close time.
        # tenant: RX DMA lands before ownership is known; the kernel RX
        # stage stamps the tenant the trace bills to.
        charge(STAGE_DMA, burst_ns, burst[0].meta.trace, cpu=False,
               label="rx_dma")
        self.sim.after(burst_ns, queue.handler, burst)

    def classify_rx(self, pkt: Packet) -> int:
        """Queue selection: exact steering entry, else RSS, else queue 0."""
        ft = pkt.five_tuple
        if ft is None:
            return 0
        fp = self.fastpath
        if fp is not None:
            entry = fp.lookup(CHAIN_STEER, ft)
            if entry is not None:
                return entry.queue_id
        conn = self.steering.lookup(ft)
        if conn is not None:
            queue_id = conn % len(self.queues)
        else:
            queue_id = self.steering.rss_fallback(ft)
        if fp is not None:
            fp.install(CHAIN_STEER, ft, queue_id=queue_id, points=("steering",))
        return queue_id

    # --- TX ----------------------------------------------------------------

    def tx(self, pkt: Packet) -> bool:
        """Transmit one frame; returns False on egress drop."""
        if self.offline:
            self.metrics.counter("tx_offline_drops").inc()
            return False
        self.metrics.counter("tx_pkts").inc()
        self.metrics.meter("tx_bytes").record(self.sim.now, pkt.wire_len)
        return self.egress.send(pkt)

    # --- administrivia ----------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """ethtool -S flavoured counters."""
        return self.metrics.snapshot()
