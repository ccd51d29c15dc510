"""DPDK-style kernel bypass.

Applications own NIC queues and descriptor rings outright. Per-packet cost
is tiny (tens of nanoseconds, no syscalls, no copies) — and that is the
entire story of §2's pathologies:

* there is no interposition point, so filters/QoS/capture all refuse;
* there is no port arbitration — two apps can claim the same port, and a
  misconfigured app simply takes traffic it shouldn't (the port-partition
  violation E5 counts);
* the kernel cannot see packet arrivals, so blocking I/O is impossible and
  ``recv`` spins, burning the application's core (E6);
* each application speaks its own ARP and the kernel ARP cache stays empty
  (the E4 debugging scenario).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CostModel
from ..errors import EndpointClosed, InvalidSyscall, UnsupportedOperation, WouldBlock
from ..host.copies import LAYER_DMA_DIRECT
from ..host.machine import Machine
from ..interpose import InterpositionPoint
from ..kernel.kernel import Kernel
from ..net.addresses import IPv4Address, MacAddress
from ..net.flow import FiveTuple
from ..net.link import Link
from ..net.packet import Packet
from ..nic.base import BasicNic
from ..nic.rings import DescriptorRing, RingPair
from ..sim import Signal
from ..trace import (
    STAGE_DMA,
    STAGE_NIC_PIPELINE,
    STAGE_RING,
    STAGE_SCHED_WAKE,
    charge,
)
from .base import (
    Dataplane,
    Endpoint,
    _as_bool,
    _message_of,
    _Rearm,
    build_packet_by_ip,
)


class BypassEndpoint(Endpoint):
    """An application's raw queue pair (on the hypervisor plane too: its
    applications see the same rings)."""

    def __init__(
        self,
        dataplane: "BypassDataplane",
        proc,
        proto: int,
        port: int,
        rings: RingPair,
    ):
        super().__init__(dataplane, proc, proto, port)
        self._dp = dataplane
        self.rings = rings
        self.peer: Optional[Tuple[IPv4Address, int]] = None
        self.polls = 0

    @property
    def _core(self):
        return self._dp.machine.cpus[self.proc.core_id]

    def connect(self, dst_ip: IPv4Address, dport: int) -> Signal:
        """Purely local: record the peer and steer the return flow. No
        kernel involvement at all."""
        self.peer = (dst_ip, dport)
        self._dp.steer_return_flow(self, dst_ip, dport)
        done = Signal("bypass.connect")
        self._dp.machine.sim.after(0, done.succeed, True)
        return done

    def send_raw(self, pkt: Packet) -> Signal:
        """Raw injection — bypass apps can put anything on the wire, which
        is exactly why Alice cannot enforce her policies."""
        return _as_bool(self.send_raw_burst((pkt,)), "bypass.send")

    def send_burst(
        self, payload_lens: Sequence[int], dst: Optional[Tuple[IPv4Address, int]] = None
    ) -> Signal:
        dst = dst or self.peer
        if dst is None:
            raise UnsupportedOperation("send without destination on unconnected endpoint")
        pkts = [
            self._dp.build_packet(self, dst[0], dst[1], length) for length in payload_lens
        ]
        return self.send_raw_burst(pkts)

    def send_raw_burst(self, pkts: Sequence[Packet]) -> Signal:
        """Post a descriptor burst under ONE doorbell: per-packet userspace
        work, a single MMIO write, a single DMA fetch on the NIC side."""
        result = Signal("bypass.send_burst")
        tracer = self._dp.machine.tracer
        now = self._dp.machine.sim.now
        lead_ctx = None
        cost = 0
        for pkt in pkts:
            pkt.meta.created_ns = now
            ctx = tracer.begin(pkt)
            if lead_ctx is None:
                lead_ctx = ctx
            cost += charge(STAGE_RING, self._dp.costs.bypass_tx_pkt_ns, ctx,
                           label="tx_desc")
        # One doorbell covers the burst; the MMIO lands on the lead trace.
        cost += charge(STAGE_DMA, self._dp.costs.mmio_write_ns, lead_ctx,
                       label="doorbell")

        self._core.execute(cost, "bypass_tx", ctx=lead_ctx).add_callback(
            _RingPost(self, pkts, result)
        )
        return result

    def recv_burst(self, max_msgs: int, blocking: bool = True) -> Signal:
        """Drain up to ``max_msgs`` descriptors in one poll: one descriptor-
        batch read, per-packet header processing. ``blocking=True`` here
        means *spin until data*: the core stays 100% busy — there is
        nothing to sleep on."""
        if max_msgs < 1:
            raise InvalidSyscall(f"recv_burst of {max_msgs} messages")
        result = Signal("bypass.recv_burst")
        _RingPoll(self, result, max_msgs, blocking)()
        return result


class _RingPost:
    """The rest of a ``send_raw_burst`` once its userspace work is done:
    post the burst and hand what fit to the NIC."""

    __slots__ = ("ep", "pkts", "result")

    def __init__(self, ep: BypassEndpoint, pkts: Sequence[Packet], result: Signal):
        self.ep = ep
        self.pkts = pkts
        self.result = result

    def __call__(self, _sig: Signal) -> None:
        ep = self.ep
        if ep.closed:
            self.result.succeed(0)
            return
        posted = ep.rings.tx.post_burst(self.pkts)
        if posted:
            ep._dp.nic_consume_tx(ep.rings, posted)
        self.result.succeed(posted)


class _RingPoll(_Rearm):
    """One ``recv_burst``: drain the RX ring and read the descriptors on
    the application core, or, blocking, spin one poll iteration on that
    core and try again."""

    __slots__ = ("ep", "result", "max_msgs", "blocking", "pkts")

    def __init__(self, ep: BypassEndpoint, result: Signal, max_msgs: int, blocking: bool):
        self.ep = ep
        self.result = result
        self.max_msgs = max_msgs
        self.blocking = blocking

    def step(self) -> Optional[Signal]:
        ep = self.ep
        if ep.closed:
            self.result.fail(EndpointClosed(f"endpoint :{ep.port} closed"))
            return None
        pkts = ep.rings.rx.consume_burst(self.max_msgs)
        dp = ep._dp
        if pkts:
            self.pkts = pkts
            cost = sum(
                charge(STAGE_RING, dp.costs.bypass_rx_pkt_ns,
                       p.meta.trace, label="rx_desc")
                for p in pkts
            )
            ep._core.execute(cost, "bypass_rx").add_callback(self.drained)
            return None
        if not self.blocking:
            self.result.fail(WouldBlock(f"ring empty on :{ep.port}"))
            return None
        ep.polls += 1
        return ep._core.execute(
            dp.machine.tracer.loose(
                STAGE_SCHED_WAKE, dp.costs.poll_iteration_ns, label="poll"
            ),
            "poll",
        )

    def drained(self, _s: Signal) -> None:
        now = self.ep._dp.machine.sim.now
        pkts = self.pkts
        for p in pkts:
            if p.meta.trace is not None:
                # Ring residency + poll/batch wait, then done.
                p.meta.trace.fill_gap(STAGE_RING, now, label="ring_wait")
                p.meta.trace.close(now)
        self.result.succeed([_message_of(p) for p in pkts])


class BypassDataplane(Dataplane):
    """Apps directly on the NIC; the kernel exists but is off-path."""

    name = "bypass"
    supports_blocking_io = False
    #: Span label of the TX fetch's wait, after the pipeline latency.
    tx_fetch_label = "desc_fetch"

    def __init__(
        self,
        machine: Machine,
        host_ip: IPv4Address,
        host_mac: MacAddress,
        egress: Link,
        n_queues: int = 64,
    ):
        self.machine = machine
        self.costs: CostModel = machine.costs
        self.host_ip = host_ip
        self.host_mac = host_mac
        machine.tracer.plane = self.name
        self.nic = BasicNic(
            machine.sim, machine.costs, machine.dma, egress, n_queues=n_queues,
            fastpath=machine.fastpath, tracer=machine.tracer,
        )
        # The kernel still runs the machine — it is just not on the datapath.
        self.kernel = Kernel(machine, host_ip, host_mac, nic_send=self.nic.tx)
        # Fixed-function NIC steering is the ONLY interposition mechanism a
        # bypass deployment has ("netfilter" is registered by Kernel but its
        # table is off-path) — the engine's registry makes that legible.
        self.nic.steering.point = machine.interpose.register(InterpositionPoint(
            name="steering", plane="nic", mechanism="steering",
            install_latency_ns=self.costs.table_update_ns,
            target=self.nic.steering,
        ))
        self._endpoints: List[BypassEndpoint] = []
        self._next_conn = 0

    # --- wire plumbing ---------------------------------------------------------

    def wire_rx(self, pkt: Packet) -> None:
        self.nic.rx_from_wire(pkt)

    def nic_consume_tx(self, rings: RingPair, count: int = 1) -> None:
        """NIC side: fetch ``count`` posted descriptors in one DMA
        transaction and transmit them — one event per burst."""
        fetch_ns = self.costs.dma_burst_ns(count)
        delay = fetch_ns + self.costs.nic_pipeline_ns

        def _fetch() -> None:
            pkts = rings.tx.consume_burst(count)
            if pkts:
                self._account_tx_fetch(sum(p.wire_len for p in pkts), fetch_ns, len(pkts))
            now = self.machine.sim.now
            for pkt in pkts:
                if pkt.meta.trace is not None:
                    # Known pipeline latency, then whatever else elapsed
                    # (descriptor fetch, burst siblings) as DMA wait.
                    charge(STAGE_NIC_PIPELINE, self.costs.nic_pipeline_ns,
                           pkt.meta.trace, cpu=False, label="tx_pipeline")
                    pkt.meta.trace.fill_gap(STAGE_DMA, now, label=self.tx_fetch_label)
                self._transmit(pkt, now)

        self.machine.sim.after(delay, _fetch)

    def _account_tx_fetch(self, nbytes: int, fetch_ns: int, ops: int) -> None:
        """Hardware fetch straight from app-owned rings: no CPU copy."""
        self.machine.dma.account_placement(LAYER_DMA_DIRECT, nbytes, fetch_ns, ops=ops)

    def _transmit(self, pkt: Packet, now: int) -> None:
        """Put one fetched TX packet on the wire."""
        self.nic.tx(pkt)

    # --- application surface ------------------------------------------------------

    def open_endpoint(self, proc, proto: int, port: Optional[int] = None) -> BypassEndpoint:
        """Claim a queue. NOTE: no conflict detection — any app can steer
        any port to itself. That is a feature of the measurement, not a bug
        of the model."""
        if port is None:
            port = 50_000 + self._next_conn
        conn_id = self._allocate_queue()
        rx_entries = self.costs.rx_ring_entries
        tx_entries = self.costs.tx_ring_entries
        region_rx = self.machine.memory.alloc_pinned(
            rx_entries * 64, owner=f"pid{proc.pid}", name=f"rx{conn_id}"
        )
        region_tx = self.machine.memory.alloc_pinned(
            tx_entries * 64, owner=f"pid{proc.pid}", name=f"tx{conn_id}"
        )
        rings = RingPair(
            conn_id,
            rx=DescriptorRing(rx_entries, region_rx, f"rx{conn_id}"),
            tx=DescriptorRing(tx_entries, region_tx, f"tx{conn_id}"),
        )
        self.nic.queues[conn_id % len(self.nic.queues)].ring = rings.rx
        self.nic.steering.install_dport(proto, port, conn_id)
        ep = BypassEndpoint(self, proc, proto, port, rings)
        self._endpoints.append(ep)
        return ep

    def _allocate_queue(self) -> int:
        if self._next_conn >= len(self.nic.queues):
            from ..errors import NicResourceExhausted

            raise NicResourceExhausted(
                f"all {len(self.nic.queues)} NIC queues claimed by applications"
            )
        conn = self._next_conn
        self._next_conn += 1
        return conn

    build_packet = build_packet_by_ip

    def steer_return_flow(self, ep: BypassEndpoint, dst_ip: IPv4Address, dport: int) -> None:
        """The app installs an exact NIC steering entry for its return
        flow — one steering commit per connect."""
        flow = FiveTuple(ep.proto, self.host_ip, ep.port, dst_ip, dport)
        self.nic.steering.install(flow.reversed(), ep.rings.conn_id)

    # --- the administrative surface refuses everything (inherited) -----------------

    def data_movements(self) -> Dict[str, int]:
        return {"virtual": 0, "virtual_copied_bytes": 0, "physical": 0}

    def total_polls(self) -> int:
        return sum(ep.polls for ep in self._endpoints)
