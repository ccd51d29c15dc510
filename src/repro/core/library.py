"""The Norman userspace library (§4.2/§4.3).

POSIX-shaped send/recv over per-connection rings: sends post a descriptor
and ring the doorbell; receives consume directly from the RX ring. Blocking
variants go through the control plane's notification machinery instead of
spinning. Connections that fell back to the software path (§5) transparently
use the kernel stack — same API, kernel-path costs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import EndpointClosed, InvalidSyscall, UnsupportedOperation, WouldBlock
from ..net.addresses import IPv4Address
from ..net.headers import PROTO_TCP
from ..net.packet import Packet, UdpTemplate, make_tcp, make_udp
from ..sim import Signal
from ..trace import STAGE_COHERENCE, STAGE_DMA, STAGE_RING, charge
from ..dataplanes.base import Endpoint, Message, _as_bool, _message_of, _Rearm
from .connection import NormanConnection


class NormanEndpoint(Endpoint):
    """Application handle over one Norman connection."""

    def __init__(self, norman, conn: NormanConnection):
        super().__init__(norman, conn.proc, conn.proto, conn.port)
        self._os = norman
        self.conn = conn

    @property
    def _core(self):
        return self._os.machine.cpus[self.proc.core_id]

    @property
    def _costs(self):
        return self._os.machine.costs

    # --- connection -----------------------------------------------------

    def connect(self, dst_ip: IPv4Address, dport: int) -> Signal:
        return self._os.control.connect_peer(self.conn, dst_ip, dport)

    def close(self) -> None:
        if not self.closed:
            self._os.control.close_connection(self.conn)
        super().close()

    # --- TX ------------------------------------------------------------------

    def send_burst(
        self, payload_lens: Sequence[int], dst: Optional[Tuple[IPv4Address, int]] = None
    ) -> Signal:
        dst = dst or self.conn.sock.peer
        if dst is None:
            raise UnsupportedOperation("send without destination on unconnected endpoint")
        if self.conn.fallback:
            return self._os.kernel.netstack.sendmmsg(
                self.proc, self.conn.sock, dst[0], dst[1], payload_lens
            )
        ff = self._os.machine.ff
        if ff is not None:
            # TX-side fast-forward: a steady single-packet send on a
            # promoted flow is absorbed here — it never builds a Packet,
            # never enters the ring, fires zero simulator events. The
            # epoch flush replays its full chain later.
            from ..net.flow import FiveTuple

            key = FiveTuple(
                proto=self.proto, src_ip=self._os.kernel.host_ip,
                sport=self.port, dst_ip=dst[0], dport=dst[1],
            )
            absorbed = ff.absorb_send(key, payload_lens)
            if absorbed:
                done = Signal("norman.send_burst")
                done.succeed(absorbed)
                return done
        pkts = [self._build(dst[0], dst[1], length) for length in payload_lens]
        return self.send_raw_burst(pkts)

    def send_raw(self, pkt: Packet) -> Signal:
        """Zero-copy post + doorbell. Blocks (via the tx_drained
        notification) when the TX ring is full."""
        return _as_bool(self.send_raw_burst((pkt,)), "norman.send")

    def send_raw_burst(self, pkts: Sequence[Packet]) -> Signal:
        """Post a descriptor burst under ONE doorbell. Blocks (via the
        tx_drained notification) for the remainder when the ring fills —
        each retry rings the doorbell once for what it managed to post."""
        if self.conn.fallback:
            raise UnsupportedOperation("fallback connections cannot inject raw frames")
        result = Signal("norman.send_burst")
        tracer = self._os.machine.tracer
        now = self._os.machine.sim.now
        lead_ctx = None
        cost = 0
        for pkt in pkts:
            pkt.meta.created_ns = now
            ctx = tracer.begin(pkt)
            if lead_ctx is None:
                lead_ctx = ctx
            cost += charge(STAGE_RING, self._costs.bypass_tx_pkt_ns, ctx,
                           label="tx_desc")
        # mmio_write_cost both prices the doorbell and counts it — once for
        # the whole burst, which is exactly what batching amortizes (the
        # MMIO nanoseconds land on the lead packet's trace).
        cost += charge(STAGE_DMA, self._os.machine.dma.mmio_write_cost(),
                       lead_ctx, label="doorbell")
        self._core.execute(cost, "norman_tx", ctx=lead_ctx).add_callback(
            _NormanSend(self, pkts, result)
        )
        return result

    def _build(self, dst_ip: IPv4Address, dport: int, payload_len: int) -> Packet:
        kernel = self._os.kernel
        # As on the kernel path, the MAC is resolved on every send and is
        # part of the shape. Only UDP sends set a template.
        dst_mac = kernel.mac_for(dst_ip)
        key = (dst_ip, dst_mac, dport, payload_len)
        template = self.udp_template
        if template is not None and template.key == key:
            return Packet(template.eth, template.ipv4, template.udp, None, payload_len)
        if self.proto == PROTO_TCP:
            return make_tcp(kernel.host_mac, dst_mac, kernel.host_ip, dst_ip,
                            self.port, dport, payload_len)
        pkt = make_udp(kernel.host_mac, dst_mac, kernel.host_ip, dst_ip,
                       self.port, dport, payload_len)
        self.udp_template = UdpTemplate(key, pkt)
        return pkt

    # --- RX -----------------------------------------------------------------------

    def recv_burst(self, max_msgs: int, blocking: bool = True) -> Signal:
        """Drain up to ``max_msgs`` ring entries under one library call:
        one wakeup, one CPU dispatch, per-packet memory-read costs.

        The read cost is honest about the memory hierarchy: freshly
        DMA-written lines are cheap while the active working set fits DDIO
        and DRAM-expensive once it does not — the E8 mechanism.
        """
        if max_msgs < 1:
            raise InvalidSyscall(f"recv_burst of {max_msgs} messages")
        if self.conn.fallback:
            return self._os.kernel.netstack.recvmmsg(
                self.proc, self.conn.sock, max_msgs, blocking=blocking
            )
        result = Signal("norman.recv_burst")
        _NormanRead(self, result, max_msgs, blocking)()
        return result

    def _consume_fluid(self, max_msgs: int) -> List[Message]:
        """Take up to ``max_msgs`` messages of fast-forward receive credit.
        Flushes the connection's pending epochs first so every message
        handed out has had its costs charged before the data is read."""
        ff = self._os.machine.ff
        if ff is None:
            return []
        ff.flush_conn(self.conn.conn_id)
        chunks = self.conn.fluid_rx
        msgs: List[Message] = []
        while chunks and len(msgs) < max_msgs:
            chunk = chunks[0]
            take = min(chunk[0], max_msgs - len(msgs))
            msgs.extend([(chunk[1], chunk[2], chunk[3])] * take)
            chunk[0] -= take
            if chunk[0] == 0:
                chunks.pop(0)
        return msgs

    def _read_cost(self, pkt: Packet) -> int:
        runs = pkt.meta.notes.get("lines")
        machine = self._os.machine
        llc = machine.llc
        if llc is not None and runs:
            costs = self._costs
            total = 0
            for addr, n in runs:
                hits = llc.cpu_read(addr, n)
                total += hits * costs.llc_hit_ns + (n - hits) * costs.dram_ns
            return total
        n_lines = sum(n for _addr, n in runs) if runs else 2
        return machine.ddio_model.read_cost_ns(
            self._os.control.active_hot_bytes(), n_lines
        )


class _NormanSend(_Rearm):
    """One ``send_raw_burst`` once its userspace work is done: post what
    fits and ring the doorbell for it, then wait on the ``tx_drained``
    notification and post the rest."""

    __slots__ = ("ep", "pkts", "result", "posted")

    def __init__(self, ep: NormanEndpoint, pkts: Sequence[Packet], result: Signal):
        self.ep = ep
        self.pkts = pkts
        self.result = result
        self.posted = 0

    def step(self) -> Optional[Signal]:
        ep = self.ep
        if ep.closed:
            self.result.succeed(self.posted)
            return None
        posted_now = ep.conn.rings.tx.post_burst(self.pkts[self.posted:])
        if posted_now:
            self.posted += posted_now
            ep._os.nic.doorbell(ep.conn)
        if self.posted >= len(self.pkts):
            self.result.succeed(self.posted)
            return None
        return ep._os.control.block_on_tx(ep.conn, ep.proc)


class _NormanRead(_Rearm):
    """One ``recv_burst``: drain the RX ring (or fast-forward credit) and
    read the packets on the application core, or block on the
    ``rx_ready`` notification and try again."""

    __slots__ = ("ep", "result", "max_msgs", "blocking", "pkts", "fluid")

    def __init__(self, ep: NormanEndpoint, result: Signal, max_msgs: int, blocking: bool):
        self.ep = ep
        self.result = result
        self.max_msgs = max_msgs
        self.blocking = blocking

    def step(self) -> Optional[Signal]:
        ep = self.ep
        if ep.closed:
            self.result.fail(EndpointClosed(f"endpoint :{ep.port} closed"))
            return None
        max_msgs = self.max_msgs
        pkts = ep.conn.rings.rx.consume_burst(max_msgs)
        if pkts:
            # A flow can straddle fidelity modes mid-burst (exact packets
            # in the ring, absorbed ones as credit): serve both under the
            # one call, ring first.
            self.pkts = pkts
            self.fluid = (
                ep._consume_fluid(max_msgs - len(pkts)) if len(pkts) < max_msgs else None
            )
            cost = sum(
                charge(STAGE_RING, ep._costs.bypass_rx_pkt_ns,
                       p.meta.trace, label="rx_desc")
                + charge(STAGE_COHERENCE, ep._read_cost(p),
                         p.meta.trace, label="mem_read")
                for p in pkts
            )
            ep._core.execute(cost, "norman_rx").add_callback(self.drained)
            return None
        # Ring empty: fast-forwarded packets never occupied ring slots —
        # their delivery is fluid credit on the connection, charged (CPU,
        # ring, memory-read stages) at epoch flush, not here.
        fluid = ep._consume_fluid(max_msgs)
        if fluid:
            self.result.succeed(fluid)
            return None
        if not self.blocking:
            self.result.fail(WouldBlock(f"ring empty on :{ep.port}"))
            return None
        return ep._os.control.block_on_rx(ep.conn, ep.proc)

    def drained(self, _s: Signal) -> None:
        now = self.ep._os.machine.sim.now
        pkts = self.pkts
        for p in pkts:
            if p.meta.trace is not None:
                # Ring residency + wakeup wait, then done.
                p.meta.trace.fill_gap(STAGE_RING, now, label="ring_wait")
                p.meta.trace.close(now)
        msgs = [_message_of(p) for p in pkts]
        if self.fluid:
            msgs += self.fluid
        self.result.succeed(msgs)
