"""AccelNet-style hypervisor vswitch offloaded to the NIC.

Performance is bypass-class (the switch sits in NIC hardware, on-path), and
unlike raw bypass there *is* a global interposition point — but it is
logically isolated from the OS: it sees headers, never processes. Owner
rules, cgroup QoS, blocking I/O, and packet→process attribution all refuse,
which is the paper's §1 argument for OS-integrated (not hypervisor-level)
interposition.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CostModel
from ..errors import EndpointClosed, UnsupportedOperation, WouldBlock
from ..host.copies import LAYER_HV_VRING
from ..host.machine import Machine
from ..interpose import InterpositionPoint
from ..interpose.fastpath import CHAIN_VSWITCH
from ..kernel.arp import ArpCache
from ..kernel.kernel import Kernel
from ..kernel.netfilter import NetfilterRule
from ..net.addresses import IPv4Address, MacAddress
from ..net.headers import PROTO_TCP
from ..net.link import Link
from ..net.packet import Packet, make_tcp, make_udp
from ..net.switch import MatchAction
from ..nic.base import BasicNic
from ..nic.rings import DescriptorRing, RingPair
from ..sim import MetricSet, Signal
from ..trace import (
    STAGE_DMA,
    STAGE_NIC_PIPELINE,
    STAGE_RING,
    STAGE_SCHED_WAKE,
    charge,
)
from .base import (
    CaptureSession,
    Dataplane,
    Endpoint,
    PacketFilter,
    QosConfig,
    _as_bool,
)
from .bypass import _message_of


class HypervisorEndpoint(Endpoint):
    """App view: identical to bypass (direct rings, polling only)."""

    def __init__(self, dataplane: "HypervisorDataplane", proc, proto: int, port: int,
                 rings: RingPair):
        super().__init__(dataplane, proc, proto, port)
        self._dp = dataplane
        self.rings = rings
        self.peer: Optional[Tuple[IPv4Address, int]] = None
        self.polls = 0

    @property
    def _core(self):
        return self._dp.machine.cpus[self.proc.core_id]

    def connect(self, dst_ip: IPv4Address, dport: int) -> Signal:
        self.peer = (dst_ip, dport)
        done = Signal("hv.connect")
        self._dp.machine.sim.after(0, done.succeed, True)
        return done

    def send_raw(self, pkt: Packet) -> Signal:
        return _as_bool(self._send_raw_burst((pkt,)), "hv.send")

    def send_burst(
        self, payload_lens: Sequence[int], dst: Optional[Tuple[IPv4Address, int]] = None
    ) -> Signal:
        dst = dst or self.peer
        if dst is None:
            raise UnsupportedOperation("send without destination on unconnected endpoint")
        dst_mac = MacAddress.from_index(dst[0].value & 0xFF_FFFF)
        maker = make_tcp if self.proto == PROTO_TCP else make_udp
        pkts = [
            maker(self._dp.host_mac, dst_mac, self._dp.host_ip, dst[0],
                  self.port, dst[1], length)
            for length in payload_lens
        ]
        return self._send_raw_burst(pkts)

    def _send_raw_burst(self, pkts: Sequence[Packet]) -> Signal:
        result = Signal("hv.send_burst")
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
        cost += charge(STAGE_DMA, self._dp.costs.mmio_write_ns, lead_ctx,
                       label="doorbell")

        def _done(_sig: Signal) -> None:
            posted = 0 if self.closed else self.rings.tx.post_burst(pkts)
            if posted:
                self._dp.nic_consume_tx(self.rings, posted)
            result.succeed(posted)

        self._core.execute(cost, "hv_tx", ctx=lead_ctx).add_callback(_done)
        return result

    def recv_burst(self, max_msgs: int, blocking: bool = True) -> Signal:
        result = Signal("hv.recv_burst")

        def _attempt(_sig: Optional[Signal] = None) -> None:
            if self.closed:
                result.fail(EndpointClosed(f"endpoint :{self.port} closed"))
                return
            pkts = self.rings.rx.consume_burst(max_msgs)
            if pkts:
                cost = sum(
                    charge(STAGE_RING, self._dp.costs.bypass_rx_pkt_ns,
                           p.meta.trace, label="rx_desc")
                    for p in pkts
                )

                def _drained(_s: Signal) -> None:
                    now = self._dp.machine.sim.now
                    for p in pkts:
                        if p.meta.trace is not None:
                            p.meta.trace.fill_gap(STAGE_RING, now, label="ring_wait")
                            p.meta.trace.close(now)
                    result.succeed([_message_of(p) for p in pkts])

                self._core.execute(cost, "hv_rx").add_callback(_drained)
                return
            if not blocking:
                result.fail(WouldBlock(f"ring empty on :{self.port}"))
                return
            self.polls += 1
            self._core.execute(
                self._dp.machine.tracer.loose(
                    STAGE_SCHED_WAKE, self._dp.costs.poll_iteration_ns, label="poll"
                ),
                "poll",
            ).add_callback(_attempt)

        _attempt()
        return result


class HypervisorDataplane(Dataplane):
    """vswitch-on-NIC: global header view, zero process view."""

    name = "hypervisor"
    supports_blocking_io = False

    def __init__(
        self,
        machine: Machine,
        host_ip: IPv4Address,
        host_mac: MacAddress,
        egress: Link,
        n_queues: int = 64,
        ring_entries: int = 256,
    ):
        self.machine = machine
        self.costs: CostModel = machine.costs
        self.host_ip = host_ip
        self.host_mac = host_mac
        self.ring_entries = ring_entries
        machine.tracer.plane = self.name
        self.nic = BasicNic(
            machine.sim, machine.costs, machine.dma, egress, n_queues=n_queues,
            fastpath=machine.fastpath, tracer=machine.tracer,
        )
        self.kernel = Kernel(machine, host_ip, host_mac, nic_send=self.nic.tx)
        self.vswitch_rules: List[MatchAction] = []
        self.arp_observed = ArpCache()
        self.metrics = MetricSet("vswitch")
        self._captures: List[Tuple[Optional[PacketFilter], CaptureSession]] = []
        self._endpoints: List[HypervisorEndpoint] = []
        self._next_conn = 0
        # The vswitch's interposition mechanisms. Header-only match-action
        # compiles from netfilter rules, so the mechanism is "netfilter" even
        # though it runs below the OS ("netfilter" proper is registered by
        # Kernel; its table is off-path here).
        engine = machine.interpose
        self._vswitch_point = engine.register(InterpositionPoint(
            name="vswitch", plane="hypervisor", mechanism="netfilter",
            install_latency_ns=self.costs.table_update_ns,
            target=self.vswitch_rules,
        ))
        self._sniffer_point = engine.register(InterpositionPoint(
            name="sniffer", plane="hypervisor", mechanism="tap",
            install_latency_ns=self.costs.table_update_ns,
            target=self._captures,
        ))
        self.nic.steering.point = engine.register(InterpositionPoint(
            name="steering", plane="nic", mechanism="steering",
            install_latency_ns=self.costs.table_update_ns,
            target=self.nic.steering,
        ))

    # --- vswitch pipeline (runs on the NIC, both directions) ---------------------

    def _vswitch(self, pkt: Packet) -> bool:
        """Returns False when dropped. Header-only: meta.owner_* is never
        consulted — the hypervisor cannot know it."""
        if pkt.is_arp:
            self.arp_observed.observe(pkt, self.machine.sim.now)
        if self._captures:
            mirrored = False
            for match, session in self._captures:
                if match is None or match(pkt):
                    session.packets.append(pkt)
                    mirrored = True
            self._sniffer_point.record_eval(hit=mirrored)
        matched = False
        verdict_drop = False
        if self.vswitch_rules:
            fp = self.machine.fastpath
            ft = pkt.five_tuple if fp is not None else None
            entry = fp.lookup(CHAIN_VSWITCH, ft) if ft is not None else None
            if entry is not None:
                # Hit: cached header verdict, no match-action walk, no eval
                # recorded (the hardware flow cache sits before the rules).
                verdict_drop = entry.verdict == "drop"
            else:
                for rule in self.vswitch_rules:
                    if rule.matches(pkt):
                        matched = True
                        verdict_drop = rule.action == "drop"
                        break
                if fp is not None and ft is not None:
                    fp.install(
                        CHAIN_VSWITCH, ft,
                        verdict="drop" if verdict_drop else "allow",
                        points=("vswitch",),
                    )
                self._vswitch_point.record_eval(hit=matched, dropped=verdict_drop)
        if verdict_drop:
            self.metrics.counter("dropped").inc()
            return False
        return True

    def wire_rx(self, pkt: Packet) -> None:
        if not self._vswitch(pkt):
            return
        self.nic.rx_from_wire(pkt)

    def nic_consume_tx(self, rings: RingPair, count: int = 1) -> None:
        fetch_ns = self.costs.dma_burst_ns(count)
        delay = fetch_ns + self.costs.nic_pipeline_ns

        def _fetch() -> None:
            pkts = rings.tx.consume_burst(count)
            if pkts:
                # The vswitch pulls every guest-posted packet through the
                # vring: interposition by copy, charged to the ledger.
                self.machine.copies.charge(
                    LAYER_HV_VRING,
                    sum(p.wire_len for p in pkts),
                    fetch_ns,
                    ops=len(pkts),
                )
            now = self.machine.sim.now
            for pkt in pkts:
                if pkt.meta.trace is not None:
                    charge(STAGE_NIC_PIPELINE, self.costs.nic_pipeline_ns,
                           pkt.meta.trace, cpu=False, label="tx_pipeline")
                    pkt.meta.trace.fill_gap(STAGE_DMA, now, label="vring_fetch")
                if self._vswitch(pkt):
                    self.nic.tx(pkt)
                elif pkt.meta.trace is not None:
                    pkt.meta.trace.close(now)  # dropped by the vswitch

        self.machine.sim.after(delay, _fetch)

    # --- application surface ------------------------------------------------------

    def open_endpoint(self, proc, proto: int, port: Optional[int] = None) -> HypervisorEndpoint:
        if port is None:
            port = 50_000 + self._next_conn
        if self._next_conn >= len(self.nic.queues):
            from ..errors import NicResourceExhausted

            raise NicResourceExhausted("all vswitch queues claimed")
        conn_id = self._next_conn
        self._next_conn += 1
        rx = DescriptorRing(
            self.ring_entries,
            self.machine.memory.alloc_pinned(self.ring_entries * 64, owner=f"pid{proc.pid}"),
            f"hv.rx{conn_id}",
        )
        tx = DescriptorRing(
            self.ring_entries,
            self.machine.memory.alloc_pinned(self.ring_entries * 64, owner=f"pid{proc.pid}"),
            f"hv.tx{conn_id}",
        )
        rings = RingPair(conn_id, rx=rx, tx=tx)
        self.nic.queues[conn_id].ring = rx
        self.nic.steering.install_dport(proto, port, conn_id)
        ep = HypervisorEndpoint(self, proc, proto, port, rings)
        self._endpoints.append(ep)
        return ep

    # --- administrative surface ------------------------------------------------------

    def install_filter_rule(self, rule: NetfilterRule) -> None:
        """Header rules compile to vswitch match-action; owner rules are
        impossible off-OS."""
        if rule.needs_owner:
            raise UnsupportedOperation(
                "hypervisor vswitch cannot match on process owner: it is "
                "logically isolated from the OS process table"
            )
        self.vswitch_rules.append(
            MatchAction(
                action="drop" if rule.verdict == "DROP" else "allow",
                proto=rule.proto,
                src_ip=rule.src_ip,
                dst_ip=rule.dst_ip,
                sport=rule.sport,
                dport=rule.dport,
            )
        )
        self._vswitch_point.record_update()

    def configure_qos(self, config: QosConfig) -> None:
        raise UnsupportedOperation(
            "hypervisor vswitch cannot shape by cgroup/user/process: "
            "packets carry no process identity (it could shape by port, but "
            "the game hops ports — §2)"
        )

    def start_capture(
        self, match: Optional[PacketFilter] = None, name: str = "capture"
    ) -> CaptureSession:
        """Global capture works — but unattributed."""
        session = CaptureSession(name=name, attributed=False)
        self._captures.append((match, session))
        self._sniffer_point.record_update()

        def _detach() -> None:
            self._captures.remove((match, session))
            self._sniffer_point.record_update()

        session._detach = _detach
        return session

    def attribution_of(self, pkt: Packet) -> Optional[Tuple[int, int, str]]:
        return None  # by construction

    def arp_entries(self) -> List[object]:
        """MAC/IP pairs only; ``source_pid`` is always None here."""
        return self.arp_observed.entries()

    def data_movements(self) -> Dict[str, int]:
        return {"virtual": 0, "virtual_copied_bytes": 0, "physical": 0}
