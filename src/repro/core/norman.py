"""NormanOS — the assembled KOPI operating system (Figure 1).

Implements the same :class:`~repro.dataplanes.base.Dataplane` interface as
the baselines, so every experiment can swap it in directly. The claims it
embodies:

* dataplane packets never pass the software kernel (bypass-class per-packet
  cost);
* the kernel configures the NIC, so iptables/tc/tcpdump/netstat keep
  working — including owner matches and cgroup shaping;
* blocking I/O works via notification queues;
* every packet is attributable to a process.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import units
from ..config import CostModel
from ..errors import SimulationError
from ..host.copies import LAYER_DMA, LAYER_DMA_DIRECT
from ..host.machine import Machine
from ..interpose import InterpositionPoint
from ..interpose.fastpath import CHAIN_KOPI_RX, CHAIN_KOPI_TX
from ..kernel.kernel import Kernel
from ..kernel.netfilter import NetfilterRule
from ..kernel.qdisc import DEFAULT_CLASS
from ..net.addresses import IPv4Address, MacAddress
from ..net.capture import Sniffer
from ..net.link import Link
from ..net.packet import Packet
from ..nic.notification import KIND_RX_READY, KIND_TX_DRAINED
from ..overlay.isa import VERDICT_DROP
from ..sim import Signal
from ..sim.fastforward import FlowProfile
from ..trace import (
    STAGE_COHERENCE,
    STAGE_DMA,
    STAGE_FASTPATH,
    STAGE_NIC_PIPELINE,
    STAGE_RING,
    STAGE_WIRE,
)
from ..dataplanes.base import Dataplane, QosConfig, describe_qos
from .control_plane import ControlPlane
from .library import NormanEndpoint
from .nic_dataplane import KOPI_BITSTREAM, SLOT_POLICER, KopiNic


class NormanOS(Dataplane):
    """KOPI: kernel-managed dataplane on a programmable SmartNIC."""

    name = "kopi"
    supports_blocking_io = True

    def __init__(
        self,
        machine: Machine,
        host_ip: IPv4Address,
        host_mac: MacAddress,
        egress: Link,
        shared_rings: bool = False,
    ):
        self.machine = machine
        self.costs: CostModel = machine.costs
        machine.tracer.plane = self.name
        self.sniffer = Sniffer(machine.sim)
        self.nic = KopiNic(machine, egress, self.sniffer)
        # The NIC ships factory-flashed with the KOPI image; later policy
        # changes use overlay loads, feature changes use load_bitstream.
        self.nic.fpga.factory_flash(KOPI_BITSTREAM)
        # Software-path egress (fallback connections, kernel's own traffic)
        # still flows through the NIC scheduler and the sniffer, so the
        # global view holds even for slow-path packets.
        self.kernel = Kernel(
            machine, host_ip, host_mac,
            nic_send=self._slowpath_tx, tx_rate_bps=egress.rate_bps,
        )
        self.control = ControlPlane(self.kernel, self.nic, machine, shared_rings=shared_rings)
        # KOPI's on-NIC mechanisms, registered with the machine's engine
        # ("netfilter" comes from Kernel, "overlay_filters" and "conntrack"
        # from the control plane).
        engine = machine.interpose
        self.sniffer.point = engine.register(InterpositionPoint(
            name="sniffer", plane="nic", mechanism="tap",
            install_latency_ns=self.costs.table_update_ns,
            target=self.sniffer,
        ))
        qdisc_point = engine.register(InterpositionPoint(
            name="qdisc", plane="nic", mechanism="qdisc",
            install_latency_ns=self.costs.table_update_ns,
            target=self.nic.scheduler,
        ))
        qdisc_point.describe = lambda: describe_qos(qdisc_point.policy)
        self.nic.scheduler.point = qdisc_point
        self.nic.steering.point = engine.register(InterpositionPoint(
            name="steering", plane="nic", mechanism="steering",
            install_latency_ns=self.costs.table_update_ns,
            target=self.nic.steering,
        ))
        # Hybrid fidelity: the NIC promotes flows through us and the egress
        # scheduler's backlog is a demotion boundary. (Policy commits and
        # verdict-cache events are wired machine-wide by Machine itself.)
        if machine.ff is not None:
            self.nic.ff_plane = self
            if self.costs.ff_tx:
                self.tx_ff = KopiTxFastForward(self)
                self.nic.tx_ff_plane = self.tx_ff
            self.nic.scheduler.backlog_demote_threshold = (
                self.costs.ff_qdisc_backlog)
            self.nic.scheduler.on_backlog_pressure = machine.ff.on_qdisc_pressure
        # Per-tenant egress scheduling: replace the factory FIFO drain with
        # a DRR/WFQ discipline holding one class per tenant, and rebuild it
        # whenever the registry changes (new tenant, weight update). The
        # qdisc interposition point stays attached to the runner, so the
        # swap is a recorded commit like any tc change.
        if self.costs.tenant_isolation:
            self._install_tenant_scheduler()
            machine.tenants.on_change.append(self._install_tenant_scheduler)

    def _install_tenant_scheduler(self) -> None:
        """Build the per-tenant egress qdisc from the registry's weight map.

        DRR with per-weight quanta *is* a packetized weighted fair queue,
        so one discipline realizes both DRR and WFQ semantics
        (docs/multi_tenancy.md)."""
        from ..kernel.qdisc import DrrQdisc

        weights = self.machine.tenants.sched_weights()
        self.nic.set_scheduler(
            DrrQdisc(weights, quantum_bytes=self.costs.tenant_quantum_bytes),
            set(weights),
        )
        self.nic.tenant_classes = True

    # --- wire plumbing ------------------------------------------------------

    def wire_rx(self, pkt: Packet) -> None:
        self.nic.rx_from_wire(pkt)

    def wire_rx_fluid(self, n: int, wire_len: int, dport: int = 0,
                      flow=None, eth_dst=None) -> None:
        """Bulk counterpart of :meth:`wire_rx` for the cross-machine fluid
        path: a sender-side TX epoch arriving over the switch lands directly
        in this host's promoted RX flow. The rack promotion protocol
        guarantees the receiver is fluid for ``flow`` (the gate checks it,
        and any RX demotion demotes the sender first), so a miss here is a
        protocol violation, not a slow path."""
        ff = self.machine.ff
        if ff is None or flow is None or not ff.absorb(flow, n):
            raise SimulationError(
                f"{self.name}: fluid wire arrival for {flow!r} with no "
                "promoted RX flow — the rack promotion protocol was "
                "bypassed")

    def _slowpath_tx(self, pkt: Packet) -> None:
        self.sniffer.mirror(pkt)
        self.nic.scheduler.submit(pkt, DEFAULT_CLASS)

    # --- application surface ---------------------------------------------------

    def open_endpoint(self, proc, proto: int, port: Optional[int] = None) -> NormanEndpoint:
        conn = self.control.open_connection(proc, proto, port)
        return NormanEndpoint(self, conn)

    # --- administrative surface ---------------------------------------------------

    def install_filter_rule(self, rule: NetfilterRule) -> Signal:
        """Owner rules welcome: the control plane resolves them to
        connection ids and compiles an overlay program."""
        return self.control.install_filter_rule(rule)

    def configure_qos(self, config: QosConfig) -> Signal:
        return self.control.configure_qos(config)

    def arp_entries(self) -> List[object]:
        return self.kernel.arp_cache.entries()

    def data_movements(self) -> Dict[str, int]:
        """Steady-state dataplane movement is zero; syscalls happen only at
        connection setup and policy changes (the control plane)."""
        return {
            "virtual": 0,
            "virtual_copied_bytes": 0,
            "physical": 0,
            "control_plane_syscalls": self.kernel.syscalls.total_syscalls,
        }

    # --- hybrid fidelity -----------------------------------------------------

    def _ff_steady(self, chain: str, flow):
        """``(entry, conn)`` when ``flow`` is in steady state on ``chain``
        (KOPI RX or TX), else None. Steady state on KOPI means: the composed
        verdict (steering + overlay filter + conntrack attach) is live in the
        flow cache and is not a drop, it delivers to a healthy NIC-resident
        connection, and nothing that inspects, rewrites or arbitrates
        individual packets is attached: no capture session (the sniffer must
        see real packets), no NAT (per-packet rewrites), no structural LLC
        (per-line cache state would make the frozen read cost wrong), and no
        tenant isolation (the per-tenant pipeline and DMA arbiters and the
        per-tenant egress classes are load-dependent per-packet state)."""
        machine = self.machine
        if (self.sniffer.active_sessions or self.nic.nat is not None
                or machine.llc is not None or machine.tenants.isolation):
            return None
        entry = machine.fastpath.peek(chain, flow)
        if (entry is None or entry.conn_id is None
                or entry.verdict == VERDICT_DROP):
            return None
        conn = self.nic.conn_resolver(entry.conn_id)
        if conn is None or conn.closed or conn.fallback:
            return None
        return entry, conn

    def _ff_freeze(self, spans, deliver, entry, conn, pkt) -> FlowProfile:
        """The :class:`FlowProfile` of a steady flow on either chain: its
        per-packet spans and side effects, on the owner's core, keyed by the
        verdict's chain versions and (with tenants on) the owner's tenant."""
        return FlowProfile(
            spans, core_id=conn.proc.core_id, wire_len=pkt.wire_len,
            payload_len=pkt.payload_len, deliver=deliver, conn_id=conn.conn_id,
            versions=entry.versions,
            tenant_tid=(self.machine.tenants.resolve(conn.proc).tid
                        if self.costs.tenants else None),
        )

    def ff_profile(self, flow, pkt) -> Optional[FlowProfile]:
        """Freeze the steady-state per-packet RX shape, or None for a flow
        that must stay exact (:meth:`_ff_steady`): the fixed NIC pipeline
        and flow-cache hit (hardware time), then the library's descriptor
        consume and analytic memory read (CPU time on the owner's core).
        The deliver closure replays every counter the exact path moves —
        NIC meters, cache hit/skip counters, the cached conntrack entry,
        the DMA-direct copy ledger, and receive credit + notification."""
        steady = self._ff_steady(CHAIN_KOPI_RX, flow)
        if steady is None:
            return None
        entry, conn = steady
        machine = self.machine
        fp = machine.fastpath
        wire_len = pkt.wire_len
        payload_len = pkt.payload_len
        # Same line count the delivery path will stamp on the packet
        # (pkt.meta.notes["lines"] is not attached yet on the RX hot path).
        n_lines = min(self.nic._lines_for(pkt), conn.rings.rx.line_count)
        read_ns = machine.ddio_model.read_cost_ns(
            self.control.active_hot_bytes(), n_lines)
        spans = (
            (STAGE_NIC_PIPELINE, self.nic._fixed_latency(), False, "rx_pipeline"),
            (STAGE_FASTPATH, fp.hit_ns, False, "rx_flow_cache"),
            (STAGE_RING, self.costs.bypass_rx_pkt_ns, True, "rx_desc"),
            (STAGE_COHERENCE, read_ns, True, "mem_read"),
        )
        points = entry.points
        ct_entry = entry.ct_entry
        ft = flow
        nic = self.nic
        src_ip, sport = ft.src_ip, ft.sport
        # Metric objects are stable for the machine's lifetime — resolve
        # them once at profile capture, not per epoch.
        rx_pkts = nic.metrics.counter("rx_pkts")
        rx_bytes = nic.metrics.meter("rx_bytes")

        def deliver(n: int) -> None:
            now = machine.sim.now
            rx_pkts.inc(n)
            rx_bytes.record(now, n * wire_len)
            fp.bulk_hit(CHAIN_KOPI_RX, ft, None, n, points=points)
            if nic.conntrack is not None and ct_entry is not None:
                ct_entry.packets += n
                ct_entry.bytes += n * wire_len
                ct_entry.last_seen_ns = now
                fp.note_skipped("conntrack", n)
            machine.copies.charge(LAYER_DMA_DIRECT, n * wire_len, 0, ops=n)
            conn.rx_packets += n
            conn.fluid_rx.append([n, payload_len, src_ip, sport])
            if nic.notify is not None:
                nic.notify(conn, KIND_RX_READY, n)

        return self._ff_freeze(spans, deliver, entry, conn, pkt)


class KopiTxFastForward:
    """The TX-side fast-forward surface of :class:`NormanOS`.

    A separate promotion plane (same controller, same boundaries) because
    the steady-state shape is a different chain: app timer → descriptor
    post → doorbell MMIO → PCIe descriptor fetch → TX verdict cache →
    fixed pipeline → (empty) qdisc → wire. Promotion is driven by TX
    verdict-cache hits in the NIC's drain loop; absorption happens one
    layer up, in :meth:`NormanEndpoint.send_burst`, where an absorbed send
    never even enters the ring. The controller charges its epochs like any
    plane's; the surface carries the same ``name``, so its spans land under
    the same plane tag and the E16 taxonomy stays one table.
    """

    name = NormanOS.name

    def __init__(self, os: NormanOS):
        self._os = os

    def ff_profile(self, flow, pkt) -> Optional[FlowProfile]:
        """Freeze the steady-state per-send shape of a single-packet burst,
        or None for a flow that must stay exact. On top of the plane's
        steady state (:meth:`NormanOS._ff_steady`) the TX path refuses a
        non-default scheduling class (fairness arbitration between classes
        is load-dependent), a policer token bucket, congestion pacing, a
        connection rate, a non-empty TX ring (only isolated single sends —
        the app-timer shape — are frozen), qdisc backlog (zero queue
        residency is part of the profile) and a wire with nothing on the
        far end able to absorb a fluid epoch (no single-host peer hook, no
        rack coordinator: on the multihost testbed without
        ``ff_cross_machine`` this is demote-at-wire).

        The profile is descriptor post + doorbell MMIO (CPU on the owner's
        core), PCIe descriptor fetch, TX flow-cache hit, the fixed pipeline,
        and the uncontended wire. The deliver closure replays every counter
        the exact path moves — connection/NIC/DMA/ledger counters, the
        cached conntrack entry, cache hits, the qdisc's zero-residency
        transit, the egress link, and the peer's bulk receive."""
        os_ = self._os
        steady = os_._ff_steady(CHAIN_KOPI_TX, flow)
        if steady is None:
            return None
        entry, conn = steady
        nic = os_.nic
        egress = nic.egress
        if (entry.qdisc_class is not None or nic.congestion is not None
                or nic.fpga.machine(SLOT_POLICER) is not None
                or conn.rate_bps is not None or not conn.rings.tx.is_empty
                or nic.scheduler.backlog or not egress.has_fluid_rx):
            return None
        machine = os_.machine
        fp = machine.fastpath
        costs = os_.costs
        wire_len = pkt.wire_len
        pcie_ser = units.transmit_time_ns(wire_len, costs.pcie_bandwidth_bps)
        wire_ns = (units.transmit_time_ns(wire_len, egress.rate_bps)
                   + egress.propagation_ns)
        spans = (
            (STAGE_RING, costs.bypass_tx_pkt_ns, True, "tx_desc"),
            (STAGE_DMA, costs.mmio_write_ns, True, "doorbell"),
            (STAGE_DMA, costs.pcie_dma_latency_ns, False, "desc_fetch"),
            (STAGE_FASTPATH, fp.hit_ns, False, "tx_flow_cache"),
            (STAGE_NIC_PIPELINE, nic._fixed_latency(), False, "tx_pipeline"),
            (STAGE_WIRE, wire_ns, False, egress.name),
        )
        points = entry.points
        ct_entry = entry.ct_entry
        ft = flow
        dport = ft.dport
        # The frame's L2 destination rides along on fluid sends so the
        # switch's fluid fast path can resolve the learned port without
        # materializing frames (single-host links ignore it).
        eth_dst = pkt.eth.dst
        # Metric objects are stable for the machine's lifetime — resolve
        # them once at profile capture, not per epoch.
        mmio_writes = machine.dma.metrics.counter("mmio_writes")
        tx_pkts = nic.metrics.counter("tx_pkts")
        tx_bytes = nic.metrics.meter("tx_bytes")

        def deliver(n: int) -> None:
            now = machine.sim.now
            conn.tx_packets += n
            # The doorbell count the absorbed sends never rang (the span
            # carries its nanoseconds; mmio_write_cost() is not re-called
            # because pricing and counting are fused there).
            mmio_writes.inc(n)
            machine.copies.charge(LAYER_DMA, n * wire_len, n * pcie_ser, ops=n)
            fp.bulk_hit(CHAIN_KOPI_TX, ft, None, n, points=points)
            if nic.conntrack is not None and ct_entry is not None:
                ct_entry.packets += n
                ct_entry.bytes += n * wire_len
                ct_entry.last_seen_ns = now
                fp.note_skipped("conntrack", n)
            nic.scheduler.note_fluid(n)
            tx_pkts.inc(n)
            tx_bytes.record(now, n * wire_len)
            egress.send_fluid(n, wire_len, dport, ft, eth_dst)
            if nic.notify is not None:
                nic.notify(conn, KIND_TX_DRAINED, n)

        return os_._ff_freeze(spans, deliver, entry, conn, pkt)
