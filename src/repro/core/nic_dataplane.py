"""The on-SmartNIC interposition dataplane.

Every packet, both directions, passes through (Figure 1):

``wire → [attribute → filter → classify → mirror → steer] → per-conn ring``
``ring → [attribute → filter → classify → mirror] → scheduler → wire``

*attribute* stamps pid/uid/comm resolved from the connection registry the
kernel maintains; *filter* and *classify* run verified overlay programs;
*mirror* feeds sniffer sessions; the egress *scheduler* is a qdisc (DRR for
QoS) drained at line rate. Per-packet latency is the fixed pipeline cost
plus the overlay programs' instruction counts — bounded because the
verifier forbids loops.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

from .. import units
from ..config import CostModel
from ..errors import NicError
from ..host.copies import LAYER_DMA, LAYER_DMA_DIRECT
from ..host.machine import Machine
from ..interpose.fastpath import CHAIN_KOPI_RX, CHAIN_KOPI_TX
from ..kernel.qdisc import DEFAULT_CLASS, DrrQdisc, PfifoQdisc, Qdisc
from ..kernel.qdisc_runner import PacedQdiscRunner
from ..net.flow import FiveTuple
from ..net.link import Link
from ..net.packet import Packet
from ..nic.notification import KIND_RX_READY, KIND_TX_DRAINED
from ..nic.smartnic.fpga import Bitstream, FpgaFabric
from ..nic.smartnic.sram import SramAllocator
from ..nic.tenant_sched import WeightedFairClock
from ..nic.steering import SteeringTable
from ..overlay.isa import VERDICT_DROP
from ..sim import MetricSet
from ..trace import (
    STAGE_DMA,
    STAGE_FASTPATH,
    STAGE_NETFILTER,
    STAGE_NIC_PIPELINE,
    charge,
)
from .connection import NormanConnection
from .sniffer import Sniffer

SLOT_FILTER_RX = "filter_rx"
SLOT_FILTER_TX = "filter_tx"
SLOT_CLASSIFIER = "classifier"
SLOT_POLICER = "policer"

KOPI_BITSTREAM = Bitstream(
    name="norman-kopi-v1",
    overlay_slots=(
        (SLOT_FILTER_RX, 4_096),
        (SLOT_FILTER_TX, 4_096),
        (SLOT_CLASSIFIER, 2_048),
        (SLOT_POLICER, 2_048),
    ),
    logic_units=600_000,
)

N_PIPELINE_STAGES = 4  # attribute, filter, classify, mirror/steer

ConnResolver = Callable[[int], Optional[NormanConnection]]
NotifyFn = Callable[..., None]  # (conn, kind, count=1)
ArpHook = Callable[[Packet], None]
FallbackRx = Callable[[Sequence[Packet]], None]  # the kernel's RX entry


class KopiNic:
    """The SmartNIC running Norman's dataplane."""

    def __init__(
        self,
        machine: Machine,
        egress: Link,
        sniffer: Sniffer,
        name: str = "kopi0",
    ):
        self.machine = machine
        self.sim = machine.sim
        self.costs: CostModel = machine.costs
        self.egress = egress
        self.sniffer = sniffer
        self.name = name
        self.metrics = MetricSet(name)

        self.fpga = FpgaFabric(self.sim, self.costs, name=f"{name}.fpga")
        self.sram = SramAllocator(self.costs.smartnic_sram_bytes, name=f"{name}.sram")
        self.steering = SteeringTable(n_queues=1, name=f"{name}.steer")
        self.scheduler = PacedQdiscRunner(
            self.sim, PfifoQdisc(limit=4_096), egress.rate_bps, self._tx_out,
            name=f"{name}.sched",
        )
        self._sched_classes: "set[str]" = set()
        #: Tenant registry when attribution is on; None keeps every
        #: tenant-resolution branch dead (the seed default).
        self.tenants = machine.tenants if self.costs.tenants else None
        #: True once the control plane installed the per-tenant egress
        #: qdisc — then _tx_effects classifies by owning tenant.
        self.tenant_classes = False
        #: Weighted fair arbiter over SmartNIC pipeline passes (isolation
        #: only): a hog's passes stretch to its share, a victim's do not
        #: wait behind them.
        self.pipeline_clock = (
            WeightedFairClock(machine.tenants, name=f"{name}.pipeline")
            if self.costs.tenant_isolation else None
        )
        self._draining: "set[int]" = set()
        self._tx_drained: Dict[int, int] = {}  # conn_id -> pkts this doorbell session
        self.offline = False
        self.fpga.on_offline_change(self._set_offline)

        # Wired by the control plane.
        self.conn_resolver: ConnResolver = lambda _cid: None
        self.notify: Optional[NotifyFn] = None
        self.on_arp: Optional[ArpHook] = None
        self.fallback_rx: Optional[FallbackRx] = None
        self.filter_point = None  # overlay InterpositionPoint, wired by the control plane
        self.ff_plane = None  # the owning NormanOS, wired when fast_forward is on
        self.tx_ff_plane = None  # its TX surface, wired when ff_tx is also on

        # Optional offloaded kernel functionality (§3: "per-connection
        # state, NAT, and everything else the kernel does today").
        self.conntrack = None  # Optional[ConntrackTable]
        self.nat = None  # Optional[NatTable]
        self.congestion = None  # Optional[LocalCongestionManager]

    def _set_offline(self, offline: bool) -> None:
        self.offline = offline

    # --- pipeline cost helpers -----------------------------------------------

    def _fixed_latency(self) -> int:
        return self.costs.nic_pipeline_ns + N_PIPELINE_STAGES * self.costs.smartnic_stage_ns

    def _tenant_of(self, conn: Optional[NormanConnection],
                   pkt: Optional[Packet] = None):
        """Resolve the tenant this work bills to: the connection's owning
        process when the control plane knows it, else the packet's stamped
        owner uid, else the system tenant. Returns None (no attribution at
        all) only when the machine runs without tenants."""
        if self.tenants is None:
            return None
        if conn is not None:
            return self.tenants.resolve(conn.proc)
        if pkt is not None:
            return self.tenants.resolve_uid(pkt.meta.owner_uid)
        return self.tenants.system

    def _pipeline_arb_ns(self, tenant, busy_ns: int) -> int:
        """Extra pipeline wait the per-tenant arbiter imposes (isolation
        only; 0 for an uncontended or unattributed pass)."""
        if self.pipeline_clock is None or tenant is None:
            return 0
        return self.pipeline_clock.delay(tenant, busy_ns, self.sim.now)

    def _lines_for(self, pkt: Packet) -> int:
        line = self.costs.cache_line_bytes
        return math.ceil((pkt.wire_len + self.costs.ring_desc_bytes) / line)

    # --- RX path ----------------------------------------------------------------

    def rx_from_wire(self, pkt: Packet) -> None:
        if self.offline:
            self.metrics.counter("rx_offline_drops").inc()
            return
        ft = pkt.five_tuple
        ff = self.machine.ff
        if ff is not None and ft is not None:
            # Hybrid fidelity: a promoted (fluid) flow absorbs the packet —
            # counted into the pending epoch, not simulated. Every counter
            # and cost this exact path would have moved is replayed by the
            # profile's deliver closure at flush. A shape mismatch inside
            # absorb_packet demotes and falls through to exact simulation.
            if ff.absorb_packet(ft, pkt.wire_len):
                return
        self.metrics.counter("rx_pkts").inc()
        self.metrics.meter("rx_bytes").record(self.sim.now, pkt.wire_len)

        if self.nat is not None and not pkt.is_arp:
            pkt = self.nat.translate_in(pkt)
            ft = pkt.five_tuple

        fp = self.machine.fastpath
        if fp is not None and ft is not None:
            entry = fp.lookup(CHAIN_KOPI_RX, ft)
            if entry is not None:
                # Flow-cache hit: steering + overlay filter collapse into
                # one flowtable lookup; attribution still stamps from the
                # resolved connection (identity is never cached away).
                conn = (
                    self.conn_resolver(entry.conn_id)
                    if entry.conn_id is not None else None
                )
                if conn is not None:
                    pkt.meta.conn_id = conn.conn_id
                    pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm = (
                        conn.owner
                    )
                ctx = self.machine.tracer.begin(pkt)
                charge(STAGE_NIC_PIPELINE, self._fixed_latency(), ctx,
                       cpu=False, label="rx_pipeline")
                charge(STAGE_FASTPATH, fp.hit_ns, ctx, cpu=False,
                       label="rx_flow_cache")
                latency = self._fixed_latency() + fp.hit_ns
                # tenant: the pipeline pass bills to the flow's owner; under
                # isolation a contending hog's pass stretches to its share.
                tenant = self._tenant_of(conn, pkt)
                if tenant is not None:
                    pkt.meta.tenant_tid = tenant.tid
                arb = self._pipeline_arb_ns(tenant, self._fixed_latency())
                if arb:
                    charge(STAGE_NIC_PIPELINE, arb, ctx, cpu=False,
                           label="pipeline_arb")
                    latency += arb
                self.sim.after(latency, self._rx_effects, pkt, conn, entry.verdict,
                               entry, True)
                if ff is not None and self.ff_plane is not None:
                    # One more consecutive steady-state packet; promotion
                    # happens here once the streak and eligibility line up.
                    ff.note_exact(self.ff_plane, ft, pkt)
                return

        # Resolve + attribute before filtering so owner-compiled rules and
        # the sniffer both see identity.
        conn = self._resolve_rx(ft)
        if conn is not None:
            pkt.meta.conn_id = conn.conn_id
            pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm = conn.owner

        ctx = self.machine.tracer.begin(pkt)
        latency = charge(STAGE_NIC_PIPELINE, self._fixed_latency(), ctx,
                         cpu=False, label="rx_pipeline")
        # tenant: slow-path passes bill to the resolved owner too.
        tenant = self._tenant_of(conn, pkt)
        if tenant is not None:
            pkt.meta.tenant_tid = tenant.tid
        arb = self._pipeline_arb_ns(tenant, self._fixed_latency())
        if arb:
            latency += charge(STAGE_NIC_PIPELINE, arb, ctx, cpu=False,
                              label="pipeline_arb")
        verdict = None
        machine = self.fpga.machine(SLOT_FILTER_RX)
        if machine is not None:
            result = machine.execute(pkt, self.sim.now)
            latency += charge(STAGE_NETFILTER, result.cost_ns, ctx,
                              cpu=False, label="overlay_filter")
            verdict = result.verdict
            if self.filter_point is not None:
                # Evaluations during an overlay-load window run on the old
                # program and are tallied stale by the engine.
                self.filter_point.record_eval(
                    hit=(verdict == VERDICT_DROP), dropped=(verdict == VERDICT_DROP)
                )
        fp_entry = None
        if fp is not None and ft is not None:
            points = ("steering",) + (("overlay_filters",) if machine is not None else ())
            fp_entry = fp.install(
                CHAIN_KOPI_RX, ft, verdict=verdict,
                conn_id=conn.conn_id if conn is not None else None,
                points=points, tenant=tenant,
            )
        self.sim.after(latency, self._rx_effects, pkt, conn, verdict, fp_entry, False)

    def _resolve_rx(self, ft: Optional[FiveTuple]) -> Optional[NormanConnection]:
        if ft is None:
            return None
        # The control plane installs inbound-perspective entries: exact
        # (remote -> host) flows for connected sockets, (proto, local port)
        # wildcards for listeners.
        conn_id = self.steering.lookup(ft)
        if conn_id is None:
            return None
        return self.conn_resolver(conn_id)

    def _rx_effects(
        self,
        pkt: Packet,
        conn: Optional[NormanConnection],
        verdict: Optional[str],
        fp_entry=None,
        fp_hit: bool = False,
    ) -> None:
        if pkt.is_arp and self.on_arp is not None:
            self.on_arp(pkt)
        self.sniffer.mirror(pkt)
        if verdict == VERDICT_DROP:
            self.metrics.counter("rx_filtered").inc()
            if pkt.meta.trace is not None:
                pkt.meta.trace.close(self.sim.now)
            return
        if pkt.is_arp:
            return
        if self.conntrack is not None:
            self._observe_conntrack(pkt, fp_entry, fp_hit,
                                    tenant=self._tenant_of(conn, pkt))
        if conn is None or conn.closed:
            if self.fallback_rx is not None:
                self.metrics.counter("rx_fallback").inc()
                self.fallback_rx((pkt,))
            else:
                self.metrics.counter("rx_no_conn_drops").inc()
                if pkt.meta.trace is not None:
                    pkt.meta.trace.close(self.sim.now)
            return
        if conn.fallback:
            # Connection exists but lives on the software path (E9).
            self.metrics.counter("rx_fallback").inc()
            if self.fallback_rx is not None:
                self.fallback_rx((pkt,))
            return
        self._deliver_to_ring(pkt, conn)

    def _observe_conntrack(self, pkt: Packet, fp_entry, fp_hit: bool,
                           tenant=None) -> None:
        """Conntrack update for one packet. A flow-cache hit updates the
        cached :class:`~repro.core.conntrack.CtEntry` in place (exact
        per-flow accounting, no table walk); misses take the full observe
        path and attach the live entry to the cache. New entries carry the
        resolved tenant so SRAM bytes land on its quota."""
        if fp_hit and fp_entry is not None and fp_entry.ct_entry is not None:
            cached = fp_entry.ct_entry
            cached.packets += 1
            cached.bytes += pkt.wire_len
            cached.last_seen_ns = self.sim.now
            fp = self.machine.fastpath
            if fp is not None:
                fp.note_skipped("conntrack")
            return
        entry = self.conntrack.observe(pkt, self.sim.now, tenant=tenant)
        if fp_entry is not None and entry is not None:
            fp_entry.ct_entry = entry

    def _deliver_to_ring(self, pkt: Packet, conn: NormanConnection) -> None:
        ring = conn.rings.rx
        was_empty = ring.is_empty
        # A full ring has no free descriptor: the frame is dropped before
        # any buffer is written, so a drop touches neither the LLC nor the
        # ring's line cursor.
        if not ring.try_post(pkt):
            self.metrics.counter("rx_ring_drops").inc()
            ff = self.machine.ff
            ft = pkt.five_tuple if ff is not None else None
            if ft is not None:
                # A full RX ring means delivery is now load-dependent
                # (packets are being lost) — a queue-occupancy boundary.
                from ..sim.fastforward import REASON_QDISC

                ff.demote(ft, REASON_QDISC)
            if pkt.meta.trace is not None:
                pkt.meta.trace.close(self.sim.now)
            return
        # KOPI delivery is DMA-direct: lines land in the app-readable ring
        # (through DDIO when the structural LLC is wired); no CPU copy ever.
        # tenant: the lines are the connection's own ring; the RX pipeline
        # pass already stamped its owner on pkt.meta.tenant_tid.
        runs = ring.next_runs(self._lines_for(pkt))
        llc = self.machine.llc
        if llc is not None:
            for addr, n in runs:
                llc.dma_write(addr, n)
        pkt.meta.notes["lines"] = runs
        self.machine.copies.charge(LAYER_DMA_DIRECT, pkt.wire_len, 0)
        conn.rx_packets += 1
        if self.notify is not None:
            if self.costs.batch_size > 1 and not was_empty:
                # Interrupt coalescing: the outstanding RX_READY already
                # covers this packet — a burst-draining reader picks it up
                # on the same wake, so no second notification is raised.
                self.metrics.counter("rx_notify_coalesced").inc()
                return
            self.notify(conn, KIND_RX_READY)

    # --- TX path -------------------------------------------------------------------

    def doorbell(self, conn: NormanConnection) -> None:
        """MMIO write from the library: TX descriptors are available.

        One drain engine runs per connection; a doorbell while it is
        already active is a no-op (otherwise every doorbell would spawn a
        parallel drain chain and pacing would multiply away).
        """
        if self.offline:
            self.metrics.counter("tx_offline_drops").inc()
            return
        if conn.conn_id in self._draining:
            return
        self._draining.add(conn.conn_id)
        self.sim.after(self.costs.pcie_dma_latency_ns, self._drain_tx, conn)

    def _tx_pipeline(self, pkt: Packet, tenant=None):
        """Run the TX overlay pipeline for one packet; returns
        (verdict, sched_class, overlay_cost_ns, fastpath entry, hit flag).

        A loaded policer disables caching on this path: its token bucket is
        stateful, so a per-flow verdict cache would replay decisions that
        depend on arrival time (megaflows cannot cache meter actions
        either)."""
        fp = self.machine.fastpath
        policer = self.fpga.machine(SLOT_POLICER)
        ft = pkt.five_tuple if (fp is not None and policer is None) else None
        if ft is not None:
            entry = fp.lookup(CHAIN_KOPI_TX, ft, tenant=tenant)
            if entry is not None:
                return entry.verdict, entry.qdisc_class, fp.hit_ns, entry, True
        cost = 0
        verdict: Optional[str] = None
        sched_class: Optional[int] = None
        filt = self.fpga.machine(SLOT_FILTER_TX)
        if filt is not None:
            result = filt.execute(pkt, self.sim.now)
            cost += result.cost_ns
            verdict = result.verdict
            if self.filter_point is not None:
                self.filter_point.record_eval(
                    hit=(verdict == VERDICT_DROP), dropped=(verdict == VERDICT_DROP)
                )
        classifier = self.fpga.machine(SLOT_CLASSIFIER)
        if classifier is not None and verdict != VERDICT_DROP:
            cresult = classifier.execute(pkt, self.sim.now)
            cost += cresult.cost_ns
            sched_class = cresult.sched_class
        if policer is not None and verdict != VERDICT_DROP:
            presult = policer.execute(pkt, self.sim.now)
            cost += presult.cost_ns
            if presult.verdict == VERDICT_DROP:
                verdict = VERDICT_DROP
                self.metrics.counter("tx_policed").inc()
        fp_entry = None
        if ft is not None:
            points = (
                ("overlay_filters",)
                if (filt is not None or classifier is not None) else ()
            )
            fp_entry = fp.install(
                CHAIN_KOPI_TX, ft, verdict=verdict, qdisc_class=sched_class,
                conn_id=pkt.meta.conn_id, points=points, tenant=tenant,
            )
        return verdict, sched_class, cost, fp_entry, False

    def _dma_fair_gap(self, tenant, nbytes: int, gap: int) -> int:
        """Stretch a drain-pacing gap to the tenant's weighted DMA share
        (isolation only): the hog's descriptor fetches slow to its share
        of PCIe bytes while an uncontended tenant keeps the raw gap."""
        fc = self.machine.dma.fair_clock
        if fc is None or tenant is None:
            return gap
        busy = units.transmit_time_ns(nbytes, self.costs.pcie_bandwidth_bps)
        fin = fc.finish(tenant, busy, self.sim.now)
        return max(gap, fin - self.sim.now)

    def _drain_tx(self, conn: NormanConnection) -> None:
        """One descriptor fetch pulls up to ``batch_size`` packets, one
        fixed pipeline pass covers the burst, and their effects land in a
        single coalesced simulator event."""
        pkts = conn.rings.tx.consume_burst(self.costs.batch_size)
        if not pkts:
            self._draining.discard(conn.conn_id)
            self._tx_drained.pop(conn.conn_id, None)
            return
        if self.costs.batch_size > 1:
            self.metrics.counter("tx_bursts").inc()
        self._tx_drained[conn.conn_id] = self._tx_drained.get(conn.conn_id, 0) + len(pkts)
        # tenant: one burst belongs to one connection, hence one tenant —
        # its pipeline pass and DMA bytes bill there.
        tenant = self._tenant_of(conn, pkts[0])
        fixed = self._fixed_latency()
        arb = self._pipeline_arb_ns(tenant, fixed)
        latency = fixed + arb
        total_wire = 0
        items = []
        for pkt in pkts:
            pkt.meta.conn_id = conn.conn_id
            pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm = conn.owner
            if tenant is not None:
                pkt.meta.tenant_tid = tenant.tid
            conn.tx_packets += 1
            total_wire += pkt.wire_len
            verdict, sched_class, overlay_cost, fp_entry, fp_hit = \
                self._tx_pipeline(pkt, tenant=tenant)
            if fp_hit and verdict != VERDICT_DROP and self.tx_ff_plane is not None:
                ff = self.machine.ff
                ft = pkt.five_tuple if ff is not None else None
                if ft is not None:
                    ff.note_exact(self.tx_ff_plane, ft, pkt)
            ctx = pkt.meta.trace
            if ctx is not None:
                # Doorbell MMIO latency + ring residency since the library post.
                ctx.fill_gap(STAGE_DMA, self.sim.now, label="desc_fetch")
                charge(STAGE_FASTPATH if fp_hit else STAGE_NETFILTER,
                       overlay_cost, ctx, cpu=False,
                       label="tx_flow_cache" if fp_hit else "overlay_tx")
                if not items:
                    # One pipeline pass covers the burst: the fixed latency
                    # lands on the lead packet's trace; siblings absorb it
                    # as pipeline wait when their effects run.
                    # tenant: the pass bills to the burst's connection owner.
                    charge(STAGE_NIC_PIPELINE, fixed, ctx, cpu=False,
                           label="tx_pipeline")
                    if arb:
                        charge(STAGE_NIC_PIPELINE, arb, ctx, cpu=False,
                               label="pipeline_arb")
            latency += overlay_cost
            items.append((pkt, conn, verdict, sched_class, fp_entry, fp_hit))
        self.machine.copies.charge(
            LAYER_DMA, total_wire,
            units.transmit_time_ns(total_wire, self.costs.pcie_bandwidth_bps),
            ops=len(pkts),
        )
        self.sim.after(latency, self._tx_effects_burst, items)

        if not conn.rings.tx.is_empty:
            # Keep draining, paced by PCIe fetch bandwidth — or by the
            # connection's congestion-control rate when one is set.
            gap = units.transmit_time_ns(total_wire, self.costs.pcie_bandwidth_bps)
            if conn.rate_bps is not None:
                gap = max(gap, units.transmit_time_ns(total_wire, conn.rate_bps))
            gap = self._dma_fair_gap(tenant, total_wire, gap)
            self.sim.after(max(gap, 1), self._drain_tx, conn)
        else:
            self._draining.discard(conn.conn_id)
            drained = self._tx_drained.pop(conn.conn_id)
            if self.notify is not None:
                # One notification covers every packet this doorbell session
                # drained — the amortization the Notification.count records.
                self.notify(conn, KIND_TX_DRAINED, drained)

    def _tx_effects_burst(self, items) -> None:
        for item in items:
            self._tx_effects(*item)

    def _tx_effects(
        self,
        pkt: Packet,
        conn: NormanConnection,
        verdict: Optional[str],
        sched_class: Optional[int],
        fp_entry=None,
        fp_hit: bool = False,
    ) -> None:
        if pkt.is_arp and self.on_arp is not None:
            self.on_arp(pkt)
        if pkt.meta.trace is not None:
            # Absorb the shared pipeline pass a burst sibling rode through
            # (the lead carries the explicit tx_pipeline span; zero at
            # batch_size=1, where that span covers the whole window).
            pkt.meta.trace.fill_gap(STAGE_NIC_PIPELINE, self.sim.now,
                                    cpu=False, label="pipeline_wait")
        if verdict == VERDICT_DROP:
            self.sniffer.mirror(pkt)
            self.metrics.counter("tx_filtered").inc()
            if pkt.meta.trace is not None:
                pkt.meta.trace.close(self.sim.now)
            return
        tenant = self._tenant_of(conn, pkt)
        if self.conntrack is not None and not pkt.is_arp:
            self._observe_conntrack(pkt, fp_entry, fp_hit, tenant=tenant)
        if self.nat is not None and not pkt.is_arp:
            translated = self.nat.translate_out(pkt)
            if translated is None:
                self.metrics.counter("tx_nat_exhausted").inc()
                self.sniffer.mirror(pkt)
                if pkt.meta.trace is not None:
                    pkt.meta.trace.close(self.sim.now)
                return
            pkt = translated
        # Mirror post-NAT: captures show what is actually on the wire.
        self.sniffer.mirror(pkt)
        cls = str(sched_class) if sched_class is not None else DEFAULT_CLASS
        if self.tenant_classes and tenant is not None:
            # Per-tenant egress scheduling: the owning tenant's class wins
            # over any cgroup/classifier class — each tenant drains from
            # its own DRR queue, so a hog's backlog is not a victim's.
            tcls = tenant.sched_class
            if tcls in self._sched_classes:
                cls = tcls
        if cls not in self._sched_classes:
            cls = DEFAULT_CLASS
        admitted = self.scheduler.submit(pkt, cls)
        if not admitted:
            self.metrics.counter("tx_sched_drops").inc()
            if pkt.meta.trace is not None:
                pkt.meta.trace.close(self.sim.now)
        if self.congestion is not None:
            self.congestion.on_backpressure(
                conn, backlog=self.scheduler.backlog, dropped=not admitted
            )

    def _tx_out(self, pkt: Packet) -> None:
        self.metrics.counter("tx_pkts").inc()
        self.metrics.meter("tx_bytes").record(self.sim.now, pkt.wire_len)
        self.egress.send(pkt)

    # --- control-plane configuration ------------------------------------------------

    def set_scheduler(self, qdisc: Qdisc, class_names: "set[str]") -> None:
        """Install a new egress discipline (compiled from tc)."""
        if isinstance(qdisc, DrrQdisc) and DEFAULT_CLASS not in qdisc.weights:
            raise NicError("scheduler must include the default class")
        self._sched_classes = set(class_names)
        self.scheduler.replace_qdisc(qdisc)

    def stats(self) -> Dict[str, float]:
        return self.metrics.snapshot()
