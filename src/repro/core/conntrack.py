"""On-NIC connection tracking and NAT.

§3 inventories what KOPI must absorb: "filtering, queueing, per-connection
state, NAT, and everything else the kernel does today". This module holds
the per-flow state machine (conntrack) and source NAT (masquerade), both
resident in SmartNIC SRAM — so they inherit §5's exhaustion behaviour: when
SRAM runs out, new flows fail over to the software path rather than
silently breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import NicResourceExhausted, PolicyError
from ..net.addresses import IPv4Address
from ..net.flow import FiveTuple
from ..net.headers import EthernetHeader, Ipv4Header, TcpHeader, UdpHeader
from ..net.packet import Packet
from ..nic.smartnic.sram import SramAllocator, SramBlock
from ..sim import MetricSet

STATE_NEW = "NEW"
STATE_ESTABLISHED = "ESTABLISHED"

CT_ENTRY_BYTES = 64
NAT_ENTRY_BYTES = 48
NAT_PORT_BASE = 30_000


@dataclass
class CtEntry:
    flow: FiveTuple
    state: str
    packets: int
    bytes: int
    last_seen_ns: int
    sram: SramBlock
    tenant_tid: Optional[int] = None
    """Owning tenant (tid) — the conntrack side of owner scoping: a
    tenant's flows are enumerable and its SRAM entries quota-charged."""


class ConntrackTable:
    """Flow state machine with SRAM-bounded capacity.

    ``observe`` returns the entry (creating it in SRAM when new) or None
    when SRAM is exhausted — the caller then treats the flow as untracked.
    """

    def __init__(self, sram: SramAllocator):
        self.sram = sram
        self._entries: Dict[FiveTuple, CtEntry] = {}
        self.metrics = MetricSet("conntrack")
        self.point = None  # Optional[InterpositionPoint], set at registration
        self.fastpath = None  # Optional[FlowFastPath]: expiry evicts flows

    def observe(self, pkt: Packet, now_ns: int, tenant=None) -> Optional[CtEntry]:
        ft = pkt.five_tuple
        if ft is None:
            return None
        entry = self._entries.get(ft)
        created = False
        if entry is None:
            reverse = self._entries.get(ft.reversed())
            if reverse is not None:
                # Reply traffic: the forward entry graduates to ESTABLISHED.
                reverse.state = STATE_ESTABLISHED
                reverse.packets += 1
                reverse.bytes += pkt.wire_len
                reverse.last_seen_ns = now_ns
                self.metrics.counter("established").inc()
                if self.point is not None:
                    self.point.record_eval(hit=True)
                return reverse
            try:
                # tenant: the entry's SRAM bytes bill against the owning
                # tenant's quota; a hog exhausts its own cap, not the table.
                block = self.sram.alloc(CT_ENTRY_BYTES, "conntrack",
                                        tenant=tenant)
            except NicResourceExhausted:
                self.metrics.counter("untracked").inc()
                if self.point is not None:
                    self.point.record_eval(hit=False)
                return None
            entry = CtEntry(flow=ft, state=STATE_NEW, packets=0, bytes=0,
                            last_seen_ns=now_ns, sram=block,
                            tenant_tid=tenant.tid if tenant is not None
                            else None)
            self._entries[ft] = entry
            self.metrics.counter("created").inc()
            created = True
        entry.packets += 1
        entry.bytes += pkt.wire_len
        entry.last_seen_ns = now_ns
        if self.point is not None:
            # A new flow writes a table entry (a commit); a known flow is a
            # lookup hit against the existing table version.
            self.point.record_eval(hit=not created)
            if created:
                self.point.record_update()
        return entry

    def lookup(self, flow: FiveTuple) -> Optional[CtEntry]:
        return self._entries.get(flow) or self._entries.get(flow.reversed())

    def expire_older_than(self, cutoff_ns: int) -> int:
        """Garbage-collect idle flows; returns how many were reclaimed."""
        stale = [ft for ft, e in self._entries.items() if e.last_seen_ns < cutoff_ns]
        for ft in stale:
            self.sram.free(self._entries[ft].sram)
            del self._entries[ft]
            if self.fastpath is not None:
                # An expired flow's cached verdicts hold a dead CtEntry
                # reference — evict them (both directions) eagerly.
                self.fastpath.evict_flow(ft)
        if stale:
            self.metrics.counter("expired").inc(len(stale))
        return len(stale)

    # -- live flow migration (cluster scale-out, E18) ----------------------

    def snapshot(self, flow: FiveTuple) -> Optional[Dict[str, object]]:
        """Serializable copy of the exact-key entry for ``flow`` (no
        reverse-direction fallback — migration moves one direction's state
        under its own key). Pure read: no counters move, the entry stays."""
        entry = self._entries.get(flow)
        if entry is None:
            return None
        return {
            "flow": entry.flow,
            "state": entry.state,
            "packets": entry.packets,
            "bytes": entry.bytes,
            "last_seen_ns": entry.last_seen_ns,
            "tenant_tid": entry.tenant_tid,
        }

    def adopt(self, snap: Dict[str, object], now_ns: int,
              tenant=None) -> Optional[CtEntry]:
        """Replay a migrated-in :meth:`snapshot` onto this table.

        Counters are *merged*, not overwritten: packets the new backend
        already served before the snapshot arrived (re-steered traffic
        racing the state transfer) stay counted, so source + target always
        sum to what a no-migration run would have seen. Adoption writes a
        table entry, so it is a policy commit (``record_update``) on this
        machine's engine — the epoch bump is what invalidates any stale
        verdicts cached here, extending the epoch-stamped invalidation
        contract across machines. Returns None when SRAM is exhausted (the
        flow arrives untracked, like any new flow under pressure)."""
        ft = snap["flow"]
        entry = self._entries.get(ft)
        if entry is None:
            try:
                block = self.sram.alloc(CT_ENTRY_BYTES, "conntrack",
                                        tenant=tenant)
            except NicResourceExhausted:
                self.metrics.counter("untracked").inc()
                return None
            entry = CtEntry(flow=ft, state=snap["state"], packets=0, bytes=0,
                            last_seen_ns=snap["last_seen_ns"], sram=block,
                            tenant_tid=snap["tenant_tid"])
            self._entries[ft] = entry
        entry.packets += snap["packets"]
        entry.bytes += snap["bytes"]
        if snap["state"] == STATE_ESTABLISHED:
            entry.state = STATE_ESTABLISHED
        entry.last_seen_ns = max(entry.last_seen_ns, snap["last_seen_ns"],
                                 now_ns)
        self.metrics.counter("adopted").inc()
        if self.point is not None:
            self.point.record_update()
        return entry

    def release_flow(self, flow: FiveTuple) -> Optional[Dict[str, object]]:
        """Drop the exact-key entry for ``flow`` (migration hand-off
        complete: the target owns the state now). Frees the SRAM block,
        evicts the flow's cached verdicts, and returns a final
        :meth:`snapshot` so the coordinator can reconcile packets the
        source served after the first copy. The removal is itself a commit."""
        entry = self._entries.get(flow)
        if entry is None:
            return None
        snap = self.snapshot(flow)
        self.sram.free(entry.sram)
        del self._entries[flow]
        self.metrics.counter("migrated_out").inc()
        if self.fastpath is not None:
            self.fastpath.evict_flow(flow)
        if self.point is not None:
            self.point.record_update()
        return snap

    def entries(self) -> List[CtEntry]:
        return sorted(self._entries.values(), key=lambda e: str(e.flow))

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class NatBinding:
    internal: FiveTuple        # original outbound flow
    public_port: int
    sram: SramBlock


class NatTable:
    """Source NAT (masquerade): rewrite outbound flows to a public address,
    reverse-translate inbound replies.

    The translated packet is *rebuilt* (new headers, recomputed IPv4
    checksum) — captures downstream of NAT see the rewritten truth.
    """

    def __init__(self, sram: SramAllocator, public_ip: IPv4Address):
        self.sram = sram
        self.public_ip = public_ip
        self._by_internal: Dict[FiveTuple, NatBinding] = {}
        self._by_public_port: Dict[Tuple[int, int], NatBinding] = {}  # (proto, port)
        self._next_port = NAT_PORT_BASE
        self.metrics = MetricSet("nat")

    def _allocate_port(self, proto: int) -> int:
        for _ in range(0x10000 - NAT_PORT_BASE):
            port = NAT_PORT_BASE + (self._next_port - NAT_PORT_BASE) % (0x10000 - NAT_PORT_BASE)
            self._next_port += 1
            if (proto, port) not in self._by_public_port:
                return port
        raise PolicyError("NAT public port space exhausted")

    def translate_out(self, pkt: Packet) -> Optional[Packet]:
        """Outbound: source becomes (public_ip, allocated port). Returns the
        rewritten packet, or None when SRAM is exhausted (caller decides:
        drop or software path)."""
        ft = pkt.five_tuple
        if ft is None:
            return pkt
        binding = self._by_internal.get(ft)
        if binding is None:
            try:
                # tenant: NAT bindings are admin-installed machine policy,
                # not per-flow tenant state — they bill the shared pool.
                block = self.sram.alloc(NAT_ENTRY_BYTES, "nat")
            except NicResourceExhausted:
                self.metrics.counter("exhausted").inc()
                return None
            binding = NatBinding(internal=ft, public_port=self._allocate_port(ft.proto),
                                 sram=block)
            self._by_internal[ft] = binding
            self._by_public_port[(ft.proto, binding.public_port)] = binding
            self.metrics.counter("bindings").inc()
        self.metrics.counter("translated_out").inc()
        return _rewrite(pkt, src_ip=self.public_ip, sport=binding.public_port)

    def translate_in(self, pkt: Packet) -> Packet:
        """Inbound: a reply to (public_ip, public port) is rewritten back to
        the internal flow. Unbound inbound traffic passes through unchanged
        (steering and filters downstream decide its fate — NAT is a
        translator, not a firewall)."""
        ip = pkt.ipv4
        l4 = pkt.l4
        if ip is None or l4 is None:
            return pkt
        if ip.dst != self.public_ip:
            return pkt
        binding = self._by_public_port.get((ip.proto, l4.dport))
        if binding is None:
            self.metrics.counter("no_binding").inc()
            return pkt
        self.metrics.counter("translated_in").inc()
        internal = binding.internal
        return _rewrite(pkt, dst_ip=internal.src_ip, dport=internal.sport)

    def bindings(self) -> List[NatBinding]:
        return list(self._by_internal.values())

    def release(self, internal: FiveTuple) -> None:
        binding = self._by_internal.pop(internal, None)
        if binding is None:
            raise PolicyError(f"no NAT binding for {internal}")
        del self._by_public_port[(internal.proto, binding.public_port)]
        self.sram.free(binding.sram)


def _rewrite(
    pkt: Packet,
    src_ip: Optional[IPv4Address] = None,
    dst_ip: Optional[IPv4Address] = None,
    sport: Optional[int] = None,
    dport: Optional[int] = None,
) -> Packet:
    """Rebuild a packet with rewritten address fields (checksums redone)."""
    assert pkt.ipv4 is not None and pkt.l4 is not None
    new_ip = Ipv4Header(
        src=src_ip or pkt.ipv4.src,
        dst=dst_ip or pkt.ipv4.dst,
        proto=pkt.ipv4.proto,
        payload_len=pkt.ipv4.payload_len,
        ttl=pkt.ipv4.ttl,
        dscp=pkt.ipv4.dscp,
        ident=pkt.ipv4.ident,
    )
    if isinstance(pkt.l4, TcpHeader):
        new_l4 = TcpHeader(
            sport=sport if sport is not None else pkt.l4.sport,
            dport=dport if dport is not None else pkt.l4.dport,
            seq=pkt.l4.seq, ack=pkt.l4.ack, flags=pkt.l4.flags, window=pkt.l4.window,
        )
    else:
        assert isinstance(pkt.l4, UdpHeader)
        new_l4 = UdpHeader(
            sport=sport if sport is not None else pkt.l4.sport,
            dport=dport if dport is not None else pkt.l4.dport,
            payload_len=pkt.l4.payload_len,
        )
    new_pkt = Packet(
        eth=EthernetHeader(dst=pkt.eth.dst, src=pkt.eth.src, ethertype=pkt.eth.ethertype),
        ipv4=new_ip,
        l4=new_l4,
        payload_len=pkt.payload_len,
    )
    new_pkt.meta = pkt.meta  # translation preserves attribution
    return new_pkt
