"""The simulated packet: headers + synthetic payload length + metadata."""

from __future__ import annotations

import itertools
from typing import Optional, Union

from ..errors import PacketError
from .addresses import BROADCAST_MAC, IPv4Address, MacAddress
from .flow import FiveTuple
from .headers import (
    ARP_OP_REQUEST,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    UDP_HEADER_LEN,
    ArpHeader,
    EthernetHeader,
    Ipv4Header,
    PacketMeta,
    TcpHeader,
    UdpHeader,
)

L4Header = Union[TcpHeader, UdpHeader]

#: Packet ids, process-wide. A module-level counter, not a class attribute:
#: writing an attribute of ``Packet`` on every packet would invalidate the
#: interpreter's attribute cache for the class.
_packet_ids = itertools.count(1)


class Packet:
    """One frame on the simulated wire.

    Payload bytes are synthetic (length only) — what experiments measure is
    movement and headers, not content — but ``to_bytes`` produces a valid
    wire image (zero-filled payload) so captures are real pcap files.

    Packets are the hottest allocation in the simulator, so the class is
    slotted and ``wire_len`` is computed once at construction (headers are
    immutable, so it can never change).
    """

    __slots__ = ("packet_id", "eth", "ipv4", "l4", "arp", "payload_len",
                 "meta", "wire_len")

    def __init__(
        self,
        eth: EthernetHeader,
        ipv4: Optional[Ipv4Header] = None,
        l4: Optional[L4Header] = None,
        arp: Optional[ArpHeader] = None,
        payload_len: int = 0,
    ):
        if payload_len < 0:
            raise PacketError(f"negative payload: {payload_len}")
        if arp is not None and ipv4 is not None:
            raise PacketError("packet cannot be both ARP and IPv4")
        if l4 is not None and ipv4 is None:
            raise PacketError("L4 header requires an IPv4 header")
        if arp is None and ipv4 is None:
            raise PacketError("packet needs an ARP or IPv4 header")
        self.packet_id = next(_packet_ids)
        self.eth = eth
        self.ipv4 = ipv4
        self.l4 = l4
        self.arp = arp
        self.payload_len = payload_len
        self.meta = PacketMeta()
        total = eth.wire_len
        if arp is not None:
            total += arp.wire_len
        else:
            total += ipv4.wire_len
            if l4 is not None:
                total += l4.wire_len
            total += payload_len
        self.wire_len = total

    # --- classification ------------------------------------------------------

    @property
    def is_arp(self) -> bool:
        return self.arp is not None

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.l4, TcpHeader)

    @property
    def is_udp(self) -> bool:
        return isinstance(self.l4, UdpHeader)

    @property
    def five_tuple(self) -> Optional[FiveTuple]:
        """The flow key, built anew on each read (never cached on the
        packet). Classifiers that only compare fields read ``ipv4`` and
        ``l4`` instead; build this where a dict key is needed."""
        ip = self.ipv4
        l4 = self.l4
        if ip is None or l4 is None:
            return None
        return FiveTuple(ip.proto, ip.src, l4.sport, ip.dst, l4.dport)

    def to_bytes(self) -> bytes:
        """Wire image with a zero-filled payload."""
        out = self.eth.to_bytes()
        if self.arp is not None:
            return out + self.arp.to_bytes()
        assert self.ipv4 is not None
        out += self.ipv4.to_bytes()
        if self.l4 is not None:
            out += self.l4.to_bytes()
        return out + b"\x00" * self.payload_len

    def summary(self) -> str:
        """One-line human description (tcpdump-style)."""
        if self.arp is not None:
            kind = "request" if self.arp.op == ARP_OP_REQUEST else "reply"
            return (
                f"ARP {kind} sender {self.arp.sender_ip} ({self.arp.sender_mac}) "
                f"target {self.arp.target_ip}"
            )
        assert self.ipv4 is not None
        proto = {PROTO_TCP: "TCP", PROTO_UDP: "UDP"}.get(self.ipv4.proto, str(self.ipv4.proto))
        if self.l4 is not None:
            return (
                f"{proto} {self.ipv4.src}:{self.l4.sport} > "
                f"{self.ipv4.dst}:{self.l4.dport} len {self.wire_len}"
            )
        return f"IP {self.ipv4.src} > {self.ipv4.dst} proto {proto} len {self.wire_len}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Packet #{self.packet_id} {self.summary()}>"


def make_udp(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    sport: int,
    dport: int,
    payload_len: int = 0,
) -> Packet:
    """Convenience UDP datagram builder."""
    # Positional calls: this runs once per simulated datagram, and a
    # keyword call costs more than a positional one.
    return Packet(
        EthernetHeader(dst_mac, src_mac, ETHERTYPE_IPV4),
        Ipv4Header(src_ip, dst_ip, PROTO_UDP, payload_len + UDP_HEADER_LEN),
        UdpHeader(sport, dport, payload_len),
        None,  # no ARP body
        payload_len,
    )


def make_tcp(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    sport: int,
    dport: int,
    payload_len: int = 0,
    flags: Optional[int] = None,
    seq: int = 0,
    ack: int = 0,
) -> Packet:
    """Convenience TCP segment builder."""
    tcp_kwargs = {"sport": sport, "dport": dport, "seq": seq, "ack": ack}
    if flags is not None:
        tcp_kwargs["flags"] = flags
    tcp = TcpHeader(**tcp_kwargs)
    return Packet(
        eth=EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4),
        ipv4=Ipv4Header(
            src=src_ip, dst=dst_ip, proto=PROTO_TCP,
            payload_len=payload_len + tcp.wire_len,
        ),
        l4=tcp,
        payload_len=payload_len,
    )


def make_arp_request(
    sender_mac: MacAddress, sender_ip: IPv4Address, target_ip: IPv4Address
) -> Packet:
    """Broadcast who-has ARP request."""
    return Packet(
        eth=EthernetHeader(dst=BROADCAST_MAC, src=sender_mac, ethertype=ETHERTYPE_ARP),
        arp=ArpHeader(op=ARP_OP_REQUEST, sender_mac=sender_mac, sender_ip=sender_ip,
                      target_ip=target_ip),
    )
