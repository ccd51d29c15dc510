"""Protocol headers: Ethernet, ARP, IPv4, TCP, UDP.

Headers are real enough to serialize: ``to_bytes`` produces wire-format
bytes (with correct checksums for IPv4), which is what lets the tcpdump
analogue emit genuine pcap files.

Headers are immutable slotted values. A constructor rejects any field that
``to_bytes`` could not encode, stores each field once, and every later
assignment raises ``AttributeError``. Two headers of one class with equal
fields compare equal and hash as the tuple of their fields; headers of
different classes never compare equal.

Classifiers (netfilter rules, match-action tables, socket demux) read these
fields directly. ``Packet.five_tuple`` is derived from them on every read
and never cached on the packet: a sink keeps every packet it receives, so a
cached flow key would cost memory per packet for the whole run.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Optional

from ..errors import PacketError
from .addresses import BROADCAST_MAC, IPv4Address, MacAddress
from .checksum import internet_checksum

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

PROTO_TCP = 6
PROTO_UDP = 17

ARP_OP_REQUEST = 1
ARP_OP_REPLY = 2

ETH_HEADER_LEN = 14
ARP_BODY_LEN = 28
IPV4_HEADER_LEN = 20
TCP_HEADER_LEN = 20
UDP_HEADER_LEN = 8

TCP_FLAG_FIN = 0x01
TCP_FLAG_SYN = 0x02
TCP_FLAG_RST = 0x04
TCP_FLAG_PSH = 0x08
TCP_FLAG_ACK = 0x10


def _check_u16(name: str, value: int) -> None:
    if not 0 <= value <= 0xFFFF:
        raise PacketError(f"{name} out of range: {value}")


class _Header:
    """Base of the immutable header values.

    A subclass names its fields in ``__slots__`` and its constructor stores
    each one once through ``_setters``, the slots' own descriptor setters in
    ``__slots__`` order. ``__setattr__`` refuses every assignment, and on
    this per-packet path a descriptor setter costs about half of
    ``object.__setattr__``. ``_values`` reads the field tuple that equality
    and the hash use.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class EthernetHeader(_Header):
    __slots__ = ("dst", "src", "ethertype")

    wire_len = ETH_HEADER_LEN

    def __init__(self, dst: MacAddress, src: MacAddress,
                 ethertype: int = ETHERTYPE_IPV4) -> None:
        _check_u16("ethertype", ethertype)
        set_dst, set_src, set_ethertype = self._setters
        set_dst(self, dst)
        set_src(self, src)
        set_ethertype(self, ethertype)

    def to_bytes(self) -> bytes:
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack("!H", self.ethertype)


class ArpHeader(_Header):
    """IPv4-over-Ethernet ARP body."""

    __slots__ = ("op", "sender_mac", "sender_ip", "target_mac", "target_ip")

    wire_len = ARP_BODY_LEN

    def __init__(self, op: int, sender_mac: MacAddress, sender_ip: IPv4Address,
                 target_mac: MacAddress = BROADCAST_MAC,
                 target_ip: IPv4Address = IPv4Address(0)) -> None:
        if op not in (ARP_OP_REQUEST, ARP_OP_REPLY):
            raise PacketError(f"unknown ARP op: {op}")
        set_op, set_sender_mac, set_sender_ip, set_target_mac, set_target_ip = \
            self._setters
        set_op(self, op)
        set_sender_mac(self, sender_mac)
        set_sender_ip(self, sender_ip)
        set_target_mac(self, target_mac)
        set_target_ip(self, target_ip)

    def to_bytes(self) -> bytes:
        return (
            struct.pack("!HHBBH", 1, ETHERTYPE_IPV4, 6, 4, self.op)
            + self.sender_mac.to_bytes()
            + self.sender_ip.to_bytes()
            + (b"\x00" * 6 if self.op == ARP_OP_REQUEST else self.target_mac.to_bytes())
            + self.target_ip.to_bytes()
        )


class Ipv4Header(_Header):
    __slots__ = ("src", "dst", "proto", "payload_len", "ttl", "dscp", "ident")

    wire_len = IPV4_HEADER_LEN

    def __init__(self, src: IPv4Address, dst: IPv4Address, proto: int,
                 payload_len: int = 0, ttl: int = 64, dscp: int = 0,
                 ident: int = 0) -> None:
        if not 0 <= proto <= 0xFF:
            raise PacketError(f"proto out of range: {proto}")
        if not 0 <= ttl <= 0xFF:
            raise PacketError(f"ttl out of range: {ttl}")
        if payload_len < 0:
            raise PacketError(f"negative payload: {payload_len}")
        _check_u16("total length", IPV4_HEADER_LEN + payload_len)
        if not 0 <= dscp <= 0x3F:
            raise PacketError(f"dscp out of range: {dscp}")
        _check_u16("ident", ident)
        (set_src, set_dst, set_proto, set_payload_len, set_ttl, set_dscp,
         set_ident) = self._setters
        set_src(self, src)
        set_dst(self, dst)
        set_proto(self, proto)
        set_payload_len(self, payload_len)
        set_ttl(self, ttl)
        set_dscp(self, dscp)
        set_ident(self, ident)

    @property
    def total_length(self) -> int:
        return IPV4_HEADER_LEN + self.payload_len

    def to_bytes(self) -> bytes:
        without_cksum = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,  # version + IHL
            self.dscp << 2,
            self.total_length,
            self.ident,
            0,  # flags/frag
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        cksum = internet_checksum(without_cksum)
        return without_cksum[:10] + struct.pack("!H", cksum) + without_cksum[12:]

    def decrement_ttl(self) -> "Ipv4Header":
        if self.ttl == 0:
            raise PacketError("TTL already zero")
        return Ipv4Header(self.src, self.dst, self.proto, self.payload_len,
                          self.ttl - 1, self.dscp, self.ident)


class TcpHeader(_Header):
    __slots__ = ("sport", "dport", "seq", "ack", "flags", "window")

    wire_len = TCP_HEADER_LEN

    def __init__(self, sport: int, dport: int, seq: int = 0, ack: int = 0,
                 flags: int = TCP_FLAG_ACK, window: int = 0xFFFF) -> None:
        _check_u16("sport", sport)
        _check_u16("dport", dport)
        if not 0 <= seq < 1 << 32 or not 0 <= ack < 1 << 32:
            raise PacketError("seq/ack out of range")
        if not 0 <= flags <= 0xFF:
            raise PacketError(f"flags out of range: {flags}")
        _check_u16("window", window)
        set_sport, set_dport, set_seq, set_ack, set_flags, set_window = self._setters
        set_sport(self, sport)
        set_dport(self, dport)
        set_seq(self, seq)
        set_ack(self, ack)
        set_flags(self, flags)
        set_window(self, window)

    def to_bytes(self) -> bytes:
        return struct.pack(
            "!HHIIBBHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            5 << 4,  # data offset
            self.flags,
            self.window,
            0,  # checksum omitted (simulation payloads are synthetic)
            0,  # urgent
        )

    def has_flag(self, flag: int) -> bool:
        return bool(self.flags & flag)


class UdpHeader(_Header):
    __slots__ = ("sport", "dport", "payload_len")

    wire_len = UDP_HEADER_LEN

    def __init__(self, sport: int, dport: int, payload_len: int = 0) -> None:
        _check_u16("sport", sport)
        _check_u16("dport", dport)
        _check_u16("udp length", UDP_HEADER_LEN + payload_len)
        set_sport, set_dport, set_payload_len = self._setters
        set_sport(self, sport)
        set_dport(self, dport)
        set_payload_len(self, payload_len)

    @property
    def length(self) -> int:
        return UDP_HEADER_LEN + self.payload_len

    def to_bytes(self) -> bytes:
        return struct.pack("!HHHH", self.sport, self.dport, self.length, 0)


class PacketMeta:
    """Mutable per-packet metadata carried alongside the headers.

    ``owner_pid``/``owner_uid``/``owner_comm`` are *host-side truth* attached
    when a packet is attributed by an on-host interposition layer. Off-host
    observers (network, hypervisor) never see these fields populated — that
    asymmetry is the paper's core argument and the capability matrix tests
    assert it.
    """

    __slots__ = ("created_ns", "enqueued_ns", "delivered_ns", "ingress_port",
                 "queue_id", "conn_id", "owner_pid", "owner_uid", "owner_comm",
                 "tenant_tid", "notes", "trace")

    def __init__(
        self,
        created_ns: int = 0,
        enqueued_ns: int = 0,
        delivered_ns: int = 0,
        ingress_port: Optional[int] = None,
        queue_id: Optional[int] = None,
        conn_id: Optional[int] = None,
        owner_pid: Optional[int] = None,
        owner_uid: Optional[int] = None,
        owner_comm: Optional[str] = None,
        tenant_tid: Optional[int] = None,
        notes: Optional[dict] = None,
        trace: Optional[object] = None,
    ) -> None:
        self.created_ns = created_ns
        self.enqueued_ns = enqueued_ns
        self.delivered_ns = delivered_ns
        self.ingress_port = ingress_port
        self.queue_id = queue_id
        self.conn_id = conn_id
        self.owner_pid = owner_pid
        self.owner_uid = owner_uid
        self.owner_comm = owner_comm
        # Host-side tenant attribution (repro.host.tenants), stamped at the
        # same sites as the owner fields when CostModel.tenants is on.
        self.tenant_tid = tenant_tid
        self.notes = {} if notes is None else notes
        # The packet's TraceContext when tracing is on (repro.trace), else
        # None. Typed as object to keep the wire-format layer free of
        # tracing imports.
        self.trace = trace
