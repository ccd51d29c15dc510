"""Headers, packets, five-tuples."""

import pytest

from repro.errors import PacketError
from repro.net import (
    ARP_OP_REQUEST,
    ETHERTYPE_ARP,
    FiveTuple,
    IPv4Address,
    MacAddress,
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    make_arp_request,
    make_tcp,
    make_udp,
)
from repro.net.checksum import internet_checksum
from repro.net.headers import (
    IPV4_HEADER_LEN,
    TCP_FLAG_SYN,
    ArpHeader,
    EthernetHeader,
    Ipv4Header,
    PacketMeta,
    TcpHeader,
    UdpHeader,
)

MAC_A = MacAddress.from_index(1)
MAC_B = MacAddress.from_index(2)
IP_A = IPv4Address.parse("10.0.0.1")
IP_B = IPv4Address.parse("10.0.0.2")

#: Valid required fields for the header classes the range tests build.
_HEADER_BASE = {
    Ipv4Header: {"src": IP_A, "dst": IP_B, "proto": PROTO_UDP},
    TcpHeader: {"sport": 1, "dport": 2},
}


class TestHeaders:
    def test_ipv4_checksum_is_valid(self):
        hdr = Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_TCP, payload_len=100)
        raw = hdr.to_bytes()
        assert len(raw) == IPV4_HEADER_LEN
        assert internet_checksum(raw) == 0  # checksum over header verifies

    def test_ipv4_total_length(self):
        hdr = Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_UDP, payload_len=80)
        assert hdr.total_length == 100

    def test_ttl_decrement(self):
        hdr = Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_TCP, ttl=2)
        assert hdr.decrement_ttl().ttl == 1
        with pytest.raises(PacketError):
            Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_TCP, ttl=0).decrement_ttl()

    def test_tcp_flags(self):
        tcp = TcpHeader(sport=1, dport=2, flags=TCP_FLAG_SYN)
        assert tcp.has_flag(TCP_FLAG_SYN)
        assert len(tcp.to_bytes()) == 20

    def test_udp_length_field(self):
        udp = UdpHeader(sport=1, dport=2, payload_len=100)
        assert udp.length == 108

    @pytest.mark.parametrize("port", [-1, 65_536])
    def test_port_range_enforced(self, port):
        with pytest.raises(PacketError):
            TcpHeader(sport=port, dport=80)

    def test_ethernet_serialization(self):
        eth = EthernetHeader(dst=MAC_B, src=MAC_A, ethertype=ETHERTYPE_ARP)
        raw = eth.to_bytes()
        assert raw[:6] == MAC_B.to_bytes()
        assert raw[12:14] == b"\x08\x06"

    @pytest.mark.parametrize("cls, field, value", [
        (Ipv4Header, "dscp", 64),
        (Ipv4Header, "dscp", -1),
        (Ipv4Header, "ident", 70_000),
        (Ipv4Header, "ident", -1),
        (TcpHeader, "flags", 256),
        (TcpHeader, "flags", -1),
        (TcpHeader, "window", 70_000),
        (TcpHeader, "window", -1),
    ])
    def test_unencodable_field_rejected_at_construction(self, cls, field, value):
        # Each of these would only fail later, as a struct.error in
        # to_bytes (for instance when a capture is written as pcap).
        with pytest.raises(PacketError, match=f"{field} out of range"):
            cls(**_HEADER_BASE[cls], **{field: value})

    @pytest.mark.parametrize("cls, field, value", [
        (Ipv4Header, "dscp", 63),
        (Ipv4Header, "ident", 0xFFFF),
        (TcpHeader, "flags", 0xFF),
        (TcpHeader, "window", 0xFFFF),
    ])
    def test_field_range_edges_encode(self, cls, field, value):
        hdr = cls(**_HEADER_BASE[cls], **{field: value})
        assert len(hdr.to_bytes()) == hdr.wire_len


class TestPacketConstruction:
    def test_udp_packet_wire_len(self):
        pkt = make_udp(MAC_A, MAC_B, IP_A, IP_B, sport=1000, dport=53, payload_len=100)
        assert pkt.wire_len == 14 + 20 + 8 + 100
        assert pkt.is_udp and not pkt.is_tcp and not pkt.is_arp

    def test_tcp_packet_five_tuple(self):
        pkt = make_tcp(MAC_A, MAC_B, IP_A, IP_B, sport=5555, dport=5432)
        ft = pkt.five_tuple
        assert ft == FiveTuple(PROTO_TCP, IP_A, 5555, IP_B, 5432)

    def test_arp_packet(self):
        pkt = make_arp_request(MAC_A, IP_A, IP_B)
        assert pkt.is_arp
        assert pkt.eth.dst.is_broadcast
        assert pkt.five_tuple is None
        assert pkt.arp.op == ARP_OP_REQUEST
        assert "ARP request" in pkt.summary()

    def test_wire_image_roundtrip_lengths(self):
        pkt = make_udp(MAC_A, MAC_B, IP_A, IP_B, sport=1, dport=2, payload_len=37)
        assert len(pkt.to_bytes()) == pkt.wire_len

    def test_packet_ids_unique(self):
        # Ids strictly increase across every way of building a packet.
        pkts = [
            make_udp(MAC_A, MAC_B, IP_A, IP_B, sport=1, dport=2),
            make_arp_request(MAC_A, IP_A, IP_B),
            make_tcp(MAC_A, MAC_B, IP_A, IP_B, sport=1, dport=2),
            Packet(eth=EthernetHeader(dst=MAC_B, src=MAC_A),
                   ipv4=Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_UDP)),
            make_udp(MAC_A, MAC_B, IP_A, IP_B, sport=1, dport=2),
        ]
        ids = [p.packet_id for p in pkts]
        assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_meta_defaults(self):
        a, b = PacketMeta(), PacketMeta()
        assert (a.created_ns, a.enqueued_ns, a.delivered_ns) == (0, 0, 0)
        assert (a.ingress_port, a.queue_id, a.conn_id, a.tenant_tid, a.trace) == (
            None, None, None, None, None)
        assert (a.owner_pid, a.owner_uid, a.owner_comm) == (None, None, None)
        assert a.notes == {} and a.notes is not b.notes
        a.owner_pid = 7  # metadata stays mutable
        assert a.owner_pid == 7
        with pytest.raises(AttributeError):
            a.unknown_field = 1  # slotted: no per-packet __dict__

    def test_invalid_combinations_rejected(self):
        eth = EthernetHeader(dst=MAC_B, src=MAC_A)
        with pytest.raises(PacketError):
            Packet(eth=eth)  # no L3
        with pytest.raises(PacketError):
            Packet(eth=eth, l4=UdpHeader(1, 2))  # L4 without IP

    def test_summary_formats(self):
        pkt = make_tcp(MAC_A, MAC_B, IP_A, IP_B, sport=80, dport=8080)
        assert "TCP 10.0.0.1:80 > 10.0.0.2:8080" in pkt.summary()


class TestFiveTuple:
    def test_reversed(self):
        ft = FiveTuple(PROTO_TCP, IP_A, 1000, IP_B, 80)
        rev = ft.reversed()
        assert rev.src_ip == IP_B and rev.sport == 80
        assert rev.dst_ip == IP_A and rev.dport == 1000
        assert rev.reversed() == ft

    def test_hashable(self):
        ft = FiveTuple(PROTO_UDP, IP_A, 1, IP_B, 2)
        assert ft in {ft}

    def test_validation(self):
        with pytest.raises(PacketError):
            FiveTuple(300, IP_A, 1, IP_B, 2)
        with pytest.raises(PacketError):
            FiveTuple(PROTO_TCP, IP_A, 70_000, IP_B, 2)


#: Field names in positional order, and sample field values, per value class.
_VALUE_FIELDS = {
    EthernetHeader: (("dst", "src", "ethertype"), (MAC_B, MAC_A, ETHERTYPE_ARP)),
    ArpHeader: (("op", "sender_mac", "sender_ip", "target_mac", "target_ip"),
                (ARP_OP_REQUEST, MAC_A, IP_A, MAC_B, IP_B)),
    Ipv4Header: (("src", "dst", "proto", "payload_len", "ttl", "dscp", "ident"),
                 (IP_A, IP_B, PROTO_UDP, 100, 9, 46, 7)),
    TcpHeader: (("sport", "dport", "seq", "ack", "flags", "window"),
                (1, 2, 3, 4, TCP_FLAG_SYN, 5)),
    UdpHeader: (("sport", "dport", "payload_len"), (1, 2, 3)),
    FiveTuple: (("proto", "src_ip", "sport", "dst_ip", "dport"),
                (PROTO_TCP, IP_A, 1000, IP_B, 80)),
}
_VALUE_CLASSES = list(_VALUE_FIELDS)
#: One field changed per class: a different value.
_VALUE_CHANGES = {
    EthernetHeader: {"src": MAC_B},
    ArpHeader: {"target_ip": IP_A},
    Ipv4Header: {"ttl": 10},
    TcpHeader: {"window": 6},
    UdpHeader: {"payload_len": 4},
    FiveTuple: {"dport": 81},
}


def _sample(cls, **changes):
    names, values = _VALUE_FIELDS[cls]
    kwargs = dict(zip(names, values))
    kwargs.update(changes)
    return cls(**kwargs)


class TestValueSemantics:
    """Headers and five-tuples are immutable values."""

    @pytest.mark.parametrize("cls", _VALUE_CLASSES, ids=lambda c: c.__name__)
    def test_assignment_raises(self, cls):
        value = _sample(cls)
        for name in _VALUE_FIELDS[cls][0]:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("cls", _VALUE_CLASSES, ids=lambda c: c.__name__)
    def test_equal_fields_equal_and_hash_equal(self, cls):
        names, values = _VALUE_FIELDS[cls]
        a = _sample(cls)
        b = cls(*values)  # positional and keyword construction agree
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in names))
        assert tuple(getattr(a, n) for n in names) == values

    @pytest.mark.parametrize("cls", _VALUE_CLASSES, ids=lambda c: c.__name__)
    def test_a_different_field_is_a_different_value(self, cls):
        a, b = _sample(cls), _sample(cls, **_VALUE_CHANGES[cls])
        assert a != b and not a == b

    def test_different_classes_never_compare_equal(self):
        # A TCP and a UDP header with the same ports, and a five-tuple
        # beside the plain tuple of its fields, are still different values.
        values = [_sample(cls) for cls in _VALUE_CLASSES]
        values += [
            TcpHeader(1, 2), UdpHeader(1, 2),
            tuple(_VALUE_FIELDS[FiveTuple][1]),
        ]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                if i != j:
                    assert a != b and not a == b, (a, b)

    def test_five_tuple_hashes_as_its_field_tuple(self):
        p, a, s, b, d = PROTO_UDP, IP_A, 5_000, IP_B, 9_000
        assert hash(FiveTuple(p, a, s, b, d)) == hash((p, a, s, b, d))
        assert {FiveTuple(p, a, s, b, d): 1}.get((p, a, s, b, d)) is None

    def test_five_tuple_text(self):
        # str() keys the cluster balancer's consistent-hash ring.
        ft = FiveTuple(PROTO_TCP, IP_A, 5555, IPv4Address.parse("192.168.1.20"), 5432)
        assert str(ft) == "10.0.0.1:5555 -> 192.168.1.20:5432 proto=6"
        assert repr(ft) == (
            "FiveTuple(proto=6, src_ip=IPv4Address('10.0.0.1'), sport=5555, "
            "dst_ip=IPv4Address('192.168.1.20'), dport=5432)"
        )

    def test_header_repr(self):
        assert repr(UdpHeader(1, 2, 3)) == "UdpHeader(sport=1, dport=2, payload_len=3)"
        assert repr(TcpHeader(1, 2)) == (
            "TcpHeader(sport=1, dport=2, seq=0, ack=0, flags=16, window=65535)"
        )
