"""Property-based tests: rules that read header fields match exactly the
packets that a match over the packet's five-tuple would."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conntrack import NAT_PORT_BASE, NatTable
from repro.kernel.netfilter import ACCEPT, CHAIN_INPUT, CHAIN_OUTPUT, DROP, NetfilterRule
from repro.net import (
    IPv4Address,
    MacAddress,
    MatchAction,
    Packet,
    make_arp_request,
    make_tcp,
    make_udp,
)
from repro.net.headers import PROTO_TCP, PROTO_UDP, EthernetHeader, Ipv4Header
from repro.nic.smartnic import SramAllocator

MAC_A, MAC_B = MacAddress.from_index(1), MacAddress.from_index(2)
PUBLIC = IPv4Address.parse("192.0.2.1")
# Small pools, so that rules and packets agree on a field often.
IPS = [IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2"), PUBLIC]
PORTS = [53, 5432, 9000, NAT_PORT_BASE]
PROTOS = [PROTO_TCP, PROTO_UDP, 1]
OWNERS = [(100, 1000, "postgres"), (101, 1001, "mysqld")]

ips = st.sampled_from(IPS)
ports = st.sampled_from(PORTS)


def _maybe(strategy):
    return st.none() | strategy


@st.composite
def packets(draw):
    kind = draw(st.sampled_from(["udp", "tcp", "arp", "ip_only", "nat_out", "nat_in"]))
    src, dst = draw(ips), draw(ips)
    sport, dport = draw(ports), draw(ports)
    payload = draw(st.integers(0, 1400))
    if kind == "arp":
        return make_arp_request(MAC_A, src, dst)
    if kind == "ip_only":
        return Packet(eth=EthernetHeader(dst=MAC_B, src=MAC_A),
                      ipv4=Ipv4Header(src=src, dst=dst, proto=draw(st.sampled_from(PROTOS))))
    tcp = kind == "tcp" or (kind.startswith("nat") and draw(st.booleans()))
    maker = make_tcp if tcp else make_udp
    pkt = maker(MAC_A, MAC_B, src, dst, sport, dport, payload)
    if kind in ("udp", "tcp"):
        return pkt
    # NAT rewrites rebuild the packet: matching must see the new headers.
    nat = NatTable(SramAllocator(1 << 20), PUBLIC)
    out = nat.translate_out(pkt)
    if kind == "nat_out":
        return out
    reply = maker(MAC_B, MAC_A, dst, PUBLIC, dport, out.l4.sport, payload)
    return nat.translate_in(reply)


@st.composite
def netfilter_rules(draw):
    owner_fields = {}
    if draw(st.booleans()):
        # Some of one process's owner fields, so that owner rules can match.
        pid, uid, comm = draw(st.sampled_from(OWNERS))
        for name, value in (("pid_owner", pid), ("uid_owner", uid), ("cmd_owner", comm)):
            if draw(st.booleans()):
                owner_fields[name] = value
    return NetfilterRule(
        verdict=draw(st.sampled_from([ACCEPT, DROP])),
        chain=draw(st.sampled_from([CHAIN_INPUT, CHAIN_OUTPUT])),
        proto=draw(_maybe(st.sampled_from(PROTOS))),
        src_ip=draw(_maybe(ips)),
        dst_ip=draw(_maybe(ips)),
        sport=draw(_maybe(ports)),
        dport=draw(_maybe(ports)),
        **owner_fields,
    )


@st.composite
def match_actions(draw):
    return MatchAction(
        action=draw(st.sampled_from(["drop", "allow", "mirror"])),
        proto=draw(_maybe(st.sampled_from(PROTOS))),
        src_ip=draw(_maybe(ips)),
        dst_ip=draw(_maybe(ips)),
        sport=draw(_maybe(ports)),
        dport=draw(_maybe(ports)),
    )


def reference_netfilter_match(rule, pkt, owner):
    """The rule match written over ``pkt.five_tuple``."""
    ft = pkt.five_tuple
    if ft is None:
        return False
    if rule.proto is not None and ft.proto != rule.proto:
        return False
    if rule.src_ip is not None and ft.src_ip != rule.src_ip:
        return False
    if rule.dst_ip is not None and ft.dst_ip != rule.dst_ip:
        return False
    if rule.sport is not None and ft.sport != rule.sport:
        return False
    if rule.dport is not None and ft.dport != rule.dport:
        return False
    if rule.needs_owner:
        if owner is None:
            return False
        pid, uid, comm = owner
        if rule.pid_owner is not None and pid != rule.pid_owner:
            return False
        if rule.uid_owner is not None and uid != rule.uid_owner:
            return False
        if rule.cmd_owner is not None and comm != rule.cmd_owner:
            return False
    return True


def reference_match_action(rule, pkt):
    """The match-action match written over ``pkt.five_tuple``."""
    ft = pkt.five_tuple
    if ft is None:
        return False
    return (
        (rule.proto is None or ft.proto == rule.proto)
        and (rule.src_ip is None or ft.src_ip == rule.src_ip)
        and (rule.dst_ip is None or ft.dst_ip == rule.dst_ip)
        and (rule.sport is None or ft.sport == rule.sport)
        and (rule.dport is None or ft.dport == rule.dport)
    )


class TestHeaderFieldMatching:
    @given(rule=netfilter_rules(), pkt=packets(),
           owner=_maybe(st.sampled_from(OWNERS)))
    @settings(max_examples=400)
    def test_netfilter_rule_matches_as_over_five_tuple(self, rule, pkt, owner):
        assert rule.matches(pkt, owner) == reference_netfilter_match(rule, pkt, owner)

    @given(rule=match_actions(), pkt=packets())
    @settings(max_examples=400)
    def test_match_action_matches_as_over_five_tuple(self, rule, pkt):
        assert rule.matches(pkt) == reference_match_action(rule, pkt)

    @given(rule=netfilter_rules(), owner=_maybe(st.sampled_from(OWNERS)),
           src=ips, dst=ips)
    @settings(max_examples=50)
    def test_packets_without_l4_never_match(self, rule, owner, src, dst):
        arp = make_arp_request(MAC_A, src, dst)
        ip_only = Packet(eth=EthernetHeader(dst=MAC_B, src=MAC_A),
                         ipv4=Ipv4Header(src=src, dst=dst, proto=PROTO_UDP))
        for pkt in (arp, ip_only):
            assert not rule.matches(pkt, owner)
            assert not MatchAction(action="drop").matches(pkt)
