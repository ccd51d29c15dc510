"""Network substrate: headers, packets, links, switching, RSS, capture, pcap,
traffic.

Everything above the host: real (serializable) protocol headers so that the
tcpdump analogue writes genuine pcap bytes, the one capture tap every
capturing plane mirrors into, a Toeplitz RSS hash, rate-limited
links, an L2 switch, and an in-network match-action interposer used as the
"interpose in the network" comparator of §2.
"""

from .addresses import BROADCAST_MAC, IPv4Address, MacAddress
from .capture import CaptureSession, Sniffer
from .checksum import internet_checksum
from .flow import FiveTuple
from .headers import (
    ARP_OP_REPLY,
    ARP_OP_REQUEST,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    ArpHeader,
    EthernetHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)
from .link import Link
from .packet import Packet, make_arp_request, make_tcp, make_udp
from .pcap import PcapWriter
from .rss import DEFAULT_RSS_KEY, rss_queue, toeplitz_hash
from .switch import L2Switch, MatchAction, NetworkInterposer
from .traffic import cbr_arrivals, onoff_arrivals, poisson_arrivals

__all__ = [
    "ARP_OP_REPLY",
    "ARP_OP_REQUEST",
    "BROADCAST_MAC",
    "DEFAULT_RSS_KEY",
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "ArpHeader",
    "CaptureSession",
    "EthernetHeader",
    "FiveTuple",
    "IPv4Address",
    "Ipv4Header",
    "L2Switch",
    "Link",
    "MacAddress",
    "MatchAction",
    "NetworkInterposer",
    "Packet",
    "PcapWriter",
    "PROTO_TCP",
    "PROTO_UDP",
    "Sniffer",
    "TcpHeader",
    "UdpHeader",
    "cbr_arrivals",
    "internet_checksum",
    "make_arp_request",
    "make_tcp",
    "make_udp",
    "onoff_arrivals",
    "poisson_arrivals",
    "rss_queue",
    "toeplitz_hash",
]
