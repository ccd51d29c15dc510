"""tcpdump analogue.

Filter expressions are a pcap-filter subset: ``arp``, ``tcp``, ``udp``,
``port N``, ``src port N``, ``dst port N``, ``host A.B.C.D``, combined with
``and``. An empty expression captures everything.

Output lines mimic tcpdump, with one extension: when the plane's captures
are attributed (kernel, sidecar, KOPI; not the hypervisor), each line is
suffixed with ``[pid=… uid=… comm=…]`` — the §2 debugging capability in
one glance. Every capture can be saved as a pcap file.
"""

from __future__ import annotations

from typing import List

from .. import units
from ..errors import ToolError
from ..net.headers import PROTO_TCP, PROTO_UDP
from ..net.addresses import IPv4Address
from ..net.packet import Packet
from ..dataplanes.base import Dataplane
from ..net.capture import CaptureSession, PacketFilter


def compile_filter(expr: str) -> PacketFilter:
    """Compile a filter expression to a packet predicate."""
    expr = expr.strip()
    if not expr:
        return lambda _pkt: True
    clauses = [c.strip() for c in expr.split(" and ")]
    predicates = [_compile_clause(c) for c in clauses]

    def combined(pkt: Packet) -> bool:
        return all(p(pkt) for p in predicates)

    return combined


def _compile_clause(clause: str) -> PacketFilter:
    tokens = clause.split()
    if tokens == ["arp"]:
        return lambda p: p.is_arp
    # An L4 header implies an IPv4 one (Packet enforces it).
    if tokens == ["tcp"]:
        return lambda p: p.l4 is not None and p.ipv4.proto == PROTO_TCP
    if tokens == ["udp"]:
        return lambda p: p.l4 is not None and p.ipv4.proto == PROTO_UDP
    if len(tokens) == 2 and tokens[0] == "port":
        port = _port(tokens[1])
        return lambda p: p.l4 is not None and port in (p.l4.sport, p.l4.dport)
    if len(tokens) == 3 and tokens[1] == "port" and tokens[0] in ("src", "dst"):
        port = _port(tokens[2])
        if tokens[0] == "src":
            return lambda p: p.l4 is not None and p.l4.sport == port
        return lambda p: p.l4 is not None and p.l4.dport == port
    if len(tokens) == 2 and tokens[0] == "host":
        ip = IPv4Address.parse(tokens[1])
        return lambda p: p.l4 is not None and ip in (p.ipv4.src, p.ipv4.dst)
    raise ToolError(f"tcpdump: cannot parse clause {clause!r}")


def _port(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ToolError(f"tcpdump: bad port {text!r}") from exc


class Tcpdump:
    """Start/stop captures and format their contents."""

    def __init__(self, dataplane: Dataplane):
        self.dataplane = dataplane

    def start(self, expr: str = "", name: str = "tcpdump") -> CaptureSession:
        """May raise UnsupportedOperation — e.g. under kernel bypass."""
        return self.dataplane.start_capture(match=compile_filter(expr), name=name)

    def format(self, session: CaptureSession) -> str:
        lines: List[str] = []
        for pkt in session.packets:
            stamp = units.fmt_time(pkt.meta.delivered_ns or pkt.meta.created_ns)
            line = f"{stamp}  {pkt.summary()}"
            owner = self.dataplane.attribution_of(pkt)
            if owner is not None:
                pid, uid, comm = owner
                line += f"  [pid={pid} uid={uid} comm={comm}]"
            lines.append(line)
        footer = f"{len(session.packets)} packets captured"
        return "\n".join(lines + [footer])

    def save_pcap(self, session: CaptureSession, path: str) -> str:
        """Write the capture as a real pcap file."""
        session.pcap.save(path)
        return path
