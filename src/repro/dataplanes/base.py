"""The dataplane interface every architecture implements.

The administrative surface mirrors §2's four scenarios:

* :meth:`Dataplane.install_filter_rule` — iptables (port partitioning);
* :meth:`Dataplane.configure_qos` — tc (traffic shaping);
* :meth:`Dataplane.start_capture` — tcpdump (debugging);
* blocking :meth:`Endpoint.recv` — the process-scheduling scenario.

Implementations raise :class:`~repro.errors.UnsupportedOperation` for
anything their placement cannot do; the capability matrix is computed from
those refusals, not from hand-written tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import UnsupportedOperation
from ..kernel.netfilter import NetfilterRule
from ..net.addresses import IPv4Address, MacAddress
from ..net.capture import CaptureSession, PacketFilter, Sniffer
from ..net.headers import PROTO_TCP
from ..net.packet import Packet, UdpTemplate, make_tcp, make_udp
from ..sim import Signal

Message = Tuple[int, IPv4Address, int]  # (payload_len, src_ip, sport)


class _AsBool(Signal):
    """A send_burst count signal adapted to the per-packet bool contract.
    The adapter is itself the burst signal's callback, so a send of one
    costs the GC no closure, cell or callback list."""

    __slots__ = ()

    def __call__(self, burst: Signal) -> None:
        if burst.failed:
            self.fail(burst.exception)
        else:
            self.succeed(bool(burst.value))


class _AsFirst(Signal):
    """A recv_burst message-list signal adapted to the single-message
    contract, as its own callback (see :class:`_AsBool`)."""

    __slots__ = ()

    def __call__(self, burst: Signal) -> None:
        if burst.failed:
            self.fail(burst.exception)
        else:
            self.succeed(burst.value[0])


def _as_bool(burst_sig: Signal, name: str) -> Signal:
    """Adapt a send_burst count signal to the per-packet bool contract."""
    out = _AsBool(name)
    burst_sig.add_callback(out)
    return out


def _as_first(burst_sig: Signal, name: str) -> Signal:
    """Adapt a recv_burst message-list signal to the single-message contract."""
    out = _AsFirst(name)
    burst_sig.add_callback(out)
    return out


class _Rearm:
    """Base of a per-call continuation that polls or blocks: the subclass
    keeps the call's state in its slots and defines ``step``, one attempt
    that returns the Signal to wait on, or None when the call is done.
    Calling the object runs ``step``, so call it to start now or add it
    to a Signal to start once that fires; it then runs ``step`` again
    each time the Signal ``step`` returned fires.

    The wake-up Signal holds the object and the object must not reach it:
    then a call that polls or blocks any number of times forms no
    reference cycle, reference counting alone frees it, and re-arming
    allocates nothing.
    """

    __slots__ = ()

    def step(self) -> Optional[Signal]:
        raise NotImplementedError

    def __call__(self, _fired: Optional[Signal] = None) -> None:
        wake = self.step()
        if wake is not None:
            wake.add_callback(self)


def _message_of(pkt: Packet) -> Message:
    """The :data:`Message` a received packet hands the application."""
    ip = pkt.ipv4
    l4 = pkt.l4
    if ip is None or l4 is None:
        return (pkt.wire_len, IPv4Address(0), 0)
    return (pkt.payload_len, ip.src, l4.sport)


@dataclass
class QosConfig:
    """A tc-style shaping policy: relative weights per cgroup path, drained
    work-conservingly at the link rate (WFQ/DRR semantics)."""

    weights_by_cgroup: Dict[str, int]
    quantum_bytes: int = 1_514

    def __post_init__(self) -> None:
        if not self.weights_by_cgroup:
            raise UnsupportedOperation("QoS config needs at least one class")


def describe_qos(policy: Optional[QosConfig]) -> str:
    """Render the committed shaping policy the way ``tc qdisc show`` does.

    Derived from the qdisc interposition point's committed policy object so
    tool output can never diverge from engine state.
    """
    if policy is None:
        return "pfifo (default)"
    weights = " ".join(
        f"{path}:{w}" for path, w in sorted(policy.weights_by_cgroup.items())
    )
    return f"wfq {weights}"


class Endpoint:
    """One application's handle onto the network."""

    #: The headers of the last UDP datagram shape sent, set at the first
    #: send (see :class:`~repro.net.packet.UdpTemplate`).
    udp_template: Optional[UdpTemplate] = None

    def __init__(self, dataplane: "Dataplane", proc, proto: int, port: int):
        self.dataplane = dataplane
        self.proc = proc
        self.proto = proto
        self.port = port
        self.closed = False

    def connect(self, dst_ip: IPv4Address, dport: int) -> Signal:
        """Establish a connection to a peer; resolves when usable."""
        raise NotImplementedError

    def send(self, payload_len: int, dst: Optional[Tuple[IPv4Address, int]] = None) -> Signal:
        """Send one message, as a burst of one; resolves True when handed
        to the wire layer, False when dropped by policy or backpressure."""
        return _as_bool(self.send_burst((payload_len,), dst), "endpoint.send")

    def recv(self, blocking: bool = True) -> Signal:
        """Receive one :data:`Message`, as a burst of one. Blocking
        semantics (sleep vs poll) are the dataplane's — that difference is
        experiment E6."""
        return _as_first(self.recv_burst(1, blocking=blocking), "endpoint.recv")

    # --- burst interface ---------------------------------------------------
    #
    # The burst calls are the real dataplane surface; per-packet send/recv
    # are the degenerate burst of one. Every plane implements both natively
    # (rings with one doorbell per burst, sendmmsg, NAPI drains).

    def send_burst(
        self, payload_lens: Sequence[int], dst: Optional[Tuple[IPv4Address, int]] = None
    ) -> Signal:
        """Send a burst of messages; resolves with the number admitted."""
        raise NotImplementedError

    def recv_burst(self, max_msgs: int, blocking: bool = True) -> Signal:
        """Receive up to ``max_msgs`` messages; resolves with the list.

        Blocking semantics follow :meth:`recv` for the *first* message;
        the rest are taken only if already available (MSG_WAITFORONE).
        """
        raise NotImplementedError

    def close(self) -> None:
        self.closed = True


def build_packet_by_ip(
    dp: "Dataplane", ep: Endpoint, dst_ip: IPv4Address, dport: int, payload_len: int
) -> Packet:
    """``build_packet`` of the bypass, hypervisor and sidecar planes, which
    address a peer's MAC by its IP: one frame from ``dp``'s host address
    and ``ep``'s port. The MAC follows from the IP, so a UDP shape leaves
    it out and a repeat of the endpoint's last shape builds only the
    ``Packet`` (see :class:`~repro.net.packet.UdpTemplate`). Only UDP
    sends set a template."""
    key = (dst_ip, dport, payload_len)
    template = ep.udp_template
    if template is not None and template.key == key:
        return Packet(template.eth, template.ipv4, template.udp, None, payload_len)
    dst_mac = MacAddress.from_index(dst_ip.value & 0xFF_FFFF)
    if ep.proto == PROTO_TCP:
        return make_tcp(dp.host_mac, dst_mac, dp.host_ip, dst_ip, ep.port, dport, payload_len)
    pkt = make_udp(dp.host_mac, dst_mac, dp.host_ip, dst_ip, ep.port, dport, payload_len)
    ep.udp_template = UdpTemplate(key, pkt)
    return pkt


class Dataplane:
    """Interface + shared refusal helpers."""

    name = "abstract"

    #: Whether a blocked receiver sleeps (True) or must burn a core polling.
    supports_blocking_io = False

    #: The plane's capture point, None where no layer sees all of the
    #: host's traffic.
    sniffer: Optional[Sniffer] = None

    def open_endpoint(self, proc, proto: int, port: Optional[int] = None) -> Endpoint:
        raise NotImplementedError

    # --- administrative surface ------------------------------------------

    def install_filter_rule(self, rule: NetfilterRule) -> None:
        """Apply an iptables-style rule (owner matches included)."""
        raise UnsupportedOperation(f"{self.name}: no interposition point for filtering")

    def configure_qos(self, config: QosConfig) -> None:
        """Apply a tc-style cgroup shaping policy."""
        raise UnsupportedOperation(f"{self.name}: no interposition point for QoS")

    def start_capture(
        self, match: Optional[PacketFilter] = None, name: str = "capture"
    ) -> CaptureSession:
        """tcpdump: observe *all* of the host's traffic."""
        if self.sniffer is None:
            raise UnsupportedOperation(f"{self.name}: no global capture point")
        return self.sniffer.start(match, name)

    def attribution_of(self, pkt: Packet) -> Optional[Tuple[int, int, str]]:
        """(pid, uid, comm) for a packet, if this layer can know it: a
        plane knows owners exactly when its captures are attributed."""
        if self.sniffer is None or not self.sniffer.attributed or pkt.meta.owner_pid is None:
            return None
        return (pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm)

    def arp_entries(self) -> List[object]:
        """The host-wide ARP view an admin can inspect (``ifconfig``/ARP
        cache); empty when no layer observes ARP globally."""
        return []

    # --- accounting -----------------------------------------------------------

    def data_movements(self) -> Dict[str, int]:
        """How many virtual (copy/syscall) and physical (cross-core) moves
        this dataplane performed — §1's taxonomy, reported by E2."""
        return {"virtual": 0, "physical": 0}
