"""Testbed: one host (with a chosen dataplane) wired to a traffic peer.

Every experiment, example, and integration test builds one of these: the
host machine, the selected dataplane, a full-duplex access link, and a
:class:`TrafficPeer` standing in for "the rest of the network" — it counts
and meters what the host emits, and can inject traffic toward the host.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Type

from ..config import DEFAULT_COSTS, CostModel
from ..host.machine import Machine
from ..net.addresses import IPv4Address, MacAddress
from ..net.link import Link
from ..net.packet import Packet, make_tcp, make_udp
from ..sim import MetricSet, Simulator
from .base import Dataplane

HOST_IP = IPv4Address.parse("10.0.0.1")
HOST_MAC = MacAddress.from_index(1)
PEER_IP = IPv4Address.parse("10.0.0.9")
PEER_MAC = MacAddress.from_index(9)


class TrafficPeer:
    """The far end of the host's access link."""

    def __init__(self, sim: Simulator, ip: IPv4Address, mac: MacAddress, uplink: Link):
        self.sim = sim
        self.ip = ip
        self.mac = mac
        self.uplink = uplink  # peer -> host
        self.received: List[Packet] = []
        self.metrics = MetricSet("peer")
        self._echo: Optional[Callable[[Packet], Optional[int]]] = None

    # --- sink side -------------------------------------------------------

    def receive(self, pkt: Packet) -> None:
        """Attached to the host's egress link."""
        self.received.append(pkt)
        self.metrics.counter("rx_pkts").inc()
        self.metrics.meter("rx_bytes").record(self.sim.now, pkt.wire_len)
        ip = pkt.ipv4
        l4 = pkt.l4
        if ip is not None and l4 is not None:
            self.metrics.meter(f"rx_dport_{l4.dport}").record(self.sim.now, pkt.wire_len)
            if self._echo is not None:
                reply_len = self._echo(pkt)
                if reply_len is not None:
                    self.send_udp(
                        sport=l4.dport, dport=l4.sport, payload_len=reply_len,
                        dst_ip=ip.src,
                    )

    def receive_fluid(self, n: int, wire_len: int, dport: int = 0,
                      flow=None, eth_dst=None) -> None:
        """Bulk counterpart of :meth:`receive` for fast-forwarded TX
        epochs: moves the packet/byte/dport counters exactly as ``n``
        receives would, without materializing Packet objects (``received``
        is a capture artifact, not a counted observable) and without the
        echo hook — fluid TX models a sink peer, and a promoting plane
        must stay exact for request/reply traffic it needs answered."""
        self.metrics.counter("rx_pkts").inc(n)
        self.metrics.meter("rx_bytes").record(self.sim.now, n * wire_len)
        if dport:
            self.metrics.meter(f"rx_dport_{dport}").record(
                self.sim.now, n * wire_len)

    def enable_echo(self, reply_len_of: Callable[[Packet], Optional[int]]) -> None:
        """Reply to each received packet (RPC-style). ``reply_len_of``
        returns the response payload size, or None for no reply."""
        self._echo = reply_len_of

    def bytes_to_dport(self, dport: int) -> int:
        return self.metrics.meter(f"rx_dport_{dport}").total_bytes

    # --- source side --------------------------------------------------------

    def send(self, pkt: Packet) -> bool:
        self.metrics.counter("tx_pkts").inc()
        return self.uplink.send(pkt)

    def send_udp(
        self,
        sport: int,
        dport: int,
        payload_len: int,
        dst_ip: IPv4Address = HOST_IP,
        dst_mac: MacAddress = HOST_MAC,
        src_ip: Optional[IPv4Address] = None,
    ) -> bool:
        return self.send(
            make_udp(self.mac, dst_mac, src_ip or self.ip, dst_ip, sport, dport, payload_len)
        )

    def send_tcp(
        self, sport: int, dport: int, payload_len: int,
        dst_ip: IPv4Address = HOST_IP, dst_mac: MacAddress = HOST_MAC,
    ) -> bool:
        return self.send(
            make_tcp(self.mac, dst_mac, self.ip, dst_ip, sport, dport, payload_len)
        )


class Testbed:
    """Host + dataplane + duplex link + peer, ready to run."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        dataplane_cls: Type[Dataplane],
        costs: CostModel = DEFAULT_COSTS,
        n_cores: int = 8,
        structural_cache: bool = False,
        link_rate_bps: Optional[int] = None,
        link_queue_packets: int = 4_096,
        **dataplane_kwargs: object,
    ):
        self.sim = Simulator()
        self.machine = Machine(
            sim=self.sim, costs=costs, n_cores=n_cores, structural_cache=structural_cache
        )
        rate = link_rate_bps or costs.nic_line_rate_bps
        self.egress = Link(
            self.sim, rate, costs.link_propagation_ns, link_queue_packets, name="host_tx"
        )
        self.ingress = Link(
            self.sim, rate, costs.link_propagation_ns, link_queue_packets, name="host_rx"
        )
        self.dataplane: Dataplane = dataplane_cls(  # type: ignore[call-arg]
            self.machine, HOST_IP, HOST_MAC, self.egress, **dataplane_kwargs
        )
        self.peer = TrafficPeer(self.sim, PEER_IP, PEER_MAC, uplink=self.ingress)
        self.egress.attach(self.peer.receive)
        self.egress.attach_fluid(self.peer.receive_fluid)
        self.ingress.attach(self.dataplane.wire_rx)  # type: ignore[attr-defined]
        kernel = getattr(self.dataplane, "kernel", None)
        if kernel is not None:
            kernel.register_neighbor(PEER_IP, PEER_MAC)

    # --- conveniences -------------------------------------------------------

    @property
    def kernel(self):
        return getattr(self.dataplane, "kernel")

    def user(self, name: str):
        """Get or create a user."""
        users = self.kernel.users
        return users.by_name(name) if name in users else users.add(name)

    def spawn(self, comm: str, user_name: str = "root", core_id: int = 0):
        return self.kernel.spawn(comm, self.user(user_name), core_id=core_id)

    def run(self, until: Optional[int] = None) -> int:
        return self.sim.run(until=until)

    def run_all(self, max_events: int = 10_000_000) -> int:
        return self.sim.run_until_idle(max_events=max_events)
