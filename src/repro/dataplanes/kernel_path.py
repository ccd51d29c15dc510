"""The classic kernel-stack dataplane.

Everything §2 wants works here — owner filtering, cgroup QoS, attributed
tcpdump, blocking I/O, a global ARP cache — because every packet crosses the
kernel. The price is §1's virtual data movement: a syscall and a copy per
packet, all on the application's core.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CostModel
from ..errors import UnsupportedOperation
from ..host.machine import Machine
from ..interpose import InterpositionPoint
from ..kernel.kernel import Kernel
from ..kernel.netfilter import NetfilterRule
from ..net.addresses import IPv4Address, MacAddress
from ..net.link import Link
from ..net.packet import Packet
from ..nic.base import BasicNic
from ..sim import Signal
from .base import Dataplane, Endpoint, QosConfig, configure_cgroup_qos, describe_qos


class KernelEndpoint(Endpoint):
    """Endpoint over a kernel socket."""

    def __init__(self, dataplane: "KernelPathDataplane", proc, proto: int, port: Optional[int]):
        self._dp = dataplane
        if port is None:
            self.sock = dataplane.kernel.sockets.bind_ephemeral(proc, proto)
        else:
            self.sock = dataplane.kernel.sockets.bind(proc, proto, port)
        super().__init__(dataplane, proc, proto, self.sock.port)

    def connect(self, dst_ip: IPv4Address, dport: int) -> Signal:
        return self._dp.kernel.netstack.connect(self.proc, self.sock, dst_ip, dport)

    def send_burst(
        self, payload_lens: Sequence[int], dst: Optional[Tuple[IPv4Address, int]] = None
    ) -> Signal:
        """sendmmsg: one kernel crossing for the whole burst."""
        if dst is None:
            if self.sock.peer is None:
                raise UnsupportedOperation("send without destination on unconnected socket")
            dst = self.sock.peer
        return self._dp.kernel.netstack.sendmmsg(
            self.proc, self.sock, dst[0], dst[1], payload_lens
        )

    def recv_burst(self, max_msgs: int, blocking: bool = True) -> Signal:
        """recvmmsg: drain queued messages under one crossing."""
        return self._dp.kernel.netstack.recvmmsg(
            self.proc, self.sock, max_msgs, blocking=blocking
        )

    def send_raw(self, pkt: Packet) -> Signal:
        raise UnsupportedOperation(
            "kernel path: applications cannot inject raw frames; the kernel "
            "owns ARP and L2"
        )

    def close(self) -> None:
        if not self.closed:
            self._dp.kernel.netstack.close(self.sock)
        super().close()


class KernelPathDataplane(Dataplane):
    """Kernel stack + conventional NIC."""

    name = "kernel"
    supports_blocking_io = True

    def __init__(
        self,
        machine: Machine,
        host_ip: IPv4Address,
        host_mac: MacAddress,
        egress: Link,
        n_queues: int = 8,
    ):
        self.machine = machine
        self.costs: CostModel = machine.costs
        machine.tracer.plane = self.name
        self.nic = BasicNic(
            machine.sim, machine.costs, machine.dma, egress, n_queues=n_queues,
            fastpath=machine.fastpath, tracer=machine.tracer,
        )
        self.kernel = Kernel(
            machine, host_ip, host_mac,
            nic_send=self._kernel_tx, tx_rate_bps=egress.rate_bps,
        )
        for queue in self.nic.queues:
            queue.set_handler(self._nic_rx_burst)
        # Register every interposition mechanism this plane owns with the
        # machine's PolicyEngine ("netfilter" is registered by Kernel itself).
        engine = machine.interpose
        qdisc_point = engine.register(InterpositionPoint(
            name="qdisc", plane="kernel", mechanism="qdisc",
            install_latency_ns=self.costs.kernel_update_ns,
            target=self.kernel.netstack.egress,
        ))
        qdisc_point.describe = lambda: describe_qos(qdisc_point.policy)
        self.kernel.netstack.egress.point = qdisc_point
        self.sniffer = self.kernel.netstack.sniffer
        self.sniffer.point = engine.register(InterpositionPoint(
            name="sniffer", plane="kernel", mechanism="tap",
            install_latency_ns=self.costs.kernel_update_ns,
            target=self.sniffer,
        ))
        self.nic.steering.point = engine.register(InterpositionPoint(
            name="steering", plane="nic", mechanism="steering",
            install_latency_ns=self.costs.table_update_ns,
            target=self.nic.steering,
        ))

    # --- wire plumbing -----------------------------------------------------

    def _kernel_tx(self, pkt: Packet) -> None:
        self.nic.tx(pkt)

    def wire_rx(self, pkt: Packet) -> None:
        """Attach this to the ingress link."""
        self.nic.rx_from_wire(pkt)

    def _nic_rx_burst(self, pkts: List[Packet]) -> None:
        """NAPI poll: one softirq for the whole coalesced burst."""
        data = []
        for pkt in pkts:
            if pkt.is_arp:
                self.kernel.observe_arp(pkt)
                self.sniffer.mirror(pkt)
            else:
                data.append(pkt)
        if data:
            self.kernel.netstack.deliver_burst(data)

    # --- application surface --------------------------------------------------

    def open_endpoint(self, proc, proto: int, port: Optional[int] = None) -> KernelEndpoint:
        return KernelEndpoint(self, proc, proto, port)

    # --- administrative surface --------------------------------------------------

    def install_filter_rule(self, rule: NetfilterRule) -> None:
        self.kernel.filters.append(rule)

    def configure_qos(self, config: QosConfig) -> None:
        configure_cgroup_qos(self.kernel, self.kernel.netstack.egress, config)

    def arp_entries(self) -> List[object]:
        return self.kernel.arp_cache.entries()

    def data_movements(self) -> Dict[str, int]:
        syscalls = self.kernel.syscalls.metrics.counter("total").value
        copies = (
            self.kernel.syscalls.metrics.counter("copy_in_bytes").value
            + self.kernel.syscalls.metrics.counter("copy_out_bytes").value
        )
        return {"virtual": syscalls, "virtual_copied_bytes": copies, "physical": 0}
