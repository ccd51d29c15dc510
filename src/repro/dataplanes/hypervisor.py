"""AccelNet-style hypervisor vswitch offloaded to the NIC.

This plane is the bypass plane plus an on-NIC vswitch: applications see
the same descriptor rings and poll them the same way, and only where
interposition sits differs. Performance is bypass-class (the switch sits
in NIC hardware, on-path), and unlike raw bypass there *is* a global
interposition point — but it is logically isolated from the OS: it sees
headers, never processes. Owner rules, cgroup QoS, blocking I/O, and
packet→process attribution all refuse, which is the paper's §1 argument
for OS-integrated (not hypervisor-level) interposition.
"""

from __future__ import annotations

from typing import List

from ..errors import UnsupportedOperation
from ..host.copies import LAYER_HV_VRING
from ..host.machine import Machine
from ..interpose import InterpositionPoint
from ..interpose.fastpath import CHAIN_VSWITCH
from ..kernel.arp import ArpCache
from ..kernel.netfilter import NetfilterRule
from ..net.addresses import IPv4Address, MacAddress
from ..net.capture import Sniffer
from ..net.link import Link
from ..net.packet import Packet
from ..net.switch import MatchAction
from ..sim import MetricSet
from .base import QosConfig
from .bypass import BypassDataplane, BypassEndpoint


class HypervisorDataplane(BypassDataplane):
    """vswitch-on-NIC: global header view, zero process view."""

    name = "hypervisor"
    tx_fetch_label = "vring_fetch"

    def __init__(
        self,
        machine: Machine,
        host_ip: IPv4Address,
        host_mac: MacAddress,
        egress: Link,
        n_queues: int = 64,
        ring_entries: int = 256,
    ):
        super().__init__(machine, host_ip, host_mac, egress, n_queues, ring_entries)
        self.vswitch_rules: List[MatchAction] = []
        self.arp_observed = ArpCache()
        self.metrics = MetricSet("vswitch")
        # Global capture works, but unattributed.
        self.sniffer = Sniffer(machine.sim, attributed=False)
        # The vswitch's interposition mechanisms. Header-only match-action
        # compiles from netfilter rules, so the mechanism is "netfilter" even
        # though it runs below the OS ("netfilter" proper is registered by
        # Kernel; its table is off-path here).
        engine = machine.interpose
        self._vswitch_point = engine.register(InterpositionPoint(
            name="vswitch", plane="hypervisor", mechanism="netfilter",
            install_latency_ns=self.costs.table_update_ns,
            target=self.vswitch_rules,
        ))
        self.sniffer.point = engine.register(InterpositionPoint(
            name="sniffer", plane="hypervisor", mechanism="tap",
            install_latency_ns=self.costs.table_update_ns,
            target=self.sniffer,
        ))

    # --- vswitch pipeline (runs on the NIC, both directions) ---------------------

    def _vswitch(self, pkt: Packet) -> bool:
        """Returns False when dropped. Header-only: meta.owner_* is never
        consulted — the hypervisor cannot know it."""
        if pkt.is_arp:
            self.arp_observed.observe(pkt, self.machine.sim.now)
        self.sniffer.mirror(pkt)
        matched = False
        verdict_drop = False
        if self.vswitch_rules:
            fp = self.machine.fastpath
            ft = pkt.five_tuple if fp is not None else None
            entry = fp.lookup(CHAIN_VSWITCH, ft) if ft is not None else None
            if entry is not None:
                # Hit: cached header verdict, no match-action walk, no eval
                # recorded (the hardware flow cache sits before the rules).
                verdict_drop = entry.verdict == "drop"
            else:
                for rule in self.vswitch_rules:
                    if rule.matches(pkt):
                        matched = True
                        verdict_drop = rule.action == "drop"
                        break
                if fp is not None and ft is not None:
                    fp.install(
                        CHAIN_VSWITCH, ft,
                        verdict="drop" if verdict_drop else "allow",
                        points=("vswitch",),
                    )
                self._vswitch_point.record_eval(hit=matched, dropped=verdict_drop)
        if verdict_drop:
            self.metrics.counter("dropped").inc()
            return False
        return True

    def wire_rx(self, pkt: Packet) -> None:
        if self._vswitch(pkt):
            self.nic.rx_from_wire(pkt)

    def _account_tx_fetch(self, nbytes: int, fetch_ns: int, ops: int) -> None:
        """The vswitch pulls every guest-posted packet through the vring:
        interposition by copy, charged to the ledger."""
        self.machine.copies.charge(LAYER_HV_VRING, nbytes, fetch_ns, ops=ops)

    def _transmit(self, pkt: Packet, now: int) -> None:
        if self._vswitch(pkt):
            self.nic.tx(pkt)
        elif pkt.meta.trace is not None:
            pkt.meta.trace.close(now)  # dropped by the vswitch

    def steer_return_flow(self, ep: BypassEndpoint, dst_ip: IPv4Address, dport: int) -> None:
        """No exact entry: return traffic reaches the app's queue through
        its destination-port steering."""

    # --- administrative surface ------------------------------------------------------

    def install_filter_rule(self, rule: NetfilterRule) -> None:
        """Header rules compile to vswitch match-action; owner rules are
        impossible off-OS."""
        if rule.needs_owner:
            raise UnsupportedOperation(
                "hypervisor vswitch cannot match on process owner: it is "
                "logically isolated from the OS process table"
            )
        self.vswitch_rules.append(
            MatchAction(
                action="drop" if rule.verdict == "DROP" else "allow",
                proto=rule.proto,
                src_ip=rule.src_ip,
                dst_ip=rule.dst_ip,
                sport=rule.sport,
                dport=rule.dport,
            )
        )
        self._vswitch_point.record_update()

    def configure_qos(self, config: QosConfig) -> None:
        raise UnsupportedOperation(
            "hypervisor vswitch cannot shape by cgroup/user/process: "
            "packets carry no process identity (it could shape by port, but "
            "the game hops ports — §2)"
        )

    def arp_entries(self) -> List[object]:
        """MAC/IP pairs only; ``source_pid`` is always None here."""
        return self.arp_observed.entries()
