"""L2 learning switch and the in-network (P4-style) interposer.

The :class:`NetworkInterposer` is the "interpose at the network" comparator
from §2: a match-action element that can see every header bit but has **no
process-level view** — it cannot match on pid/uid/comm and cannot signal or
wake host processes. The capability-matrix experiment exercises exactly those
refusals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import SimulationError, UnsupportedOperation
from ..sim import MetricSet, Simulator
from .addresses import MacAddress
from .link import Link
from .packet import Packet


class L2Switch:
    """MAC-learning switch: learn on source, forward on destination, flood
    unknown and broadcast.

    For the hybrid-fidelity engine the switch also exposes a *fluid* fast
    path (:meth:`forward_fluid`): a steady cross-machine flow's epoch moves
    the frame counters and hands the bulk to the learned port's link without
    per-frame events. The fluid path is only valid while the switch state is
    frozen, so every state change — a MAC-table learn/move, a flood, a
    match-action rule install — fires the corresponding ``on_*`` hook
    *before* taking effect (:class:`~..sim.fastforward.RackFastForward`
    demotes bound flows there). All hooks default to None; an unhooked
    switch behaves byte-identically to the seed.
    """

    def __init__(self, sim: Simulator, name: str = "sw0"):
        self.sim = sim
        self.name = name
        self._ports: List[Link] = []
        self._mac_table: Dict[MacAddress, int] = {}
        self._interposer: Optional["NetworkInterposer"] = None
        self._balancer = None  # Optional[L4LoadBalancer], cluster_lb only
        self.metrics = MetricSet(name)
        # Hot-path handles: _forward runs once per cross-host frame.
        self._c_frames = self.metrics.counter("frames")
        self._c_flooded = self.metrics.counter("flooded")
        #: Fired as ``hook(mac, port)`` before a MAC-table learn or move.
        self.on_table_change: Optional[Callable[[MacAddress, int], None]] = None
        #: Fired as ``hook(pkt)`` before a broadcast/unknown-MAC flood.
        self.on_flood: Optional[Callable[[Packet], None]] = None
        #: Fired as ``hook(rule)`` before an attached interposer's rule
        #: install takes effect.
        self.on_rule_change: Optional[Callable[["MatchAction"], None]] = None

    def add_port(self, egress: Link) -> int:
        """Attach an egress link; returns the port number. The caller wires
        the reverse direction by attaching ``switch.ingress(port)``."""
        self._ports.append(egress)
        return len(self._ports) - 1

    def attach_interposer(self, interposer: "NetworkInterposer") -> None:
        """Put a match-action element on the forwarding path: every frame
        runs :meth:`NetworkInterposer.process` before being forwarded, and
        rule installs become switch-state changes (``on_rule_change``)."""
        self._interposer = interposer
        interposer.on_rule_add = self._rule_changed

    def _rule_changed(self, rule: "MatchAction") -> None:
        if self.on_rule_change is not None:
            self.on_rule_change(rule)

    def attach_balancer(self, balancer) -> None:
        """Grow the L4 load-balancer stage (``CostModel.cluster_lb``):
        frames whose destination MAC is one of the balancer's virtual MACs
        are re-written to the chosen backend's MAC between the source learn
        and the destination lookup, then forwarded normally. The balancer
        announces its own steering-table changes through
        :meth:`notify_state_change` so the demote-before-effect contract
        extends to re-steering commits."""
        self._balancer = balancer

    def notify_state_change(self, what=None) -> None:
        """A balancer steering-table change is a switch-state change: fire
        the rule-change hook *before* the caller applies it, exactly like a
        match-action rule install."""
        if self.on_rule_change is not None:
            self.on_rule_change(what)

    def ingress(self, port: int) -> Callable[[Packet], None]:
        """Receive handler for frames arriving on ``port``."""
        if not 0 <= port < len(self._ports):
            raise SimulationError(f"no such port: {port}")

        def handler(pkt: Packet) -> None:
            self._forward(port, pkt)

        return handler

    def _forward(self, in_port: int, pkt: Packet) -> None:
        self._c_frames.inc()
        interposer = self._interposer
        if interposer is not None and not interposer.process(pkt):
            return
        eth = pkt.eth
        table = self._mac_table
        src = eth.src
        if table.get(src) != in_port:
            # Learn/move — a switch-state change; fluid flows demote first
            # so their flushed epochs replay against the pre-change table.
            if self.on_table_change is not None:
                self.on_table_change(src, in_port)
            table[src] = in_port
        balancer = self._balancer
        if balancer is not None:
            steered = balancer.steer(pkt)
            if steered is not None:
                # VIP frame: destination MAC re-written to the chosen
                # backend's; forwarding proceeds over the learned table.
                pkt = steered
                eth = pkt.eth
        dst = eth.dst
        out_port = table.get(dst)
        if dst.is_broadcast or out_port is None:
            if self.on_flood is not None:
                self.on_flood(pkt)
            self._c_flooded.inc()
            for port, link in enumerate(self._ports):
                if port != in_port:
                    link.send(pkt)
            return
        if out_port != in_port:
            self._ports[out_port].send(pkt)

    # -- fluid fast path (hybrid fidelity) ---------------------------------

    def fluid_ingress(self, port: int):
        """Bulk counterpart of :meth:`ingress`: a handler suitable for
        ``Link.attach_fluid`` on a host's uplink, forwarding fluid epochs
        through the learned-port fast path."""
        if not 0 <= port < len(self._ports):
            raise SimulationError(f"no such port: {port}")

        def handler(n: int, wire_len: int, dport: int = 0,
                    flow=None, eth_dst=None) -> None:
            self.forward_fluid(port, n, wire_len, dport, flow, eth_dst)

        return handler

    def forward_fluid(self, in_port: int, n: int, wire_len: int,
                      dport: int = 0, flow=None, eth_dst=None) -> None:
        """Forward ``n`` fast-forwarded same-shape frames along the learned
        path: frame counters move exactly as ``n`` exact frames would, and
        the bulk continues down the learned port's link. Only a frozen path
        may be traversed fluidly — the promotion gate checks it and every
        state change demotes first — so an unknown or hairpin destination
        here is a protocol violation, not a flood."""
        out_port = self._mac_table.get(eth_dst)
        if out_port is None or out_port == in_port:
            raise SimulationError(
                f"switch {self.name!r}: fluid forward to {eth_dst!r} has no "
                "frozen learned path — promotion gate / demotion hooks were "
                "bypassed")
        self._c_frames.inc(n)
        self._ports[out_port].send_fluid(n, wire_len, dport, flow, eth_dst)

    def ff_path_steady(self, mac: MacAddress, port: int) -> bool:
        """Whether the path to ``mac`` is frozen enough to promote over:
        learned on the expected port, and no match-action rules that could
        drop or mirror (any rule disqualifies — fluid epochs must not need
        per-packet rule evaluation)."""
        if self._mac_table.get(mac) != port:
            return False
        interposer = self._interposer
        return interposer is None or not interposer.rules

    def mac_table(self) -> Dict[MacAddress, int]:
        return dict(self._mac_table)


@dataclass(frozen=True)
class MatchAction:
    """One network-level match-action rule: header fields only.

    Any field left ``None`` is a wildcard. There are deliberately no
    pid/uid/comm fields — a switch cannot know them.
    """

    action: str  # "drop" | "allow" | "mirror"
    proto: Optional[int] = None
    src_ip: Optional[object] = None
    dst_ip: Optional[object] = None
    sport: Optional[int] = None
    dport: Optional[int] = None

    def matches(self, pkt: Packet) -> bool:
        ip = pkt.ipv4
        l4 = pkt.l4
        if ip is None or l4 is None:
            return False
        return (
            (self.proto is None or ip.proto == self.proto)
            and (self.src_ip is None or ip.src == self.src_ip)
            and (self.dst_ip is None or ip.dst == self.dst_ip)
            and (self.sport is None or l4.sport == self.sport)
            and (self.dport is None or l4.dport == self.dport)
        )


class NetworkInterposer:
    """P4-switch/middlebox stand-in: header match-action on a wire tap.

    Insert it between two links with :meth:`process`; install rules with
    :meth:`add_rule`. Attempting anything that needs host state raises
    :class:`UnsupportedOperation`, which is the measured result in E3.
    """

    def __init__(self, sim: Simulator, name: str = "p4"):
        self.sim = sim
        self.name = name
        self.rules: List[MatchAction] = []
        self.mirrored: List[Packet] = []
        self.metrics = MetricSet(name)
        #: Fired as ``hook(rule)`` before a rule lands (wired by
        #: :meth:`L2Switch.attach_interposer`).
        self.on_rule_add: Optional[Callable[[MatchAction], None]] = None

    def add_rule(self, rule: MatchAction) -> None:
        if rule.action not in ("drop", "allow", "mirror"):
            raise SimulationError(f"unknown action: {rule.action}")
        if self.on_rule_add is not None:
            self.on_rule_add(rule)
        self.rules.append(rule)

    def add_owner_rule(self, **_kwargs: object) -> None:
        """Owner-based matching is impossible off-host; always refuses."""
        raise UnsupportedOperation(
            "network-level interposition cannot match on process owner: "
            "packets carry no pid/uid/comm"
        )

    def wake_process(self, _pid: int) -> None:
        """A network element cannot signal host processes."""
        raise UnsupportedOperation(
            "network-level interposition cannot signal or unblock host processes"
        )

    def process(self, pkt: Packet) -> bool:
        """Apply rules to a transiting packet. Returns False when dropped."""
        self.metrics.counter("seen").inc()
        for rule in self.rules:
            if not rule.matches(pkt):
                continue
            if rule.action == "drop":
                self.metrics.counter("dropped").inc()
                return False
            if rule.action == "mirror":
                self.mirrored.append(pkt)
                self.metrics.counter("mirrored").inc()
            return True
        return True

    def observed_five_tuples(self) -> List[str]:
        """What an operator at the network level can see: 5-tuples, never
        processes."""
        flows = (p.five_tuple for p in self.mirrored)
        return [str(ft) for ft in flows if ft is not None]
