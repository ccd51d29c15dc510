"""N complete hosts joined by an L2 switch — the cluster rack.

The single-host :class:`~repro.dataplanes.testbed.Testbed` talks to a
synthetic peer; this module builds *full stacks* (each with its own
machine, kernel, NIC, and — possibly different — dataplane) on one switch
so experiments can exercise genuine end-to-end paths: a Norman host
serving a bypass host, attributed captures of cross-host RPC, switch MAC
learning, and so on.

:class:`Rack` is the general form: N backends, optionally fronted by the
switch's in-network L4 load balancer (``CostModel.cluster_lb``) and the
live flow-migration coordinator that re-steers through it.
:class:`TwoHostTestbed` is the original two-host shape, kept as a thin
:class:`Rack` with exactly two hosts — same construction order, same
event trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type

from ..cluster import FlowMigration, L4LoadBalancer, MigrationCoordinator, vip_mac
from ..config import DEFAULT_COSTS, CostModel
from ..errors import PolicyError, SimulationError
from ..host.machine import Machine
from ..net.addresses import IPv4Address, MacAddress
from ..net.flow import FiveTuple
from ..net.link import Link
from ..net.switch import L2Switch
from ..sim import Simulator
from ..sim.fastforward import RackFastForward
from .base import Dataplane

HOST_A_IP = IPv4Address.parse("10.0.0.1")
HOST_A_MAC = MacAddress.from_index(1)
HOST_B_IP = IPv4Address.parse("10.0.0.2")
HOST_B_MAC = MacAddress.from_index(2)


def rack_ip(index: int) -> IPv4Address:
    """Default address plan: host ``index`` (0-based) is ``10.0.0.{i+1}``."""
    if not 0 <= index < 254:
        raise SimulationError(f"rack address plan holds 254 hosts: {index}")
    return IPv4Address.parse(f"10.0.0.{index + 1}")


def rack_mac(index: int) -> MacAddress:
    return MacAddress.from_index(index + 1)


@dataclass
class HostSpec:
    """One host's recipe: the dataplane to build and its identity."""

    name: str
    plane_cls: Type[Dataplane]
    ip: IPv4Address
    mac: MacAddress
    plane_kwargs: dict = field(default_factory=dict)
    #: Per-host link rate; None inherits the rack's rate. An asymmetric
    #: rack (fast clients, slow backend links) is how E18 builds its
    #: hot-backend contention.
    link_rate_bps: Optional[int] = None

    @classmethod
    def indexed(cls, index: int, name: str, plane_cls: Type[Dataplane],
                **plane_kwargs: object) -> "HostSpec":
        """A spec on the default address plan (:func:`rack_ip`)."""
        return cls(name, plane_cls, rack_ip(index), rack_mac(index),
                   dict(plane_kwargs))

    def with_rate(self, link_rate_bps: int) -> "HostSpec":
        self.link_rate_bps = link_rate_bps
        return self


class HostStack:
    """One host's machine + dataplane, wired to a switch port."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        plane_cls: Type[Dataplane],
        ip: IPv4Address,
        mac: MacAddress,
        switch: L2Switch,
        costs: CostModel,
        n_cores: int,
        link_rate_bps: int,
        **plane_kwargs: object,
    ):
        self.name = name
        self.ip = ip
        self.mac = mac
        self.machine = Machine(sim=sim, costs=costs, n_cores=n_cores)
        # Downlink: switch -> host, feeds the dataplane's RX entry.
        self.downlink = Link(sim, link_rate_bps, costs.link_propagation_ns,
                             name=f"{name}.down")
        self.port = switch.add_port(self.downlink)
        # Uplink: host -> switch; this is the dataplane's egress.
        self.uplink = Link(sim, link_rate_bps, costs.link_propagation_ns,
                           name=f"{name}.up")
        self.uplink.attach(switch.ingress(self.port))
        self.dataplane: Dataplane = plane_cls(  # type: ignore[call-arg]
            self.machine, ip, mac, self.uplink, **plane_kwargs
        )
        self.downlink.attach(self.dataplane.wire_rx)  # type: ignore[attr-defined]
        if costs.fast_forward and costs.ff_cross_machine:
            # The rack-scale fluid path: the uplink forwards epochs through
            # the switch's learned-port fast path, and the downlink lands
            # them in this host's promoted RX flows. Only KOPI promotes and
            # has a fluid RX entry; any other plane skips the downlink hook,
            # and the sender-side gate refuses TX promotion toward an
            # unpromoted receiver, so no fluid epoch is ever aimed at it.
            self.uplink.attach_fluid(switch.fluid_ingress(self.port))
            rx_fluid = getattr(self.dataplane, "wire_rx_fluid", None)
            if rx_fluid is not None:
                self.downlink.attach_fluid(rx_fluid)

    @property
    def kernel(self):
        return getattr(self.dataplane, "kernel")

    def user(self, name: str):
        users = self.kernel.users
        return users.by_name(name) if name in users else users.add(name)

    def spawn(self, comm: str, user_name: str = "root", core_id: int = 0):
        return self.kernel.spawn(comm, self.user(user_name), core_id=core_id)


class Rack:
    """N hosts on one switch, each possibly running a different dataplane.

    With ``cluster_lb`` off this is exactly the multi-host wiring the
    two-host testbed always did, generalized to N. ``cluster_lb`` grows
    the switch's L4 balancer stage (:meth:`add_vip` installs services)
    and the migration coordinator (:meth:`migrate` moves a live flow
    between backends).
    """

    __test__ = False

    def __init__(
        self,
        specs: Sequence[HostSpec],
        costs: CostModel = DEFAULT_COSTS,
        n_cores: int = 4,
        link_rate_bps: Optional[int] = None,
    ):
        if not specs:
            raise SimulationError("a rack needs at least one host")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate host names: {names}")
        self.sim = Simulator()
        self.costs = costs
        rate = link_rate_bps or costs.nic_line_rate_bps
        self.switch = L2Switch(self.sim)
        self.hosts: List[HostStack] = [
            HostStack(
                self.sim, spec.name, spec.plane_cls, spec.ip, spec.mac,
                self.switch, costs, n_cores,
                spec.link_rate_bps or rate, **spec.plane_kwargs,
            )
            for spec in specs
        ]
        self._by_name: Dict[str, HostStack] = {h.name: h for h in self.hosts}
        # The simulation's address book (no ARP resolution delays):
        # full mesh, in host order.
        for a in self.hosts:
            for b in self.hosts:
                if a is not b:
                    a.kernel.register_neighbor(b.ip, b.mac)
        # Rack-scale fast-forward: one coordinator above the per-machine
        # controllers binds steady host→switch→host flows into end-to-end
        # epochs.
        self.rack: Optional[RackFastForward] = None
        if costs.fast_forward and costs.ff_cross_machine:
            self.rack = RackFastForward(self.switch)
            for host in self.hosts:
                self.rack.add_host(
                    host.name, host.machine,
                    tx_plane=getattr(host.dataplane, "tx_ff", None),
                    ip=host.ip, mac=host.mac, port=host.port,
                    uplink=host.uplink, downlink=host.downlink,
                )
        # Cluster scale-out: the balancer and, on top of it, the migration
        # coordinator exist only behind ``cluster_lb`` — with it off, no
        # object is constructed and the switch's forwarding loop never
        # probes a balancer that could steer. Building the coordinator
        # schedules nothing.
        self.balancer: Optional[L4LoadBalancer] = None
        self.coordinator: Optional[MigrationCoordinator] = None
        self._vip_count = 0
        if costs.cluster_lb:
            self.balancer = L4LoadBalancer(self.sim, self.switch, costs)
            self.coordinator = MigrationCoordinator(
                self.sim, costs, self.balancer)
            for host in self.hosts:
                self.balancer.register_backend(host.name, host.mac)
                self.coordinator.add_backend(host.name, host)

    # -- cluster control plane ---------------------------------------------

    def host(self, name: str) -> HostStack:
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(f"no such host: {name!r}")

    def add_vip(self, ip: IPv4Address, backends: Sequence[str]):
        """Install a virtual service: ``ip`` resolves (on every host's
        neighbor table) to a virtual MAC the switch's balancer answers
        for, consistently hashed over ``backends``. Backend kernels are
        told they serve the VIP (introspection only — demux is by port,
        DSR-style, so a migrated flow keeps its five-tuple)."""
        if self.balancer is None:
            raise PolicyError(
                "add_vip needs CostModel.cluster_lb: with the knob off the "
                "switch has no balancer stage")
        for name in backends:
            if name not in self._by_name:
                raise PolicyError(f"unknown backend {name!r}")
        mac = vip_mac(self._vip_count)
        self._vip_count += 1
        vs = self.balancer.add_vip(ip, mac, backends)
        for host in self.hosts:
            host.kernel.register_neighbor(ip, mac)
        for name in backends:
            self._by_name[name].kernel.netstack.add_vip(ip)
        return vs

    def migrate(self, flow: FiveTuple, target: str) -> FlowMigration:
        """Live-migrate ``flow`` to backend ``target`` (see
        :class:`~repro.cluster.MigrationCoordinator`)."""
        if self.coordinator is None:
            raise PolicyError(
                "migrate needs CostModel.cluster_lb: with the knob off "
                "no migration coordinator exists")
        return self.coordinator.migrate(flow, target)

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        return self.sim.run(until=until)

    def run_all(self, max_events: int = 10_000_000) -> int:
        return self.sim.run_until_idle(max_events=max_events)


class TwoHostTestbed(Rack):
    """Host A and host B on one switch, possibly running different
    dataplanes — the original two-host shape, now a two-entry
    :class:`Rack`."""

    __test__ = False

    def __init__(
        self,
        plane_a: Type[Dataplane],
        plane_b: Type[Dataplane],
        costs: CostModel = DEFAULT_COSTS,
        n_cores: int = 4,
        link_rate_bps: Optional[int] = None,
        plane_a_kwargs: Optional[dict] = None,
        plane_b_kwargs: Optional[dict] = None,
    ):
        super().__init__(
            [
                HostSpec("hostA", plane_a, HOST_A_IP, HOST_A_MAC,
                         dict(plane_a_kwargs or {})),
                HostSpec("hostB", plane_b, HOST_B_IP, HOST_B_MAC,
                         dict(plane_b_kwargs or {})),
            ],
            costs=costs, n_cores=n_cores, link_rate_bps=link_rate_bps,
        )

    @property
    def host_a(self) -> HostStack:
        return self.hosts[0]

    @property
    def host_b(self) -> HostStack:
        return self.hosts[1]
