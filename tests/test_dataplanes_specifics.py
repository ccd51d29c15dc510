"""Dataplane-specific behaviours and failure injection not covered by the
common parametrized suite."""

import pytest

from repro import units
from repro.config import DEFAULT_COSTS
from repro.core import NormanOS
from repro.dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    QosConfig,
    SidecarDataplane,
    Testbed,
)
from repro.dataplanes.testbed import PEER_IP
from repro.errors import NicResourceExhausted
from repro.kernel import CHAIN_OUTPUT, DROP, NetfilterRule
from repro.net import PROTO_UDP
from repro.sim import SimProcess
from repro.apps import BulkSender


class TestSidecarSpecifics:
    def test_sidecar_core_is_burned_by_traffic(self):
        tb = Testbed(SidecarDataplane)
        sidecar_core = tb.dataplane.sidecar_core_id
        app = BulkSender(tb, comm="bulk", user="bob", core_id=1, count=100).start()
        tb.run_all()
        assert app.sent == 100
        assert tb.dataplane.sidecar_core_busy_ns() > 0
        # The sidecar core did more work than the fixed per-packet app cost.
        assert tb.machine.cpus[sidecar_core].busy_ns > tb.machine.cpus[1].busy_ns

    def test_sidecar_qos_splits_shares(self):
        tb = Testbed(SidecarDataplane, link_rate_bps=units.GBPS)
        tb.kernel.cgroups.create("/a")
        tb.kernel.cgroups.create("/b")
        a = BulkSender(tb, comm="appa", user="bob", core_id=1,
                       payload_len=1_000, count=None)
        b = BulkSender(tb, comm="appb", user="bob", core_id=2,
                       payload_len=1_000, count=None,
                       dst=(PEER_IP, 9_001))
        tb.kernel.cgroups.assign(a.proc, "/a")
        tb.kernel.cgroups.assign(b.proc, "/b")
        tb.dataplane.configure_qos(QosConfig(weights_by_cgroup={"/a": 1, "/b": 3}))
        a.start()
        b.start()
        tb.run(until=10 * units.MS)
        a.stop()
        b.stop()
        a_bytes = tb.peer.bytes_to_dport(9_000)
        b_bytes = tb.peer.bytes_to_dport(9_001)
        assert b_bytes / (a_bytes + b_bytes) == pytest.approx(0.75, abs=0.08)

    def test_sidecar_rx_filter_drops_before_app(self):
        tb = Testbed(SidecarDataplane)
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain="INPUT", dport=7000)
        )
        tb.peer.send_udp(1, 7000, 100)
        tb.run_all()
        assert len(ep.rx_queue) == 0

    def test_sidecar_port_arbitration(self):
        from repro.errors import AddressInUse, PermissionDenied

        tb = Testbed(SidecarDataplane)
        a = tb.spawn("a", "bob", core_id=1)
        b = tb.spawn("b", "charlie", core_id=2)
        tb.dataplane.open_endpoint(a, PROTO_UDP, 8000)
        with pytest.raises(AddressInUse):
            tb.dataplane.open_endpoint(b, PROTO_UDP, 8000)
        with pytest.raises(PermissionDenied):
            tb.dataplane.open_endpoint(b, PROTO_UDP, 53)


class TestHypervisorSpecifics:
    def test_vswitch_filters_tx_too(self):
        tb = Testbed(HypervisorDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=9000)
        )
        ep.send(10, dst=(PEER_IP, 9000))
        ep.send(10, dst=(PEER_IP, 9001))
        tb.run_all()
        assert [p.five_tuple.dport for p in tb.peer.received] == [9001]

    def test_queue_exhaustion(self):
        tb = Testbed(HypervisorDataplane, n_queues=2)
        a = tb.spawn("a", "bob", core_id=1)
        tb.dataplane.open_endpoint(a, PROTO_UDP, 6000)
        tb.dataplane.open_endpoint(a, PROTO_UDP, 6001)
        with pytest.raises(NicResourceExhausted):
            tb.dataplane.open_endpoint(a, PROTO_UDP, 6002)


class TestBypassSpecifics:
    def test_queue_exhaustion(self):
        tb = Testbed(BypassDataplane, n_queues=1)
        a = tb.spawn("a", "bob", core_id=1)
        tb.dataplane.open_endpoint(a, PROTO_UDP, 6000)
        with pytest.raises(NicResourceExhausted):
            tb.dataplane.open_endpoint(a, PROTO_UDP, 6001)

    @pytest.mark.parametrize("plane", [BypassDataplane, HypervisorDataplane],
                             ids=lambda c: c.name)
    def test_total_polls_accounting(self, plane):
        """The hypervisor inherits bypass's endpoint and its poll count."""
        tb = Testbed(plane)
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)

        def server():
            msg = yield ep.recv(blocking=True)
            ep.close()
            return msg

        SimProcess(tb.sim, server())
        tb.sim.after(100_000, tb.peer.send_udp, 1, 7000, 10)
        tb.run(until=1_000_000)
        assert tb.dataplane.total_polls() > 100


class TestOverloadFailureInjection:
    def test_ingress_link_drops_under_flood_without_deadlock(self):
        """Oversubscribing the wire loses packets at drop-tail queues;
        the system keeps running and accounts every loss."""
        tb = Testbed(NormanOS, link_queue_packets=16)
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        sent = dropped = 0
        for _ in range(200):  # all at t=0, way beyond the 16-slot queue
            if tb.peer.send_udp(1, 7000, 1_400):
                sent += 1
            else:
                dropped += 1
        tb.run_all()
        assert dropped > 0
        assert sent + dropped == 200
        assert tb.ingress.metrics.counter("dropped").value == dropped
        # Everything that made it onto the wire is in the ring or counted.
        delivered = ep.conn.rings.rx.occupancy
        ring_drops = tb.dataplane.nic.metrics.counter("rx_ring_drops").value
        assert delivered + ring_drops == sent

    def test_rx_ring_overflow_counted(self):
        costs = DEFAULT_COSTS.replace(rx_ring_entries=4)
        tb = Testbed(NormanOS, costs=costs)
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        for i in range(10):
            tb.sim.after(1_000 * (i + 1), tb.peer.send_udp, 1, 7000, 100)
        tb.run_all()
        assert ep.conn.rings.rx.occupancy == 4
        assert tb.dataplane.nic.metrics.counter("rx_ring_drops").value == 6

    def test_scheduler_backlog_drops_counted(self):
        """TX flood into a slow link: the NIC scheduler's queue is finite."""
        tb = Testbed(NormanOS, link_rate_bps=units.MBPS)
        proc = tb.spawn("blaster", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)

        def blast():
            for _ in range(200):
                yield ep.send(1_400, dst=(PEER_IP, 9000))

        SimProcess(tb.sim, blast())
        tb.run(until=50 * units.MS)
        nic = tb.dataplane.nic
        emitted = nic.metrics.counter("tx_pkts").value
        backlog = nic.scheduler.backlog
        drops = nic.metrics.counter("tx_sched_drops").value
        consumed = ep.conn.tx_packets
        assert consumed == emitted + backlog + drops  # conservation
