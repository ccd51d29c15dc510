"""Two full hosts over the L2 switch: end-to-end cross-host paths."""

import pytest

from repro.core import NormanOS
from repro.dataplanes import BypassDataplane, KernelPathDataplane
from repro.dataplanes.multihost import (
    HOST_A_IP,
    HOST_A_MAC,
    HOST_B_IP,
    HOST_B_MAC,
    TwoHostTestbed,
)
from repro.errors import EndpointClosed
from repro.net import PROTO_UDP
from repro.sim import SimProcess
from repro.tools import Tcpdump


class TestNormanToNorman:
    def test_message_crosses_hosts(self):
        tb = TwoHostTestbed(NormanOS, NormanOS)
        client = tb.host_a.spawn("client", "bob", core_id=1)
        server = tb.host_b.spawn("server", "charlie", core_id=1)
        ep_c = tb.host_a.dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.host_b.dataplane.open_endpoint(server, PROTO_UDP, 7000)
        got = []

        def srv():
            msg = yield ep_s.recv(blocking=True)
            got.append(msg)

        SimProcess(tb.sim, srv())
        ep_c.send(300, dst=(HOST_B_IP, 7000))
        tb.run_all()
        assert len(got) == 1
        size, src_ip, sport = got[0]
        assert (size, src_ip, sport) == (300, HOST_A_IP, 6000)

    def test_request_response_round_trip(self):
        tb = TwoHostTestbed(NormanOS, NormanOS)
        client = tb.host_a.spawn("client", "bob", core_id=1)
        server = tb.host_b.spawn("server", "charlie", core_id=1)
        ep_c = tb.host_a.dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.host_b.dataplane.open_endpoint(server, PROTO_UDP, 7000)
        rtts = []

        def srv():
            # Serves until the client closes the server's endpoint, which
            # fails the blocked read.
            try:
                while True:
                    size, src_ip, sport = yield ep_s.recv(blocking=True)
                    yield ep_s.send(size, dst=(src_ip, sport))
            except EndpointClosed:
                return "closed"

        def cli():
            yield ep_c.connect(HOST_B_IP, 7000)
            for _ in range(3):
                start = tb.sim.now
                yield ep_c.send(128)
                yield ep_c.recv(blocking=True)
                rtts.append(tb.sim.now - start)
            ep_s.close()

        server_task = SimProcess(tb.sim, srv())
        SimProcess(tb.sim, cli())
        tb.run_all()
        assert len(rtts) == 3
        assert all(r > 0 for r in rtts)
        assert server_task.done.value == "closed"

    def test_switch_learns_both_macs(self):
        tb = TwoHostTestbed(NormanOS, NormanOS)
        a = tb.host_a.spawn("a", "bob", core_id=1)
        b = tb.host_b.spawn("b", "bob", core_id=1)
        ep_a = tb.host_a.dataplane.open_endpoint(a, PROTO_UDP, 6000)
        ep_b = tb.host_b.dataplane.open_endpoint(b, PROTO_UDP, 7000)
        ep_a.send(10, dst=(HOST_B_IP, 7000))
        ep_b.send(10, dst=(HOST_A_IP, 6000))
        tb.run_all()
        table = tb.switch.mac_table()
        assert table[HOST_A_MAC] == 0
        assert table[HOST_B_MAC] == 1


class TestMixedPlanes:
    def test_norman_serves_bypass_client(self):
        tb = TwoHostTestbed(BypassDataplane, NormanOS)
        client = tb.host_a.spawn("dpdk-client", "bob", core_id=1)
        server = tb.host_b.spawn("server", "charlie", core_id=1)
        ep_c = tb.host_a.dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.host_b.dataplane.open_endpoint(server, PROTO_UDP, 7000)
        got = []

        def srv():
            msg = yield ep_s.recv(blocking=True)
            got.append(msg)

        SimProcess(tb.sim, srv())
        ep_c.send(222, dst=(HOST_B_IP, 7000))
        tb.run_all()
        assert got[0][0] == 222

    def test_capture_on_receiving_host_attributes_local_process(self):
        """Host B's KOPI tcpdump attributes *its* side of a cross-host flow
        — attribution is a host-local concept, as the paper frames it."""
        tb = TwoHostTestbed(BypassDataplane, NormanOS)
        client = tb.host_a.spawn("remote-app", "bob", core_id=1)
        server = tb.host_b.spawn("server", "charlie", core_id=1)
        ep_c = tb.host_a.dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.host_b.dataplane.open_endpoint(server, PROTO_UDP, 7000)
        dump = Tcpdump(tb.host_b.dataplane)
        session = dump.start("udp")
        ep_c.send(100, dst=(HOST_B_IP, 7000))
        tb.run_all()
        assert len(session.packets) == 1
        owner = tb.host_b.dataplane.attribution_of(session.packets[0])
        assert owner is not None and owner[2] == "server"  # local socket owner

    def test_kernel_path_host_interoperates(self):
        tb = TwoHostTestbed(KernelPathDataplane, NormanOS)
        client = tb.host_a.spawn("legacy", "bob", core_id=1)
        server = tb.host_b.spawn("server", "charlie", core_id=1)
        ep_c = tb.host_a.dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.host_b.dataplane.open_endpoint(server, PROTO_UDP, 7000)
        got = []

        def srv():
            msg = yield ep_s.recv(blocking=True)
            got.append(msg)

        SimProcess(tb.sim, srv())
        ep_c.send(64, dst=(HOST_B_IP, 7000))
        tb.run_all()
        assert got[0][0] == 64


class TestCrossHostPolicy:
    def test_owner_filter_on_sender_blocks_cross_host(self):
        tb = TwoHostTestbed(NormanOS, NormanOS)
        from repro.kernel import CHAIN_OUTPUT, DROP, NetfilterRule

        bob = tb.host_a.user("bob")
        rogue = tb.host_a.spawn("rogue", "bob", core_id=1)
        ep = tb.host_a.dataplane.open_endpoint(rogue, PROTO_UDP, 6000)
        tb.host_a.dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=7000,
                          uid_owner=bob.uid)
        )
        server = tb.host_b.spawn("server", "charlie", core_id=1)
        ep_s = tb.host_b.dataplane.open_endpoint(server, PROTO_UDP, 7000)
        tb.run_all()
        ep.send(10, dst=(HOST_B_IP, 7000))
        tb.run_all()
        assert ep_s.conn.rings.rx.occupancy == 0
        assert tb.host_a.dataplane.nic.metrics.counter("tx_filtered").value == 1
