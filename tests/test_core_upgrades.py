"""Feature upgrades and custom overlay programs: policy survival, verifier
safety, failure injection."""

import pytest

from repro import units
from repro.core import KOPI_BITSTREAM, NormanOS
from repro.core.nic_dataplane import SLOT_FILTER_RX
from repro.dataplanes import Testbed
from repro.dataplanes.testbed import PEER_IP
from repro.errors import AssemblerError, VerifierError
from repro.kernel import CHAIN_OUTPUT, DROP, NetfilterRule
from repro.net import PROTO_UDP
from repro.nic.smartnic import fpga
from repro.overlay import verifier


class TestBitstreamUpgrade:
    def setup_policy(self, tb):
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=9000)
        )
        tb.run_all()
        return ep

    def assert_enforced(self, tb, ep):
        before = len(tb.peer.received)
        ep.send(10, dst=(PEER_IP, 9000))
        ep.send(10, dst=(PEER_IP, 9001))
        tb.run_all()
        dports = [p.five_tuple.dport for p in tb.peer.received[before:]]
        assert dports == [9001]

    def test_raw_bitstream_reload_loses_policies(self):
        """The hazard the upgrade wrapper exists for: a bare fabric reload
        silently drops the firewall."""
        tb = Testbed(NormanOS)
        ep = self.setup_policy(tb)
        self.assert_enforced(tb, ep)
        tb.dataplane.nic.fpga.load_bitstream(KOPI_BITSTREAM)
        tb.run_all()
        assert tb.dataplane.nic.fpga.machine(SLOT_FILTER_RX) is None
        before = len(tb.peer.received)
        ep.send(10, dst=(PEER_IP, 9000))  # should be dropped... but isn't
        tb.run_all()
        assert len(tb.peer.received) == before + 1  # policy silently gone

    def test_upgrade_wrapper_restores_policies(self):
        tb = Testbed(NormanOS)
        ep = self.setup_policy(tb)
        self.assert_enforced(tb, ep)
        done = []
        tb.dataplane.control.upgrade_bitstream(KOPI_BITSTREAM).add_callback(
            lambda s: done.append(tb.sim.now)
        )
        tb.run_all()
        assert done and done[0] >= 2 * units.SEC
        self.assert_enforced(tb, ep)  # firewall survived the upgrade

    def test_connections_survive_upgrade(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        tb.dataplane.control.upgrade_bitstream(KOPI_BITSTREAM)
        tb.run_all()
        tb.peer.send_udp(555, 7000, 123)
        tb.run_all()
        assert ep.conn.rings.rx.occupancy == 1  # steering/rings intact


class TestCustomPrograms:
    def test_custom_ttl_filter(self):
        """An operator-written program: drop anything with TTL < 5."""
        tb = Testbed(NormanOS)
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        tb.dataplane.control.load_custom_rx_program(
            """
                ldf r0, ip.ttl
                jlt r0, 5, bad
                accept
            bad:
                drop
            """
        )
        tb.run_all()
        from repro.dataplanes.testbed import HOST_IP, HOST_MAC, PEER_MAC
        from repro.net import make_udp
        from repro.net.headers import Ipv4Header, UdpHeader
        from repro.net.packet import Packet
        from repro.net.headers import EthernetHeader

        ok_pkt = make_udp(PEER_MAC, HOST_MAC, PEER_IP, HOST_IP, 1, 7000, 10)
        low_ttl = Packet(
            eth=EthernetHeader(dst=HOST_MAC, src=PEER_MAC),
            ipv4=Ipv4Header(src=PEER_IP, dst=HOST_IP, proto=17, payload_len=18, ttl=2),
            l4=UdpHeader(sport=1, dport=7000, payload_len=10),
            payload_len=10,
        )
        tb.peer.send(ok_pkt)
        tb.peer.send(low_ttl)
        tb.run_all()
        assert ep.conn.rings.rx.occupancy == 1
        assert tb.dataplane.nic.metrics.counter("rx_filtered").value == 1

    def test_rejected_program_leaves_old_one_running(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        tb.dataplane.control.load_custom_rx_program("drop")  # drop everything
        tb.run_all()
        with pytest.raises(VerifierError):
            # counter 0 not declared -> verifier refuses at load time
            tb.dataplane.control.load_custom_rx_program("cnt 0\naccept")
        tb.run_all()
        tb.peer.send_udp(1, 7000, 10)
        tb.run_all()
        assert ep.conn.rings.rx.occupancy == 0  # old drop-all still active

    def test_syntax_errors_surface(self):
        tb = Testbed(NormanOS)
        with pytest.raises(AssemblerError):
            tb.dataplane.control.load_custom_rx_program("frobnicate r0, 1")

    def test_custom_program_with_counters(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("srv", "bob", core_id=1)
        tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        tb.dataplane.control.load_custom_rx_program(
            "ldf r0, ip.proto\njeq r0, 17, isudp\naccept\nisudp: cnt 0\naccept",
            n_counters=1,
        )
        tb.run_all()
        for _ in range(3):
            tb.peer.send_udp(1, 7000, 10)
        tb.run_all()
        machine = tb.dataplane.nic.fpga.machine(SLOT_FILTER_RX)
        assert machine.counters[0] == 3


class TestVerifyOncePerLoad:
    """The fabric verifies each overlay program once, when the load is
    submitted; neither the control plane nor the landing load verifies
    it again."""

    @pytest.fixture
    def verified(self, monkeypatch):
        calls = []
        real = verifier.verify

        def counting(program, *args, **kwargs):
            calls.append(program)
            return real(program, *args, **kwargs)

        monkeypatch.setattr(verifier, "verify", counting)
        monkeypatch.setattr(fpga, "verify", counting)
        return calls

    def _testbed(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("srv", "bob", core_id=1)
        tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        tb.run_all()
        return tb

    def _loads(self, tb):
        return tb.dataplane.nic.fpga.metrics.counter("overlay_loads").value

    def test_filter_rule_install(self, verified):
        tb = self._testbed()
        loads = self._loads(tb)
        verified.clear()
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, proto=PROTO_UDP,
                          dport=9_999))
        tb.run_all()
        assert self._loads(tb) - loads == 2  # the RX and TX filter chains
        assert len(verified) == 2

    def test_custom_rx_program(self, verified):
        tb = self._testbed()
        loads = self._loads(tb)
        verified.clear()
        tb.dataplane.control.load_custom_rx_program("drop")
        tb.run_all()
        assert self._loads(tb) - loads == 1
        assert len(verified) == 1
