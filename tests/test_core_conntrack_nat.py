"""On-NIC conntrack, NAT, and rate policing (§3's 'everything else the
kernel does today')."""

import pytest

from repro import units
from repro.core import NormanOS
from repro.core.conntrack import (
    CT_ENTRY_BYTES,
    ConntrackTable,
    NatTable,
    STATE_ESTABLISHED,
    STATE_NEW,
)
from repro.dataplanes import Testbed
from repro.dataplanes.testbed import HOST_IP, PEER_IP
from repro.errors import PolicyError
from repro.net import IPv4Address, MacAddress, PROTO_UDP, make_udp
from repro.nic.smartnic import SramAllocator
from repro.sim import SimProcess
from repro.tools import Ss, Tc

MAC_A, MAC_B = MacAddress.from_index(1), MacAddress.from_index(9)
PUBLIC_IP = IPv4Address.parse("192.0.2.1")


def pkt(sport=1000, dport=2000, src=HOST_IP, dst=PEER_IP, size=100):
    return make_udp(MAC_A, MAC_B, src, dst, sport, dport, size)


class TestConntrackTable:
    def test_new_then_established(self):
        ct = ConntrackTable(SramAllocator(10_000))
        entry = ct.observe(pkt(), now_ns=10)
        assert entry.state == STATE_NEW
        reply = pkt(sport=2000, dport=1000, src=PEER_IP, dst=HOST_IP)
        entry2 = ct.observe(reply, now_ns=20)
        assert entry2 is entry
        assert entry.state == STATE_ESTABLISHED
        assert entry.packets == 2
        assert len(ct) == 1

    def test_sram_exhaustion_leaves_flow_untracked(self):
        ct = ConntrackTable(SramAllocator(CT_ENTRY_BYTES))  # room for one
        assert ct.observe(pkt(sport=1), 0) is not None
        assert ct.observe(pkt(sport=2), 0) is None
        assert ct.metrics.counter("untracked").value == 1

    def test_expiry_reclaims_sram(self):
        sram = SramAllocator(2 * CT_ENTRY_BYTES)
        ct = ConntrackTable(sram)
        ct.observe(pkt(sport=1), now_ns=0)
        ct.observe(pkt(sport=2), now_ns=100)
        assert ct.expire_older_than(50) == 1
        assert len(ct) == 1
        assert sram.used_bytes == CT_ENTRY_BYTES
        assert ct.observe(pkt(sport=3), now_ns=200) is not None

    def test_lookup_both_directions(self):
        ct = ConntrackTable(SramAllocator(10_000))
        entry = ct.observe(pkt(), 0)
        assert ct.lookup(entry.flow) is entry
        assert ct.lookup(entry.flow.reversed()) is entry


class TestNatTable:
    def test_outbound_rewrite_and_reply_translation(self):
        nat = NatTable(SramAllocator(10_000), PUBLIC_IP)
        out = nat.translate_out(pkt(sport=5555, dport=80))
        assert out.ipv4.src == PUBLIC_IP
        public_port = out.l4.sport
        assert public_port >= 30_000
        assert out.five_tuple.dport == 80  # destination untouched

        reply = make_udp(MAC_B, MAC_A, PEER_IP, PUBLIC_IP, 80, public_port, 50)
        back = nat.translate_in(reply)
        assert back.ipv4.dst == HOST_IP
        assert back.l4.dport == 5555

    def test_binding_reused_per_flow(self):
        nat = NatTable(SramAllocator(10_000), PUBLIC_IP)
        a = nat.translate_out(pkt(sport=5555))
        b = nat.translate_out(pkt(sport=5555))
        assert a.l4.sport == b.l4.sport
        assert len(nat.bindings()) == 1
        c = nat.translate_out(pkt(sport=5556))
        assert c.l4.sport != a.l4.sport

    def test_unbound_inbound_passes_through(self):
        nat = NatTable(SramAllocator(10_000), PUBLIC_IP)
        stray = make_udp(MAC_B, MAC_A, PEER_IP, PUBLIC_IP, 80, 31_234, 50)
        assert nat.translate_in(stray) is stray
        assert nat.metrics.counter("no_binding").value == 1

    def test_non_public_inbound_untouched(self):
        nat = NatTable(SramAllocator(10_000), PUBLIC_IP)
        normal = make_udp(MAC_B, MAC_A, PEER_IP, HOST_IP, 80, 7000, 50)
        assert nat.translate_in(normal) is normal

    def test_sram_exhaustion_returns_none(self):
        nat = NatTable(SramAllocator(10), PUBLIC_IP)
        assert nat.translate_out(pkt()) is None
        assert nat.metrics.counter("exhausted").value == 1

    def test_release_frees_port_and_sram(self):
        sram = SramAllocator(10_000)
        nat = NatTable(sram, PUBLIC_IP)
        out = nat.translate_out(pkt(sport=5555))
        ft = pkt(sport=5555).five_tuple
        nat.release(ft)
        assert sram.used_bytes == 0
        with pytest.raises(PolicyError):
            nat.release(ft)

    def test_rewrite_preserves_attribution_and_checksum(self):
        from repro.net.checksum import internet_checksum

        nat = NatTable(SramAllocator(10_000), PUBLIC_IP)
        original = pkt()
        original.meta.owner_pid = 42
        out = nat.translate_out(original)
        assert out.meta.owner_pid == 42
        assert internet_checksum(out.ipv4.to_bytes()) == 0  # checksum redone


class TestNatOnNic:
    def test_end_to_end_masquerade(self):
        tb = Testbed(NormanOS)
        tb.dataplane.control.enable_masquerade(PUBLIC_IP)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        got = []

        def client():
            yield ep.connect(PEER_IP, 9000)
            yield ep.send(100)
            msg = yield ep.recv(blocking=True)
            got.append(msg)

        SimProcess(tb.sim, client())
        tb.run(until=1 * units.MS)

        # On the wire: source is the public address, not the host's.
        wire = tb.peer.received[0]
        assert wire.ipv4.src == PUBLIC_IP
        assert wire.l4.sport >= 30_000
        # Reply to the public tuple is translated back and steered home.
        tb.peer.send_udp(9000, wire.l4.sport, 77, dst_ip=PUBLIC_IP)
        tb.run_all()
        assert len(got) == 1
        assert got[0][0] == 77

    def test_conntrack_sees_nic_traffic(self):
        tb = Testbed(NormanOS)
        ct = tb.dataplane.control.enable_conntrack()
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.send(100, dst=(PEER_IP, 9000))
        tb.run_all()
        assert len(ct) == 1
        entry = ct.entries()[0]
        assert entry.packets == 1
        tb.peer.send_udp(9000, 6000, 50)
        tb.run_all()
        assert entry.state == STATE_ESTABLISHED


class TestPolicing:
    def test_tc_police_caps_cgroup_rate(self):
        tb = Testbed(NormanOS)
        tb.kernel.cgroups.create("/games")
        game = tb.spawn("game", "bob", core_id=1)
        tb.kernel.cgroups.assign(game, "/games")
        other = tb.spawn("work", "charlie", core_id=2)
        game_ep = tb.dataplane.open_endpoint(game, PROTO_UDP, 6000)
        other_ep = tb.dataplane.open_endpoint(other, PROTO_UDP, 6001)
        out = Tc(tb.dataplane, tb.kernel)(
            "police add dev nic0 cgroup /games rate 8mbit burst 2000"
        )
        assert out.startswith("ok:")
        tb.run_all()

        def blast(ep, n):
            def gen():
                for _ in range(n):
                    yield ep.send(958, dst=(PEER_IP, 9000))
            return gen

        SimProcess(tb.sim, blast(game_ep, 10)())
        SimProcess(tb.sim, blast(other_ep, 10)())
        tb.run_all()
        by_comm = {}
        for p in tb.peer.received:
            comm = tb.dataplane.attribution_of(p)[2]
            by_comm[comm] = by_comm.get(comm, 0) + 1
        # 10 x 1000B back to back at 8 Mbit/s with a 2-packet bucket: only
        # the burst gets through; the unpoliced app is untouched.
        assert by_comm.get("work", 0) == 10
        assert by_comm.get("game", 0) == 2
        assert tb.dataplane.nic.metrics.counter("tx_policed").value == 8

    def test_police_refused_without_programmable_nic(self):
        from repro.dataplanes import BypassDataplane
        from repro.errors import UnsupportedOperation

        tb = Testbed(BypassDataplane)
        tb.kernel.cgroups.create("/games")
        with pytest.raises(UnsupportedOperation):
            Tc(tb.dataplane, tb.kernel)(
                "police add dev nic0 cgroup /games rate 8mbit burst 2000"
            )

    def test_police_validation(self):
        from repro.errors import KernelError, ToolError

        tb = Testbed(NormanOS)
        tc = Tc(tb.dataplane, tb.kernel)
        with pytest.raises(ToolError):
            tc("police add dev nic0 cgroup /g rate fast burst 10")
        with pytest.raises(KernelError):
            tb.dataplane.control.configure_police("/missing", units.MBPS, 100)
        tb.kernel.cgroups.create("/g")
        with pytest.raises(KernelError):
            tb.dataplane.control.configure_police("/g", 0, 100)


class TestSsTool:
    def test_norman_listing_shows_paths_and_sram(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("postgres", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 5432)
        ep.send(100, dst=(PEER_IP, 9000))
        tb.run_all()
        ss = Ss(tb.dataplane, tb.kernel)
        out = ss()
        assert "postgres" in out
        assert "fast" in out
        assert "NIC SRAM" in out
        assert ss.fallback_count() == 0

    def test_ss_reports_fallback(self):
        from repro.config import DEFAULT_COSTS

        tb = Testbed(NormanOS, costs=DEFAULT_COSTS.replace(smartnic_sram_bytes=1))
        proc = tb.spawn("app", "bob", core_id=1)
        tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ss = Ss(tb.dataplane, tb.kernel)
        assert "fallback" in ss()
        assert ss.fallback_count() == 1

    def test_ss_on_kernel_dataplane(self):
        from repro.dataplanes import KernelPathDataplane

        tb = Testbed(KernelPathDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        out = Ss(tb.dataplane, tb.kernel)()
        assert "app" in out
        assert Ss(tb.dataplane, tb.kernel).fallback_count() == 0
