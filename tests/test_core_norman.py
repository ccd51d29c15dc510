"""NormanOS end to end: rings, attribution, filtering, QoS, sniffing,
blocking I/O, fallback."""

import pytest

from repro.config import DEFAULT_COSTS
from repro.core import NormanOS
from repro.dataplanes import QosConfig, Testbed
from repro.dataplanes.testbed import PEER_IP
from repro.errors import AddressInUse, PermissionDenied
from repro.kernel import ACCEPT, CHAIN_OUTPUT, DROP, NetfilterRule
from repro.net import PROTO_UDP, make_arp_request
from repro.net.pcap import read_pcap_summary
from repro.sim import SimProcess


def kopi_testbed(**kwargs):
    return Testbed(NormanOS, **kwargs)


class TestDataplanePath:
    def test_tx_bypasses_software_kernel(self):
        """Steady-state sends make no syscalls (connection setup did)."""
        tb = kopi_testbed()
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        tb.run_all()
        setup_syscalls = tb.kernel.syscalls.total_syscalls

        def client():
            for _ in range(10):
                yield ep.send(500, dst=(PEER_IP, 9000))

        SimProcess(tb.sim, client())
        tb.run_all()
        assert len(tb.peer.received) == 10
        assert tb.kernel.syscalls.total_syscalls == setup_syscalls

    def test_every_packet_attributed_on_nic(self):
        tb = kopi_testbed()
        proc = tb.spawn("postgres", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 5432)
        ep.send(100, dst=(PEER_IP, 9000))
        tb.run_all()
        pid, uid, comm = tb.dataplane.attribution_of(tb.peer.received[0])
        assert comm == "postgres"
        assert uid == tb.user("bob").uid

    def test_kernel_port_arbitration_restored(self):
        """Unlike raw bypass, KOPI connections go through the kernel: port
        conflicts and privileged ports are enforced again."""
        tb = kopi_testbed()
        bob_app = tb.spawn("a", "bob", core_id=1)
        charlie_app = tb.spawn("b", "charlie", core_id=2)
        tb.dataplane.open_endpoint(bob_app, PROTO_UDP, 5432)
        with pytest.raises(AddressInUse):
            tb.dataplane.open_endpoint(charlie_app, PROTO_UDP, 5432)
        with pytest.raises(PermissionDenied):
            tb.dataplane.open_endpoint(charlie_app, PROTO_UDP, 22)

    def test_rx_steering_by_dport_and_exact(self):
        tb = kopi_testbed()
        a = tb.spawn("a", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(a, PROTO_UDP, 7000)
        tb.peer.send_udp(555, 7000, 300)
        tb.run_all()
        assert ep.conn.rings.rx.occupancy == 1
        assert ep.conn.rx_packets == 1

    def test_ring_lines_step_in_machine_line_size(self):
        """A 1,458 B UDP payload is (1,500 + 16) B = 12 lines of 128 B; the
        RX region holds 64 such lines, so every line is a distinct fill."""
        costs = DEFAULT_COSTS.replace(cache_line_bytes=128)
        tb = kopi_testbed(costs=costs, structural_cache=True)
        a = tb.spawn("a", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(a, PROTO_UDP, 7000)
        tb.peer.send_udp(555, 7000, 1_458)
        tb.run_all()
        assert ep.conn.rings.rx.line_count == 64
        stats = tb.machine.llc.stats
        assert (stats["dma_fills"], stats["dma_hits"]) == (12, 0)

    def test_tail_dropped_packet_writes_no_lines(self):
        """A full RX ring drops the frame before any DMA: only the 4 posted
        MTU packets (24 lines each) reach the LLC and move the line cursor."""
        costs = DEFAULT_COSTS.replace(rx_ring_entries=4)
        tb = kopi_testbed(costs=costs, structural_cache=True)
        a = tb.spawn("a", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(a, PROTO_UDP, 7000)
        for _ in range(10):
            tb.peer.send_udp(555, 7000, 1_458)
        tb.run_all()
        ring = ep.conn.rings.rx
        assert ring.occupancy == 4
        assert tb.dataplane.nic.metrics.counter("rx_ring_drops").value == 6
        stats = tb.machine.llc.stats
        assert stats["dma_fills"] + stats["dma_hits"] == 4 * 24
        # The cursor stopped at line 96, i.e. line 32 of the 64-line region.
        assert ring.next_runs(1) == [(ring.first_line_addr + 32 * ring.line_bytes, 1)]

    def test_unmatched_rx_goes_to_software_fallback(self):
        tb = kopi_testbed()
        tb.peer.send_udp(555, 4444, 100)  # no connection on 4444
        tb.run_all()
        assert tb.dataplane.nic.metrics.counter("rx_fallback").value == 1
        assert tb.kernel.netstack.metrics.counter("rx_no_socket").value == 1


class TestOwnerFiltering:
    def test_owner_rule_enforced_on_nic(self):
        tb = kopi_testbed()
        bob = tb.user("bob")
        pg = tb.spawn("postgres", "bob", core_id=1)
        rogue = tb.spawn("rogue", "charlie", core_id=2)
        ep_pg = tb.dataplane.open_endpoint(pg, PROTO_UDP, 5432)
        ep_rogue = tb.dataplane.open_endpoint(rogue, PROTO_UDP, 6000)
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=ACCEPT, chain=CHAIN_OUTPUT, dport=9432,
                          uid_owner=bob.uid, cmd_owner="postgres")
        )
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=9432)
        )
        tb.run_all()  # let overlays load
        ep_pg.send(100, dst=(PEER_IP, 9432))
        ep_rogue.send(100, dst=(PEER_IP, 9432))
        ep_rogue.send(100, dst=(PEER_IP, 8080))
        tb.run_all()
        dports = sorted(p.five_tuple.dport for p in tb.peer.received)
        assert dports == [8080, 9432]
        senders = {tb.dataplane.attribution_of(p)[2] for p in tb.peer.received
                   if p.five_tuple.dport == 9432}
        assert senders == {"postgres"}
        assert tb.dataplane.nic.metrics.counter("tx_filtered").value == 1

    def test_rule_counters_sync_back_to_kernel(self):
        tb = kopi_testbed()
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        rule = NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=9000)
        tb.dataplane.install_filter_rule(rule)
        tb.run_all()
        ep.send(10, dst=(PEER_IP, 9000))
        ep.send(10, dst=(PEER_IP, 9000))
        tb.run_all()
        tb.dataplane.control.sync_rule_counters()
        assert rule.packets == 2

    def test_new_connection_triggers_recompile(self):
        """An owner rule starts enforcing for connections opened later."""
        tb = kopi_testbed()
        bob = tb.user("bob")
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=9000, uid_owner=bob.uid)
        )
        tb.run_all()
        late = tb.spawn("late-app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(late, PROTO_UDP, 6000)
        tb.run_all()  # recompiled overlay loads
        results = []
        ep.send(10, dst=(PEER_IP, 9000)).add_callback(lambda s: results.append(s.value))
        tb.run_all()
        assert tb.dataplane.nic.metrics.counter("tx_filtered").value == 1
        assert len(tb.peer.received) == 0


class TestQos:
    def test_cgroup_qos_compiles_to_nic_scheduler(self):
        tb = kopi_testbed()
        tb.kernel.cgroups.create("/games")
        game = tb.spawn("game", "bob", core_id=1)
        tb.kernel.cgroups.assign(game, "/games")
        tb.dataplane.open_endpoint(game, PROTO_UDP, 6000)
        tb.dataplane.configure_qos(QosConfig(weights_by_cgroup={"/games": 2}))
        tb.run_all()
        from repro.core.nic_dataplane import SLOT_CLASSIFIER

        classifier = tb.dataplane.nic.fpga.machine(SLOT_CLASSIFIER)
        assert classifier is not None
        assert "setcls" in classifier.program.disassemble()


class TestSniffer:
    def test_global_attributed_capture_with_pcap(self):
        tb = kopi_testbed()
        a = tb.spawn("app-a", "bob", core_id=1)
        b = tb.spawn("app-b", "charlie", core_id=2)
        session = tb.dataplane.start_capture(name="dbg")
        tb.dataplane.open_endpoint(a, PROTO_UDP, 6000).send(10, dst=(PEER_IP, 1))
        tb.dataplane.open_endpoint(b, PROTO_UDP, 6001).send(10, dst=(PEER_IP, 2))
        tb.run_all()
        assert len(session.packets) == 2
        assert session.attributed
        count, _ = read_pcap_summary(session.pcap.to_bytes())
        assert count == 2

    def test_raw_arp_from_ring_is_attributed(self):
        """The E4 superpower: even raw ARP frames carry the sending
        process's identity, because the NIC knows whose ring they left."""
        tb = kopi_testbed()
        flooder = tb.spawn("buggy-app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(flooder, PROTO_UDP, 6000)
        session = tb.dataplane.start_capture(match=lambda p: p.is_arp)
        from repro.dataplanes.testbed import HOST_IP, HOST_MAC

        ep.send_raw(make_arp_request(HOST_MAC, HOST_IP, PEER_IP))
        tb.run_all()
        assert len(session.packets) == 1
        assert tb.dataplane.attribution_of(session.packets[0])[2] == "buggy-app"
        entries = tb.dataplane.arp_entries()
        assert entries[0].source_pid == flooder.pid


class TestBlockingIo:
    def test_blocked_reader_sleeps_then_wakes(self):
        tb = kopi_testbed()
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        got = []

        def server():
            msg = yield ep.recv(blocking=True)
            got.append((tb.sim.now, msg))

        SimProcess(tb.sim, server())
        tb.sim.after(2_000_000, tb.peer.send_udp, 555, 7000, 400)
        tb.run_all()
        assert len(got) == 1
        assert got[0][1][0] == 400
        # Core stayed (nearly) idle for the 2 ms wait.
        assert tb.machine.cpus[1].busy_ns < 200_000
        # The wake went through the notification queue + interrupt.
        q = tb.dataplane.control.notification_queue(proc.pid)
        assert q.metrics.counter("posted").value >= 1

    def test_blocking_send_waits_for_ring_space(self):
        costs = DEFAULT_COSTS.replace(tx_ring_entries=2)
        tb = kopi_testbed(costs=costs)
        proc = tb.spawn("blaster", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        sent = []

        def client():
            for i in range(8):
                ok = yield ep.send(1_000, dst=(PEER_IP, 9000))
                sent.append(ok)

        SimProcess(tb.sim, client())
        tb.run_all()
        assert sent == [True] * 8
        assert len(tb.peer.received) == 8


class TestFallback:
    def test_sram_exhaustion_degrades_to_software_path(self):
        # SRAM for exactly 2 connections.
        costs = DEFAULT_COSTS.replace(
            smartnic_sram_bytes=2 * DEFAULT_COSTS.conn_state_bytes)
        tb = Testbed(NormanOS, costs=costs)
        procs = [tb.spawn(f"app{i}", "bob", core_id=1) for i in range(3)]
        eps = [tb.dataplane.open_endpoint(p, PROTO_UDP, 7000 + i)
               for i, p in enumerate(procs)]
        assert [ep.conn.fallback for ep in eps] == [False, False, True]
        # The fallback connection still works, via the kernel.
        results = []
        eps[2].send(100, dst=(PEER_IP, 9000)).add_callback(lambda s: results.append(s.value))
        tb.run_all()
        assert results == [True]
        assert len(tb.peer.received) == 1
        assert tb.kernel.syscalls.metrics.counter("sendto").value == 1

    def test_fallback_rx_delivered_through_kernel(self):
        tb = Testbed(NormanOS, costs=DEFAULT_COSTS.replace(smartnic_sram_bytes=1))
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        assert ep.conn.fallback
        got = []

        def server():
            msg = yield ep.recv(blocking=True)
            got.append(msg)

        SimProcess(tb.sim, server())
        tb.sim.after(10_000, tb.peer.send_udp, 555, 7000, 250)
        tb.run_all()
        assert got[0][0] == 250

    def test_close_releases_nic_resources(self):
        costs = DEFAULT_COSTS.replace(
            smartnic_sram_bytes=1 * DEFAULT_COSTS.conn_state_bytes)
        tb = Testbed(NormanOS, costs=costs)
        a = tb.spawn("a", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(a, PROTO_UDP, 7000)
        assert not ep.conn.fallback
        ep.close()
        b = tb.spawn("b", "bob", core_id=1)
        ep2 = tb.dataplane.open_endpoint(b, PROTO_UDP, 7001)
        assert not ep2.conn.fallback  # freed SRAM was reusable
