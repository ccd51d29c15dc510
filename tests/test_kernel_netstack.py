"""The in-kernel stack end to end: TX costs, RX wakeups, filtering, taps."""

import pytest

from repro import units
from repro.config import DEFAULT_COSTS
from repro.errors import EndpointClosed, WouldBlock
from repro.host import Machine
from repro.kernel import DROP, Kernel, NetfilterRule
from repro.kernel.netfilter import CHAIN_OUTPUT
from repro.net import IPv4Address, MacAddress, PROTO_TCP, PROTO_UDP, make_udp
from repro.sim import SimProcess

HOST_IP = IPv4Address.parse("10.0.0.1")
HOST_MAC = MacAddress.from_index(1)
PEER_IP = IPv4Address.parse("10.0.0.2")
PEER_MAC = MacAddress.from_index(2)


def build(n_cores=2):
    machine = Machine(n_cores=n_cores)
    wire = []
    kernel = Kernel(machine, HOST_IP, HOST_MAC, nic_send=wire.append)
    kernel.register_neighbor(PEER_IP, PEER_MAC)
    return machine, kernel, wire


class TestTx:
    def test_sendto_emits_attributed_packet(self):
        machine, kernel, wire = build()
        bob = kernel.add_user("bob")
        proc = kernel.spawn("postgres", bob)
        sock = kernel.sockets.bind(proc, PROTO_UDP, 5432)
        results = []
        kernel.netstack.sendmmsg(proc, sock, PEER_IP, 9000, [1_000]).add_callback(
            lambda s: results.append(s.value)
        )
        machine.sim.run()
        assert results == [1]
        assert len(wire) == 1
        pkt = wire[0]
        assert pkt.meta.owner_comm == "postgres"
        assert pkt.meta.owner_uid == bob.uid
        assert pkt.eth.dst == PEER_MAC
        assert pkt.five_tuple.dport == 9000

    def test_tx_charges_core_time(self):
        machine, kernel, _ = build()
        proc = kernel.spawn("app", "root", core_id=1)
        sock = kernel.sockets.bind(proc, PROTO_UDP, 2000)
        kernel.netstack.sendmmsg(proc, sock, PEER_IP, 9000, [1_500])
        machine.sim.run()
        core = machine.cpus[1]
        floor = DEFAULT_COSTS.syscall_ns + DEFAULT_COSTS.kernel_tx_pkt_ns
        assert core.busy_ns >= floor
        assert kernel.syscalls.metrics.counter("sendto").value == 1

    def test_output_filter_drops_before_wire(self):
        machine, kernel, wire = build()
        bob = kernel.add_user("bob")
        proc = kernel.spawn("rogue", bob)
        sock = kernel.sockets.bind(proc, PROTO_UDP, 2000)
        kernel.filters.append(
            NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=9000, uid_owner=bob.uid)
        )
        results = []
        kernel.netstack.sendmmsg(proc, sock, PEER_IP, 9000, [100]).add_callback(
            lambda s: results.append(s.value)
        )
        machine.sim.run()
        assert results == [0]
        assert wire == []
        assert kernel.netstack.metrics.counter("tx_filtered").value == 1

    def test_mac_fallback_for_unknown_ip(self):
        machine, kernel, wire = build()
        proc = kernel.spawn("app", "root")
        sock = kernel.sockets.bind(proc, PROTO_UDP, 2000)
        stranger = IPv4Address.parse("172.16.5.9")
        kernel.netstack.sendmmsg(proc, sock, stranger, 80, [10])
        machine.sim.run()
        assert wire[0].eth.dst == MacAddress.from_index(stranger.value & 0xFF_FFFF)


class TestRx:
    def rx_pkt(self, dport=7000, size=500, sport=555):
        return make_udp(PEER_MAC, HOST_MAC, PEER_IP, HOST_IP, sport, dport, size)

    def test_blocked_reader_wakes_with_message(self):
        machine, kernel, _ = build()
        proc = kernel.spawn("server", "root")
        sock = kernel.sockets.bind(proc, PROTO_UDP, 7000)
        got = []

        def server():
            msgs = yield kernel.netstack.recvmmsg(proc, sock, 1)
            msg = msgs[0]
            got.append((machine.sim.now, msg))

        SimProcess(machine.sim, server())
        machine.sim.after(50_000, kernel.netstack.deliver_burst, [self.rx_pkt()])
        machine.sim.run()
        assert len(got) == 1
        when, (size, src_ip, sport) = got[0]
        assert (size, src_ip, sport) == (500, PEER_IP, 555)
        # Wake path went through interrupt + scheduler + context switch.
        assert when >= 50_000 + kernel.scheduler.wake_latency_ns()

    def test_blocked_readers_are_per_protocol(self):
        """A UDP and a TCP socket may share a port number: each blocked
        reader gets its own socket's data, and closing a socket fails only
        its own reader."""
        machine, kernel, _ = build()
        udp_proc = kernel.spawn("dns", "root", core_id=0)
        tcp_proc = kernel.spawn("web", "root", core_id=1)
        udp = kernel.sockets.bind(udp_proc, PROTO_UDP, 7000)
        tcp = kernel.sockets.bind(tcp_proc, PROTO_TCP, 7000)
        got = []
        for proc, sock in ((udp_proc, udp), (tcp_proc, tcp)):
            kernel.netstack.recvmmsg(proc, sock, 1).add_callback(
                lambda s, proto=sock.proto: got.append(
                    (proto, s.exception if s.failed else s.value))
            )
        kernel.netstack.deliver_burst([self.rx_pkt()])
        machine.sim.run()
        assert got == [(PROTO_UDP, [(500, PEER_IP, 555)])]
        kernel.netstack.close(tcp)
        machine.sim.run()
        assert got[1][0] == PROTO_TCP and isinstance(got[1][1], EndpointClosed)
        assert kernel.scheduler.blocked_count == 0

    def test_queued_delivery_without_reader(self):
        machine, kernel, _ = build()
        proc = kernel.spawn("server", "root")
        sock = kernel.sockets.bind(proc, PROTO_UDP, 7000)
        kernel.netstack.deliver_burst([self.rx_pkt()])
        machine.sim.run()
        assert len(sock.rx_queue) == 1
        got = []
        kernel.netstack.recvmmsg(proc, sock, 1).add_callback(
            lambda s: got.extend(s.value)
        )
        machine.sim.run()
        assert got[0][0] == 500

    def test_nonblocking_recv_fails_fast(self):
        machine, kernel, _ = build()
        proc = kernel.spawn("poller", "root")
        sock = kernel.sockets.bind(proc, PROTO_UDP, 7000)
        errors = []
        sig = kernel.netstack.recvmmsg(proc, sock, 1, blocking=False)
        sig.add_callback(lambda s: errors.append(type(s.exception)))
        machine.sim.run()
        assert errors == [WouldBlock]

    def test_rx_to_unbound_port_counted(self):
        machine, kernel, _ = build()
        kernel.netstack.deliver_burst([self.rx_pkt(dport=4444)])
        machine.sim.run()
        assert kernel.netstack.metrics.counter("rx_no_socket").value == 1

    def test_rx_attributes_owner_at_demux(self):
        machine, kernel, _ = build()
        bob = kernel.add_user("bob")
        proc = kernel.spawn("postgres", bob)
        kernel.sockets.bind(proc, PROTO_UDP, 7000)
        session = kernel.netstack.sniffer.start()
        kernel.netstack.deliver_burst([self.rx_pkt()])
        machine.sim.run()
        assert session.packets[0].meta.owner_comm == "postgres"


class TestTaps:
    def test_tap_sees_both_directions_and_detaches(self):
        machine, kernel, _ = build()
        proc = kernel.spawn("app", "root")
        sock = kernel.sockets.bind(proc, PROTO_UDP, 7000)
        session = kernel.netstack.sniffer.start()
        kernel.netstack.sendmmsg(proc, sock, PEER_IP, 9000, [10])
        pkt_in = make_udp(PEER_MAC, HOST_MAC, PEER_IP, HOST_IP, 555, 7000, 20)
        kernel.netstack.deliver_burst([pkt_in])
        machine.sim.run()
        assert len(session.packets) == 2
        session.stop()
        kernel.netstack.sendmmsg(proc, sock, PEER_IP, 9000, [10])
        machine.sim.run()
        assert len(session.packets) == 2


class TestKernelFacade:
    def test_spawn_validates_core(self):
        _, kernel, _ = build(n_cores=2)
        with pytest.raises(Exception):
            kernel.spawn("app", "root", core_id=7)

    def test_observe_arp_populates_cache(self):
        machine, kernel, _ = build()
        from repro.net import make_arp_request

        kernel.observe_arp(make_arp_request(PEER_MAC, PEER_IP, HOST_IP))
        assert kernel.arp_cache.lookup(PEER_IP).mac == PEER_MAC
        assert kernel.mac_for(PEER_IP) == PEER_MAC

    def test_snapshot_merges_subsystems(self):
        machine, kernel, _ = build()
        proc = kernel.spawn("app", "root")
        sock = kernel.sockets.bind(proc, PROTO_UDP, 2000)
        kernel.netstack.sendmmsg(proc, sock, PEER_IP, 80, [10])
        machine.sim.run()
        snap = kernel.snapshot()
        assert snap["syscall.total"] >= 1
        assert snap["netstack.tx_pkts"] == 1

    def test_egress_paced_at_line_rate(self):
        """Back-to-back sends serialize at the NIC rate, not instantly."""
        machine = Machine(n_cores=1, costs=DEFAULT_COSTS.replace())
        times = []
        kernel = Kernel(
            machine, HOST_IP, HOST_MAC,
            nic_send=lambda p: times.append(machine.sim.now),
            tx_rate_bps=units.GBPS,
        )
        kernel.register_neighbor(PEER_IP, PEER_MAC)
        proc = kernel.spawn("app", "root")
        sock = kernel.sockets.bind(proc, PROTO_UDP, 2000)
        for _ in range(3):
            kernel.netstack.sendmmsg(proc, sock, PEER_IP, 80, [958])
        machine.sim.run()
        assert len(times) == 3
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 8_000 for g in gaps)  # 1000B wire at 1 Gbps
