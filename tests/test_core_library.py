"""Norman library edge cases: closed endpoints, blocked writers, monitor
modes, fallback behaviour."""

import pytest

from repro import units
from repro.config import DEFAULT_COSTS
from repro.core import NormanOS
from repro.dataplanes import Testbed
from repro.dataplanes.testbed import PEER_IP
from repro.errors import EndpointClosed, KernelError, UnsupportedOperation, WouldBlock
from repro.net import PROTO_UDP, make_arp_request
from repro.sim import SimProcess


def build(**kwargs):
    tb = Testbed(NormanOS, **kwargs)
    proc = tb.spawn("app", "bob", core_id=1)
    return tb, proc


class TestClosedEndpoints:
    def test_send_after_close_returns_false(self):
        tb, proc = build()
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        results = []
        sig = ep.send(100, dst=(PEER_IP, 9000))
        ep.close()
        sig.add_callback(lambda s: results.append(s.value))
        tb.run_all()
        assert results == [False]

    def test_blocking_recv_fails_on_closed_endpoint(self):
        tb, proc = build()
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.close()
        errs = []
        sig = ep.recv(blocking=True)
        sig.add_callback(lambda s: errs.append(type(s.exception)))
        tb.run_all()
        assert errs == [EndpointClosed]

    def test_close_is_idempotent(self):
        tb, proc = build()
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.close()
        ep.close()  # no raise


class TestBlockedWriters:
    def test_double_blocked_writer_rejected(self):
        tb, proc = build()
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        tb.dataplane.control.block_on_tx(ep.conn, proc)
        other = tb.spawn("other", "bob", core_id=2)
        with pytest.raises(KernelError, match="blocked writer"):
            tb.dataplane.control.block_on_tx(ep.conn, other)

    def test_double_blocked_reader_rejected(self):
        tb, proc = build()
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        tb.dataplane.control.block_on_rx(ep.conn, proc)
        other = tb.spawn("other", "bob", core_id=2)
        with pytest.raises(KernelError, match="blocked reader"):
            tb.dataplane.control.block_on_rx(ep.conn, other)


class TestMonitorModes:
    def test_poll_mode_wakes_at_tick_boundary(self):
        tb, proc = build()
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        interval = 20 * units.US
        tb.dataplane.control.set_monitor_mode(proc.pid, "poll", interval)
        got = []

        def server():
            msg = yield ep.recv(blocking=True)
            got.append((tb.sim.now, msg))

        SimProcess(tb.sim, server())
        tb.sim.after(5_000, tb.peer.send_udp, 555, 7000, 100)
        tb.run_all()
        assert len(got) == 1
        # Wake happened at/after a scan-tick boundary, not instantly.
        when = got[0][0]
        assert when >= interval
        # Monitor core (core 0) did the scan work.
        assert tb.machine.cpus[0].busy_ns >= DEFAULT_COSTS.poll_iteration_ns

    def test_interrupt_mode_is_faster_than_polling(self):
        latencies = {}
        for mode, interval in (("interrupt", None), ("poll", 100 * units.US)):
            tb, proc = build()
            ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
            if interval:
                tb.dataplane.control.set_monitor_mode(proc.pid, mode, interval)
            got = []

            def server():
                yield ep.recv(blocking=True)
                got.append(tb.sim.now)

            SimProcess(tb.sim, server())
            tb.sim.after(1_000, tb.peer.send_udp, 555, 7000, 100)
            tb.run_all()
            latencies[mode] = got[0]
        assert latencies["interrupt"] < latencies["poll"]

    def test_mode_validation(self):
        tb, proc = build()
        with pytest.raises(KernelError):
            tb.dataplane.control.set_monitor_mode(proc.pid, "psychic")
        with pytest.raises(KernelError):
            tb.dataplane.control.set_monitor_mode(proc.pid, "poll", 0)


class TestFallbackEdges:
    def test_fallback_endpoint_refuses_raw_frames(self):
        tb = Testbed(NormanOS, costs=DEFAULT_COSTS.replace(smartnic_sram_bytes=1))
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        assert ep.conn.fallback
        from repro.dataplanes.testbed import HOST_IP, HOST_MAC

        with pytest.raises(UnsupportedOperation):
            ep.send_raw(make_arp_request(HOST_MAC, HOST_IP, PEER_IP))

    def test_fallback_nonblocking_recv(self):
        tb = Testbed(NormanOS, costs=DEFAULT_COSTS.replace(smartnic_sram_bytes=1))
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        errs = []
        sig = ep.recv(blocking=False)
        sig.add_callback(lambda s: errs.append(type(s.exception)))
        tb.run_all()
        assert errs == [WouldBlock]


class TestNetstackEdges:
    def test_second_blocking_reader_on_same_port_rejected(self):
        from repro.dataplanes import KernelPathDataplane

        tb = Testbed(KernelPathDataplane)
        a = tb.spawn("a", "bob", core_id=1)
        sock = tb.kernel.sockets.bind(a, PROTO_UDP, 7000)
        tb.kernel.netstack.recvmmsg(a, sock, 1, blocking=True)
        b = tb.spawn("b", "bob", core_id=2)
        with pytest.raises(KernelError, match="blocked reader"):
            tb.kernel.netstack.recvmmsg(b, sock, 1, blocking=True)

    def test_kernel_capture_writes_pcap(self):
        from repro.dataplanes import KernelPathDataplane
        from repro.net.pcap import read_pcap_summary

        tb = Testbed(KernelPathDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        session = tb.dataplane.start_capture()
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.send(100, dst=(PEER_IP, 9000))
        tb.run_all()
        count, _ = read_pcap_summary(session.pcap.to_bytes())
        assert count == 1
