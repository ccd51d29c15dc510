"""Application behaviours across dataplanes."""

import pytest

from repro import units
from repro.core import NormanOS
from repro.dataplanes import BypassDataplane, KernelPathDataplane, Testbed
from repro.dataplanes.testbed import PEER_IP
from repro.apps import (
    ArpFlooder,
    BlockingWorker,
    BulkSender,
    DatabaseServer,
    EchoServer,
    GameClient,
    MisconfiguredDatabase,
    PollingWorker,
    RpcClient,
    SinkServer,
)


class TestBulkSender:
    def test_counts_and_goodput(self):
        tb = Testbed(NormanOS)
        app = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                         payload_len=1_000, count=50).start()
        tb.run_all()
        assert app.sent == 50
        assert len(tb.peer.received) == 50
        assert app.goodput_bps() > 0

    def test_runs_on_kernel_path(self):
        tb = Testbed(KernelPathDataplane)
        app = BulkSender(tb, comm="bulk", user="bob", core_id=1, count=10).start()
        tb.run_all()
        assert app.sent == 10

    @pytest.mark.parametrize("burst", [1, 4])
    def test_stops_when_endpoint_closes_mid_run(self, burst):
        """A closed endpoint refuses every send; the sender must give up
        rather than retry forever."""
        tb = Testbed(NormanOS)
        app = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                         count=100, burst=burst).start()
        tb.sim.at(10 * units.US, app.ep.close)
        tb.run_all(max_events=5_000)
        assert app.task.finished
        assert 0 < app.sent < 100


class TestSinkAndEcho:
    def test_sink_counts_messages(self):
        tb = Testbed(NormanOS)
        sink = SinkServer(tb, port=7000, comm="sink", user="bob", core_id=1).start()
        for i in range(5):
            tb.sim.after(1_000 * (i + 1), tb.peer.send_udp, 555, 7000, 300)
        tb.run_all()
        assert sink.messages == 5
        assert sink.bytes == 1_500
        sink.stop()
        tb.run_all()

    def test_echo_replies(self):
        tb = Testbed(NormanOS)
        echo = EchoServer(tb, port=7000, comm="echo", user="bob", core_id=1).start()
        tb.sim.after(1_000, tb.peer.send_udp, 555, 7000, 200)
        tb.run_all()
        assert echo.served == 1
        replies = [p for p in tb.peer.received if p.five_tuple.dport == 555]
        assert len(replies) == 1
        assert replies[0].payload_len == 200


class TestRpcClient:
    def test_rtt_measured_against_echoing_peer(self):
        tb = Testbed(NormanOS)
        tb.peer.enable_echo(lambda pkt: pkt.payload_len)
        rpc = RpcClient(tb, comm="rpc", user="bob", core_id=1, count=10).start()
        tb.run_all()
        assert rpc.completed == 10
        assert rpc.rtt.count == 10
        assert rpc.rtt.minimum > 0


class TestDatabases:
    def test_database_serves_queries(self):
        tb = Testbed(NormanOS)
        db = DatabaseServer(tb, comm="postgres", user="bob", port=5432, core_id=1).start()
        tb.sim.after(1_000, tb.peer.send_udp, 555, 5432, 100)
        tb.run_all()
        assert db.queries == 1
        assert any(p.five_tuple.dport == 555 for p in tb.peer.received)

    def test_misconfigured_db_steals_on_bypass(self):
        tb = Testbed(BypassDataplane)
        thief = MisconfiguredDatabase(tb, core_id=1).start()
        tb.sim.after(1_000, tb.peer.send_udp, 555, 5432, 100)
        tb.run(until=1_000_000)
        thief.stop()
        tb.run_all()
        assert thief.stolen == 1

    def test_misconfigured_db_cannot_even_bind_under_kopi_conflict(self):
        from repro.errors import AddressInUse

        tb = Testbed(NormanOS)
        DatabaseServer(tb, comm="postgres", user="bob", port=5432, core_id=1)
        with pytest.raises(AddressInUse):
            MisconfiguredDatabase(tb, core_id=2)


class TestGameClient:
    def test_hops_ports_between_sessions(self):
        tb = Testbed(NormanOS)
        game = GameClient(tb, user="bob", core_id=1, sessions=3,
                          packets_per_session=5, seed=7).start()
        tb.run_all()
        assert len(set(game.ports_used)) == 3
        assert game.sent == 15
        # Peer meters count wire bytes (payload + 42B of headers).
        assert game.goodput_bytes_at_peer() == game.sent_bytes + 42 * game.sent

    def test_deterministic_under_seed(self):
        ports = []
        for _ in range(2):
            tb = Testbed(NormanOS)
            game = GameClient(tb, user="bob", core_id=1, sessions=3,
                              packets_per_session=1, seed=42).start()
            tb.run_all()
            ports.append(tuple(game.ports_used))
        assert ports[0] == ports[1]


class TestArpFlooder:
    def test_floods_on_bypass(self):
        tb = Testbed(BypassDataplane)
        flooder = ArpFlooder(tb, user="bob", count=10, core_id=1).start()
        tb.run_all()
        assert flooder.sent == 10
        assert not flooder.refused
        assert sum(1 for p in tb.peer.received if p.is_arp) == 10

    def test_refused_on_kernel_path(self):
        tb = Testbed(KernelPathDataplane)
        flooder = ArpFlooder(tb, user="bob", count=10, core_id=1).start()
        tb.run_all()
        assert flooder.refused
        assert flooder.sent == 0


class TestWorkers:
    def _drive(self, tb, worker, n_messages=5, gap_ns=500_000):
        worker.start()
        for i in range(n_messages):
            tb.sim.after(gap_ns * (i + 1), tb.peer.send_udp, 555, worker.ep.port, 100)
        tb.run(until=gap_ns * (n_messages + 2))
        worker.stop()
        tb.run_all()

    def test_blocking_worker_low_utilization(self):
        tb = Testbed(NormanOS)
        worker = BlockingWorker(tb, port=7000, comm="blk", user="bob", core_id=1)
        self._drive(tb, worker)
        assert worker.served == 5
        assert tb.machine.cpus[1].utilization() < 0.10

    def test_polling_worker_burns_core(self):
        tb = Testbed(BypassDataplane)
        worker = PollingWorker(tb, port=7000, comm="poll", user="bob", core_id=1)
        self._drive(tb, worker)
        assert worker.served == 5
        assert tb.machine.cpus[1].utilization() > 0.90

    def test_polling_kopi_also_possible(self):
        """KOPI supports both modes (§4.3) — polling works too."""
        tb = Testbed(NormanOS)
        worker = PollingWorker(tb, port=7000, comm="poll", user="bob", core_id=1)
        self._drive(tb, worker)
        assert worker.served == 5
        assert tb.machine.cpus[1].utilization() > 0.90
