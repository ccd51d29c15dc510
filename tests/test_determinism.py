"""Bit-for-bit determinism: the whole point of integer-ns simulation.

Two identical runs must produce identical timestamps, counters, and
latencies — this is what makes every number in EXPERIMENTS.md reproducible
and every test non-flaky.
"""

from repro import units
from repro.core import NormanOS
from repro.dataplanes import Testbed
from repro.dataplanes.testbed import PEER_IP
from repro.net import PROTO_UDP
from repro.sim import SimProcess
from repro.apps import BulkSender, GameClient, RpcClient


def run_workload():
    tb = Testbed(NormanOS)
    tb.peer.enable_echo(lambda pkt: pkt.payload_len if pkt.five_tuple.dport == 9_100 else None)
    bulk = BulkSender(tb, comm="bulk", user="bob", core_id=1, count=30).start()
    rpc = RpcClient(tb, comm="rpc", user="bob", core_id=2, count=10).start()
    game = GameClient(tb, user="charlie", core_id=3, sessions=2,
                      packets_per_session=5, seed=9).start()
    tb.run_all()
    return {
        "end_time": tb.sim.now,
        "events": tb.sim.events_fired,
        "peer_pkts": len(tb.peer.received),
        "peer_timestamps": tuple(p.meta.delivered_ns for p in tb.peer.received),
        "rpc_rtts": tuple(rpc.rtt._samples),
        "game_ports": tuple(game.ports_used),
        "bulk_goodput": bulk.goodput_bps(),
        "core_busy": tuple(c.busy_ns for c in tb.machine.cpus.cores),
        "syscalls": tb.kernel.syscalls.total_syscalls,
    }


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        assert run_workload() == run_workload()

    def test_structural_cache_run_deterministic(self):
        from repro.experiments.e8_connection_scaling import run_point

        a = run_point(256, packets_total=1_024)
        b = run_point(256, packets_total=1_024)
        assert a == b

    def test_burst_workload_deterministic(self):
        """Coalesced bursts (batch_size > 1) must be exactly as
        reproducible as bursts of one."""
        from dataclasses import replace

        from repro.config import DEFAULT_COSTS

        def run_burst_workload():
            costs = replace(DEFAULT_COSTS, batch_size=8)
            tb = Testbed(NormanOS, costs=costs)
            bulk = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                              count=64, burst=8).start()
            tb.run_all()
            return {
                "end_time": tb.sim.now,
                "events": tb.sim.events_fired,
                "peer_timestamps": tuple(p.meta.delivered_ns for p in tb.peer.received),
                "bulk_goodput": bulk.goodput_bps(),
                "core_busy": tuple(c.busy_ns for c in tb.machine.cpus.cores),
            }

        assert run_burst_workload() == run_burst_workload()

    def test_burst_of_one_is_the_seed_trace(self):
        """send()/recv() are wrappers over the burst paths; with
        batch_size=1 the whole mixed workload must fingerprint exactly as
        it did before the burst refactor (same events, times, syscalls)."""
        baseline = run_workload()
        assert baseline == run_workload()
        assert baseline["events"] > 0

    def test_engine_installed_and_counting_under_seed_workload(self):
        """The PolicyEngine is no passive bolt-on: during the fingerprint
        workload every KOPI mechanism is registered and the datapath points
        are actually counting evaluations. Together with the fingerprint
        test below this pins the refactor's core claim — the engine observes
        everything and perturbs nothing."""
        tb = Testbed(NormanOS)
        bulk = BulkSender(tb, comm="bulk", user="bob", core_id=1, count=30)
        bulk.start()
        sink = tb.spawn("sink", "bob", core_id=2)
        tb.dataplane.open_endpoint(sink, PROTO_UDP, 9_000)
        for i in range(8):
            tb.sim.at(i * units.US, tb.peer.send_udp, 555, 9_000, 256)
        tb.run_all()
        engine = tb.machine.interpose
        assert {p.mechanism for p in engine} == {
            "netfilter", "qdisc", "tap", "steering", "overlay"
        }
        assert engine.get("steering").evaluated > 0
        assert engine.get("qdisc").evaluated > 0
        assert not engine.pending()
        # Observation is free: counters moved, the event trace did not.
        assert run_workload() == run_workload()

    def test_zerocopy_off_reproduces_seed_fingerprint(self):
        """The copy ledger is observational and the elision modes default
        off: the mixed workload must hash to the exact fingerprint captured
        on the seed tree, byte for byte. Ints and floats repr identically
        across supported Pythons, so the sha256 is stable. If this fails,
        a 'pure accounting' change altered simulated behaviour."""
        import hashlib

        fingerprint = hashlib.sha256(
            repr(sorted(run_workload().items())).encode()
        ).hexdigest()
        assert fingerprint == (
            "3eeddc5fcef1881523bc34dcc4bab94e"  # captured from the seed
            "d92fe292723a9fd840f4c71ac94c6820"
        )


def run_rx_workload(plane_cls):
    """Batch-1 receive on a software-RX plane: a blocked reader woken by a
    packet, queued packets read without blocking, an INPUT-chain drop, a
    packet to an unbound port and an ARP frame."""
    from repro.kernel import CHAIN_INPUT, DROP, NetfilterRule
    from repro.net.packet import make_arp_request

    tb = Testbed(plane_cls)
    tb.dataplane.install_filter_rule(
        NetfilterRule(verdict=DROP, chain=CHAIN_INPUT, dport=7_001)
    )
    reader = tb.spawn("reader", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(reader, PROTO_UDP, 7_000)
    dropped = tb.spawn("dropped", "bob", core_id=2)
    tb.dataplane.open_endpoint(dropped, PROTO_UDP, 7_001)
    got = []

    def read():
        msg = yield ep.recv()
        got.append((tb.sim.now, msg))
        yield 40 * units.US
        msg = yield ep.recv(blocking=False)
        got.append((tb.sim.now, msg))
        msgs = yield ep.recv_burst(8, blocking=False)
        got.append((tb.sim.now, tuple(msgs)))

    SimProcess(tb.sim, read(), name="reader")
    tb.sim.at(5 * units.US, tb.peer.send_udp, 555, 7_000, 300)
    for i in range(4):
        tb.sim.at((20 + i) * units.US, tb.peer.send_udp, 556 + i, 7_000, 100 + i)
    tb.sim.at(25 * units.US, tb.peer.send_udp, 600, 7_001, 200)
    tb.sim.at(26 * units.US, tb.peer.send_udp, 601, 7_002, 200)
    tb.sim.at(27 * units.US, tb.peer.send,
              make_arp_request(tb.peer.mac, PEER_IP, tb.dataplane.kernel.host_ip))
    tb.run_all()
    return {
        "clock": tb.sim.now,
        "events": tb.sim.events_fired,
        "delivered": tuple(got),
        "core_busy": tuple(c.busy_ns for c in tb.machine.cpus.cores),
        "nic": sorted(tb.dataplane.nic.stats().items()),
        "kernel": sorted(tb.kernel.snapshot().items()),
        "arp": tuple(map(repr, tb.dataplane.arp_entries())),
    }


class TestRxGolden:
    """Software RX at batch_size=1 on the kernel and sidecar planes must
    hash to the digests captured from the per-packet RX paths the burst
    path replaced: a burst of one is byte-identical to one packet."""

    GOLDEN = {
        "kernel": "0c56d744075b5650f316c27ee1e501b0"
                  "f708ef24d58fd3fcec665b18fe1a46f2",
        "sidecar": "5a15816243d171b967f163c2aff77811"
                   "5c612e6aa085f80308f05e0aa0874349",
    }

    def test_batch1_rx_matches_golden(self):
        import hashlib

        from repro.dataplanes import KernelPathDataplane, SidecarDataplane

        for plane_cls in (KernelPathDataplane, SidecarDataplane):
            run = run_rx_workload(plane_cls)
            assert run == run_rx_workload(plane_cls)
            digest = hashlib.sha256(repr(sorted(run.items())).encode()).hexdigest()
            assert digest == self.GOLDEN[plane_cls.name], plane_cls.name
