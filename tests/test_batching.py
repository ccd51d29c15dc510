"""Burst-mode dataplane: the batch_size=1 identity and the amortization law.

The refactor's contract is that per-packet calls are the degenerate burst of
one: with batch_size=1, `send_burst([x])` must be event-for-event identical
to `send(x)` on every plane, and the burst-mode driver must reproduce the
per-packet driver's numbers exactly. With batch_size>1, fixed per-call costs
(syscall, doorbell, DMA setup) amortize monotonically for ring-based planes
while the sidecar's physical movement cost does not.
"""

from dataclasses import replace

import pytest

from repro.apps.base import App
from repro.config import DEFAULT_COSTS
from repro.core import NormanOS
from repro.dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    SidecarDataplane,
    Testbed,
)
from repro.dataplanes.testbed import PEER_IP
from repro.experiments.common import planes_under_test, run_bulk_tx, run_burst_tx
from repro.net.headers import PROTO_UDP
from repro.sim import Histogram, SimProcess

N_MSGS = 12
PAYLOAD = 600


class _PerPacketSender(App):
    def __init__(self, tb, n=N_MSGS, **kw):
        super().__init__(tb, **kw)
        self.n = n

    def run(self):
        yield self.ep.connect(PEER_IP, 9_000)
        for _ in range(self.n):
            yield self.ep.send(PAYLOAD)


class _BurstOfOneSender(App):
    def __init__(self, tb, n=N_MSGS, **kw):
        super().__init__(tb, **kw)
        self.n = n

    def run(self):
        yield self.ep.connect(PEER_IP, 9_000)
        for _ in range(self.n):
            yield self.ep.send_burst([PAYLOAD])


class _EchoPerPacket(App):
    def __init__(self, tb, n=5, **kw):
        super().__init__(tb, **kw)
        self.n = n
        self.msgs = []

    def run(self):
        yield self.ep.connect(PEER_IP, 9_100)
        for _ in range(self.n):
            yield self.ep.send(PAYLOAD)
            msg = yield self.ep.recv()
            self.msgs.append(msg)


class _EchoBurstOfOne(App):
    def __init__(self, tb, n=5, **kw):
        super().__init__(tb, **kw)
        self.n = n
        self.msgs = []

    def run(self):
        yield self.ep.connect(PEER_IP, 9_100)
        for _ in range(self.n):
            yield self.ep.send_burst([PAYLOAD])
            msgs = yield self.ep.recv_burst(1)
            self.msgs.append(msgs[0])


def _fingerprint(tb):
    fp = {
        "end": tb.sim.now,
        "events": tb.sim.events_fired,
        "peer": tuple(p.meta.delivered_ns for p in tb.peer.received),
        "busy": tuple(c.busy_ns for c in tb.machine.cpus.cores),
    }
    kernel = getattr(tb.dataplane, "kernel", None)
    if kernel is not None:
        fp["syscalls"] = kernel.syscalls.metrics.snapshot()
    return fp


class TestBurstOfOneIdentity:
    """send_burst([x]) == send(x), event for event, on every plane."""

    @pytest.mark.parametrize("plane_cls", planes_under_test(),
                             ids=lambda c: c.name)
    def test_send_burst_of_one_identical_trace(self, plane_cls):
        def run(app_cls):
            tb = Testbed(plane_cls)
            app_cls(tb, comm="tx", user="bob", core_id=1).start()
            tb.run_all()
            return _fingerprint(tb)

        assert run(_PerPacketSender) == run(_BurstOfOneSender)

    @pytest.mark.parametrize("plane_cls", [KernelPathDataplane, NormanOS],
                             ids=lambda c: c.name)
    def test_recv_burst_of_one_identical_trace(self, plane_cls):
        """recvmmsg of one message == recvfrom, including blocking wakes."""

        def run(app_cls):
            tb = Testbed(plane_cls)
            tb.peer.enable_echo(
                lambda pkt: pkt.payload_len if pkt.five_tuple.dport == 9_100 else None
            )
            app = app_cls(tb, comm="rpc", user="bob", core_id=1).start()
            tb.run_all()
            fp = _fingerprint(tb)
            fp["msgs"] = tuple(app.msgs)
            return fp

        a, b = run(_EchoPerPacket), run(_EchoBurstOfOne)
        assert len(a["msgs"]) == 5
        assert a == b

    @pytest.mark.parametrize("plane_cls", planes_under_test(),
                             ids=lambda c: c.name)
    def test_burst_driver_at_one_reproduces_per_packet_driver(self, plane_cls):
        per_packet = run_bulk_tx(plane_cls, 1_458, 40)
        burst = run_burst_tx(plane_cls, 1_458, 40, 1)
        assert burst.pop("batch") == 1
        assert burst == per_packet


class TestBurstModeDeterminism:
    @pytest.mark.parametrize("plane_cls", planes_under_test(),
                             ids=lambda c: c.name)
    def test_identical_burst_runs_identical_results(self, plane_cls):
        a = run_burst_tx(plane_cls, 1_458, 64, 16)
        b = run_burst_tx(plane_cls, 1_458, 64, 16)
        assert a == b


class TestAmortization:
    """The e12 law at reduced scale: fixed costs amortize on ring planes,
    physical movement does not."""

    def test_ring_planes_amortize_monotonically(self):
        for plane_cls in (KernelPathDataplane, BypassDataplane,
                          HypervisorDataplane, NormanOS):
            cpus = [
                run_burst_tx(plane_cls, 1_458, 64, b)["app_cpu_ns_per_pkt"]
                for b in (1, 4, 16)
            ]
            assert cpus[0] > cpus[-1], f"{plane_cls.name}: no amortization {cpus}"
            assert all(b <= a for a, b in zip(cpus, cpus[1:])), \
                f"{plane_cls.name}: non-monotone {cpus}"

    def test_sidecar_physical_movement_does_not_amortize(self):
        cpus = [
            run_burst_tx(SidecarDataplane, 1_458, 64, b)["app_cpu_ns_per_pkt"]
            for b in (1, 4, 16)
        ]
        assert cpus[0] == pytest.approx(cpus[-1])

    def test_kernel_batch_amortizes_syscalls(self):
        one = run_burst_tx(KernelPathDataplane, 1_458, 64, 1)
        big = run_burst_tx(KernelPathDataplane, 1_458, 64, 16)
        assert big["movements"]["virtual"] < one["movements"]["virtual"]


class TestBurstRx:
    """NAPI-style RX: the NIC coalesces ``batch_size`` packets per burst,
    the interrupt-coalescing timer flushes the remainder, and the plane's
    handler delivers exactly what bursts of one deliver."""

    N_RX = 10

    def _receive(self, plane_cls, batch):
        tb = Testbed(plane_cls, costs=replace(DEFAULT_COSTS, batch_size=batch))
        proc = tb.spawn("rx", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7_000)
        for i in range(self.N_RX):
            tb.sim.after(200 * (i + 1), tb.peer.send_udp, 555, 7_000, 100 + i)
        tb.run_all()
        msgs = []

        def reader():
            msgs.extend((yield ep.recv_burst(64, blocking=False)))

        SimProcess(tb.sim, reader(), name="reader")
        tb.run_all()
        return msgs, tb.dataplane.nic.stats()

    @pytest.mark.parametrize("plane_cls", [KernelPathDataplane, SidecarDataplane],
                             ids=lambda c: c.name)
    def test_burst_rx_delivers_like_per_packet(self, plane_cls):
        per_packet, _ = self._receive(plane_cls, 1)
        burst, stats = self._receive(plane_cls, 4)
        assert len(per_packet) == self.N_RX
        assert burst == per_packet
        # Two full bursts of four, then the timer flushes the last two.
        assert stats["nic0.rx_bursts"] == 3


class TestTxDrainedCount:
    """KOPI posts one ``tx_drained`` per doorbell session, and its count is
    every packet that session drained, whatever the burst size."""

    @pytest.mark.parametrize("batch", [1, 4])
    def test_one_notification_covers_the_session(self, batch):
        from repro.nic.notification import KIND_TX_DRAINED

        tb = Testbed(NormanOS, costs=replace(DEFAULT_COSTS, batch_size=batch))
        proc = tb.spawn("tx", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6_000)

        def driver():
            yield ep.connect(PEER_IP, 9_000)
            yield ep.send_burst([64] * 3)

        SimProcess(tb.sim, driver(), name="driver")
        tb.run_all()
        queue = tb.dataplane.control.notification_queue(proc.pid)
        drained = [n for n in queue.drain() if n.kind == KIND_TX_DRAINED]
        assert [n.count for n in drained] == [3]


class TestBoundedHistogram:
    """The reservoir mode: flat memory, exact moments, deterministic."""

    def test_unbounded_mode_unchanged(self):
        h = Histogram("h")
        h.extend([5, 1, 3])
        assert h.count == 3
        assert h.total == 9
        assert h.minimum == 1 and h.maximum == 5
        assert h.percentile(50) == 3
        assert h.retained == 3

    def test_reservoir_caps_retention_exact_moments(self):
        h = Histogram("h", max_samples=64)
        for v in range(10_000):
            h.observe(float(v))
        assert h.retained <= 64
        assert h.count == 10_000
        assert h.total == sum(range(10_000))
        assert h.minimum == 0 and h.maximum == 9_999
        # Approximate percentiles stay within a stride of exact.
        assert abs(h.percentile(50) - 4_999.5) < 10_000 * 0.05

    def test_reservoir_is_deterministic(self):
        def build():
            h = Histogram("h", max_samples=32)
            h.extend(float((7 * i) % 1_000) for i in range(5_000))
            return (h.count, h.total, h._samples[:], h.percentile(99))

        assert build() == build()

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            Histogram("h", max_samples=1)


class TestBatchCostModel:
    def test_batch_helpers_collapse_at_one(self):
        assert DEFAULT_COSTS.dma_burst_ns(1) == DEFAULT_COSTS.pcie_dma_latency_ns
        assert DEFAULT_COSTS.syscall_burst_ns(1) == DEFAULT_COSTS.syscall_ns

    def test_batch_helpers_amortize(self):
        n = 16
        assert DEFAULT_COSTS.dma_burst_ns(n) < n * DEFAULT_COSTS.pcie_dma_latency_ns
        assert DEFAULT_COSTS.syscall_burst_ns(n) < n * DEFAULT_COSTS.syscall_ns

    def test_batch_size_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            replace(DEFAULT_COSTS, batch_size=0)
