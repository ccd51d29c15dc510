"""BasicNic and FixedFunctionNic behaviour."""

import pytest

from repro import units
from repro.config import DEFAULT_COSTS
from repro.errors import (
    NicResourceExhausted,
    ReconfigurationUnsupported,
    UnsupportedOperation,
)
from repro.host import Machine
from repro.net import (
    IPv4Address,
    Link,
    MacAddress,
    MatchAction,
    PROTO_TCP,
    make_tcp,
    make_udp,
)
from repro.nic import BasicNic, DescriptorRing, FixedFunctionNic

MAC_H, MAC_P = MacAddress.from_index(1), MacAddress.from_index(2)
IP_H, IP_P = IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2")


def build(nic_cls=BasicNic, **kwargs):
    m = Machine(n_cores=1)
    wire_out = []
    egress = Link(m.sim, rate_bps=100 * units.GBPS, name="egress")
    egress.attach(lambda p: wire_out.append(p))
    nic = nic_cls(m.sim, DEFAULT_COSTS, m.dma, egress, n_queues=4, **kwargs)
    return m, nic, wire_out


def udp_in(sport=555, dport=7000):
    return make_udp(MAC_P, MAC_H, IP_P, IP_H, sport, dport, 100)


class TestBasicNicRx:
    def test_handler_queue_receives_after_pipeline_and_dma(self):
        m, nic, _ = build()
        got = []
        for q in nic.queues:
            q.set_handler(lambda burst: got.append((m.sim.now, burst)))
        nic.rx_from_wire(udp_in())
        m.sim.run()
        assert len(got) == 1
        when, burst = got[0]
        # At batch size 1 the handler gets a burst of one, flushed at once.
        assert len(burst) == 1
        assert when == DEFAULT_COSTS.nic_pipeline_ns + DEFAULT_COSTS.pcie_dma_latency_ns
        assert burst[0].meta.queue_id is not None
        assert "nic0.rx_bursts" not in nic.stats()

    def test_ring_queue_is_pollable(self):
        m, nic, _ = build()
        ring = DescriptorRing(8, m.memory.alloc_pinned(4_096, owner="app"), "rx0")
        for q in nic.queues:
            q.set_ring(ring)
        nic.rx_from_wire(udp_in())
        m.sim.run()
        assert ring.occupancy == 1
        assert ring.consume().five_tuple.dport == 7000

    def test_exact_steering_overrides_rss(self):
        m, nic, _ = build()
        rings = []
        for q in nic.queues:
            r = DescriptorRing(8, m.memory.alloc_pinned(4_096, owner="app"), f"rx{q.queue_id}")
            q.set_ring(r)
            rings.append(r)
        pkt = udp_in()
        nic.steering.install(pkt.five_tuple, conn_id=3)
        nic.rx_from_wire(pkt)
        m.sim.run()
        assert rings[3].occupancy == 1

    def test_unconfigured_queue_drops(self):
        m, nic, _ = build()
        nic.rx_from_wire(udp_in())
        m.sim.run()
        assert nic.metrics.counter("rx_unconfigured_drops").value == 1

    def test_full_ring_drops(self):
        m, nic, _ = build()
        ring = DescriptorRing(1, m.memory.alloc_pinned(4_096, owner="app"), "tiny")
        for q in nic.queues:
            q.set_ring(ring)
        nic.rx_from_wire(udp_in())
        nic.rx_from_wire(udp_in())
        m.sim.run()
        assert ring.occupancy == 1
        assert nic.metrics.counter("rx_ring_drops").value == 1

    def test_offline_drops_everything(self):
        m, nic, wire = build()
        nic.offline = True
        nic.rx_from_wire(udp_in())
        assert nic.tx(udp_in()) is False
        m.sim.run()
        assert nic.metrics.counter("rx_offline_drops").value == 1
        assert nic.metrics.counter("tx_offline_drops").value == 1
        assert wire == []

    def test_queue_cannot_be_both(self):
        m, nic, _ = build()
        from repro.errors import NicError

        nic.queues[0].set_handler(lambda p: None)
        with pytest.raises(NicError):
            nic.queues[0].set_ring(
                DescriptorRing(4, m.memory.alloc_pinned(4_096, owner="x"), "r")
            )


class TestBasicNicTx:
    def test_tx_reaches_wire(self):
        m, nic, wire = build()
        nic.tx(make_udp(MAC_H, MAC_P, IP_H, IP_P, 1, 2, 100))
        m.sim.run()
        assert len(wire) == 1
        assert nic.metrics.counter("tx_pkts").value == 1

    def test_stats_snapshot(self):
        m, nic, _ = build()
        nic.tx(make_udp(MAC_H, MAC_P, IP_H, IP_P, 1, 2, 100))
        m.sim.run()
        assert nic.stats()["nic0.tx_pkts"] == 1.0


class TestFixedFunctionNic:
    def test_header_filter_drops_in_hardware(self):
        m, nic, _ = build(FixedFunctionNic)
        got = []
        for q in nic.queues:
            q.set_handler(got.extend)
        nic.install_filter(MatchAction(action="drop", proto=PROTO_TCP, dport=5432))
        nic.rx_from_wire(make_tcp(MAC_P, MAC_H, IP_P, IP_H, 1, 5432))
        nic.rx_from_wire(make_tcp(MAC_P, MAC_H, IP_P, IP_H, 1, 3306))
        m.sim.run()
        assert len(got) == 1
        assert nic.metrics.counter("hw_filter_drops").value == 1

    def test_table_capacity(self):
        m, nic, _ = build(FixedFunctionNic, table_entries=2)
        nic.install_filter(MatchAction(action="drop", dport=1))
        nic.install_filter(MatchAction(action="drop", dport=2))
        with pytest.raises(NicResourceExhausted):
            nic.install_filter(MatchAction(action="drop", dport=3))
        nic.remove_filter(nic._filters[0])
        nic.install_filter(MatchAction(action="drop", dport=3))

    def test_mirror_action_unsupported(self):
        m, nic, _ = build(FixedFunctionNic)
        with pytest.raises(UnsupportedOperation):
            nic.install_filter(MatchAction(action="mirror"))

    def test_programmability_refused(self):
        m, nic, _ = build(FixedFunctionNic)
        with pytest.raises(ReconfigurationUnsupported):
            nic.load_program(object())
        with pytest.raises(ReconfigurationUnsupported):
            nic.set_scheduler(object())
        with pytest.raises(UnsupportedOperation):
            nic.install_owner_filter(uid=1000)
