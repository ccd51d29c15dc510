"""The ring endpoint bypass and the hypervisor share, and the argument
check every plane's burst receive makes.

The hypervisor plane is the bypass plane plus an on-NIC vswitch: the same
endpoint, rings and TX descriptor fetch. What still differs per plane
shows up in a digest, the copy ledger or a trace — return-flow steering
on connect, and the TX fetch's ledger layer and span label — so each is
pinned here.
"""

from dataclasses import replace

import pytest

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
from repro.errors import InvalidSyscall
from repro.host.copies import LAYER_DMA_DIRECT, LAYER_HV_VRING
from repro.net import PROTO_UDP
from repro.sim import SimProcess

FIVE_PLANES = [
    KernelPathDataplane, SidecarDataplane, BypassDataplane, HypervisorDataplane, NormanOS,
]


class TestRecvBurstArgument:
    @pytest.mark.parametrize("max_msgs", [0, -1])
    @pytest.mark.parametrize("blocking", [True, False], ids=["blocking", "nonblocking"])
    @pytest.mark.parametrize("plane", FIVE_PLANES, ids=lambda c: c.name)
    def test_fewer_than_one_message_is_einval(self, plane, blocking, max_msgs):
        """With a packet queued, ``recv_burst(0)`` raises EINVAL at the
        call: no cost charged, no event scheduled, the packet still there
        for the next read."""
        tb = Testbed(plane)
        proc = tb.spawn("srv", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        tb.sim.after(1_000, tb.peer.send_udp, 555, 7000, 100)
        tb.run_all()
        busy = tb.machine.cpus[1].busy_ns
        pending = tb.sim.pending
        with pytest.raises(InvalidSyscall):
            ep.recv_burst(max_msgs, blocking=blocking)
        assert tb.sim.pending == pending
        assert tb.machine.cpus[1].busy_ns == busy
        got = []
        ep.recv_burst(1, blocking=False).add_callback(lambda s: got.append(s.value))
        tb.run_all()
        assert got == [[(100, PEER_IP, 555)]]


RING_PLANES = [
    # plane, steering entries after connect, steering commits by connect,
    # TX fetch ledger layer, TX fetch span label
    pytest.param(BypassDataplane, 2, 1, LAYER_DMA_DIRECT, "desc_fetch", id="bypass"),
    pytest.param(HypervisorDataplane, 1, 0, LAYER_HV_VRING, "vring_fetch", id="hypervisor"),
]


class TestPerPlaneDifferences:
    @pytest.mark.parametrize("plane,entries,commits,layer,fetch_label", RING_PLANES)
    def test_steering_ledger_and_fetch_span(self, plane, entries, commits, layer, fetch_label):
        """Bypass installs an exact return-flow entry on connect (a
        steering commit) and fetches TX by direct DMA; the hypervisor
        installs none and pulls TX through the vring."""
        tb = Testbed(plane, costs=replace(DEFAULT_COSTS, trace=True))
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        steering = tb.dataplane.nic.steering
        version = steering.point.version
        after_connect = []

        def client():
            yield ep.connect(PEER_IP, 9000)
            after_connect.append((steering.entries, steering.point.version - version))
            yield ep.send_burst([200] * 3)

        SimProcess(tb.sim, client())
        tb.run_all()
        assert after_connect == [(entries, commits)]
        assert len(tb.peer.received) == 3
        copies = tb.machine.copies
        other_layer = LAYER_HV_VRING if layer == LAYER_DMA_DIRECT else LAYER_DMA_DIRECT
        assert copies.bytes_copied([layer]) == sum(p.wire_len for p in tb.peer.received)
        assert copies.bytes_copied([other_layer]) == 0
        contexts = tb.machine.tracer.closed_contexts()
        assert len(contexts) == 3
        other_label = "vring_fetch" if fetch_label == "desc_fetch" else "desc_fetch"
        for ctx in contexts:
            labels = [s.label for s in ctx.spans]
            assert fetch_label in labels
            assert other_label not in labels


@pytest.mark.parametrize("plane", [BypassDataplane, HypervisorDataplane], ids=lambda c: c.name)
def test_ring_sizes_come_from_the_cost_model(plane):
    """Like KOPI's, a ring endpoint's rings are as deep as the cost model
    says, and so are the pinned regions under them."""
    costs = replace(DEFAULT_COSTS, rx_ring_entries=8, tx_ring_entries=4)
    tb = Testbed(plane, costs=costs)
    ep = tb.dataplane.open_endpoint(tb.spawn("app", "bob", core_id=1), PROTO_UDP, 7000)
    rx, tx = ep.rings.rx, ep.rings.tx
    assert (rx.entries, tx.entries) == (8, 4)
    assert (rx.region.size, tx.region.size) == (8 * 64, 4 * 64)
