"""Closing an endpoint on any of the five planes fails a read blocked on
it with EndpointClosed, fails every later read the same way, and frees
the port for a new endpoint. On KOPI it also wakes a writer blocked on a
full TX ring."""

import pytest

from repro import units
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
from repro.errors import EndpointClosed
from repro.net import PROTO_UDP


def _record(sig, out):
    sig.add_callback(lambda s: out.append(s.exception if s.failed else s.value))


@pytest.mark.parametrize(
    "plane",
    [KernelPathDataplane, BypassDataplane, SidecarDataplane, HypervisorDataplane, NormanOS],
    ids=lambda cls: cls.name,
)
def test_close_fails_blocked_read_and_frees_port(plane):
    tb = Testbed(plane)
    proc = tb.spawn("srv", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
    blocked, later = [], []
    _record(ep.recv_burst(1), blocked)
    tb.sim.at(10 * units.US, ep.close)
    tb.run(until=units.MS)
    assert len(blocked) == 1 and isinstance(blocked[0], EndpointClosed)
    assert tb.kernel.scheduler.blocked_count == 0
    if plane is NormanOS:
        assert not tb.dataplane.control._rx_waiters

    _record(ep.recv_burst(1, blocking=False), later)
    tb.run(until=2 * units.MS)
    assert len(later) == 1 and isinstance(later[0], EndpointClosed)

    reopened = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
    got = []
    _record(reopened.recv_burst(1), got)
    tb.peer.send_udp(555, 7000, 300)
    tb.run(until=3 * units.MS)
    assert [msgs[0][0] for msgs in got] == [300]


def test_close_wakes_kopi_writer_blocked_on_full_ring():
    tb = Testbed(NormanOS, costs=DEFAULT_COSTS.replace(tx_ring_entries=2))
    proc = tb.spawn("cli", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
    tb.dataplane.nic.offline = True  # the ring never drains
    sent = []
    _record(ep.send_burst([100] * 4, dst=(PEER_IP, 9000)), sent)
    tb.sim.at(10 * units.US, ep.close)
    tb.run(until=units.MS)
    assert sent == [2]
    assert tb.kernel.scheduler.blocked_count == 0
    assert not tb.dataplane.control._tx_waiters
    assert not tb.dataplane.control._notifq[proc.pid].interrupts_enabled


@pytest.mark.parametrize(
    "plane", [KernelPathDataplane, SidecarDataplane], ids=lambda cls: cls.name
)
def test_datagram_for_closed_socket_is_not_handed_to_the_ports_next_reader(plane):
    """A datagram demultiplexed to a socket that closes before the softirq
    finishes is dropped, not given to a reader blocked on the reopened
    port."""
    tb = Testbed(plane)
    old = tb.dataplane.open_endpoint(tb.spawn("old", "bob", core_id=1), PROTO_UDP, 7000)
    new_proc = tb.spawn("new", "bob", core_id=2)
    got = []

    def reopen():
        old.close()
        _record(tb.dataplane.open_endpoint(new_proc, PROTO_UDP, 7000).recv_burst(1), got)

    lookup = tb.kernel.sockets.lookup

    def lookup_then_reopen(proto, port):
        tb.sim.after(1, reopen)  # inside the softirq that demuxed it
        return lookup(proto, port)

    tb.kernel.sockets.lookup = lookup_then_reopen
    tb.peer.send_udp(555, 7000, 300)
    tb.run(until=units.MS)
    assert got == [] and old.sock.rx_bytes == 0
    assert tb.kernel.scheduler.is_blocked(new_proc.pid)
