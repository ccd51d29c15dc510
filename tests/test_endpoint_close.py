"""Closing an endpoint on any of the five planes fails a read blocked on
it with EndpointClosed, fails every later read the same way, and frees
the port for a new endpoint."""

import pytest

from repro import units
from repro.core import NormanOS
from repro.dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    SidecarDataplane,
    Testbed,
)
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
