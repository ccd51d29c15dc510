"""The sidecar is the kernel path on a dedicated core: its endpoints are
kernel sockets, so netstat, ss and attributed captures read the same
kernel state on both planes, and a closed port leaves the table both
demultiplex on."""

import pytest

from repro.dataplanes import KernelPathDataplane, SidecarDataplane, Testbed
from repro.dataplanes.testbed import PEER_IP
from repro.net import PROTO_UDP
from repro.sim import SimProcess
from repro.tools import Netstat, Ss

SOCKET_PLANES = pytest.mark.parametrize(
    "plane", [KernelPathDataplane, SidecarDataplane], ids=lambda cls: cls.name
)


def _connected(plane):
    tb = Testbed(plane)
    proc = tb.spawn("app", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)

    def connect():
        yield ep.connect(PEER_IP, 9000)

    SimProcess(tb.sim, connect())
    tb.run_all()
    return tb, ep


@SOCKET_PLANES
def test_packet_to_closed_port_is_unattributed(plane):
    tb = Testbed(plane)
    proc = tb.spawn("gone", "bob", core_id=1)
    tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000).close()
    session = tb.dataplane.start_capture()
    tb.peer.send_udp(555, 7000, 300)
    tb.run_all()

    [pkt] = session.packets
    assert tb.dataplane.attribution_of(pkt) is None
    assert tb.machine.coherence.lines_moved == 0


@SOCKET_PLANES
def test_netstat_shows_connected_socket(plane):
    tb, _ep = _connected(plane)
    [row] = Netstat(tb.kernel)().splitlines()[1:]
    assert row.split()[1:4] == [f"{tb.kernel.host_ip}:7000", f"{PEER_IP}:9000", "CONNECTED"]


@SOCKET_PLANES
def test_ss_counts_socket_bytes(plane):
    tb, ep = _connected(plane)
    got = []

    def app():
        yield ep.send_burst([100, 200])
        got.append((yield ep.recv()))

    SimProcess(tb.sim, app())
    tb.sim.at(tb.sim.now + 50_000, tb.peer.send_udp, 555, 7000, 250)
    tb.run_all()

    assert [msg[0] for msg in got] == [250]
    [row] = Ss(tb.dataplane, tb.kernel)().splitlines()[1:]
    assert row.split()[-2:] == ["250", "300"]
