"""Per-flow header templates on the four UDP transmit builders.

Kernel ``sendmmsg``, the KOPI library, the bypass plane (and the
hypervisor plane, which inherits it) and the sidecar each keep the headers
of the last UDP shape a socket or endpoint sent, and a repeat builds only
the ``Packet``. A templated packet must be the packet ``make_udp`` builds;
any change of shape must rebuild; TCP never uses a template.
"""

import pytest

from repro.core import NormanOS
from repro.dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    SidecarDataplane,
    Testbed,
)
from repro.dataplanes.testbed import HOST_IP, HOST_MAC, PEER_IP, PEER_MAC
from repro.net import IPv4Address, MacAddress, make_udp
from repro.net import PROTO_TCP, PROTO_UDP
from repro.sim import SimProcess

FIVE_PLANES = [
    KernelPathDataplane, SidecarDataplane, BypassDataplane, HypervisorDataplane, NormanOS,
]
#: Planes whose builder resolves the MAC through the kernel's neighbours.
KERNEL_MAC_PLANES = [KernelPathDataplane, NormanOS]
#: Modules whose builders call make_tcp by name (``dataplanes.base`` holds
#: the bypass, hypervisor and sidecar builder).
BUILDER_MODULES = ["repro.kernel.netstack", "repro.core.library", "repro.dataplanes.base"]
OTHER_IP = IPv4Address.parse("10.0.0.7")
PORT = 7000


def _open(plane, proto=PROTO_UDP):
    tb = Testbed(plane)
    proc = tb.spawn("app", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(proc, proto, PORT)

    def connect():
        yield ep.connect(PEER_IP, 9000)

    SimProcess(tb.sim, connect())
    tb.run_all()
    return tb, ep


def _send(tb, ep, sizes, dst=None):
    """Send ``sizes`` as one burst; return the frames the peer got."""
    before = len(tb.peer.received)

    def driver():
        yield ep.send_burst(sizes, dst)

    SimProcess(tb.sim, driver())
    tb.run_all()
    return tb.peer.received[before:]


def _template_of(ep):
    """The template's holder: the kernel socket on the kernel plane. The
    sidecar's endpoint has a socket too but builds by IP, so it keeps
    the template itself."""
    return (ep.sock if ep.dataplane.name == "kernel" else ep).udp_template


def _expected_mac(plane, dst_ip):
    if plane in KERNEL_MAC_PLANES and dst_ip == PEER_IP:
        return PEER_MAC
    return MacAddress.from_index(dst_ip.value & 0xFF_FFFF)


def _assert_built_by_make_udp(pkt, dst_mac, dst_ip, dport, payload_len):
    ref = make_udp(HOST_MAC, dst_mac, HOST_IP, dst_ip, PORT, dport, payload_len)
    assert (pkt.eth, pkt.ipv4, pkt.l4, pkt.arp) == (ref.eth, ref.ipv4, ref.l4, ref.arp)
    assert pkt.payload_len == ref.payload_len
    assert pkt.wire_len == ref.wire_len
    assert pkt.to_bytes() == ref.to_bytes()


@pytest.mark.parametrize("plane", FIVE_PLANES, ids=lambda c: c.name)
class TestUdpTemplates:
    def test_no_template_before_the_first_send(self, plane):
        _tb, ep = _open(plane)
        assert _template_of(ep) is None

    def test_repeat_shares_headers_and_equals_make_udp(self, plane):
        tb, ep = _open(plane)
        frames = _send(tb, ep, [64, 64, 64])
        assert len(frames) == 3
        first = frames[0]
        for pkt in frames:
            _assert_built_by_make_udp(pkt, _expected_mac(plane, PEER_IP), PEER_IP, 9000, 64)
            assert pkt.eth is first.eth and pkt.ipv4 is first.ipv4 and pkt.l4 is first.l4
        assert len({pkt.packet_id for pkt in frames}) == 3
        assert _template_of(ep).udp is first.l4

    def test_payload_change_rebuilds(self, plane):
        tb, ep = _open(plane)
        a, b, c = _send(tb, ep, [64, 1000, 1000])
        _assert_built_by_make_udp(b, _expected_mac(plane, PEER_IP), PEER_IP, 9000, 1000)
        assert b.l4 is not a.l4 and b.ipv4 is not a.ipv4
        assert c.l4 is b.l4

    @pytest.mark.parametrize("dst", [(PEER_IP, 9001), (OTHER_IP, 9000)],
                             ids=["dport", "destination"])
    def test_destination_change_rebuilds(self, plane, dst):
        tb, ep = _open(plane)
        (a,) = _send(tb, ep, [64])
        (b,) = _send(tb, ep, [64], dst=dst)
        _assert_built_by_make_udp(b, _expected_mac(plane, dst[0]), dst[0], dst[1], 64)
        assert b.l4 is not a.l4
        (c,) = _send(tb, ep, [64])
        _assert_built_by_make_udp(c, _expected_mac(plane, PEER_IP), PEER_IP, 9000, 64)


@pytest.mark.parametrize("plane", KERNEL_MAC_PLANES, ids=lambda c: c.name)
def test_new_neighbour_shows_in_the_next_frame(plane):
    tb, ep = _open(plane)
    (a,) = _send(tb, ep, [64])
    assert a.eth.dst == PEER_MAC
    new_mac = MacAddress.from_index(0x42)
    tb.kernel.register_neighbor(PEER_IP, new_mac)
    (b,) = _send(tb, ep, [64])
    assert b.eth.dst == new_mac
    _assert_built_by_make_udp(b, new_mac, PEER_IP, 9000, 64)


@pytest.mark.parametrize("plane", FIVE_PLANES, ids=lambda c: c.name)
def test_tcp_builds_through_make_tcp(plane, monkeypatch):
    import importlib

    built = []
    for name in BUILDER_MODULES:
        mod = importlib.import_module(name)
        original = mod.make_tcp

        def counting(*args, _original=original, **kwargs):
            pkt = _original(*args, **kwargs)
            built.append(pkt)
            return pkt

        monkeypatch.setattr(mod, "make_tcp", counting)
    tb, ep = _open(plane, PROTO_TCP)
    frames = _send(tb, ep, [64, 64])
    assert len(built) == 2
    assert [p.packet_id for p in frames] == [p.packet_id for p in built]
    assert all(p.is_tcp for p in frames)
    assert _template_of(ep) is None
