"""One capture contract on every plane that can capture.

The kernel stack, the sidecar, the hypervisor's vswitch and KOPI's NIC
each run one :class:`~repro.net.capture.Sniffer`, so a filtered tcpdump
keeps the same packets, the same pcap and the same ``sniffer`` point
counts on all four; only the hypervisor's capture is unattributed.
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
from repro.dataplanes.testbed import PEER_IP
from repro.errors import UnsupportedOperation
from repro.net.headers import PROTO_UDP
from repro.net.pcap import read_pcap_summary
from repro.tools import Tcpdump


@pytest.mark.parametrize(
    "plane",
    [KernelPathDataplane, SidecarDataplane, HypervisorDataplane, NormanOS],
    ids=lambda cls: cls.name,
)
def test_filtered_capture(plane, tmp_path):
    tb = Testbed(plane)
    proc = tb.spawn("app", "bob", core_id=1)
    dump = Tcpdump(tb.dataplane)
    session = dump.start("port 7000")
    ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
    for dport in (7000, 7001) * 3:
        ep.send(100, dst=(PEER_IP, dport))
    tb.run_all()

    assert [p.l4.dport for p in session.packets] == [7000] * 3
    assert session.pcap.count == 3
    path = dump.save_pcap(session, str(tmp_path / "capture.pcap"))
    with open(path, "rb") as f:
        assert read_pcap_summary(f.read())[0] == 3
    point = tb.machine.interpose.get("sniffer")
    assert (point.evaluated, point.hits) == (6, 3)
    assert session.attributed == (plane is not HypervisorDataplane)


def test_bypass_refuses():
    tb = Testbed(BypassDataplane)
    with pytest.raises(UnsupportedOperation):
        Tcpdump(tb.dataplane).start("port 7000")
