"""Ablation — §4.2 on-NIC congestion control.

A connection floods a 100 Mbps uplink through a 100 Gbps NIC. Without
congestion management the egress scheduler overflows and drops; with the
NIC-local AIMD manager the connection is paced at its ring (zero loss) and
recovers to line rate when the flood ends.
"""

from repro import units
from repro.core import NormanOS
from repro.dataplanes import Testbed
from repro.dataplanes.testbed import PEER_IP
from repro.net import PROTO_UDP
from repro.sim import SimProcess

N_PKTS = 6_000
LINK = 100 * units.MBPS


def run_flood(with_cc: bool):
    tb = Testbed(NormanOS, link_rate_bps=LINK)
    if with_cc:
        tb.dataplane.control.enable_congestion_control(backlog_threshold=32)
    proc = tb.spawn("blaster", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)

    def blast():
        for _ in range(N_PKTS):
            yield ep.send(1_400, dst=(PEER_IP, 9000))

    SimProcess(tb.sim, blast())
    tb.run(until=2 * units.SEC)
    tb.run_all()
    return {
        "delivered": len(tb.peer.received),
        "sched_drops": tb.dataplane.nic.metrics.counter("tx_sched_drops").value,
        "recovered_unpaced": ep.conn.rate_bps is None,
    }


def test_ablation_congestion_control():
    off, on = run_flood(False), run_flood(True)
    assert off["sched_drops"] > 0
    assert on["sched_drops"] == 0
    assert on["delivered"] == N_PKTS
    assert on["recovered_unpaced"]  # AIMD released the pacing after the flood
