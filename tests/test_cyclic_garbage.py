"""No cyclic garbage on the datapath.

Everything a packet allocates on its way through a plane must be freed by
reference counting alone. A reference cycle per send or read (a callback
that names itself to re-arm on a wake-up Signal, say) leaves the cyclic
GC to walk every live object, again and again, for garbage it could have
been spared. Each plane runs a TX burst, a blocking reader woken by peer
packets and a non-blocking drain with the collector off; the collector
must then find nothing to free.
"""

import gc
from dataclasses import replace

import pytest

from repro.apps import BulkSender
from repro.config import DEFAULT_COSTS
from repro.core import NormanOS
from repro.dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    SidecarDataplane,
    Testbed,
)
from repro.errors import WouldBlock
from repro.net import PROTO_UDP
from repro.sim import SimProcess

FIVE_PLANES = [
    KernelPathDataplane, SidecarDataplane, BypassDataplane, HypervisorDataplane, NormanOS,
]


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("plane", FIVE_PLANES, ids=lambda c: c.name)
def test_datapath_leaves_no_cyclic_garbage(plane, batch):
    tb = Testbed(plane, costs=replace(DEFAULT_COSTS, batch_size=batch))
    gc.collect()
    gc.disable()
    try:
        sender = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                            count=8, burst=batch).start()
        proc = tb.spawn("srv", "bob", core_id=2)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        got = []

        def reader():
            while len(got) < 4:
                got.extend((yield ep.recv_burst(batch, blocking=True)))
            yield 200_000
            while True:
                try:
                    got.extend((yield ep.recv_burst(batch, blocking=False)))
                except WouldBlock:
                    return

        SimProcess(tb.sim, reader(), name="reader")
        # Four packets wake the blocked reader; four more queue up for
        # the non-blocking drain.
        for i in range(4):
            tb.sim.after(20_000 * (i + 1), tb.peer.send_udp, 555, 7000, 100)
            tb.sim.after(150_000 + 1_000 * i, tb.peer.send_udp, 555, 7000, 100)
        tb.run_all(max_events=200_000)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert sender.sent == 8
    assert len(got) == 8
    assert unreachable == 0
