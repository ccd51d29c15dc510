"""A GC budget for pending reads.

Every object the cyclic GC tracks makes each collection walk further, and
a pending read's state lives long enough to reach the old generation when
thousands of reads are issued at once (E8's drain phase). So a read that
waits on its core keeps its state in slotted objects: no closure, no
cell, no callback list per Signal and no bound method per core
completion.

On each plane, N endpoints each hold one pending non-blocking ``recv`` and
one pending ``recv_burst(4)``; the collector is off, and the objects it
would track are counted by identity against a snapshot taken just before
the calls. Each ring or queue is warmed first with one read of each kind,
so lazily created counters are not charged to the call under test.
"""

import gc
from collections import Counter

import pytest

from repro.core import NormanOS
from repro.dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    SidecarDataplane,
    Testbed,
)
from repro.net import PROTO_UDP

FIVE_PLANES = [
    KernelPathDataplane, SidecarDataplane, BypassDataplane, HypervisorDataplane, NormanOS,
]
N = 24
#: Tracked objects one pending read may hold, on average: its result
#: Signal (and the per-packet adapter), one continuation object, the list
#: it read, and its core completion (a Signal, one heap entry and the
#: event's argument tuple). 6.5 to 8.0 on the five planes.
BUDGET_PER_CALL = 9


def _fill(tb, eps, per_ep):
    """Queue ``per_ep`` peer packets on every endpoint and deliver them."""
    t = 1_000
    for ep in eps:
        for _ in range(per_ep):
            tb.sim.after(t, tb.peer.send_udp, 555, ep.port, 100)
            t += 1_000
    tb.run_all()


def _pending_reads(plane):
    """Type-name counts of the tracked objects N endpoints' pending
    ``recv`` and ``recv_burst(4)`` calls hold, and the signals returned."""
    tb = Testbed(plane, n_cores=4)
    procs = [tb.spawn(f"srv{c}", "bob", core_id=c) for c in range(1, 4)]
    eps = [tb.dataplane.open_endpoint(procs[i % 3], PROTO_UDP, 7000 + i)
           for i in range(N)]
    tb.run_all()
    _fill(tb, eps, 2)
    for ep in eps:
        ep.recv(blocking=False)
        ep.recv_burst(4, blocking=False)
    tb.run_all()
    _fill(tb, eps, 2)
    recvs = [None] * N
    bursts = [None] * N
    gc.collect()
    gc.disable()
    try:
        # The snapshot keeps every older object alive, so no new object
        # can reuse an old one's id.
        before = gc.get_objects()
        for i in range(N):
            recvs[i] = eps[i].recv(blocking=False)
            bursts[i] = eps[i].recv_burst(4, blocking=False)
        after = gc.get_objects()
        old = set(map(id, before))
        old.add(id(before))
        held = Counter()
        for obj in after:
            if id(obj) not in old:
                held[type(obj).__name__] += 1
        del before, after, old
    finally:
        gc.enable()
    return tb, held, recvs, bursts


@pytest.mark.parametrize("plane", FIVE_PLANES, ids=lambda c: c.name)
def test_pending_reads_fit_the_gc_budget(plane):
    tb, held, recvs, bursts = _pending_reads(plane)
    assert all(not s.triggered for s in recvs + bursts), "reads must be pending"
    assert held["function"] == 0 and held["cell"] == 0, held
    per_call = sum(held.values()) / (2 * N)
    assert per_call <= BUDGET_PER_CALL, (per_call, held)
    tb.run_all()
    assert [s.value for s in recvs] == [(100, tb.peer.ip, 555)] * N
    assert [len(s.value) for s in bursts] == [1] * N
