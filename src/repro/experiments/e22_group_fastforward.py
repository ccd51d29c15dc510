"""E22 — group fast-forward: one fluid epoch for many flows, and the TX
side of the boundary.

The hybrid engine coalesces promoted flows that share a charging shape —
same plane, same interposition chain version vector, same stage profile —
into a :class:`~repro.sim.fastforward.FlowGroup` charged by a *single*
epoch event, and extends fast-forward to the TX path: steady single-send
schedules (app timer -> syscall -> qdisc -> ring doorbell -> wire) absorb
into fluid epochs exactly like RX bursts, demoting at the same
interposition boundaries.

The parity leg defends both: an RX+TX workload (peer bursts drained by
the application, plus spaced application sends toward the peer) runs
twice from identical schedules, packet-exact vs hybrid. Every counted
observable must match *exactly* — the E21 RX set (delivered,
verdict-cache hits/misses, DMA direct ledger) plus the TX set: NIC
``tx_pkts``, peer ``rx_pkts``/``rx_bytes``, egress link ``sent``, qdisc
``enqueued``/``emitted``, doorbell ``mmio_writes``, and the TX DMA copy
ledger. Modeled time (CPU busy, per-stage service work) agrees within
:data:`~repro.experiments.e21_fidelity_crossover.FF_TOLERANCE`.

Grouping replaces one epoch event, tracer record, and horizon timer per
flow per flush round with a handful of group charges (one per app core).
The former group-vs-per-flow wall-clock comparison is recorded in
EXPERIMENTS.md; per-flow charging no longer exists.
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..config import DEFAULT_COSTS, CostModel
from ..dataplanes import Testbed
from ..dataplanes.testbed import PEER_IP
from ..host.copies import LAYER_DMA
from .common import Row, fmt_table
from .e21_fidelity_crossover import (
    BURST_PER_CONN,
    FF_TOLERANCE,
    PARITY_COLUMNS,
    PAYLOAD,
    TOLERANCE_KEYS,
    _drain,
    _leg_testbed,
    _observe,
    _send_burst,
)
from .e21_fidelity_crossover import EXACT_KEYS as RX_EXACT_KEYS

PARITY_CONNS = 256
PARITY_ROUNDS = 4
#: Application sends per connection per round (single-packet sends — the
#: steady shape TX fast-forward absorbs; multi-packet bursts stay exact).
TX_PER_ROUND = 4
#: Spacing between consecutive sends across the whole population. Wide
#: enough that each send's TX chain (doorbell -> PCIe fetch -> pipeline ->
#: wire) completes before the next begins: rings and qdisc stay empty,
#: which is the steady state the TX profile captures.
TX_GAP_NS = 2_000

#: TX-side counters that must match exactly between the parity legs, on
#: top of E21's RX set.
TX_EXACT_KEYS = (
    "tx_sent", "tx_pkts", "peer_rx_pkts", "peer_rx_bytes", "egress_sent",
    "qdisc_enqueued", "qdisc_emitted", "mmio_writes",
    "dma_tx_bytes", "dma_tx_ops",
)
EXACT_KEYS = RX_EXACT_KEYS + TX_EXACT_KEYS


def _send_tx(tb: Testbed, eps, per_conn: int) -> int:
    """Schedule ``per_conn`` spaced single-packet sends from every
    endpoint toward the peer. Returns the number scheduled."""
    base = tb.sim.now + 1_000
    i = 0
    for _round in range(per_conn):
        for ep in eps:
            tb.sim.at(base + i * TX_GAP_NS, ep.send, PAYLOAD, (PEER_IP, 600))
            i += 1
    return i


def _observe_tx(tb: Testbed, obs: Dict[str, object], tx_sent: int) -> Dict[str, object]:
    """Augment E21's observable dict with the TX-side counted set."""
    nic = tb.dataplane.nic
    dma_tx = tb.machine.copies.layer(LAYER_DMA)
    obs.update({
        "tx_sent": tx_sent,
        "tx_pkts": int(nic.metrics.counter("tx_pkts").value),
        "peer_rx_pkts": int(tb.peer.metrics.counter("rx_pkts").value),
        "peer_rx_bytes": int(tb.peer.metrics.meter("rx_bytes").total_bytes),
        "egress_sent": int(tb.egress.metrics.counter("sent").value),
        "qdisc_enqueued": int(nic.scheduler.metrics.counter("enqueued").value),
        "qdisc_emitted": int(nic.scheduler.metrics.counter("emitted").value),
        "mmio_writes": int(tb.machine.dma.metrics.counter("mmio_writes").value),
        "dma_tx_bytes": dma_tx.bytes_copied,
        "dma_tx_ops": dma_tx.copies,
    })
    return obs


def run_leg(
    n_conns: int,
    rounds: int,
    costs: CostModel,
    fast_forward: bool,
) -> Dict[str, object]:
    """One parity leg: per round, an RX burst drained by the application,
    then a wave of spaced application sends. Identical schedule either
    way; only the fidelity knob differs."""
    leg_costs = costs.replace(
        trace=True, flow_fastpath=True, fast_forward=fast_forward,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 4 * n_conns),
    )
    tb = _leg_testbed(n_conns, leg_costs)
    eps, slots = tb._e21_eps, tb._e21_slots  # type: ignore[attr-defined]
    busy0 = tb.machine.cpus.total_busy_ns()
    delivered = 0
    tx_sent = 0
    t0 = time.perf_counter()
    for _round in range(rounds):
        _send_burst(tb, eps, slots, BURST_PER_CONN)
        tb.run_all()
        delivered += _drain(tb, eps, BURST_PER_CONN)
        tx_sent += _send_tx(tb, eps, TX_PER_ROUND)
        tb.run_all()
    wall = time.perf_counter() - t0
    obs = _observe(tb, delivered, busy0, wall)
    return _observe_tx(tb, obs, tx_sent)


def run_parity(
    n_conns: int = PARITY_CONNS,
    rounds: int = PARITY_ROUNDS,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, object]:
    """Exact vs hybrid (groups + TX fast-forward on) over the
    combined RX+TX schedule."""
    exact = run_leg(n_conns, rounds, costs, fast_forward=False)
    hybrid = run_leg(n_conns, rounds, costs, fast_forward=True)
    tol = FF_TOLERANCE
    rows: List[Row] = []
    ok = True
    for key in EXACT_KEYS + TOLERANCE_KEYS:
        e, h = float(exact[key]), float(hybrid[key])
        err = abs(h - e) / max(abs(e), 1e-9)
        this_ok = (h == e) if key in EXACT_KEYS else (err <= tol)
        ok = ok and this_ok
        rows.append({
            "observable": key, "exact": e, "hybrid": h,
            "rel_err": err, "ok": this_ok,
        })
    stage_rows: List[Row] = []
    stages = sorted(set(exact["work_by_stage"]) | set(hybrid["work_by_stage"]))
    for stage in stages:
        e = float(exact["work_by_stage"].get(stage, 0))
        h = float(hybrid["work_by_stage"].get(stage, 0))
        err = abs(h - e) / max(abs(e), 1e-9)
        this_ok = err <= tol
        ok = ok and this_ok
        stage_rows.append({
            "observable": f"stage:{stage}", "exact": e, "hybrid": h,
            "rel_err": err, "ok": this_ok,
        })
    ok = ok and exact["conserved"] and hybrid["conserved"]
    ff = hybrid["ff"]
    total_pkts = int(hybrid["delivered"]) + int(hybrid["tx_sent"])
    fluid_fraction = ff["fluid_packets"] / max(total_pkts, 1)
    # Grouping must actually engage on both directions: RX and TX flows
    # promote on different planes, so a grouped hybrid leg sees >= 2
    # distinct groups and at least one group epoch.
    grouped = ff.get("group_epochs", 0) > 0 and ff.get("groups", 0) >= 2
    ok = ok and grouped
    return {
        "rows": rows,
        "stage_rows": stage_rows,
        "exact": exact,
        "hybrid": hybrid,
        "ok": bool(ok),
        "tolerance": tol,
        "fluid_fraction": fluid_fraction,
        "grouped": bool(grouped),
        "ff": ff,
    }


def headline(parity: Dict[str, object]) -> dict:
    return {
        "parity_ok": parity["ok"],
        "tolerance": parity["tolerance"],
        "fluid_fraction": parity["fluid_fraction"],
        "grouped": parity["grouped"],
        "max_rel_err": max(
            float(r["rel_err"]) for r in parity["rows"] + parity["stage_rows"]
        ),
    }


def main() -> str:
    parity = run_parity()
    h = headline(parity)
    return "\n".join([
        "group + TX fast-forward parity (exact vs hybrid, RX and TX schedules)",
        fmt_table(parity["rows"] + parity["stage_rows"], columns=PARITY_COLUMNS),
        "",
        f"headline: flow groups and TX fast-forward stay invisible in the "
        f"counted observables (max relative error {h['max_rel_err']:.4%} "
        f"against a {h['tolerance']:.0%} tolerance, {h['fluid_fraction']:.0%} "
        f"of packets fluid)",
    ])


if __name__ == "__main__":
    print(main())
