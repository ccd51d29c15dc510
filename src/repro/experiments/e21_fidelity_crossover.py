"""E21 — fidelity crossover: the hybrid engine must be invisible in the
numbers and decisive in the wall clock.

PR 6 adds flow-level fast-forward (:mod:`repro.sim.fastforward`): steady
state flows whose packets all hit the verdict cache are fluid-approximated
— one epoch event charges ``N x`` the cached per-packet cost per stage —
and every interposition boundary demotes back to packet-exact simulation.
This experiment is the safety case for that approximation, in two legs:

* **(a) fidelity parity** — the same E8-style KOPI workload (N listener
  connections, batched peer bursts, application drains) runs twice from
  identical schedules: packet-exact (``fast_forward`` off) and hybrid
  (``fast_forward`` on). Every observable the suite's arguments rest on
  must agree: delivered messages, verdict-cache hit/miss counters, the
  DMA copy ledger, app-core CPU nanoseconds, and the per-stage service
  work decomposition (``work_by_stage(include_wait=False)`` — residency
  waits are workload timing, which fluid epochs deliberately do not
  model). Counters must match *exactly*; modeled time within
  :data:`FF_TOLERANCE`. Conservation (span sums == end-to-end
  latency) must hold on both legs — for fluid epochs it holds by
  construction, which is the point of profile-shaped charging.
* **(b) wall-clock crossover** — the E8 sweep scaled to 100k+
  connections (UDP and TCP port pools; one host runs out of UDP ports at
  64k). The hybrid leg warms each flow with exact packets until
  promotion, then the driver absorbs the rest of the schedule in bulk
  (``FastForwardController.absorb``) — the E21 contract being that leg
  (a) already proved absorbed packets charge what exact packets charge.
  An exact-mode probe at the same connection scale measures the
  packet-exact wall cost per delivered packet; the headline is the
  per-packet rate ratio, required to be >= 20x.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .. import units
from ..config import DEFAULT_COSTS, CostModel
from ..core import NormanOS
from ..dataplanes import Testbed
from ..dataplanes.testbed import HOST_IP, PEER_IP
from ..net.flow import FiveTuple
from ..net.headers import PROTO_TCP, PROTO_UDP
from .common import Row, fmt_table

PAYLOAD = 1_458
BURST_PER_CONN = 4
PARITY_CONNS = 512
PARITY_PACKETS = 8_192

SPEEDUP_CONNS = 100_000
SPEEDUP_PACKETS_PER_CONN = 256
PROBE_CONNS = 2_048

#: Unprivileged port pool per protocol (1025..65535).
_PORT_BASE = 1_025
_PORTS_PER_PROTO = 65_535 - _PORT_BASE + 1

#: The counters that must match *exactly* between the two parity legs.
EXACT_KEYS = (
    "delivered", "rx_pkts", "fp_hits", "fp_misses",
    "dma_bytes", "dma_ops",
)
#: Pinned relative tolerance of the fidelity contract (E21, E22, E23):
#: fast-forwarded modeled-time totals must match packet-level runs within
#: this.
FF_TOLERANCE = 0.02
#: Modeled-time observables compared within :data:`FF_TOLERANCE`.
TOLERANCE_KEYS = ("cpu_busy_ns", "service_ns_per_pkt")

PARITY_COLUMNS = [
    "observable", "exact", "hybrid", "rel_err", "ok",
]


def _conn_slots(n_conns: int) -> "List[tuple[int, int]]":
    """(proto, port) for each of ``n_conns`` — UDP first, TCP once the
    UDP port space is exhausted (how the 100k-connection point fits on
    one host)."""
    if n_conns > 2 * _PORTS_PER_PROTO:
        raise ValueError(f"{n_conns} connections exceed both port pools")
    slots = []
    for i in range(n_conns):
        proto = PROTO_UDP if i < _PORTS_PER_PROTO else PROTO_TCP
        slots.append((proto, _PORT_BASE + i % _PORTS_PER_PROTO))
    return slots


def _send_burst(tb: Testbed, eps, slots, per_conn: int, subset=None) -> int:
    """Schedule ``per_conn`` spaced packets toward every endpoint (or a
    subset), E8-style: bursts interleave across connections as a loaded
    NIC would deliver them. Returns the number scheduled."""
    idx = range(len(eps)) if subset is None else subset
    gap = units.transmit_time_ns(PAYLOAD + 50, tb.ingress.rate_bps) + 10
    base = tb.sim.now + 1_000
    i = 0
    for _burst in range(per_conn):
        for e in idx:
            proto, port = slots[e]
            send = tb.peer.send_udp if proto == PROTO_UDP else tb.peer.send_tcp
            tb.sim.at(base + i * gap, send, 600, port, PAYLOAD)
            i += 1
    return i


def _drain(tb: Testbed, eps, per_conn: int, subset=None) -> int:
    """Non-blocking drain: each endpoint reads its burst back, counting
    messages (ring packets and fast-forward credit look identical here)."""
    idx = list(range(len(eps)) if subset is None else subset)
    consumed = [0]

    def _count(sig):
        if sig.ok:
            consumed[0] += len(sig.value)

    # Until dry: shared rings pool packets per process while fast-forward
    # credit is per connection, so one endpoint's read can consume a
    # sibling's ring share — a second pass picks up the remainder.
    while True:
        before = consumed[0]
        for e in idx:
            eps[e].recv_burst(per_conn, blocking=False).add_callback(_count)
        tb.run_all()
        if consumed[0] == before:
            return consumed[0]


def _leg_testbed(n_conns: int, costs: CostModel, n_cores: int = 8) -> Testbed:
    tb = Testbed(
        NormanOS, costs=costs, n_cores=n_cores,
        structural_cache=False, shared_rings=True,
    )
    app_cores = list(range(1, len(tb.machine.cpus)))
    procs = [tb.spawn(f"srv{c}", "bob", core_id=c) for c in app_cores]
    slots = _conn_slots(n_conns)
    eps = [
        tb.dataplane.open_endpoint(procs[i % len(procs)], proto, port)
        for i, (proto, port) in enumerate(slots)
    ]
    tb.run_all()
    tb._e21_slots = slots  # type: ignore[attr-defined]
    tb._e21_eps = eps  # type: ignore[attr-defined]
    tb._e21_app_cores = app_cores  # type: ignore[attr-defined]
    return tb


def _observe(tb: Testbed, delivered: int, busy0: int, wall_s: float) -> Dict[str, object]:
    m = tb.machine
    fp = m.fastpath
    tracer = m.tracer
    work = tracer.work_by_stage(include_wait=False) if tracer.enabled else {}
    service_ns = sum(work.values())
    closed = tracer.closed_contexts() if tracer.enabled else []
    dma = m.copies.layer("dma_direct")
    obs: Dict[str, object] = {
        "delivered": delivered,
        "rx_pkts": int(tb.dataplane.nic.metrics.counter("rx_pkts").value),
        "fp_hits": fp.hits if fp is not None else 0,
        "fp_misses": fp.misses if fp is not None else 0,
        "dma_bytes": dma.bytes_copied,
        "dma_ops": dma.copies,
        "cpu_busy_ns": m.cpus.total_busy_ns() - busy0,
        "service_ns_per_pkt": service_ns / max(delivered, 1),
        "work_by_stage": work,
        "conserved": all(c.span_sum() == c.latency_ns() for c in closed),
        "wall_s": wall_s,
        "events": tb.sim.events_fired,
    }
    if m.ff is not None:
        obs["ff"] = m.ff.stats()
    return obs


def run_leg(
    n_conns: int,
    packets_total: int,
    costs: CostModel,
    fast_forward: bool,
) -> Dict[str, object]:
    """One parity leg: identical schedule either way; only the fidelity
    knob differs."""
    leg_costs = costs.replace(
        trace=True, flow_fastpath=True, fast_forward=fast_forward,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 4 * n_conns),
    )
    tb = _leg_testbed(n_conns, leg_costs)
    eps, slots = tb._e21_eps, tb._e21_slots  # type: ignore[attr-defined]
    busy0 = tb.machine.cpus.total_busy_ns()
    rounds = max(1, packets_total // (BURST_PER_CONN * n_conns))
    delivered = 0
    t0 = time.perf_counter()
    for _round in range(rounds):
        _send_burst(tb, eps, slots, BURST_PER_CONN)
        tb.run_all()
        delivered += _drain(tb, eps, BURST_PER_CONN)
    wall = time.perf_counter() - t0
    return _observe(tb, delivered, busy0, wall)


def run_parity(
    n_conns: int = PARITY_CONNS,
    packets_total: int = PARITY_PACKETS,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, object]:
    """Leg (a): exact vs hybrid on the same schedule. Returns the
    observable table, the per-stage comparison, and a verdict."""
    exact = run_leg(n_conns, packets_total, costs, fast_forward=False)
    hybrid = run_leg(n_conns, packets_total, costs, fast_forward=True)
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
    fluid_fraction = ff["fluid_packets"] / max(hybrid["delivered"], 1)
    return {
        "rows": rows,
        "stage_rows": stage_rows,
        "exact": exact,
        "hybrid": hybrid,
        "ok": bool(ok),
        "tolerance": tol,
        "fluid_fraction": fluid_fraction,
        "ff": ff,
    }


def _speedup_costs(costs: CostModel, n_conns: int) -> CostModel:
    """Both crossover legs run with capacity sized for ``n_conns``: the
    verdict cache, NIC SRAM, and shared descriptor rings must hold the
    full population or flows fall back / demote and the point measures
    eviction churn instead of fidelity."""
    return costs.replace(
        flow_fastpath=True,
        flow_fastpath_entries=4 * n_conns,
        smartnic_sram_bytes=max(
            costs.smartnic_sram_bytes, 2 * n_conns * costs.conn_state_bytes),
        rx_ring_entries=2_048, tx_ring_entries=2_048,
    )


def run_speedup(
    n_conns: int = SPEEDUP_CONNS,
    packets_per_conn: int = SPEEDUP_PACKETS_PER_CONN,
    probe_conns: int = PROBE_CONNS,
    costs: CostModel = DEFAULT_COSTS,
) -> Row:
    """Leg (b): hybrid at full scale vs a packet-exact probe at the same
    connection scale; speedup is the delivered-packets-per-wall-second
    ratio."""
    base = _speedup_costs(costs, n_conns)

    # Hybrid leg: warm every flow to promotion with exact packets, then
    # absorb the rest of each flow's schedule in bulk.
    hy_costs = base.replace(fast_forward=True, ff_promote_after=1)
    warmup = 1 + hy_costs.ff_promote_after  # install miss + promotion streak
    tb = _leg_testbed(n_conns, hy_costs)
    eps, slots = tb._e21_eps, tb._e21_slots  # type: ignore[attr-defined]
    ff = tb.machine.ff
    assert ff is not None
    t0 = time.perf_counter()
    for _ in range(warmup):
        _send_burst(tb, eps, slots, 1)
        tb.run_all()
        _drain(tb, eps, 1)
    promoted = ff.promoted_count
    bulk = packets_per_conn - warmup
    absorbed = 0
    for proto, port in slots:
        flow = FiveTuple(proto, PEER_IP, 600, HOST_IP, port)
        if ff.absorb(flow, bulk):
            absorbed += bulk
    ff.flush_all()
    tb.run_all()
    hybrid_wall = time.perf_counter() - t0
    hybrid_pkts = warmup * n_conns + absorbed
    hybrid_events = tb.sim.events_fired

    # Exact probe: same scale, same capacity, fast_forward off; traffic on
    # a sample of the population (per-packet cost is what's being measured
    # — the structures are all at full size).
    ex = _leg_testbed(n_conns, base)
    ex_eps, ex_slots = ex._e21_eps, ex._e21_slots  # type: ignore[attr-defined]
    subset = range(0, min(probe_conns, n_conns))
    t0 = time.perf_counter()
    for _ in range(2):
        _send_burst(ex, ex_eps, ex_slots, BURST_PER_CONN, subset=subset)
        ex.run_all()
        _drain(ex, ex_eps, BURST_PER_CONN, subset=subset)
    exact_wall = time.perf_counter() - t0
    exact_pkts = 2 * BURST_PER_CONN * len(subset)

    exact_rate = exact_pkts / max(exact_wall, 1e-9)
    hybrid_rate = hybrid_pkts / max(hybrid_wall, 1e-9)
    return {
        "connections": n_conns,
        "packets_per_conn": packets_per_conn,
        "promoted": promoted,
        "fluid_packets": ff.fluid_packets,
        "epochs": ff.epochs,
        "hybrid_pkts": hybrid_pkts,
        "hybrid_wall_s": hybrid_wall,
        "hybrid_events": hybrid_events,
        "exact_probe_pkts": exact_pkts,
        "exact_probe_wall_s": exact_wall,
        "exact_ns_per_pkt": 1e9 / max(exact_rate, 1e-9),
        "hybrid_ns_per_pkt": 1e9 / max(hybrid_rate, 1e-9),
        "speedup": hybrid_rate / max(exact_rate, 1e-9),
    }


def headline(parity: Dict[str, object], speedup: Optional[Row]) -> dict:
    h = {
        "parity_ok": parity["ok"],
        "tolerance": parity["tolerance"],
        "fluid_fraction": parity["fluid_fraction"],
        "max_rel_err": max(
            float(r["rel_err"]) for r in parity["rows"] + parity["stage_rows"]
        ),
    }
    if speedup is not None:
        h["connections"] = speedup["connections"]
        h["speedup"] = speedup["speedup"]
    return h


def main() -> str:
    parity = run_parity()
    speedup = run_speedup()
    h = headline(parity, speedup)
    return "\n".join([
        "fidelity parity (exact vs hybrid, identical schedules)",
        fmt_table(parity["rows"] + parity["stage_rows"], columns=PARITY_COLUMNS),
        "",
        "wall-clock crossover (hybrid at scale vs packet-exact probe)",
        fmt_table([speedup]),
        "",
        f"headline: hybrid fidelity is invisible in the observables "
        f"(max relative error {h['max_rel_err']:.4%} against a "
        f"{h['tolerance']:.0%} tolerance, {h['fluid_fraction']:.0%} of "
        f"packets fluid) and {h['speedup']:.0f}x faster per packet at "
        f"{h['connections']:,} connections",
    ])


if __name__ == "__main__":
    print(main())
