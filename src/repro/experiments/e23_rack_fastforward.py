"""E23 — rack-scale fast-forward: end-to-end fluid epochs across the
switch hop.

Before this PR a cross-host flow on the :class:`TwoHostTestbed` demoted to
packet-exact the moment it touched the wire: host B's RX side could go
fluid (PR 6), but every send still ran host A's full TX chain, the uplink,
the switch, and the downlink as discrete events. With
``CostModel.ff_cross_machine`` a :class:`~repro.sim.fastforward.RackFastForward`
coordinator binds the sender's TX profile (PR 7), the switch-hop wire
span, and the receiver's RX profile into one end-to-end
:class:`~repro.sim.fastforward.CrossMachineFlow`: promotion waits until
*both* stacks' verdict caches are steady and the switch path is frozen
(learned port, no match-action rules), and either side's demotion
boundary — or any switch-state change — demotes the whole flow before the
boundary's effect is simulated. Two legs defend it:

* **(a) fidelity parity** — an A→switch→B workload (spaced single sends,
  drained by the receiving application) runs twice from identical
  schedules: packet-exact vs cross-machine fluid. Every counted
  observable must match *exactly*: delivered messages, both hosts' NIC
  packet counters, doorbell MMIO writes, both copy ledgers (TX DMA on A,
  DMA-direct on B), both verdict caches' hit/miss counters, the qdisc
  transit counters, switch frame/flood counters, and both links' packet
  and byte meters. Modeled CPU time agrees within
  :data:`FF_TOLERANCE`; trace-span conservation status per host
  must agree between the legs (cross-host TX contexts are closed at the
  far end of the *uplink*, then the downlink's wire time lands on the
  closed context — a pre-existing exact-mode property that fluid replay
  reproduces by carrying the downlink span in the extended profile).
* **(b) wall-clock crossover** — 10k+ cross-host connections. The
  baseline is this repo's previous best: ``fast_forward`` on but
  ``ff_cross_machine`` off, i.e. *demote-at-wire* (B's RX absorbs
  arrivals, A still simulates every send packet-exact through the switch).
  The hybrid leg warms every flow to its end-to-end binding, then absorbs
  the schedule in bulk and flushes through the fluid switch path. The
  headline is the packets-per-wall-second ratio, required >= 5x.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..config import DEFAULT_COSTS, CostModel
from ..core import NormanOS
from ..dataplanes.multihost import (
    HOST_A_IP,
    HOST_B_IP,
    TwoHostTestbed,
)
from ..host.copies import LAYER_DMA, LAYER_DMA_DIRECT
from ..net.flow import FiveTuple
from ..net.headers import PROTO_UDP
from .common import Row, fmt_table
from .e21_fidelity_crossover import FF_TOLERANCE, PARITY_COLUMNS

PAYLOAD = 1_458
PARITY_CONNS = 128
PARITY_ROUNDS = 6
SENDS_PER_ROUND = 4

CROSS_CONNS = 10_000
CROSS_BULK = 64
CROSS_ROUNDS = 4
PROBE_CONNS = 512
PROBE_ROUNDS = 2

#: Port pools: B listens, A sends from its own bound ports.
B_PORT_BASE = 2_000
A_PORT_BASE = 22_000

#: Spacing between consecutive sends across the population — wide enough
#: that each send's TX chain (doorbell → PCIe fetch → pipeline → wire →
#: switch → downlink) drains before the next begins, so rings, qdisc, and
#: links stay empty: the steady state the end-to-end profile captures.
SEND_GAP_NS = 2_000

#: Counters that must match exactly between the parity legs.
EXACT_KEYS = (
    "b_delivered",
    "a_tx_pkts", "b_rx_pkts",
    "a_mmio_writes",
    "a_dma_bytes", "a_dma_ops", "b_dma_bytes", "b_dma_ops",
    "a_fp_hits", "a_fp_misses", "b_fp_hits", "b_fp_misses",
    "a_qdisc_enqueued", "a_qdisc_emitted",
    "switch_frames", "switch_flooded",
    "uplink_sent", "uplink_bytes", "downlink_sent", "downlink_bytes",
)
#: Modeled-time observables compared within :data:`FF_TOLERANCE`.
TOLERANCE_KEYS = ("a_cpu_busy_ns", "b_cpu_busy_ns")


def _hybrid_costs(costs: CostModel, n_conns: int, cross: bool) -> CostModel:
    """Capacity sized for the population on *both* machines, with the
    fidelity knobs for one leg: ``cross=False`` is the demote-at-wire
    engine (per-host fast-forward only), ``cross=True`` adds the rack
    coordinator."""
    return costs.replace(
        flow_fastpath=True,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 4 * n_conns),
        smartnic_sram_bytes=max(
            costs.smartnic_sram_bytes, 2 * n_conns * costs.conn_state_bytes),
        rx_ring_entries=2_048, tx_ring_entries=2_048,
        fast_forward=True, ff_tx=True, ff_cross_machine=cross,
    )


def _rack_testbed(n_conns: int, costs: CostModel,
                  n_cores: int = 4) -> TwoHostTestbed:
    """Two Norman hosts on one switch, ``n_conns`` A→B connections, and
    the switch taught where B lives (one B→A packet — the ARP-reply
    analogue; without it every A→B frame floods and no switch path is
    ever frozen). Identical in every leg, so it cancels in parity."""
    tb = TwoHostTestbed(NormanOS, NormanOS, costs=costs, n_cores=n_cores)
    app_cores = list(range(1, n_cores))
    a_procs = [tb.host_a.spawn(f"cli{c}", "bob", core_id=c)
               for c in app_cores]
    b_procs = [tb.host_b.spawn(f"srv{c}", "carol", core_id=c)
               for c in app_cores]
    a_eps = [
        tb.host_a.dataplane.open_endpoint(
            a_procs[i % len(a_procs)], PROTO_UDP, A_PORT_BASE + i)
        for i in range(n_conns)
    ]
    b_eps = [
        tb.host_b.dataplane.open_endpoint(
            b_procs[i % len(b_procs)], PROTO_UDP, B_PORT_BASE + i)
        for i in range(n_conns)
    ]
    tb.run_all()
    b_eps[0].send(64, (HOST_A_IP, A_PORT_BASE))
    tb.run_all()
    tb._e23_a_eps = a_eps  # type: ignore[attr-defined]
    tb._e23_b_eps = b_eps  # type: ignore[attr-defined]
    return tb


def _send_round(tb: TwoHostTestbed, a_eps, per_conn: int,
                subset=None) -> int:
    """Schedule ``per_conn`` spaced single-packet sends from every A
    endpoint (or a subset) toward its B counterpart. Returns the number
    scheduled."""
    idx = range(len(a_eps)) if subset is None else subset
    base = tb.sim.now + 1_000
    i = 0
    for _round in range(per_conn):
        for e in idx:
            tb.sim.at(base + i * SEND_GAP_NS, a_eps[e].send, PAYLOAD,
                      (HOST_B_IP, B_PORT_BASE + e))
            i += 1
    return i


def _drain_b(tb: TwoHostTestbed, b_eps, per_conn: int, subset=None) -> int:
    """Non-blocking drain of B's endpoints until dry (ring packets and
    fluid credit look identical to the application)."""
    idx = list(range(len(b_eps)) if subset is None else subset)
    consumed = [0]

    def _count(sig):
        if sig.ok:
            consumed[0] += len(sig.value)

    while True:
        before = consumed[0]
        for e in idx:
            b_eps[e].recv_burst(per_conn, blocking=False).add_callback(_count)
        tb.run_all()
        if consumed[0] == before:
            return consumed[0]


def _host_observables(host, prefix: str, busy0: int,
                      obs: Dict[str, object]) -> None:
    m = host.machine
    fp = m.fastpath
    tracer = m.tracer
    work = tracer.work_by_stage(include_wait=False) if tracer.enabled else {}
    closed = tracer.closed_contexts() if tracer.enabled else []
    obs[f"{prefix}_fp_hits"] = fp.hits if fp is not None else 0
    obs[f"{prefix}_fp_misses"] = fp.misses if fp is not None else 0
    obs[f"{prefix}_cpu_busy_ns"] = m.cpus.total_busy_ns() - busy0
    obs[f"work_{prefix}"] = work
    obs[f"conserved_{prefix}"] = all(
        c.span_sum() == c.latency_ns() for c in closed)
    if m.ff is not None:
        obs[f"ff_{prefix}"] = m.ff.stats()


def _observe(tb: TwoHostTestbed, delivered: int, busy0_a: int, busy0_b: int,
             wall_s: float) -> Dict[str, object]:
    a, b = tb.host_a, tb.host_b
    nic_a = a.dataplane.nic  # type: ignore[attr-defined]
    nic_b = b.dataplane.nic  # type: ignore[attr-defined]
    dma_a = a.machine.copies.layer(LAYER_DMA)
    dma_b = b.machine.copies.layer(LAYER_DMA_DIRECT)
    obs: Dict[str, object] = {
        "b_delivered": delivered,
        "a_tx_pkts": int(nic_a.metrics.counter("tx_pkts").value),
        "b_rx_pkts": int(nic_b.metrics.counter("rx_pkts").value),
        "a_mmio_writes": int(a.machine.dma.metrics.counter("mmio_writes").value),
        "a_dma_bytes": dma_a.bytes_copied,
        "a_dma_ops": dma_a.copies,
        "b_dma_bytes": dma_b.bytes_copied,
        "b_dma_ops": dma_b.copies,
        "a_qdisc_enqueued": int(nic_a.scheduler.metrics.counter("enqueued").value),
        "a_qdisc_emitted": int(nic_a.scheduler.metrics.counter("emitted").value),
        "switch_frames": int(tb.switch.metrics.counter("frames").value),
        "switch_flooded": int(tb.switch.metrics.counter("flooded").value),
        "uplink_sent": int(a.uplink.metrics.counter("sent").value),
        "uplink_bytes": int(a.uplink.metrics.meter("bytes").total_bytes),
        "downlink_sent": int(b.downlink.metrics.counter("sent").value),
        "downlink_bytes": int(b.downlink.metrics.meter("bytes").total_bytes),
        "wall_s": wall_s,
        "events": tb.sim.events_fired,
    }
    _host_observables(a, "a", busy0_a, obs)
    _host_observables(b, "b", busy0_b, obs)
    if tb.rack is not None:
        obs["rack"] = tb.rack.stats()
    return obs


def run_leg(n_conns: int, rounds: int, costs: CostModel,
            exact: bool = False) -> Dict[str, object]:
    """One parity leg: per round, a wave of spaced A→B sends, then B's
    application drains. Both legs share every capacity knob — only the
    fidelity switches differ, so any divergence is the engine's fault."""
    leg_costs = costs.replace(
        trace=True, flow_fastpath=True,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 4 * n_conns),
    )
    if not exact:
        # promote_after=2: the receiver promotes on its 3rd packet, the
        # sender's first gate attempt is vetoed (the receiver's promotion
        # races one wire latency behind), and the rebuilt streak binds the
        # flow end-to-end on send 5 — leaving most of the schedule fluid.
        leg_costs = leg_costs.replace(
            fast_forward=True, ff_tx=True, ff_cross_machine=True,
            ff_promote_after=2)
    tb = _rack_testbed(n_conns, leg_costs)
    a_eps = tb._e23_a_eps  # type: ignore[attr-defined]
    b_eps = tb._e23_b_eps  # type: ignore[attr-defined]
    busy0_a = tb.host_a.machine.cpus.total_busy_ns()
    busy0_b = tb.host_b.machine.cpus.total_busy_ns()
    delivered = 0
    t0 = time.perf_counter()
    for _round in range(rounds):
        _send_round(tb, a_eps, SENDS_PER_ROUND)
        tb.run_all()
        if tb.rack is not None:
            tb.rack.flush_all()
            tb.run_all()
        delivered += _drain_b(tb, b_eps, SENDS_PER_ROUND)
    wall = time.perf_counter() - t0
    return _observe(tb, delivered, busy0_a, busy0_b, wall)


def run_parity(
    n_conns: int = PARITY_CONNS,
    rounds: int = PARITY_ROUNDS,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, object]:
    """Leg (a): packet-exact vs end-to-end cross-machine fluid, same
    schedule."""
    exact = run_leg(n_conns, rounds, costs, exact=True)
    hybrid = run_leg(n_conns, rounds, costs)
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
    for prefix in ("a", "b"):
        wk_e, wk_h = exact[f"work_{prefix}"], hybrid[f"work_{prefix}"]
        for stage in sorted(set(wk_e) | set(wk_h)):
            e, h = float(wk_e.get(stage, 0)), float(wk_h.get(stage, 0))
            err = abs(h - e) / max(abs(e), 1e-9)
            this_ok = err <= tol
            ok = ok and this_ok
            stage_rows.append({
                "observable": f"stage_{prefix}:{stage}", "exact": e,
                "hybrid": h, "rel_err": err, "ok": this_ok,
            })
    # Conservation is an exact-match observable *between legs*, not an
    # absolute: cross-host TX contexts get the far downlink's wire time
    # charged after close in exact mode (see module docstring), and the
    # fluid replay reproduces exactly that. The receive side must agree
    # too — on this workload B's contexts conserve in both legs except
    # for B's single switch-teach send, which breaks both equally.
    conserved_ok = (
        exact["conserved_a"] == hybrid["conserved_a"]
        and exact["conserved_b"] == hybrid["conserved_b"]
    )
    ok = ok and conserved_ok
    rack = hybrid.get("rack", {})
    bound_ok = rack.get("bindings", 0) >= n_conns
    ok = ok and bound_ok
    ff_a = hybrid.get("ff_a", {})
    ff_b = hybrid.get("ff_b", {})
    fluid = ff_a.get("fluid_packets", 0) + ff_b.get("fluid_packets", 0)
    total = int(hybrid["b_delivered"]) * 2  # each packet has a TX and RX leg
    return {
        "rows": rows,
        "stage_rows": stage_rows,
        "exact": exact,
        "hybrid": hybrid,
        "ok": bool(ok),
        "tolerance": tol,
        "conserved_ok": bool(conserved_ok),
        "bound_ok": bool(bound_ok),
        "fluid_fraction": fluid / max(total, 1),
        "rack": rack,
    }


def _warm_to_binding(tb: TwoHostTestbed, a_eps, warmup_rounds: int) -> None:
    """Exact rounds until every flow is bound end-to-end: the receiver
    promotes on its first cached hit, then the sender's gated TX promotion
    lands one round later."""
    for _ in range(warmup_rounds):
        _send_round(tb, a_eps, 1)
        tb.run_all()


def run_crossover(
    n_conns: int = CROSS_CONNS,
    bulk: int = CROSS_BULK,
    rounds: int = CROSS_ROUNDS,
    probe_conns: int = PROBE_CONNS,
    costs: CostModel = DEFAULT_COSTS,
) -> Row:
    """Leg (b): end-to-end fluid at full scale vs the demote-at-wire
    engine probed at the same scale; speedup is the cross-host
    packets-per-wall-second ratio."""
    # Hybrid leg: warm to binding, then absorb + flush through the switch.
    hy = _hybrid_costs(costs, n_conns, cross=True).replace(ff_promote_after=1)
    # Receiver promotes after miss + streak; the gated TX side needs one
    # more round to see a promoted receiver.
    warmup = 3 + hy.ff_promote_after
    tb = _rack_testbed(n_conns, hy)
    a_eps = tb._e23_a_eps  # type: ignore[attr-defined]
    a_ff = tb.host_a.machine.ff
    assert a_ff is not None and tb.rack is not None
    t0 = time.perf_counter()
    _warm_to_binding(tb, a_eps, warmup)
    bound = tb.rack.bound
    flows = [
        FiveTuple(PROTO_UDP, HOST_A_IP, A_PORT_BASE + i,
                  HOST_B_IP, B_PORT_BASE + i)
        for i in range(n_conns)
    ]
    absorbed = 0
    for _round in range(rounds):
        for flow in flows:
            if a_ff.absorb(flow, bulk):
                absorbed += bulk
        tb.rack.flush_all()
        tb.run_all()
    hybrid_wall = time.perf_counter() - t0
    hybrid_pkts = warmup * n_conns + absorbed
    hybrid_events = tb.sim.events_fired

    # Baseline: the demote-at-wire engine (per-host fast-forward, no rack)
    # at the same scale and capacity, probed on a sample — every A→B send
    # runs the full TX chain, both links, and the switch packet-exact;
    # only B's RX side absorbs.
    base_costs = _hybrid_costs(costs, n_conns, cross=False).replace(
        ff_promote_after=1)
    ex = _rack_testbed(n_conns, base_costs)
    ex_a_eps = ex._e23_a_eps  # type: ignore[attr-defined]
    ex_b_eps = ex._e23_b_eps  # type: ignore[attr-defined]
    subset = range(0, min(probe_conns, n_conns))
    t0 = time.perf_counter()
    probe_pkts = 0
    for _round in range(PROBE_ROUNDS):
        probe_pkts += _send_round(ex, ex_a_eps, SENDS_PER_ROUND,
                                  subset=subset)
        ex.run_all()
        _drain_b(ex, ex_b_eps, SENDS_PER_ROUND, subset=subset)
    exact_wall = time.perf_counter() - t0

    exact_rate = probe_pkts / max(exact_wall, 1e-9)
    hybrid_rate = hybrid_pkts / max(hybrid_wall, 1e-9)
    return {
        "connections": n_conns,
        "bound": bound,
        "fluid_packets": a_ff.fluid_packets,
        "hybrid_pkts": hybrid_pkts,
        "hybrid_wall_s": hybrid_wall,
        "hybrid_events": hybrid_events,
        "wire_probe_pkts": probe_pkts,
        "wire_probe_wall_s": exact_wall,
        "wire_ns_per_pkt": 1e9 / max(exact_rate, 1e-9),
        "hybrid_ns_per_pkt": 1e9 / max(hybrid_rate, 1e-9),
        "speedup": hybrid_rate / max(exact_rate, 1e-9),
    }


def headline(parity: Dict[str, object], speedup: Optional[Row]) -> dict:
    h = {
        "parity_ok": parity["ok"],
        "tolerance": parity["tolerance"],
        "fluid_fraction": parity["fluid_fraction"],
        "bound_ok": parity["bound_ok"],
        "max_rel_err": max(
            float(r["rel_err"]) for r in parity["rows"] + parity["stage_rows"]
        ),
    }
    if speedup is not None:
        h["connections"] = speedup["connections"]
        h["bound"] = speedup["bound"]
        h["speedup"] = speedup["speedup"]
    return h


def main() -> str:
    parity = run_parity()
    speedup = run_crossover()
    h = headline(parity, speedup)
    return "\n".join([
        "rack parity (packet-exact vs end-to-end fluid, A -> switch -> B)",
        fmt_table(parity["rows"] + parity["stage_rows"],
                  columns=PARITY_COLUMNS),
        "",
        "rack crossover (end-to-end fluid vs demote-at-wire engine)",
        fmt_table([speedup]),
        "",
        f"headline: cross-machine fluid epochs are invisible in the counted "
        f"observables (max relative error {h['max_rel_err']:.4%} against a "
        f"{h['tolerance']:.0%} tolerance, {h['fluid_fraction']:.0%} of "
        f"packet-legs fluid) and {h['speedup']:.1f}x faster than "
        f"demote-at-wire at {h['connections']:,} cross-host connections "
        f"({h['bound']:,} bound end-to-end)",
    ])


if __name__ == "__main__":
    print(main())
