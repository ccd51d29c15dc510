"""E18 — cluster scale-out: in-switch L4 balancer + live flow migration.

The rack becomes a real cluster: N backend machines behind the switch's
consistent-hashing VIP stage (:class:`~repro.cluster.L4LoadBalancer`),
with :class:`~repro.cluster.MigrationCoordinator` moving live flows
between backends — conntrack snapshot/adopt, verdict replay, fast-forward
demotion, one atomic re-steering commit, then a counter-reconciling
release. Two legs defend the two claims:

* **(a) migration parity** — a client drives flows at a VIP over three
  backends; midway through the schedule one flow is live-migrated *while
  its packets are in flight*. Against a no-migration run of the identical
  schedule, every counted observable summed across the cluster must match
  **exactly** (0.0000%): delivered messages in total and per flow, NIC
  TX/RX packet counters, conntrack packets/bytes (including the migrated
  flow's own entry, summed over whichever machines hold a piece of it),
  switch frame/flood counters, and the link meters. Loss-free and
  counter-conserving means the migration is *invisible* in the sums —
  only the distribution across machines moves.
* **(b) rebalancing under heavy-tailed load** — an elephant flow and a
  population of mice consistently hash onto the same victim backend; the
  elephant's bursts (fast uplink into a slow backend downlink) queue in
  front of every mouse. Live-migrating the elephant to the idle backend
  must cut the victims' p99 delivery latency measurably versus the same
  schedule without migration.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..config import DEFAULT_COSTS, CostModel
from ..core import NormanOS
from ..dataplanes.multihost import HostSpec, Rack
from ..net.addresses import IPv4Address
from ..net.flow import FiveTuple
from ..net.headers import PROTO_UDP
from .common import PARITY_COLUMNS, Row, drain_until_dry, fmt_table, parity_rows

VIP_IP = IPv4Address.parse("10.0.9.9")

PAYLOAD = 1_458
N_BACKENDS = 3
N_FLOWS = 24
ROUNDS = 8
SENDS_PER_ROUND = 2

#: Port plan: backends listen on the service ports, the client sends from
#: its own bound ports; one extra client port receives the switch-teach
#: packets each backend emits before traffic starts.
SERVICE_PORT_BASE = 2_000
CLIENT_PORT_BASE = 22_000
TEACH_PORT = 21_000

SEND_GAP_NS = 2_000

#: Cluster-summed counters that must match a no-migration run exactly.
EXACT_KEYS = (
    "delivered_total",
    "client_tx_pkts", "backend_rx_pkts",
    "switch_frames", "switch_flooded",
    "client_up_sent", "client_up_bytes",
    "backend_down_sent", "backend_down_bytes",
    "ct_packets", "ct_bytes",
    "flow0_ct_packets", "flow0_ct_bytes",
)

# Leg (b): heavy-tailed load on a slow rack.
MICE = 8
MOUSE_PAYLOAD = 256
ELEPHANT_BURST = 64
ELEPHANT_DPORT = SERVICE_PORT_BASE + 999
REBALANCE_ROUNDS = 6
BACKEND_RATE_BPS = 10_000_000_000       # 10G backend links
ELEPHANT_RATE_BPS = 100_000_000_000     # 100G elephant uplink
MIN_P99_IMPROVEMENT = 1.5


def _parity_costs(costs: CostModel, n_flows: int) -> CostModel:
    """Cluster knobs on, capacity sized for listeners on every backend,
    and (host-local) fast-forward live so a migration's demote step is
    exercised against real promotions."""
    return costs.replace(
        flow_fastpath=True,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 8 * n_flows),
        smartnic_sram_bytes=max(
            costs.smartnic_sram_bytes, 8 * n_flows * costs.conn_state_bytes),
        rx_ring_entries=2_048, tx_ring_entries=2_048,
        fast_forward=True, ff_tx=True, ff_promote_after=2,
        cluster_lb=True,
    )


def _rebalance_costs(costs: CostModel) -> CostModel:
    """Leg (b) keeps every delivery packet-exact (latency is the measured
    quantity) — fast-forward off, balancer + migration on."""
    return costs.replace(
        flow_fastpath=True,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 256),
        smartnic_sram_bytes=max(
            costs.smartnic_sram_bytes, 256 * costs.conn_state_bytes),
        rx_ring_entries=4_096, tx_ring_entries=4_096,
        cluster_lb=True,
    )


def _backend_names(n: int) -> List[str]:
    return [f"srv{i}" for i in range(n)]


def _build_cluster(costs: CostModel, n_backends: int, n_flows: int):
    """Client + N backends behind one VIP: backend listeners on every
    service port (a migrated flow finds a listener wherever it lands),
    the switch taught where each backend lives before traffic starts."""
    names = _backend_names(n_backends)
    specs = [HostSpec.indexed(0, "client", NormanOS)] + [
        HostSpec.indexed(1 + i, name, NormanOS)
        for i, name in enumerate(names)
    ]
    rack = Rack(specs, costs=costs)
    client = rack.host("client")
    rack.add_vip(VIP_IP, names)
    for name in names:
        rack.host(name).dataplane.control.enable_conntrack()  # type: ignore[attr-defined]

    cli_procs = [client.spawn(f"cli{c}", "bob", core_id=c)
                 for c in range(1, 4)]
    cli_eps = [
        client.dataplane.open_endpoint(  # type: ignore[attr-defined]
            cli_procs[i % len(cli_procs)], PROTO_UDP, CLIENT_PORT_BASE + i)
        for i in range(n_flows)
    ]
    teach_ep = client.dataplane.open_endpoint(  # type: ignore[attr-defined]
        cli_procs[0], PROTO_UDP, TEACH_PORT)
    srv_eps: Dict[str, list] = {}
    for name in names:
        host = rack.host(name)
        procs = [host.spawn(f"srv{c}", "carol", core_id=c)
                 for c in range(1, 4)]
        srv_eps[name] = [
            host.dataplane.open_endpoint(  # type: ignore[attr-defined]
                procs[i % len(procs)], PROTO_UDP, SERVICE_PORT_BASE + i)
            for i in range(n_flows)
        ]
    rack.run_all()
    for name in names:
        srv_eps[name][0].send(64, (client.ip, TEACH_PORT))
    rack.run_all()
    return rack, client, cli_eps, srv_eps, teach_ep


def _send_round(rack: Rack, cli_eps, per_conn: int) -> Tuple[int, int]:
    """Spaced single-packet sends from every client endpoint toward its
    VIP service port; returns (scheduled, window_end_offset)."""
    base = rack.sim.now + 1_000
    i = 0
    for _round in range(per_conn):
        for e in range(len(cli_eps)):
            rack.sim.at(base + i * SEND_GAP_NS, cli_eps[e].send, PAYLOAD,
                        (VIP_IP, SERVICE_PORT_BASE + e))
            i += 1
    return i, i * SEND_GAP_NS


def _drain_backends(rack: Rack, srv_eps, per_flow: Dict[int, int]) -> int:
    """Non-blocking drain of every backend listener until the cluster is
    dry; tallies per service flow, which its client port names, regardless
    of which machine served it."""

    def _tally(msgs) -> None:
        for _len, _src, sport in msgs:
            flow_idx = sport - CLIENT_PORT_BASE
            per_flow[flow_idx] = per_flow.get(flow_idx, 0) + 1

    listeners = [ep for eps in srv_eps.values() for ep in eps]
    return drain_until_dry(rack.run_all, listeners, 64, _tally)


def _ct_totals(rack: Rack, names: List[str],
               flow: FiveTuple) -> Tuple[int, int, int, int]:
    """Conntrack packets/bytes summed over every backend, plus the one
    flow's own entry summed over however many machines hold a piece of
    it (during a migration's drain window that can briefly be two)."""
    pkts = bts = f_pkts = f_bts = 0
    for name in names:
        ct = rack.host(name).dataplane.nic.conntrack  # type: ignore[attr-defined]
        for entry in ct.entries():
            pkts += entry.packets
            bts += entry.bytes
        entry = ct.lookup(flow)
        if entry is not None:
            f_pkts += entry.packets
            f_bts += entry.bytes
    return pkts, bts, f_pkts, f_bts


def _observe(rack: Rack, names: List[str], delivered: int,
             per_flow: Dict[int, int], flow0: FiveTuple) -> Dict[str, object]:
    client = rack.host("client")
    nic_c = client.dataplane.nic  # type: ignore[attr-defined]
    ct_p, ct_b, f_p, f_b = _ct_totals(rack, names, flow0)
    obs: Dict[str, object] = {
        "delivered_total": delivered,
        "per_flow": dict(per_flow),
        "client_tx_pkts": int(nic_c.metrics.counter("tx_pkts").value),
        "backend_rx_pkts": sum(
            int(rack.host(n).dataplane.nic.metrics  # type: ignore[attr-defined]
                .counter("rx_pkts").value)
            for n in names),
        "switch_frames": int(rack.switch.metrics.counter("frames").value),
        "switch_flooded": int(rack.switch.metrics.counter("flooded").value),
        "client_up_sent": int(client.uplink.metrics.counter("sent").value),
        "client_up_bytes": int(
            client.uplink.metrics.meter("bytes").total_bytes),
        "backend_down_sent": sum(
            int(rack.host(n).downlink.metrics.counter("sent").value)
            for n in names),
        "backend_down_bytes": sum(
            int(rack.host(n).downlink.metrics.meter("bytes").total_bytes)
            for n in names),
        "ct_packets": ct_p, "ct_bytes": ct_b,
        "flow0_ct_packets": f_p, "flow0_ct_bytes": f_b,
        "events": rack.sim.events_fired,
    }
    return obs


def run_leg(n_backends: int, n_flows: int, rounds: int, costs: CostModel,
            migrate: bool) -> Dict[str, object]:
    """One parity leg. Both legs run the identical schedule with identical
    knobs (the coordinator is *built* in both); only the migrate leg
    actually calls :meth:`Rack.migrate` — in the middle of a round's send
    window, so the re-steer commit lands with packets in flight."""
    names = _backend_names(n_backends)
    rack, client, cli_eps, srv_eps, _teach = _build_cluster(
        costs, n_backends, n_flows)
    flow0 = FiveTuple(PROTO_UDP, client.ip, CLIENT_PORT_BASE,
                      VIP_IP, SERVICE_PORT_BASE)
    assert rack.balancer is not None
    source = rack.balancer.backend_for(flow0)
    target = names[(names.index(source) + 1) % len(names)]
    per_flow: Dict[int, int] = {}
    delivered = 0
    migration = []
    for rnd in range(rounds):
        _scheduled, window = _send_round(rack, cli_eps, SENDS_PER_ROUND)
        if migrate and rnd == rounds // 2:
            rack.sim.at(rack.sim.now + 1_000 + window // 2,
                        lambda: migration.append(rack.migrate(flow0, target)))
        rack.run_all()
        delivered += _drain_backends(rack, srv_eps, per_flow)
    obs = _observe(rack, names, delivered, per_flow, flow0)
    obs["source"] = source
    obs["target"] = target
    if migrate:
        assert rack.coordinator is not None
        obs["migration"] = migration[0] if migration else None
        obs["coordinator"] = rack.coordinator.stats()
        obs["commit_stats"] = rack.balancer.commit_stats()
    return obs


def run_parity(
    n_backends: int = N_BACKENDS,
    n_flows: int = N_FLOWS,
    rounds: int = ROUNDS,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, object]:
    """Leg (a): live-migration run vs no-migration run, same schedule."""
    leg_costs = _parity_costs(costs, n_flows)
    base = run_leg(n_backends, n_flows, rounds, leg_costs, migrate=False)
    mig = run_leg(n_backends, n_flows, rounds, leg_costs, migrate=True)
    rows = parity_rows(base, mig, EXACT_KEYS)
    ok = all(r["ok"] for r in rows)
    flows_ok = base["per_flow"] == mig["per_flow"]
    ok = ok and flows_ok
    record = mig.get("migration")
    mig_done = record is not None and record.status == "done"
    ok = ok and mig_done
    # The migrated flow's observed packets must be fully accounted for by
    # the protocol's two copies: snapshot + post-commit delta on the
    # target plus whatever re-steered packets landed there directly.
    moved_ok = (record is not None
                and record.moved_packets <= int(mig["flow0_ct_packets"])
                and record.moved_packets > 0)
    ok = ok and moved_ok
    return {
        "rows": rows,
        "base": base,
        "mig": mig,
        "ok": bool(ok),
        "flows_ok": bool(flows_ok),
        "migration_done": bool(mig_done),
        "moved_ok": bool(moved_ok),
        "migration": record,
        "coordinator": mig.get("coordinator", {}),
        "commit_stats": mig.get("commit_stats", {}),
        "max_rel_err": max(float(r["rel_err"]) for r in rows),
    }


# -- leg (b): rebalancing a hot backend ------------------------------------


def _pick_sport(balancer, src_ip, dport: int, start: int,
                victim: str, used) -> int:
    """Smallest unused source port whose five-tuple consistently hashes
    onto ``victim`` (deterministic: the ring is CRC32)."""
    sport = start
    while True:
        ft = FiveTuple(PROTO_UDP, src_ip, sport, VIP_IP, dport)
        if sport not in used and balancer.backend_for(ft) == victim:
            used.add(sport)
            return sport
        sport += 1


def _arm_reader(rack: Rack, ep, fifo: deque, lats: List[Tuple[int, int]],
                burst: int = 8) -> None:
    """Blocking reader loop: records (send_ns, latency_ns) per message
    against the flow's send-time FIFO, then re-arms."""

    def _cb(sig):
        if not sig.ok:
            return
        now = rack.sim.now
        for _msg in sig.value:
            sent = fifo.popleft()
            lats.append((sent, now - sent))
        _arm_reader(rack, ep, fifo, lats, burst)

    ep.recv_burst(burst, blocking=True).add_callback(_cb)


def _drain_loop(rack: Rack, ep, burst: int = ELEPHANT_BURST) -> None:
    """Blocking sink for the elephant: keeps its ring from overflowing."""

    def _cb(sig):
        if sig.ok:
            _drain_loop(rack, ep, burst)

    ep.recv_burst(burst, blocking=True).add_callback(_cb)


def run_rebalance(
    mice: int = MICE,
    rounds: int = REBALANCE_ROUNDS,
    costs: CostModel = DEFAULT_COSTS,
    migrate: bool = True,
) -> Dict[str, object]:
    """Leg (b) (one run): elephant + mice hashed onto srv0; after
    ``rounds`` pre-rounds the elephant migrates to srv1 (or not — the
    baseline), then ``rounds`` post-rounds measure the victims again."""
    leg_costs = _rebalance_costs(costs)
    names = _backend_names(2)
    specs = [
        HostSpec.indexed(0, "client", NormanOS),
        HostSpec.indexed(3, "heavy", NormanOS,
                         ).with_rate(ELEPHANT_RATE_BPS),
        HostSpec.indexed(1, "srv0", NormanOS).with_rate(BACKEND_RATE_BPS),
        HostSpec.indexed(2, "srv1", NormanOS).with_rate(BACKEND_RATE_BPS),
    ]
    rack = Rack(specs, costs=leg_costs, link_rate_bps=BACKEND_RATE_BPS)
    client, heavy = rack.host("client"), rack.host("heavy")
    rack.add_vip(VIP_IP, names)
    assert rack.balancer is not None

    used: set = set()
    mouse_sports = [
        _pick_sport(rack.balancer, client.ip, SERVICE_PORT_BASE + i,
                    CLIENT_PORT_BASE, "srv0", used)
        for i in range(mice)
    ]
    eleph_sport = _pick_sport(rack.balancer, heavy.ip, ELEPHANT_DPORT,
                              CLIENT_PORT_BASE, "srv0", set())
    eleph_flow = FiveTuple(PROTO_UDP, heavy.ip, eleph_sport,
                           VIP_IP, ELEPHANT_DPORT)

    cli_procs = [client.spawn(f"cli{c}", "bob", core_id=c)
                 for c in range(1, 4)]
    mice_eps = [
        client.dataplane.open_endpoint(  # type: ignore[attr-defined]
            cli_procs[i % len(cli_procs)], PROTO_UDP, mouse_sports[i])
        for i in range(mice)
    ]
    teach_ep = client.dataplane.open_endpoint(  # type: ignore[attr-defined]
        cli_procs[0], PROTO_UDP, TEACH_PORT)
    heavy_proc = heavy.spawn("elephant", "mallory", core_id=1)
    heavy_ep = heavy.dataplane.open_endpoint(  # type: ignore[attr-defined]
        heavy_proc, PROTO_UDP, eleph_sport)

    fifos: List[deque] = [deque() for _ in range(mice)]
    lats: List[Tuple[int, int]] = []
    for name in names:
        host = rack.host(name)
        # One process per blocking reader (a process can only block once).
        procs = [host.spawn(f"srv{i}", "carol", core_id=1 + i % 3)
                 for i in range(mice + 1)]
        for i in range(mice):
            ep = host.dataplane.open_endpoint(  # type: ignore[attr-defined]
                procs[i], PROTO_UDP, SERVICE_PORT_BASE + i)
            if name == "srv0":  # mice never move; the elephant does
                _arm_reader(rack, ep, fifos[i], lats)
        eleph_sink = host.dataplane.open_endpoint(  # type: ignore[attr-defined]
            procs[mice], PROTO_UDP, ELEPHANT_DPORT)
        _drain_loop(rack, eleph_sink)
        rack.run_all()
        # Teach the switch this backend's port before traffic.
        eleph_sink.send(64, (client.ip, TEACH_PORT))
    rack.run_all()

    # One round: the elephant's burst slams the victim downlink, mice
    # trickle through the same queue at spaced offsets.
    window = (ELEPHANT_BURST * (PAYLOAD + 64) * 8 * 1_000_000_000
              // BACKEND_RATE_BPS)

    def _round() -> None:
        base = rack.sim.now + 1_000
        rack.sim.at(base, heavy_ep.send_burst,
                    [PAYLOAD] * ELEPHANT_BURST, (VIP_IP, ELEPHANT_DPORT))
        for i in range(mice):
            t = base + 500 + (i * window) // mice
            fifos[i].append(t)
            rack.sim.at(t, mice_eps[i].send, MOUSE_PAYLOAD,
                        (VIP_IP, SERVICE_PORT_BASE + i))
        rack.run_all()

    for _ in range(rounds):
        _round()
    t_migrate = rack.sim.now
    if migrate:
        rack.migrate(eleph_flow, "srv1")
        rack.run_all()
    for _ in range(rounds):
        _round()

    pre = sorted(lat for sent, lat in lats if sent < t_migrate)
    post = sorted(lat for sent, lat in lats if sent >= t_migrate)

    def _p99(xs: List[int]) -> float:
        return float(xs[int(0.99 * (len(xs) - 1))]) if xs else 0.0

    return {
        "migrated": migrate,
        "mice_delivered": len(lats),
        "mice_expected": 2 * rounds * mice,
        "p99_pre_ns": _p99(pre),
        "p99_post_ns": _p99(post),
        "p50_post_ns": float(post[len(post) // 2]) if post else 0.0,
        "migration": (rack.coordinator.migrations[0]
                      if migrate and rack.coordinator is not None
                      and rack.coordinator.migrations else None),
    }


def run_rebalance_pair(
    mice: int = MICE,
    rounds: int = REBALANCE_ROUNDS,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, object]:
    base = run_rebalance(mice, rounds, costs, migrate=False)
    mig = run_rebalance(mice, rounds, costs, migrate=True)
    improvement = (float(base["p99_post_ns"])
                   / max(float(mig["p99_post_ns"]), 1e-9))
    complete = (base["mice_delivered"] == base["mice_expected"]
                and mig["mice_delivered"] == mig["mice_expected"])
    record = mig["migration"]
    ok = (improvement >= MIN_P99_IMPROVEMENT and complete
          and record is not None and record.status == "done")
    return {
        "base": base, "mig": mig,
        "improvement": improvement,
        "complete": bool(complete),
        "ok": bool(ok),
    }


def headline(parity: Dict[str, object],
             rebalance: Optional[Dict[str, object]]) -> dict:
    h = {
        "parity_ok": parity["ok"],
        "max_rel_err": parity["max_rel_err"],
        "flows_ok": parity["flows_ok"],
        "migration_done": parity["migration_done"],
        "stale_evals": parity["commit_stats"].get("stale_evals", 0),
    }
    if rebalance is not None:
        h["p99_improvement"] = rebalance["improvement"]
        h["rebalance_ok"] = rebalance["ok"]
    return h


def main() -> str:
    parity = run_parity()
    rebalance = run_rebalance_pair()
    h = headline(parity, rebalance)
    record = parity["migration"]
    mig_row: Row = {
        "flow": str(record.flow) if record else "-",
        "source": record.source if record else "-",
        "target": record.target if record else "-",
        "snap_pkts": record.snap_packets if record else 0,
        "delta_pkts": record.delta_packets if record else 0,
        "verdicts": record.verdicts_replayed if record else 0,
        "ff_demoted": record.ff_demoted if record else 0,
        "commit_ns": (record.committed_ns - record.requested_ns
                      if record else 0),
        "total_ns": (record.finalized_ns - record.requested_ns
                     if record else 0),
    }
    base_b, mig_b = rebalance["base"], rebalance["mig"]
    reb_rows: List[Row] = [
        {"leg": "no-migration", "p99_pre_us": base_b["p99_pre_ns"] / 1e3,
         "p99_post_us": base_b["p99_post_ns"] / 1e3,
         "p50_post_us": base_b["p50_post_ns"] / 1e3,
         "mice": base_b["mice_delivered"]},
        {"leg": "migrate-elephant", "p99_pre_us": mig_b["p99_pre_ns"] / 1e3,
         "p99_post_us": mig_b["p99_post_ns"] / 1e3,
         "p50_post_us": mig_b["p50_post_ns"] / 1e3,
         "mice": mig_b["mice_delivered"]},
    ]
    return "\n".join([
        "migration parity (no-migration vs live-migration, cluster sums)",
        fmt_table(parity["rows"], columns=PARITY_COLUMNS),
        "",
        "the migration",
        fmt_table([mig_row]),
        "",
        "rebalancing a hot backend (victim mice latency)",
        fmt_table(reb_rows),
        "",
        f"headline: live migration is loss-free and counter-conserving "
        f"(max relative error {h['max_rel_err']:.4%} across cluster sums, "
        f"per-flow delivery identical, {h['stale_evals']} in-window packets "
        f"served by the old steering), and rebalancing the elephant cuts "
        f"victim p99 by {h['p99_improvement']:.1f}x",
    ])


if __name__ == "__main__":
    print(main())
