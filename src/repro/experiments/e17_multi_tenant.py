"""E17 — noisy neighbor: per-tenant NIC scheduling removes the interference.

The paper's argument is that interposition matters *because the NIC is
shared*: many mutually distrusting tenants contend for one SmartNIC
pipeline, one flowtable, one DMA link, one wire. This experiment puts that
sharing under stress — one closed-loop hog against N paced victims on a
deliberately modest link — and measures what the victims feel, three ways:

* **solo** — victims alone (tenant attribution on, no hog): the baseline
  each victim's tail is judged against;
* **contended, isolation off** — the hog shares the factory FIFO egress
  with the victims: its backlog stands in front of every victim packet;
* **contended, isolation on** — ``tenant_isolation`` replaces the FIFO
  drain with a per-tenant DRR/WFQ scheduler (plus quota-capped flowtable
  and SRAM, and weighted-fair pipeline/DMA arbitration): the hog keeps
  only its share.

Victim one-way latency is decomposed with the E16 stage spine, so the
tables show not just *that* the hog hurts but *where* the interference
lands (almost entirely ``qdisc`` queue-wait) and that the scheduler
removes precisely that stage. The run asserts the isolation contract:
with isolation on, pooled victim p99 stays within 2x its solo baseline
while the hog still moves the bulk of the bytes; with isolation off, the
victim p99 degrades by far more than the ISOLATION_FACTOR bound.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Generator, List, Optional

from .. import units
from ..config import DEFAULT_COSTS, CostModel
from ..core import NormanOS
from ..apps.base import App
from ..dataplanes import Testbed
from ..dataplanes.testbed import PEER_IP
from ..sim import Histogram
from ..trace.stages import STAGES
from .common import Row, fmt_table

#: Victim destination ports are VICTIM_PORT_BASE + index; the hog uses 9000.
VICTIM_PORT_BASE = 10_000
HOG_PORT = 9_000

#: The isolation contract asserted by :func:`run_e17`: with the per-tenant
#: scheduler on, pooled victim p99 must stay within this factor of the solo
#: baseline; with it off, contention must exceed it (the off leg typically
#: lands orders of magnitude above).
ISOLATION_FACTOR = 2.0

DEFAULT_VICTIMS = 200
DEFAULT_VICTIM_COUNT = 25
DEFAULT_LINK_RATE_BPS = 10 * units.GBPS
#: Latency-sensitive tenants get a higher scheduler weight than the hog —
#: the operator knob the WFQ/DRR weights exist for.
VICTIM_WEIGHT = 4
VICTIM_PAYLOAD = 1_458

#: Per-victim send period such that the victims *collectively* offer ~2
#: Gbps (20% of the default link) regardless of N — the contention the
#: experiment measures must come from the hog, not from victim-on-victim
#: crowding growing with the tenant count.
def victim_period_ns(n_victims: int, payload_len: int = VICTIM_PAYLOAD) -> int:
    wire_bits = (payload_len + 54) * 8
    return max(15_000, (n_victims * wire_bits * units.SEC)
               // (2 * units.GBPS))


class PacedVictim(App):
    """Open-loop sender: one small message every ``period_ns``.

    Paced (not closed-loop) on purpose — a victim's offered load must not
    adapt to the hog's pressure, or the tail it suffers would be hidden
    by its own backoff. Each victim owns a distinct destination port so
    the peer's deliveries can be attributed per victim.
    """

    def __init__(self, testbed: Testbed, user: str, dport: int,
                 count: int, period_ns: int,
                 payload_len: int = VICTIM_PAYLOAD,
                 phase_ns: int = 0, **kwargs):
        super().__init__(testbed, comm=f"victim.{dport}", user=user, **kwargs)
        self.dport = dport
        self.count = count
        self.period_ns = period_ns
        self.payload_len = payload_len
        self.phase_ns = phase_ns
        self.sent = 0

    def run(self) -> Generator:
        yield self.ep.connect(PEER_IP, self.dport)
        if self.phase_ns:
            yield self.phase_ns
        for _ in range(self.count):
            ok = yield self.ep.send(self.payload_len)
            if ok:
                self.sent += 1
            yield self.period_ns


class Hog(App):
    """Closed-loop bulk sender on its own tenant: sends full-size frames
    as fast as the dataplane admits them until stopped."""

    def __init__(self, testbed: Testbed, user: str,
                 payload_len: int = 1_458, **kwargs):
        super().__init__(testbed, comm="hog", user=user, **kwargs)
        self.payload_len = payload_len
        self.sent = 0

    def run(self) -> Generator:
        yield self.ep.connect(PEER_IP, HOG_PORT)
        while True:
            ok = yield self.ep.send(self.payload_len)
            if ok:
                self.sent += 1


def _register_tenants(tb: Testbed, n_victims: int, with_hog: bool):
    """One uid-scoped tenant per victim plus (optionally) the hog's.

    The hog gets a flowtable quota and an SRAM cap — not load-bearing for
    the scheduling result, but they make the per-tenant pressure section
    non-trivial and mirror how an operator would actually confine it."""
    reg = tb.machine.tenants
    victims = []
    for i in range(n_victims):
        user = tb.user(f"victim{i}")
        victims.append(reg.register(f"victim{i}", uid=user.uid,
                                    weight=VICTIM_WEIGHT))
    hog = None
    if with_hog:
        user = tb.user("hog")
        hog = reg.register(
            "hog", uid=user.uid, weight=1,
            flow_quota=8, sram_quota_bytes=64 * 1024,
        )
    return victims, hog


def _run_leg(
    leg: str,
    with_hog: bool,
    isolation: bool,
    n_victims: int,
    victim_count: int,
    victim_period_ns: int,
    link_rate_bps: int,
    costs: CostModel,
) -> Dict[str, object]:
    leg_costs = replace(
        costs, tenants=True, tenant_isolation=isolation,
        flow_fastpath=True, trace=True,
    )
    tb = Testbed(NormanOS, costs=leg_costs, link_rate_bps=link_rate_bps)
    _register_tenants(tb, n_victims, with_hog)

    victims = [
        PacedVictim(
            tb, user=f"victim{i}", dport=VICTIM_PORT_BASE + i,
            count=victim_count, period_ns=victim_period_ns,
            # Phases spread the victims across one period so their load is
            # smooth; the stagger is deterministic, not random.
            phase_ns=(i * victim_period_ns) // max(n_victims, 1),
            core_id=2 + (i % 5),
        )
        for i in range(n_victims)
    ]
    hog = Hog(tb, user="hog", core_id=1) if with_hog else None

    for v in victims:
        v.start()
    if hog is not None:
        hog.start()
    # The measurement window comfortably covers every victim's schedule;
    # the hog (stopped after the window) contends throughout it.
    window_ns = (victim_count + 2) * victim_period_ns + 100_000
    tb.run(until=window_ns)
    if hog is not None:
        hog.stop()
    tb.run_all()

    victim_ports = {VICTIM_PORT_BASE + i for i in range(n_victims)}
    lat = Histogram(f"e17.{leg}.victim_latency")
    stage_ns: Dict[str, int] = {}
    n_traced = 0
    for pkt in tb.peer.received:
        if pkt.l4 is None or pkt.l4.dport not in victim_ports:
            continue
        if not (pkt.meta.created_ns or pkt.meta.delivered_ns):
            continue
        lat.observe(pkt.meta.delivered_ns - pkt.meta.created_ns)
        ctx = pkt.meta.trace
        if ctx is not None:
            n_traced += 1
            for stage, ns in ctx.by_stage().items():
                stage_ns[stage] = stage_ns.get(stage, 0) + ns
    hog_delivered = sum(
        1 for p in tb.peer.received
        if p.l4 is not None and p.l4.dport == HOG_PORT
    )
    fp = tb.machine.fastpath
    return {
        "leg": leg,
        "latency": lat,
        "stage_ns_per_pkt": {
            s: ns / max(n_traced, 1) for s, ns in stage_ns.items()
        },
        "victim_delivered": int(lat.count),
        "victim_sent": sum(v.sent for v in victims),
        "hog_delivered": hog_delivered,
        "hog_sent": hog.sent if hog is not None else 0,
        "window_ns": window_ns,
        "per_tenant_flows": fp.per_tenant() if fp is not None else {},
        "sram_by_tenant": tb.dataplane.nic.sram.used_by_tenant(),
        "tenant_names": {
            t.tid: t.name for t in tb.machine.tenants.tenants()
        },
        "sched_drops": tb.dataplane.nic.metrics.counter("tx_sched_drops").value,
    }


def run_e17(
    n_victims: int = DEFAULT_VICTIMS,
    victim_count: int = DEFAULT_VICTIM_COUNT,
    period_ns: Optional[int] = None,
    link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, object]:
    """Run the three legs and assert the isolation contract. Returns
    ``{"rows", "stage_rows", "legs", "headline"}``."""
    period = period_ns if period_ns is not None else victim_period_ns(n_victims)
    legs = {
        "solo": _run_leg("solo", False, False, n_victims, victim_count,
                         period, link_rate_bps, costs),
        "contended_off": _run_leg("contended_off", True, False, n_victims,
                                  victim_count, period,
                                  link_rate_bps, costs),
        "contended_on": _run_leg("contended_on", True, True, n_victims,
                                 victim_count, period,
                                 link_rate_bps, costs),
    }
    rows: List[Row] = []
    for leg in ("solo", "contended_off", "contended_on"):
        r = legs[leg]
        lat: Histogram = r["latency"]
        rows.append({
            "leg": leg,
            "victims": n_victims,
            "victim_pkts": r["victim_delivered"],
            "victim_p50_us": lat.p50 / units.US,
            "victim_p99_us": lat.p99 / units.US,
            "victim_max_us": lat.maximum / units.US,
            "hog_pkts": r["hog_delivered"],
            "sched_drops": r["sched_drops"],
        })
    stage_rows: List[Row] = []
    for stage in STAGES:
        vals = {
            leg: legs[leg]["stage_ns_per_pkt"].get(stage, 0.0)
            for leg in legs
        }
        if not any(vals.values()):
            continue
        stage_rows.append({
            "stage": stage,
            "solo_ns": vals["solo"],
            "off_ns": vals["contended_off"],
            "on_ns": vals["contended_on"],
            "hog_added_ns": vals["contended_off"] - vals["solo"],
            "removed_by_sched_ns": vals["contended_off"] - vals["contended_on"],
        })

    solo_p99 = legs["solo"]["latency"].p99
    off_p99 = legs["contended_off"]["latency"].p99
    on_p99 = legs["contended_on"]["latency"].p99
    headline = {
        "solo_p99_us": solo_p99 / units.US,
        "off_p99_x_solo": off_p99 / max(solo_p99, 1e-9),
        "on_p99_x_solo": on_p99 / max(solo_p99, 1e-9),
        "hog_share_on": (
            legs["contended_on"]["hog_delivered"]
            / max(legs["contended_on"]["hog_delivered"]
                  + legs["contended_on"]["victim_delivered"], 1)
        ),
        "interference_stage": max(
            (r for r in stage_rows), key=lambda r: r["hog_added_ns"],
        )["stage"] if stage_rows else "",
    }
    # The isolation contract, asserted — not just reported.
    assert headline["on_p99_x_solo"] <= ISOLATION_FACTOR, (
        f"isolation on: victim p99 {on_p99}ns exceeds "
        f"{ISOLATION_FACTOR}x solo baseline {solo_p99}ns"
    )
    assert headline["off_p99_x_solo"] > ISOLATION_FACTOR, (
        f"isolation off: victim p99 {off_p99}ns vs solo {solo_p99}ns — "
        f"expected unbounded degradation, hog is not contending"
    )
    assert legs["contended_on"]["hog_delivered"] > 0, "hog sent nothing"
    return {"rows": rows, "stage_rows": stage_rows, "legs": legs,
            "headline": headline}


def tenant_pressure_rows(leg: Dict[str, object]) -> List[Row]:
    """The per-tenant pressure table (quota occupancy without running the
    whole experiment — `repro report` renders this for the isolation leg)."""
    names: Dict[int, str] = leg["tenant_names"]
    flows: Dict[int, Dict[str, float]] = leg["per_tenant_flows"]
    sram: Dict[int, int] = leg["sram_by_tenant"]
    rows: List[Row] = []
    for tid in sorted(set(flows) | set(sram)):
        row = {"tid": tid, "tenant": names.get(tid, f"t{tid}")}
        f = flows.get(tid, {})
        row["flow_entries"] = int(f.get("entries", 0))
        row["flow_quota"] = int(f["quota"]) if "quota" in f else "-"
        row["hits"] = int(f.get("hits", 0))
        row["misses"] = int(f.get("misses", 0))
        row["evicted"] = int(f.get("evicted", 0))
        row["sram_B"] = sram.get(tid, 0)
        rows.append(row)
    return rows


def main() -> str:
    result = run_e17()
    h = result["headline"]
    on = result["legs"]["contended_on"]
    pressure = tenant_pressure_rows(on)
    # The full pressure table has one row per tenant (hundreds); show the
    # hog, the system tenant, and the busiest victims.
    pressure.sort(key=lambda r: (-int(r["hits"]) - int(r["misses"])))
    return "\n".join([
        fmt_table(result["rows"]),
        "",
        fmt_table(result["stage_rows"]),
        "",
        "per-tenant pressure (isolation leg, top 8 by flowtable traffic):",
        fmt_table(pressure[:8]),
        "",
        f"headline: one hog vs {result['rows'][0]['victims']} paced victims "
        f"on a shared {DEFAULT_LINK_RATE_BPS // units.GBPS} Gbps egress — "
        f"FIFO lets the hog inflate victim p99 to "
        f"{h['off_p99_x_solo']:.0f}x solo (interference lands in "
        f"'{h['interference_stage']}'); the per-tenant scheduler holds it "
        f"to {h['on_p99_x_solo']:.2f}x (bound {ISOLATION_FACTOR}x) while "
        f"the hog still carries {100 * h['hog_share_on']:.0f}% of delivered "
        f"packets",
    ])


if __name__ == "__main__":
    print(main())
