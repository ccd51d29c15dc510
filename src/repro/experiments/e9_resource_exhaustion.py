"""E9 — §5: "Can we prevent a KOPI from being vulnerable to resource
exhaustion?"

On-NIC SRAM holds per-connection state; it is small. We sweep SRAM size,
fill the NIC with connections, and measure (a) how many connections stay on
the fast path, (b) the throughput penalty for connections pushed to the
software fallback, and (c) the adversarial case: a greedy tenant exhausts
SRAM first, and the victim arriving later is degraded — exactly the attack
§5 worries about — followed by the mitigation (close the hog's
connections; the victim can re-open on the fast path).
"""

from __future__ import annotations

from typing import List

from .. import units
from ..config import DEFAULT_COSTS
from ..core import NormanOS
from ..dataplanes import Testbed
from ..net.headers import PROTO_UDP
from ..apps import BulkSender
from .common import Row, fmt_table

CONN_STATE = DEFAULT_COSTS.conn_state_bytes
SRAM_SWEEP = (8, 64, 512)  # in connections' worth of SRAM
OFFERED_CONNS = (4, 32, 256, 1_024)


def run_capacity_sweep() -> List[Row]:
    """How many connections fit before fallback begins, per SRAM size."""
    rows: List[Row] = []
    for sram_conns in SRAM_SWEEP:
        for offered in OFFERED_CONNS:
            costs = DEFAULT_COSTS.replace(smartnic_sram_bytes=sram_conns * CONN_STATE)
            tb = Testbed(NormanOS, costs=costs)
            proc = tb.spawn("srv", "bob", core_id=1)
            fallbacks = 0
            for i in range(offered):
                ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 10_000 + i)
                fallbacks += 1 if ep.conn.fallback else 0
            rows.append({
                "sram_kib": sram_conns * CONN_STATE / units.KB,
                "offered_conns": offered,
                "fast_path": offered - fallbacks,
                "fallback": fallbacks,
                "fallback_pct": 100 * fallbacks / offered,
            })
    return rows


def run_fallback_penalty(count: int = 200) -> List[Row]:
    """Throughput of one sender on the fast path vs the software fallback."""
    rows: List[Row] = []
    for label, costs in (("fast path", DEFAULT_COSTS),
                         ("fallback", DEFAULT_COSTS.replace(smartnic_sram_bytes=1))):
        tb = Testbed(NormanOS, costs=costs)
        app = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                         payload_len=1_458, count=count).start()
        busy0 = tb.machine.cpus[1].busy_ns
        tb.run_all()
        rows.append({
            "path": label,
            "fallback": app.ep.conn.fallback,
            "goodput_gbps": app.goodput_bps() / units.GBPS,
            "cpu_ns_per_pkt": (tb.machine.cpus[1].busy_ns - busy0) / max(app.sent, 1),
        })
    return rows


def run_adversary() -> List[Row]:
    """Greedy tenant exhausts SRAM; victim degrades; mitigation restores."""
    sram_conns = 64
    costs = DEFAULT_COSTS.replace(smartnic_sram_bytes=sram_conns * CONN_STATE)
    tb = Testbed(NormanOS, costs=costs)
    hog = tb.spawn("hog", "charlie", core_id=2)
    hog_eps = [tb.dataplane.open_endpoint(hog, PROTO_UDP, 20_000 + i)
               for i in range(sram_conns)]
    victim = tb.spawn("victim", "bob", core_id=1)
    victim_ep = tb.dataplane.open_endpoint(victim, PROTO_UDP, 5_432)
    degraded = victim_ep.conn.fallback

    # Mitigation: the operator (who, under KOPI, can SEE per-process NIC
    # usage) kills the hog; the victim reconnects onto the fast path.
    for ep in hog_eps:
        ep.close()
    victim_ep.close()
    victim_ep2 = tb.dataplane.open_endpoint(victim, PROTO_UDP, 5_432)
    return [{
        "phase": "under attack", "victim_on_fallback": degraded,
        "sram_util_pct": 100.0,
    }, {
        "phase": "after mitigation", "victim_on_fallback": victim_ep2.conn.fallback,
        "sram_util_pct": 100 * tb.dataplane.nic.sram.utilization(),
    }]


def main() -> str:
    cap = run_capacity_sweep()
    pen = run_fallback_penalty()
    adv = run_adversary()
    fast = next(r for r in pen if r["path"] == "fast path")
    slow = next(r for r in pen if r["path"] == "fallback")
    return "\n".join([
        "capacity (fallback begins when connection state outgrows SRAM):",
        fmt_table(cap),
        "",
        "fallback penalty (same sender, same workload):",
        fmt_table(pen),
        "",
        "adversarial exhaustion:",
        fmt_table(adv),
        "",
        f"headline: fallback costs {slow['cpu_ns_per_pkt'] / fast['cpu_ns_per_pkt']:.1f}x "
        f"CPU per packet and {fast['goodput_gbps'] / max(slow['goodput_gbps'], 1e-9):.1f}x "
        "less throughput — degraded, not dead",
    ])


if __name__ == "__main__":
    print(main())
