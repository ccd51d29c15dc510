"""E15 — flow fast path: megaflow-style verdict cache over the plane.

PR 3 unified every mechanism behind versioned interposition points; this
experiment measures what that buys on the datapath. With
``CostModel.flow_fastpath`` on, the first packet of a flow walks the full
slow path (netfilter chains, qdisc classification, vswitch match-action,
NIC steering, overlay filters, conntrack) and the composed outcome is
cached under the five-tuple; every later packet pays one exact-match
lookup (``flowtable_hit_ns``) instead of re-walking N rules — the OVS
megaflow / netfilter-flowtable structure, applied uniformly to all five
architectures.

Three questions, three sweeps:

* **(a) per-plane speedup** — the same bidirectional stream on every
  plane, fast path off vs on, with a deliberately long (but non-matching)
  rule chain installed where the plane supports one. Reports modeled CPU
  per packet, slow-path filter evaluations per packet, and the cache hit
  rate. Steady-state traffic is a handful of flows, so the hit rate should
  be ≥ 90% and filter evaluations should collapse to ~one per flow.
* **(b) wall-clock speedup** — :func:`run_e8_wallclock` replays the E8
  connection-scaling point with the cache on and off and measures real
  seconds: the cache elides Python-level rule walks, so the simulator
  itself runs faster (recorded in the E15 bench artifact).
* **(c) churn sensitivity** — the E14 scenario: an operator toggles an
  unrelated rule at increasing rates while the stream runs. Every commit
  bumps the engine epoch and lazily invalidates the whole cache, so the
  hit rate degrades from its steady-state ceiling as churn approaches the
  per-flow packet interval — the revalidation cost megaflows pay too.
"""

from __future__ import annotations

import time
from typing import List, Optional, Type

from .. import units
from ..apps import BulkSender
from ..config import DEFAULT_COSTS, CostModel
from ..dataplanes import KernelPathDataplane, Testbed
from ..dataplanes.base import Dataplane
from ..errors import UnsupportedOperation
from ..kernel.netfilter import CHAIN_OUTPUT, NetfilterRule
from ..net.headers import PROTO_UDP
from ..tools import Iptables
from .common import Row, fmt_table, planes_under_test
from . import e8_connection_scaling as e8

#: Distractor chain length: rules that never match the stream, so verdicts
#: are identical with the cache on — only the walk cost disappears.
DEFAULT_RULES = 16

#: Churn toggle intervals (kernel plane); ``None`` is the no-churn baseline.
INTERVALS_NS: "tuple[Optional[int], ...]" = (None, 200_000, 50_000, 10_000)

DEFAULT_COUNT = 256
PAYLOAD = 1_458

PLANE_COLUMNS = [
    "plane", "rules", "delivered", "cpu_off_ns_pkt", "cpu_on_ns_pkt",
    "cpu_speedup", "filter_evals_off", "filter_evals_on", "hit_rate",
]

CHURN_COLUMNS = [
    "interval_us", "commits", "hit_rate", "invalidated", "installs",
    "delivered",
]


def _install_rules(tb: Testbed, n: int) -> int:
    """Install ``n`` header-only DROP rules that never match the workload
    (high dports). Planes without a filtering point (bypass) install
    none — exactly the paper's capability gap."""
    installed = 0
    for i in range(n):
        try:
            tb.dataplane.install_filter_rule(
                NetfilterRule(
                    verdict="DROP", chain=CHAIN_OUTPUT, proto=PROTO_UDP,
                    dport=60_000 + i, comment=f"e15 distractor {i}",
                )
            )
        except UnsupportedOperation:
            break
        installed += 1
    tb.run_all()  # async planes (KOPI overlays) commit before traffic
    return installed


def _filter_evals(tb: Testbed) -> int:
    """Slow-path filter evaluations recorded by whichever point enforces
    filtering on this plane (cache hits never reach the point)."""
    engine = tb.machine.interpose
    total = 0
    for name in ("netfilter", "overlay_filters", "vswitch"):
        point = engine.find(name)
        if point is not None:
            total += point.evaluated
    return total


def run_plane_point(
    plane_cls: Type[Dataplane],
    fastpath: bool,
    count: int = DEFAULT_COUNT,
    rules: int = DEFAULT_RULES,
    costs: CostModel = DEFAULT_COSTS,
) -> Row:
    """One cell: a closed-loop TX stream plus a reply stream back into the
    sender's port, with ``rules`` distractor rules installed."""
    tb = Testbed(plane_cls, costs=costs.replace(flow_fastpath=fastpath))
    installed = _install_rules(tb, rules)
    app = BulkSender(
        tb, comm="bulk", user="bob", core_id=1, payload_len=PAYLOAD, count=count
    )
    host_busy0 = tb.machine.cpus.total_busy_ns()
    app.start()
    tb.run_all()
    # Reply direction: the peer streams back into the sender's port, so
    # the INPUT/RX chains and NIC steering see repeated flows too.
    gap = units.transmit_time_ns(PAYLOAD + 50, tb.ingress.rate_bps) + 10
    base = tb.sim.now + 1_000
    for i in range(count):
        tb.sim.at(base + i * gap, tb.peer.send_udp, 9_000, app.ep.port, PAYLOAD)
    tb.run_all()

    delivered = [
        p for p in tb.peer.received if p.l4 is not None and p.l4.dport == 9_000
    ]
    host_cpu = tb.machine.cpus.total_busy_ns() - host_busy0
    pkts = max(len(delivered) + count, 1)
    fp = tb.machine.fastpath
    return {
        "plane": plane_cls.name,
        "fastpath": "on" if fastpath else "off",
        "rules": installed,
        "delivered": len(delivered),
        "goodput_gbps": app.goodput_bps() / units.GBPS,
        "host_cpu_ns_pkt": host_cpu / pkts,
        "sim_us": tb.sim.now / units.US,
        "filter_evals": _filter_evals(tb),
        "hit_rate": fp.hit_rate if fp is not None else 0.0,
        "fp_hits": fp.hits if fp is not None else 0,
        "fp_misses": fp.misses if fp is not None else 0,
        "fp_entries": len(fp) if fp is not None else 0,
    }


def run_e15_planes(
    count: int = DEFAULT_COUNT,
    rules: int = DEFAULT_RULES,
    costs: CostModel = DEFAULT_COSTS,
) -> List[Row]:
    """Sweep (a): every plane, cache off vs on, folded to one row each."""
    rows: List[Row] = []
    for plane_cls in planes_under_test():
        off = run_plane_point(plane_cls, False, count=count, rules=rules, costs=costs)
        on = run_plane_point(plane_cls, True, count=count, rules=rules, costs=costs)
        cpu_off = float(off["host_cpu_ns_pkt"])
        cpu_on = float(on["host_cpu_ns_pkt"])
        rows.append({
            "plane": plane_cls.name,
            "rules": off["rules"],
            "delivered": on["delivered"],
            "cpu_off_ns_pkt": cpu_off,
            "cpu_on_ns_pkt": cpu_on,
            "cpu_speedup": cpu_off / cpu_on if cpu_on else 0.0,
            "filter_evals_off": off["filter_evals"],
            "filter_evals_on": on["filter_evals"],
            "hit_rate": on["hit_rate"],
        })
    return rows


def run_churn_point(
    interval_ns: Optional[int],
    count: int = DEFAULT_COUNT,
    rules: int = DEFAULT_RULES,
    costs: CostModel = DEFAULT_COSTS,
) -> Row:
    """Sweep (c): kernel plane, cache on, an unrelated rule toggled every
    ``interval_ns`` — each commit bumps the engine epoch and the next
    lookup per flow discovers its entry stale."""
    tb = Testbed(
        KernelPathDataplane, costs=costs.replace(flow_fastpath=True)
    )
    _install_rules(tb, rules)
    ipt = Iptables(tb.dataplane, tb.kernel)
    app = BulkSender(
        tb, comm="bulk", user="bob", core_id=1, payload_len=PAYLOAD, count=count
    )
    point = tb.machine.interpose.get("netfilter")
    updates0 = point.version
    state = {"installed": False}

    def _toggle() -> None:
        # Add/delete one unrelated rule (never a flush: the distractor
        # chain must stay put so the slow-path walk is equally long at
        # every churn rate). Both directions are commits — each bumps the
        # engine epoch and invalidates every cached flow.
        if state["installed"]:
            ipt(f"-D OUTPUT {rules + 1}")  # the appended toggle rule
        else:
            ipt("-A OUTPUT -p udp --dport 9999 -j DROP")
        state["installed"] = not state["installed"]
        if app.sent < count:
            tb.sim.after(interval_ns, _toggle)

    app.start()
    if interval_ns is not None:
        tb.sim.after(interval_ns, _toggle)
    tb.run_all()

    fp = tb.machine.fastpath
    assert fp is not None
    delivered = [
        p for p in tb.peer.received if p.l4 is not None and p.l4.dport == 9_000
    ]
    return {
        "interval_us": interval_ns / units.US if interval_ns is not None else 0.0,
        "commits": point.version - updates0,
        "hit_rate": fp.hit_rate,
        "invalidated": fp.invalidated,
        "installs": fp.metrics.counter("installs").value,
        "delivered": len(delivered),
    }


def run_e15_churn(
    intervals: "tuple[Optional[int], ...]" = INTERVALS_NS,
    count: int = DEFAULT_COUNT,
    costs: CostModel = DEFAULT_COSTS,
) -> List[Row]:
    return [run_churn_point(iv, count=count, costs=costs) for iv in intervals]


def run_e8_wallclock(
    n_conns: int = 1_024,
    packets_total: int = 8_192,
    rules: int = 8,
    costs: CostModel = DEFAULT_COSTS,
) -> Row:
    """Sweep (b): the E8 connection-scaling point under a ``rules``-deep
    filter chain, cache off vs on, in real seconds. On KOPI the chain
    compiles to an overlay program the NIC *executes per packet* — a
    Python-level interpreter loop the cache elides down to once per flow,
    so the replay itself gets faster (this is the one wall-clock
    measurement in the suite — bench-only, never part of a deterministic
    fingerprint)."""

    def _setup(tb: Testbed) -> None:
        for i in range(rules):
            tb.dataplane.install_filter_rule(
                NetfilterRule(
                    verdict="DROP", chain="INPUT", proto=PROTO_UDP,
                    dport=60_000 + i, comment=f"e15 distractor {i}",
                )
            )

    t0 = time.perf_counter()
    off = e8.run_point(n_conns, packets_total, costs=costs, setup=_setup)
    wall_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    on = e8.run_point(
        n_conns, packets_total,
        costs=costs.replace(flow_fastpath=True), setup=_setup,
    )
    wall_on = time.perf_counter() - t0
    return {
        "connections": n_conns,
        "packets": packets_total,
        "wall_s_off": wall_off,
        "wall_s_on": wall_on,
        "wall_speedup": wall_off / wall_on if wall_on else 0.0,
        "hit_rate": on.get("fastpath_hit_rate", 0.0),
        "goodput_off_gbps": off["goodput_gbps"],
        "goodput_on_gbps": on["goodput_gbps"],
    }


def headline(plane_rows: List[Row], churn_rows: List[Row]) -> dict:
    kernel = next(r for r in plane_rows if r["plane"] == "kernel")
    baseline = next(r for r in churn_rows if r["interval_us"] == 0.0)
    fastest = min(
        (r for r in churn_rows if r["interval_us"]),
        key=lambda r: r["interval_us"],
        default=None,
    )
    return {
        "kernel_hit_rate": kernel["hit_rate"],
        "kernel_cpu_speedup": kernel["cpu_speedup"],
        "kernel_evals_off": kernel["filter_evals_off"],
        "kernel_evals_on": kernel["filter_evals_on"],
        "steady_state_hit_rate": baseline["hit_rate"],
        "churn_hit_rate": fastest["hit_rate"] if fastest is not None else None,
    }


def main() -> str:
    plane_rows = run_e15_planes()
    churn_rows = run_e15_churn()
    h = headline(plane_rows, churn_rows)
    return "\n".join([
        "per-plane: fast path off vs on (distractor rules installed)",
        fmt_table(plane_rows, columns=PLANE_COLUMNS),
        "",
        "churn sensitivity (kernel plane, cache on)",
        fmt_table(churn_rows, columns=CHURN_COLUMNS),
        "",
        f"headline: kernel-path hit rate {h['kernel_hit_rate']:.3f} with "
        f"{h['kernel_evals_on']} slow-path filter evals (vs "
        f"{h['kernel_evals_off']} without the cache); churn at the fastest "
        f"toggle rate drags the hit rate to {h['churn_hit_rate']:.3f}",
    ])


if __name__ == "__main__":
    print(main())
