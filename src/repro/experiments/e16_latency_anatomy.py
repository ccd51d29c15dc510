"""E16 — latency anatomy: where every nanosecond of E1/E2 goes.

E1 and E2 report per-plane *totals* (host CPU per packet, mean one-way
latency). This experiment turns tracing on and decomposes those totals into
the stage taxonomy of :mod:`repro.trace` — syscall, copy, protocol,
netfilter/overlay, qdisc, rings, DMA, NIC pipeline, coherence, wire,
scheduling waits — per plane, per packet.

Two cross-checks make the decomposition trustworthy rather than decorative:

* **CPU conservation**: the tracer's attributed CPU nanoseconds (context
  spans with ``cpu=True`` plus loose work) must reproduce the measured
  ``host_cpu_ns_per_pkt`` of the same run within 1%.
* **Latency conservation**: per-packet span sums must equal the measured
  end-to-end latency exactly ("no lost nanoseconds"), so the traced mean
  latency matches the measured mean within 1%.

With those holding, the headline ratio (kernel vs KOPI host CPU with the
same 8-rule policy chain installed — E2's 13-14x) is reproduced *from the
stage decomposition itself*: the kernel's syscall+copy+proto columns are
the tax, and KOPI's near-empty CPU columns are the point of the paper.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..config import DEFAULT_COSTS, CostModel
from ..trace.stages import STAGES
from .common import Row, fmt_table, planes_under_test, run_bulk_tx
from .e2_interposition_placement import N_RULES, _install_rules

PAYLOAD = 1_458
DEFAULT_COUNT = 300

# Planes that can host E2's 8-rule chain; bypass and the hypervisor vswitch
# run uninterposed (bypass cannot interpose at all).
INTERPOSABLE = {"kernel", "sidecar", "kopi"}


def run_e16(
    count: int = DEFAULT_COUNT, costs: CostModel = DEFAULT_COSTS
) -> Dict[str, object]:
    """Traced bulk-TX on every plane. Returns ``{"rows", "stage_rows",
    "reports"}``: the per-plane summary table, the per-plane per-stage
    mean-ns table, and each plane's raw tracer report."""
    traced = replace(costs, trace=True)
    rows: List[Row] = []
    stage_rows: List[Row] = []
    reports: Dict[str, dict] = {}
    for plane_cls in planes_under_test():
        setup = _install_rules if plane_cls.name in INTERPOSABLE else None
        row = run_bulk_tx(
            plane_cls, PAYLOAD, count, costs=traced, setup=setup, return_tb=True
        )
        tb = row.pop("tb")
        tracer = tb.machine.tracer
        rep = tracer.report()
        reports[plane_cls.name] = rep

        closed = tracer.closed_contexts()
        conserved = all(c.span_sum() == c.latency_ns() for c in closed)
        pkts = max(int(row["delivered"]), 1)
        traced_cpu_pp = rep["cpu_ns_total"] / pkts
        traced_lat_us = (rep["latency"]["mean"] or 0.0) / 1_000.0
        measured_cpu_pp = float(row["host_cpu_ns_per_pkt"])
        measured_lat_us = float(row["latency_us_mean"])
        rows.append(
            {
                "plane": plane_cls.name,
                "interposed": setup is not None,
                "pkts": pkts,
                "cpu_ns_per_pkt": measured_cpu_pp,
                "traced_cpu_ns_per_pkt": traced_cpu_pp,
                "cpu_err_pct": 100.0 * abs(traced_cpu_pp - measured_cpu_pp)
                / max(measured_cpu_pp, 1e-9),
                "latency_us": measured_lat_us,
                "traced_latency_us": traced_lat_us,
                "conserved": conserved,
            }
        )
        for stage in STAGES:
            summ = rep["stages"].get(stage)
            loose = rep["loose"].get(stage)
            if summ is None and loose is None:
                continue
            per_pkt = (summ["mean"] * summ["count"] / pkts) if summ else 0.0
            stage_rows.append(
                {
                    "plane": plane_cls.name,
                    "stage": stage,
                    "ns_per_pkt": per_pkt,
                    "p50_ns": summ["p50"] if summ else 0.0,
                    "p99_ns": summ["p99"] if summ else 0.0,
                    "loose_ns_per_pkt": (loose["ns"] / pkts) if loose else 0.0,
                }
            )
    return {"rows": rows, "stage_rows": stage_rows, "reports": reports}


def headline(result: Dict[str, object]) -> dict:
    rows = {r["plane"]: r for r in result["rows"]}
    kernel = rows["kernel"]
    kopi = rows["kopi"]
    return {
        "kernel_vs_kopi_cpu_traced": (
            kernel["traced_cpu_ns_per_pkt"]
            / max(kopi["traced_cpu_ns_per_pkt"], 1e-9)
        ),
        "kernel_vs_kopi_cpu_measured": (
            kernel["cpu_ns_per_pkt"] / max(kopi["cpu_ns_per_pkt"], 1e-9)
        ),
        "max_cpu_err_pct": max(r["cpu_err_pct"] for r in result["rows"]),
        "max_latency_err_pct": max(
            100.0
            * abs(r["traced_latency_us"] - r["latency_us"])
            / max(r["latency_us"], 1e-9)
            for r in result["rows"]
        ),
        "all_conserved": all(r["conserved"] for r in result["rows"]),
    }


def main() -> str:
    result = run_e16()
    h = headline(result)
    return "\n".join(
        [
            fmt_table(result["rows"]),
            "",
            fmt_table(result["stage_rows"]),
            "",
            f"headline: the stage decomposition reproduces E2's ratio — with "
            f"the same {N_RULES}-rule chain, kernel placement costs "
            f"{h['kernel_vs_kopi_cpu_traced']:.1f}x KOPI host CPU per packet "
            f"(measured {h['kernel_vs_kopi_cpu_measured']:.1f}x, attribution "
            f"error {h['max_cpu_err_pct']:.2f}%); span sums conserve "
            f"end-to-end latency on every plane: {h['all_conserved']}",
        ]
    )


if __name__ == "__main__":
    print(main())
