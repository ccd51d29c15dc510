"""Run every experiment and print one combined report.

Usage::

    python -m repro.experiments.report            # full (couple of minutes)
    python -m repro.experiments.report --quick    # reduced parameters

The output sections mirror EXPERIMENTS.md; this is the command that
regenerates the "measured" numbers recorded there.
"""

from __future__ import annotations

import sys

from . import e1_dataplane_overhead as e1
from . import e2_interposition_placement as e2
from . import e3_capability_matrix as e3
from . import e4_debugging as e4
from . import e5_port_partitioning as e5
from . import e6_blocking_io as e6
from . import e7_qos_shaping as e7
from . import e8_connection_scaling as e8
from . import e9_resource_exhaustion as e9
from . import e10_reconfiguration as e10
from . import e11_shared_rings as e11
from . import e12_batching as e12
from . import e13_zero_copy as e13
from . import e14_policy_churn as e14
from . import e15_flow_fastpath as e15
from . import e16_latency_anatomy as e16
from . import e17_multi_tenant as e17
from . import e18_cluster as e18
from . import e21_fidelity_crossover as e21
from . import e22_group_fastforward as e22
from . import e23_rack_fastforward as e23
from . import f1_architecture as f1
from . import s1_tail_latency as s1
from .common import fmt_table

#: Every experiment by its CLI name (``python -m repro <name>``): the
#: report section title and the ``main`` that prints its table.
SECTIONS = {
    "e1": ("E1 — dataplane overhead (§1)", e1.main),
    "e2": ("E2 — interposition placement (§1)", e2.main),
    "e3": ("E3 — capability matrix (§2)", e3.main),
    "e4": ("E4 — debugging the ARP flood (§2)", e4.main),
    "e5": ("E5 — partitioning ports (§2)", e5.main),
    "e6": ("E6 — blocking vs polling I/O (§2/§4.3)", e6.main),
    "e7": ("E7 — QoS on the port-hopping game (§2)", e7.main),
    "e8": ("E8 — connection scaling / DDIO cliff (§5)", e8.main),
    "e9": ("E9 — NIC resource exhaustion (§5)", e9.main),
    "e10": ("E10 — programmability & reconfiguration (§3/§4.4)", e10.main),
    "e11": ("E11 — shared-rings ablation (§5)", e11.main),
    "e12": ("E12 — batching: what amortizes and what cannot", e12.main),
    "e13": ("E13 — zero-copy: where elision pays and where it cannot", e13.main),
    "e14": ("E14 — policy churn: atomic commits and the stale window", e14.main),
    "e15": ("E15 — flow fast path: megaflow-style verdict cache", e15.main),
    "e16": ("E16 — latency anatomy: attributed stage decomposition", e16.main),
    "e17": ("E17 — multi-tenant isolation: hog vs victims, per-tenant scheduler", e17.main),
    "e18": ("E18 — cluster scale-out: in-switch L4 balancer + live flow migration", e18.main),
    "e21": ("E21 — fidelity crossover: hybrid fast-forward vs packet-exact", e21.main),
    "e22": ("E22 — group fast-forward: one epoch for many flows, TX absorbed", e22.main),
    "e23": ("E23 — rack fast-forward: end-to-end fluid epochs across the switch", e23.main),
    "f1": ("F1 — Figure 1 architecture arrows", f1.main),
    "s1": ("S1 — supplementary: RPC tail latency", s1.main),
}


def quick_report() -> str:
    """Reduced-parameter pass: every harness, small workloads."""
    parts = []
    parts.append("E1 (reduced)")
    parts.append(fmt_table(e1.run_e1(count=60, payloads=(1_458,))))
    parts.append("E2 (reduced)")
    parts.append(fmt_table(e2.run_e2(count=60)))
    parts.append("E8 (reduced)")
    parts.append(fmt_table(
        [e8.run_point(n, packets_total=2_048) for n in (512, 1_024, 2_048)]
    ))
    parts.append("F1")
    parts.append(fmt_table(f1.run_f1()))
    return "\n\n".join(parts)


def full_report() -> str:
    parts = []
    for title, main_fn in SECTIONS.values():
        parts.append("=" * 72)
        parts.append(title)
        parts.append("=" * 72)
        parts.append(main_fn())
    return "\n".join(parts)


def main(argv: "list[str]") -> str:
    if "--quick" in argv:
        return quick_report()
    return full_report()


if __name__ == "__main__":
    print(main(sys.argv[1:]))
