"""Shared experiment plumbing: the plane roster, workload drivers, tables."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from .. import units
from ..config import DEFAULT_COSTS, CostModel
from ..core import NormanOS
from ..host.copies import CPU_COPY_LAYERS, LAYER_DMA, LAYER_DMA_DIRECT, CopyLedger
from ..dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    SidecarDataplane,
    Testbed,
)
from ..dataplanes.base import Dataplane
from ..apps import BulkSender

Row = Dict[str, object]


def planes_under_test(include_kopi: bool = True) -> List[Type[Dataplane]]:
    """The roster every comparative experiment sweeps."""
    planes: List[Type[Dataplane]] = [
        KernelPathDataplane,
        BypassDataplane,
        SidecarDataplane,
        HypervisorDataplane,
    ]
    if include_kopi:
        planes.append(NormanOS)
    return planes


def fmt_table(rows: Sequence[Row], columns: Optional[List[str]] = None) -> str:
    """Render rows as an aligned ASCII table (floats to 3 significant-ish
    places)."""
    if not rows:
        return "(no rows)"
    cols = columns or list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    widths = {
        c: max(len(c), max(len(cell(r.get(c, ""))) for r in rows)) + 2 for c in cols
    }
    out = ["".join(c.ljust(widths[c]) for c in cols)]
    out.append("".join("-" * (widths[c] - 2) + "  " for c in cols))
    for row in rows:
        out.append("".join(cell(row.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(out)


def copy_summary(ledger: CopyLedger) -> Dict[str, int]:
    """Condense a :class:`~repro.host.copies.CopyLedger` into the totals
    E13 plots: CPU-copied bytes/time (the §1 tax), elided bytes and their
    fixed overhead, and the hardware DMA movement that replaced copies."""
    return {
        "cpu_bytes_copied": ledger.cpu_bytes_copied(),
        "cpu_ns_copying": ledger.cpu_ns_copying(),
        "cpu_copies": ledger.copies(CPU_COPY_LAYERS),
        "bytes_elided": ledger.bytes_elided(),
        "elision_overhead_ns": ledger.elision_overhead_ns(),
        "dma_bytes": ledger.bytes_copied((LAYER_DMA,)),
        "dma_direct_bytes": ledger.bytes_copied((LAYER_DMA_DIRECT,)),
    }


def run_bulk_tx(
    plane_cls: Type[Dataplane],
    payload_len: int,
    count: int,
    costs: CostModel = DEFAULT_COSTS,
    app_core: int = 1,
    setup=None,
    burst: int = 1,
    latency_hist=None,
    with_copies: bool = False,
    return_tb: bool = False,
) -> Row:
    """Closed-loop TX measurement on one dataplane.

    Returns goodput, app-core and whole-host CPU per packet, mean one-way
    latency at the peer, and the dataplane's data-movement counters.
    ``setup(tb)`` may install policies before traffic starts. ``burst``
    makes the sender hand the dataplane batches of that size. Per-packet
    one-way latencies are additionally recorded into ``latency_hist`` (a
    :class:`~repro.sim.Histogram`) when one is passed.
    """
    tb = Testbed(plane_cls, costs=costs)
    if setup is not None:
        setup(tb)
        tb.run_all()  # let policy loads (overlays etc.) commit
    app = BulkSender(
        tb, comm="bulk", user="bob", core_id=app_core,
        payload_len=payload_len, count=count, burst=burst,
    )
    start_busy = tb.machine.cpus.total_busy_ns()
    app_busy0 = tb.machine.cpus[app_core].busy_ns
    # Align the trace window with the measurement window: setup-phase
    # charges (policy installs, overlay loads) are not part of the
    # steady-state anatomy. No-op with tracing off.
    tb.machine.tracer.reset()
    app.start()
    tb.run_all()

    delivered = [p for p in tb.peer.received if p.l4 is not None and p.l4.dport == 9000]
    latencies = [
        p.meta.delivered_ns - p.meta.created_ns
        for p in delivered
        if p.meta.created_ns and p.meta.delivered_ns
    ]
    if latency_hist is not None:
        latency_hist.extend(latencies)
    host_cpu = tb.machine.cpus.total_busy_ns() - start_busy
    app_cpu = tb.machine.cpus[app_core].busy_ns - app_busy0
    sent = max(app.sent, 1)
    row: Row = {
        "plane": plane_cls.name,
        "payload_B": payload_len,
        "delivered": len(delivered),
        "goodput_gbps": app.goodput_bps() / units.GBPS,
        "app_cpu_ns_per_pkt": app_cpu / sent,
        "host_cpu_ns_per_pkt": host_cpu / sent,
        "latency_us_mean": (sum(latencies) / len(latencies) / units.US) if latencies else 0.0,
        "movements": tb.dataplane.data_movements(),
    }
    if with_copies:
        # Opt-in so the default row shape (and every seed experiment's
        # table) stays byte-identical.
        row["copies"] = copy_summary(tb.machine.copies)
    if return_tb:
        # Opt-in handle on the testbed itself, for experiments that need
        # post-run state (E16 reads the tracer's stage attribution).
        row["tb"] = tb
    return row


def run_burst_tx(
    plane_cls: Type[Dataplane],
    payload_len: int,
    count: int,
    batch_size: int,
    costs: CostModel = DEFAULT_COSTS,
    app_core: int = 1,
    latency_hist=None,
) -> Row:
    """:func:`run_bulk_tx` with the whole stack in burst mode: the cost
    model's ``batch_size`` governs NIC/kernel amortization and the sender
    submits matching bursts. ``batch_size=1`` is exactly the per-packet
    path."""
    from dataclasses import replace

    batched = replace(costs, batch_size=batch_size)
    row = run_bulk_tx(
        plane_cls, payload_len, count, costs=batched, app_core=app_core,
        burst=batch_size, latency_hist=latency_hist,
    )
    row["batch"] = batch_size
    return row
