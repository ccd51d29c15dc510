"""PCIe DMA ledger and MMIO costs.

The NIC models price DMA inline from the :class:`~repro.config.CostModel`
(fixed latency plus bytes over ``pcie_bandwidth_bps``) and record the
movement here through :meth:`DmaEngine.account_placement`. Inbound DDIO
writes that the structural LLC must see are issued by the NIC against
:mod:`repro.host.cache` directly, one line address at a time.
"""

from __future__ import annotations

from typing import Optional

from ..config import CostModel
from ..sim import MetricSet
from .copies import CopyLedger


class DmaEngine:
    """Shared DMA engine between the NIC and host memory."""

    def __init__(self, costs: CostModel, ledger: Optional[CopyLedger] = None):
        self.costs = costs
        self.metrics = MetricSet("dma")
        self.ledger = ledger if ledger is not None else CopyLedger()
        #: Per-tenant weighted fair arbitration of PCIe bytes
        #: (:class:`~repro.nic.tenant_sched.WeightedFairClock`), read by
        #: ``KopiNic._dma_fair_gap`` to pace descriptor fetches. Wired by
        #: Machine only under ``tenant_isolation``; None keeps the seed's
        #: pure-FIFO drain pacing.
        self.fair_clock = None

    def account_placement(self, layer: str, nbytes: int, ns: int, ops: int = 1) -> None:
        """Ledger-only entry for DMA movement modeled by the caller (NIC
        ring posts, burst descriptor fetches). Records the bytes and the
        hardware time already charged by the caller — adds no cost itself."""
        self.ledger.charge(layer, nbytes, ns, ops=ops)

    # --- MMIO -------------------------------------------------------------

    def mmio_write_cost(self) -> int:
        """CPU-side cost of a posted register write (doorbell)."""
        self.metrics.counter("mmio_writes").inc()
        return self.costs.mmio_write_ns

    def mmio_read_cost(self) -> int:
        """CPU-side cost of a register read (full round trip)."""
        self.metrics.counter("mmio_reads").inc()
        return self.costs.mmio_read_ns
