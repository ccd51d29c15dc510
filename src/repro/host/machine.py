"""The assembled host: cores + LLC + memory + DMA + coherence fabric."""

from __future__ import annotations

from typing import Optional

from .. import units
from ..config import DEFAULT_COSTS, CostModel
from ..interpose import FlowFastPath, PolicyEngine
from ..sim import Simulator
from ..sim.fastforward import FastForwardController
from ..trace import Tracer
from .cache import AnalyticDdioModel, WayPartitionedCache
from .coherence import CoherenceFabric
from .copies import CopyLedger
from .cpu import CpuSet
from .memory import MemorySystem
from .pcie import DmaEngine
from .tenants import TenantRegistry
from ..nic.tenant_sched import WeightedFairClock


class Machine:
    """One simulated server.

    ``structural_cache=True`` builds the set-associative LLC model as
    ``llc``, whose lines KOPI's DDIO writes touch (needed for E8); with
    ``False`` the cheaper analytic DDIO model is used and no per-line
    cache bookkeeping runs.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        costs: CostModel = DEFAULT_COSTS,
        n_cores: int = 8,
        memory_bytes: int = 256 * units.GB,
        structural_cache: bool = False,
    ):
        self.sim = sim or Simulator()
        self.costs = costs
        self.cpus = CpuSet(self.sim, n_cores, costs)
        self.memory = MemorySystem(memory_bytes, align=costs.cache_line_bytes)
        self.llc: Optional[WayPartitionedCache] = (
            WayPartitionedCache.from_costs(costs) if structural_cache else None
        )
        self.ddio_model = AnalyticDdioModel(costs)
        self.copies = CopyLedger()
        # Tenant registry: always present (resolution must never dangle),
        # passive until ``costs.tenants`` — nothing consults it on the
        # default path, which keeps the seed fingerprint byte-identical.
        self.tenants = TenantRegistry(costs)
        self.dma = DmaEngine(costs, ledger=self.copies)
        if costs.tenant_isolation:
            # Weighted fair arbitration of DMA bytes between tenants —
            # the fluid counterpart of the egress DRR scheduler.
            self.dma.fair_clock = WeightedFairClock(self.tenants, name="dma")
        self.coherence = CoherenceFabric(costs, ledger=self.copies)
        # Every interposition mechanism on this host (netfilter, qdiscs,
        # conntrack, taps, steering, overlays) registers here; see
        # repro.interpose for the commit/versioning contract.
        self.interpose = PolicyEngine(self.sim)
        # Megaflow-style verdict cache over the engine's points. None when
        # the cost-model flag is off: dataplanes guard every touch on that,
        # which is what keeps default-config traces seed-identical.
        self.fastpath: Optional[FlowFastPath] = (
            FlowFastPath(self.interpose, costs,
                         tenants=self.tenants if costs.tenants else None)
            if costs.flow_fastpath else None
        )
        # The tracing spine (repro.trace). Always wired so charging sites
        # can hold a reference unconditionally; disabled it never creates a
        # context, which is what keeps default-config traces seed-identical.
        self.tracer = Tracer(self.sim, enabled=costs.trace)
        # Hybrid-fidelity controller (repro.sim.fastforward). None unless
        # ``fast_forward`` is on; when wired, the policy engine's commit
        # stream and the verdict cache's miss/eviction stream become its
        # demotion boundaries, so fluid flows drop back to packet-exact
        # simulation wherever interposition state changes.
        self.ff: Optional[FastForwardController] = None
        if costs.fast_forward:
            self.ff = FastForwardController(self.sim, costs, self.tracer,
                                            self.cpus)
            self.interpose.on_commit.append(self.ff.on_policy_commit)
            assert self.fastpath is not None  # enforced by CostModel
            self.fastpath.demotion_hook = self.ff.on_fastpath_event

    @property
    def now(self) -> int:
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "structural" if self.llc is not None else "analytic"
        return f"<Machine cores={len(self.cpus)} llc={mode} t={self.sim.now}ns>"
