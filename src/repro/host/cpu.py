"""CPU cores with busy/idle accounting.

A :class:`Core` is a non-preemptive FIFO resource: work submitted to it runs
back-to-back in submission order. Simulated processes use it as::

    yield core.execute(cost_ns)        # compute for cost_ns on this core

Polling loops therefore naturally drive a core to ~100% utilization while a
blocked process leaves it idle — which is exactly the contrast experiment E6
measures.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import CostModel
from ..errors import SimulationError
from ..sim import Signal, Simulator
from ..trace import STAGE_SCHED_WAKE


class Core:
    """One CPU core. Work is serialized; busy time is accounted exactly."""

    def __init__(self, sim: Simulator, core_id: int, costs: CostModel):
        self.sim = sim
        self.core_id = core_id
        self.costs = costs
        self.busy_ns = 0
        self._free_at = 0

    def execute(self, cost_ns: int, label: str = "", ctx=None) -> Signal:
        """Occupy the core for ``cost_ns``; the signal fires on completion.

        Work queues behind anything already submitted, so two processes
        sharing a core serialize — the physical-movement experiments rely on
        this to charge a busy sidecar core honestly.

        ``ctx`` (a :class:`~repro.trace.TraceContext`, tracing only) gets a
        ``sched_wake`` span for any time the work queued behind a busy core,
        so traced packets conserve nanoseconds even under contention. The
        work itself is charged to its proper stage by the caller.
        """
        if cost_ns < 0:
            raise SimulationError(f"negative execute cost: {cost_ns}")
        start = max(self._free_at, self.sim.now)
        if ctx is not None and start > self.sim.now:
            ctx.add(STAGE_SCHED_WAKE, start - self.sim.now, cpu=False,
                    label="cpu_queue")
        end = start + cost_ns
        self._free_at = end
        self.busy_ns += cost_ns
        done = Signal(f"core{self.core_id}.exec.{label}")
        # The signal rides in the event's arguments: a bound done.succeed
        # would be one more object per completion for the GC to track.
        self.sim.at(end, Signal.succeed, done, end)
        return done

    def utilization(self, elapsed_ns: Optional[int] = None) -> float:
        """Fraction of time busy over ``elapsed_ns`` (default: since t=0)."""
        window = elapsed_ns if elapsed_ns is not None else self.sim.now
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_ns / window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.core_id} busy={self.busy_ns}ns>"


class CpuSet:
    """The host's cores, with simple pinning bookkeeping."""

    def __init__(self, sim: Simulator, n_cores: int, costs: CostModel):
        if n_cores < 1:
            raise SimulationError(f"need at least one core, got {n_cores}")
        self.cores: List[Core] = [Core(sim, i, costs) for i in range(n_cores)]
        self._pins: dict = {}

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, idx: int) -> Core:
        return self.cores[idx]

    def pin(self, owner: object, core_id: int) -> Core:
        """Record that ``owner`` runs on ``core_id`` and return the core."""
        core = self.cores[core_id]
        self._pins[owner] = core
        return core

    def pinned_core(self, owner: object) -> Optional[Core]:
        return self._pins.get(owner)

    def least_loaded(self) -> Core:
        """Core with the least accumulated busy time (ties: lowest id)."""
        return min(self.cores, key=lambda c: (c.busy_ns, c.core_id))

    def total_busy_ns(self) -> int:
        return sum(c.busy_ns for c in self.cores)
