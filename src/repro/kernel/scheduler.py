"""Blocking and waking threads.

The §2 process-scheduling scenario hinges on this: with the kernel stack (or
KOPI's notification queues), a thread can *block* and leave its core idle;
with raw kernel bypass it must poll. The scheduler charges honest costs for
the luxury of blocking — interrupt delivery, scheduler work, and a context
switch on the woken thread's core — and records block/wake latencies.
"""

from __future__ import annotations

from typing import Any, Dict

from ..config import CostModel
from ..errors import KernelError
from ..host.cpu import CpuSet
from ..sim import MetricSet, Signal, Simulator
from ..trace import STAGE_SCHED_WAKE
from .process import PROC_BLOCKED, PROC_RUNNING, Process


class KernelScheduler:
    """Block/wake machinery over a :class:`~repro.host.cpu.CpuSet`."""

    def __init__(self, sim: Simulator, cpus: CpuSet, costs: CostModel, tracer=None):
        self.sim = sim
        self.cpus = cpus
        self.costs = costs
        self.metrics = MetricSet("sched")
        self.tracer = tracer
        self._waiters: Dict[int, "tuple[Signal, int]"] = {}

    def block(self, proc: Process, reason: str = "") -> Signal:
        """Put ``proc`` to sleep. The returned signal fires (with the value
        passed to :meth:`wake`) once the thread is back on its core.

        The core is *not* occupied while blocked — that is the whole point.
        """
        if proc.pid in self._waiters:
            raise KernelError(f"pid {proc.pid} is already blocked")
        proc.set_state(PROC_BLOCKED)
        woken = Signal(f"wake.pid{proc.pid}.{reason}")
        self._waiters[proc.pid] = (woken, self.sim.now)
        self.metrics.counter("blocks").inc()
        return woken

    def wake(self, proc: Process, value: Any = None, via_interrupt: bool = True) -> None:
        """Wake a blocked thread.

        Charges interrupt delivery (when ``via_interrupt``), scheduler
        bookkeeping, and a context switch, all on the thread's core, before
        the thread resumes.
        """
        entry = self._waiters.pop(proc.pid, None)
        if entry is None:
            raise KernelError(f"pid {proc.pid} is not blocked")
        woken, blocked_at = entry
        cost = self.costs.wakeup_schedule_ns + self.costs.context_switch_ns
        if via_interrupt:
            cost += self.costs.interrupt_ns
        if self.tracer is not None:
            # Wakes happen after the packet's context closes (delivery to the
            # socket queue), so this is loose per-message work, not a span.
            self.tracer.loose(STAGE_SCHED_WAKE, cost,
                              label="irq_wake" if via_interrupt else "wake")
        core = self.cpus[proc.core_id]
        resume = core.execute(cost, label=f"wake-pid{proc.pid}")

        def _resumed(_sig: Signal) -> None:
            proc.set_state(PROC_RUNNING)
            self.metrics.histogram("block_ns").observe(self.sim.now - blocked_at)
            self.metrics.counter("wakes").inc()
            woken.succeed(value)

        resume.add_callback(_resumed)

    def is_blocked(self, pid: int) -> bool:
        return pid in self._waiters

    @property
    def blocked_count(self) -> int:
        return len(self._waiters)

    def wake_latency_ns(self, via_interrupt: bool = True) -> int:
        """The fixed cost a wake adds before the thread runs again."""
        cost = self.costs.wakeup_schedule_ns + self.costs.context_switch_ns
        if via_interrupt:
            cost += self.costs.interrupt_ns
        return cost
