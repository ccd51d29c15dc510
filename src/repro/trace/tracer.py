"""The tracing spine: spans, per-packet contexts, and the ``charge`` chokepoint.

Every cost-charging site in the tree routes its nanoseconds through
:func:`charge` (per-packet, attributed to a :class:`TraceContext`) or
:meth:`Tracer.loose` (work that cannot be pinned to one packet: wakeups,
poll spins, app serve loops). Both return the cost unchanged, so call sites
compose with the existing ``work = a + b + c`` arithmetic — tracing observes
the schedule, it never perturbs it.

Two invariants make the data trustworthy:

* **Default-off is free.** With ``CostModel.trace`` off no context is ever
  created, ``charge(..., ctx=None)`` is a returns-its-argument no-op, and the
  seed event trace stays byte-identical.
* **No lost nanoseconds.** For every closed context, the span sum equals the
  end-to-end latency (``closed_ns - t0_ns``). Deterministic delays are
  charged where they are scheduled; variable waits (ring residency, qdisc
  backlog, a busy core) are closed out with :meth:`TraceContext.fill_gap`
  at the hand-off points where the elapsed time becomes known.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.metrics import Histogram
from .stages import STAGES


class Span:
    """One attributed slice of a packet's life: ``ns`` in ``stage``.

    ``cpu`` distinguishes nanoseconds that occupy a core (and therefore show
    up in ``Core.busy_ns``) from hardware/wire time that elapses without
    burning cycles — E16 compares the CPU subset against measured core busy
    deltas.
    """

    __slots__ = ("stage", "ns", "cpu", "label")

    def __init__(self, stage: str, ns: int, cpu: bool = True, label: str = ""):
        self.stage = stage
        self.ns = ns
        self.cpu = cpu
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "cpu" if self.cpu else "hw"
        tag = f" {self.label}" if self.label else ""
        return f"<Span {self.stage}{tag} {self.ns}ns {kind}>"


class TraceContext:
    """The span tree of one packet, from first charge to delivery."""

    __slots__ = ("trace_id", "plane", "t0_ns", "closed_ns", "spans")

    def __init__(self, trace_id: int, plane: str, t0_ns: int):
        self.trace_id = trace_id
        self.plane = plane
        self.t0_ns = t0_ns
        self.closed_ns: Optional[int] = None
        self.spans: List[Span] = []

    def add(self, stage: str, ns: int, cpu: bool = True, label: str = "") -> None:
        self.spans.append(Span(stage, ns, cpu, label))

    def span_sum(self) -> int:
        return sum(s.ns for s in self.spans)

    def cpu_ns(self) -> int:
        return sum(s.ns for s in self.spans if s.cpu)

    def by_stage(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.spans:
            out[s.stage] = out.get(s.stage, 0) + s.ns
        return out

    def fill_gap(self, stage: str, now_ns: int, cpu: bool = False,
                 label: str = "wait") -> int:
        """Charge whatever elapsed time the spans recorded so far do not
        cover, attributing it to ``stage``. Used at hand-off points (ring
        consume, descriptor fetch) where residency only becomes known when
        the next hop picks the packet up. Returns the gap charged."""
        gap = (now_ns - self.t0_ns) - self.span_sum()
        if gap > 0:
            self.add(stage, gap, cpu=cpu, label=label)
            return gap
        return 0

    @property
    def closed(self) -> bool:
        return self.closed_ns is not None

    def close(self, now_ns: int) -> None:
        if self.closed_ns is None:
            self.closed_ns = now_ns

    def latency_ns(self) -> int:
        if self.closed_ns is None:
            raise ValueError(f"trace #{self.trace_id} is still open")
        return self.closed_ns - self.t0_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"closed@{self.closed_ns}" if self.closed else "open"
        return (f"<TraceContext #{self.trace_id} {self.plane} "
                f"t0={self.t0_ns} {len(self.spans)} spans {state}>")


def charge(stage: str, cost_ns: int, ctx: Optional[TraceContext],
           cpu: bool = True, label: str = "") -> int:
    """The chokepoint: attribute ``cost_ns`` to ``stage`` on ``ctx`` and
    return it unchanged. With tracing off every ``ctx`` is ``None`` and this
    is a no-op, so charging sites can wrap their arithmetic unconditionally."""
    if ctx is not None and cost_ns > 0:
        ctx.add(stage, cost_ns, cpu=cpu, label=label)
    return cost_ns


class Tracer:
    """Per-machine span collector.

    Lives on :class:`~repro.host.machine.Machine` (like the flow fast path,
    it is wired whether or not it is enabled; disabled it creates nothing).
    The active dataplane stamps :attr:`plane` at construction so every
    context carries its plane tag for per-plane per-stage histograms.
    """

    def __init__(self, sim, enabled: bool = False, plane: str = "host"):
        self.sim = sim
        self.enabled = enabled
        self.plane = plane
        self.contexts: List[TraceContext] = []
        self._next_id = 1
        # (plane, stage) -> [total_ns, cpu_ns, ops] for work with no packet.
        self._loose: Dict[Tuple[str, str], List[int]] = {}
        # Fluid epochs: (plane, packet count, span tuples). One entry stands
        # for ``count`` identical packets whose per-packet spans are the
        # given (stage, ns, cpu, label) tuples — the hybrid-fidelity engine
        # records its bulk charges here so per-stage histograms and latency
        # summaries weight them as count packets, not one.
        self._epochs: List[Tuple[str, int,
                                 Tuple[Tuple[str, int, bool, str], ...]]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, pkt, plane: Optional[str] = None) -> Optional[TraceContext]:
        """Open a context for ``pkt`` (stamped onto ``pkt.meta.trace``) at
        ``sim.now``. Returns ``None`` when tracing is disabled. A packet that
        already carries a *closed* context (a TX trace arriving at the far
        host's NIC) gets a fresh one; the old context stays retained."""
        if not self.enabled:
            return None
        ctx = TraceContext(self._next_id, plane or self.plane, self.sim.now)
        self._next_id += 1
        self.contexts.append(ctx)
        pkt.meta.trace = ctx
        return ctx

    def loose(self, stage: str, ns: int, cpu: bool = True, label: str = "") -> int:
        """Attribute work that belongs to the plane but not to any single
        packet (wakeups after delivery, poll spins, app serve loops).
        Returns ``ns`` unchanged so call sites wrap their arithmetic."""
        if self.enabled and ns > 0:
            key = (self.plane, stage)
            bucket = self._loose.setdefault(key, [0, 0, 0])
            bucket[0] += ns
            if cpu:
                bucket[1] += ns
            bucket[2] += 1
        return ns

    def epoch(self, count: int,
              spans: Tuple[Tuple[str, int, bool, str], ...],
              plane: Optional[str] = None) -> None:
        """Record one fluid epoch: ``count`` packets that each charged the
        per-packet ``spans`` (``(stage, ns, cpu, label)`` tuples). The
        epoch's per-packet latency is the span sum by construction, so the
        conservation invariant (span sums tile end-to-end latency) holds
        for fluid packets exactly as for per-packet contexts."""
        if self.enabled and count > 0:
            self._epochs.append((plane or self.plane, count, tuple(spans)))

    def reset(self) -> None:
        """Drop every recorded context, loose bucket, and fluid epoch (the
        enabled flag and plane tag survive). Measurement drivers call this
        after their setup phase so the trace window matches the measurement
        window — resetting observes nothing and perturbs nothing."""
        self.contexts = []
        self._loose = {}
        self._epochs = []

    # -- analysis ----------------------------------------------------------

    def closed_contexts(self, plane: Optional[str] = None) -> List[TraceContext]:
        return [c for c in self.contexts
                if c.closed and (plane is None or c.plane == plane)]

    def epochs(self, plane: Optional[str] = None):
        """The recorded fluid epochs (optionally one plane's)."""
        return [e for e in self._epochs if plane is None or e[0] == plane]

    def fluid_packets(self, plane: Optional[str] = None) -> int:
        """Packets represented by fluid epochs rather than contexts."""
        return sum(count for _pl, count, _spans in self.epochs(plane))

    def loose_totals(self, plane: Optional[str] = None) -> Dict[str, Dict[str, int]]:
        """``{stage: {"ns": total, "cpu_ns": cpu subset, "ops": n}}``."""
        out: Dict[str, Dict[str, int]] = {}
        for (pl, stage), (ns, cpu_ns, ops) in sorted(self._loose.items()):
            if plane is not None and pl != plane:
                continue
            slot = out.setdefault(stage, {"ns": 0, "cpu_ns": 0, "ops": 0})
            slot["ns"] += ns
            slot["cpu_ns"] += cpu_ns
            slot["ops"] += ops
        return out

    def stage_histograms(self, plane: Optional[str] = None) -> Dict[str, Histogram]:
        """Per-stage histograms of *per-packet* nanoseconds over every
        closed context (optionally one plane's). Fluid epochs contribute
        their per-packet stage sums weighted by packet count, so hybrid
        runs report the same shape packet-exact runs do."""
        hists = {stage: Histogram(f"trace.{stage}") for stage in STAGES}
        for ctx in self.closed_contexts(plane):
            for stage, ns in ctx.by_stage().items():
                hists.setdefault(stage, Histogram(f"trace.{stage}")).observe(ns)
        for _pl, count, spans in self.epochs(plane):
            per_stage: Dict[str, int] = {}
            for stage, ns, _cpu, _label in spans:
                per_stage[stage] = per_stage.get(stage, 0) + ns
            for stage, ns in per_stage.items():
                hists.setdefault(stage, Histogram(f"trace.{stage}")).observe(
                    ns, n=count)
        return {stage: h for stage, h in hists.items() if h.count}

    def work_by_stage(self, plane: Optional[str] = None,
                      include_wait: bool = True) -> Dict[str, int]:
        """Total attributed nanoseconds per stage over contexts and fluid
        epochs. ``include_wait=False`` drops spans whose label ends in
        ``_wait`` (ring/queue/pipeline residency) — the workload-dependent
        part no frozen profile models — leaving the deterministic per-packet
        work E21 compares across fidelity modes."""
        out: Dict[str, int] = {}
        for ctx in self.closed_contexts(plane):
            for s in ctx.spans:
                if not include_wait and s.label.endswith("_wait"):
                    continue
                out[s.stage] = out.get(s.stage, 0) + s.ns
        for _pl, count, spans in self.epochs(plane):
            for stage, ns, _cpu, label in spans:
                if not include_wait and label.endswith("_wait"):
                    continue
                out[stage] = out.get(stage, 0) + ns * count
        return out

    def report(self, plane: Optional[str] = None) -> Dict[str, object]:
        """Everything E16 and the CLI need: per-stage per-packet summaries,
        loose totals, attributed CPU time, and mean end-to-end latency."""
        closed = self.closed_contexts(plane)
        loose = self.loose_totals(plane)
        fluid = self.epochs(plane)
        ctx_cpu = sum(c.cpu_ns() for c in closed)
        fluid_cpu = sum(count * sum(ns for _st, ns, cpu, _lb in spans if cpu)
                        for _pl, count, spans in fluid)
        loose_cpu = sum(v["cpu_ns"] for v in loose.values())
        lat = Histogram("trace.latency")
        lat.extend(float(c.latency_ns()) for c in closed)
        for _pl, count, spans in fluid:
            # An epoch packet's latency is its span sum by construction.
            lat.observe(float(sum(ns for _st, ns, _cpu, _lb in spans)),
                        n=count)
        return {
            "plane": plane or self.plane,
            "packets": len(closed) + self.fluid_packets(plane),
            "fluid_packets": self.fluid_packets(plane),
            "stages": {s: h.summary() for s, h in
                       self.stage_histograms(plane).items()},
            "loose": loose,
            "cpu_ns_total": ctx_cpu + fluid_cpu + loose_cpu,
            "cpu_ns_attributed": ctx_cpu + fluid_cpu,
            "latency": lat.summary(),
        }
