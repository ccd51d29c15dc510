"""Live flow migration between rack backends (``CostModel.cluster_lb``).

Who owns a flow's interposition state when the dataplane spans machines?
The kernel-visible answer this module implements: state lives *with the
flow*, and moving the flow is a sequence of first-class policy commits on
both machines plus one atomic steering commit on the switch — never a
window where a packet meets half-moved state.

The protocol (:meth:`MigrationCoordinator.migrate`), modeled on two-phase
live migration:

1. **Demote & drain.** The source machine's fast-forward flows for the
   five-tuple (both directions) demote with the ``flow_migration``
   boundary reason — pending fluid epochs flush *before* any state is
   read, the PR 9 demote-before-boundary contract.
2. **First copy.** The source's conntrack entry is snapshotted (it keeps
   running) and *adopted* on the target — a policy commit on the target's
   engine whose epoch bump is exactly the PR 3/PR 4 invalidation contract
   crossing machines: anything the target had cached about this flow is
   now stale. The source's flow-fastpath verdicts are then replayed onto
   the target's cache, stamped with the target's fresh epoch and resolved
   against the target's own steering (its listener's conn), so the first
   re-steered packet is a warm fastpath hit.
3. **Atomic re-steer.** The balancer stages a per-flow override and
   submits it as an asynchronous commit; the nhop write lands after
   ``table_update_ns``. Until then every packet steers to the source
   under the complete old table (counted as stale evals); after, to the
   target. No packet ever sees a half-installed rule.
4. **Delta copy & release.** ``lb_migration_drain_ns`` after the commit
   — long enough for packets already in flight toward the source to land
   — the source serves nothing new. The packets it *did* serve since the
   first copy are reconciled into the target's entry as a counter delta,
   and the source's conntrack entry and cached verdicts are dropped
   (another pair of commits). Source + target now sum to exactly what a
   no-migration run would have counted: loss-free and
   counter-conserving by construction.

The flow then re-promotes on the target on its own: replayed verdicts
give immediate fastpath hits, the hit streak clears ``ff_promote_after``,
and the fluid epoch resumes on the new backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import PolicyError
from ..net.flow import FiveTuple
from ..sim import MetricSet
from ..sim.fastforward import REASON_MIGRATE
from .balancer import L4LoadBalancer

MIGRATION_PENDING = "pending"
MIGRATION_COMMITTED = "committed"
MIGRATION_DONE = "done"


@dataclass
class FlowMigration:
    """One migration's life-cycle record."""

    flow: FiveTuple
    source: str
    target: str
    requested_ns: int
    committed_ns: int = -1
    finalized_ns: int = -1
    status: str = MIGRATION_PENDING
    snap_packets: int = 0
    snap_bytes: int = 0
    delta_packets: int = 0
    delta_bytes: int = 0
    verdicts_replayed: int = 0
    ff_demoted: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def moved_packets(self) -> int:
        """Conntrack packets handed to the target (first copy + delta)."""
        return self.snap_packets + self.delta_packets

    @property
    def moved_bytes(self) -> int:
        return self.snap_bytes + self.delta_bytes


class MigrationCoordinator:
    """Drives live migrations over a rack's backends.

    Registered backends are the rack's :class:`HostStack` objects; the
    coordinator reaches their machine-level state (fast-forward
    controller, verdict cache) and NIC-level state (conntrack, steering)
    through the same attributes the admin tools use — there is no side
    channel, which is rather the point: everything it moves is state the
    interposition plane already owns."""

    def __init__(self, sim, costs, balancer: L4LoadBalancer):
        self.sim = sim
        self.costs = costs
        self.balancer = balancer
        self._backends: Dict[str, object] = {}
        self.migrations: List[FlowMigration] = []
        self.metrics = MetricSet("migration")

    def add_backend(self, name: str, stack) -> None:
        if name in self._backends:
            raise PolicyError(f"backend {name!r} already registered")
        self._backends[name] = stack

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _conntrack(stack):
        nic = getattr(stack.dataplane, "nic", None)
        return getattr(nic, "conntrack", None)

    @staticmethod
    def _steering(stack):
        nic = getattr(stack.dataplane, "nic", None)
        return getattr(nic, "steering", None)

    # -- the protocol ------------------------------------------------------

    def migrate(self, flow: FiveTuple, target: str) -> FlowMigration:
        """Begin migrating ``flow`` (a VIP-steered five-tuple) from its
        current backend to ``target``. Returns the migration record;
        completion is asynchronous (``status`` reaches ``"done"`` after
        the re-steer commit plus the drain window)."""
        source = self.balancer.backend_for(flow)
        if source is None:
            raise PolicyError(f"flow {flow} is not VIP-steered")
        if source == target:
            raise PolicyError(
                f"flow {flow} already lives on {target!r}")
        if target not in self._backends:
            raise PolicyError(f"unknown backend {target!r}")
        if source not in self._backends:
            raise PolicyError(f"source backend {source!r} not registered")
        src, dst = self._backends[source], self._backends[target]
        m = FlowMigration(flow=flow, source=source, target=target,
                          requested_ns=self.sim.now)
        self.migrations.append(m)
        self.metrics.counter("started").inc()

        # 1. Demote & drain: the source's fluid epochs flush before any
        #    state is read (demote-before-boundary).
        ff = src.machine.ff
        if ff is not None:
            for key in (flow, flow.reversed()):
                if ff.demote(key, REASON_MIGRATE):
                    m.ff_demoted += 1

        # 2. First copy: conntrack snapshot adopted on the target (a
        #    target-engine policy commit — the cross-machine epoch bump),
        #    then verdict replay stamped with the target's fresh epoch.
        target_entry = None
        src_ct, dst_ct = self._conntrack(src), self._conntrack(dst)
        if src_ct is not None and dst_ct is not None:
            snap = src_ct.snapshot(flow)
            if snap is not None:
                m.snap_packets = snap["packets"]
                m.snap_bytes = snap["bytes"]
                target_entry = dst_ct.adopt(snap, self.sim.now)
                if target_entry is None:
                    m.notes.append("target SRAM exhausted; flow untracked")
        m.verdicts_replayed = self._replay_verdicts(src, dst, flow,
                                                    target_entry)

        # 3. Atomic re-steer: staged now, live after table_update_ns.
        done = self.balancer.commit_resteer(flow, target)
        done.add_callback(lambda _sig: self._committed(m))
        return m

    def _replay_verdicts(self, src, dst, flow: FiveTuple,
                         target_entry) -> int:
        src_fp = src.machine.fastpath
        dst_fp = dst.machine.fastpath
        if src_fp is None or dst_fp is None:
            return 0
        steering = self._steering(dst)
        target_conn = steering.peek(flow) if steering is not None else None
        replayed = 0
        for entry in src_fp.entries_for(flow):
            dst_fp.install(
                entry.chain, flow, scope=entry.scope, verdict=entry.verdict,
                qdisc_class=entry.qdisc_class, queue_id=entry.queue_id,
                conn_id=target_conn, ct_entry=target_entry,
                points=entry.points,
            )
            replayed += 1
        return replayed

    def _committed(self, m: FlowMigration) -> None:
        m.committed_ns = self.sim.now
        m.status = MIGRATION_COMMITTED
        self.metrics.counter("committed").inc()
        self.sim.after(self.costs.lb_migration_drain_ns, self._finalize, m)

    def _finalize(self, m: FlowMigration) -> None:
        """Delta copy + release: reconcile what the source served after
        the first copy into the target's entry, then drop source state."""
        src, dst = self._backends[m.source], self._backends[m.target]
        src_ct, dst_ct = self._conntrack(src), self._conntrack(dst)
        if src_ct is not None:
            final = src_ct.release_flow(m.flow)
            if final is not None and dst_ct is not None:
                m.delta_packets = final["packets"] - m.snap_packets
                m.delta_bytes = final["bytes"] - m.snap_bytes
                entry = dst_ct.lookup(m.flow)
                if entry is not None and (m.delta_packets or m.delta_bytes):
                    # The two-phase hand-off's final delta: packets the
                    # source served during the commit + drain window.
                    # Merged directly — not via adopt() — so the target's
                    # epoch does NOT bump and the replayed verdicts stay
                    # live.
                    entry.packets += m.delta_packets
                    entry.bytes += m.delta_bytes
                    entry.last_seen_ns = max(entry.last_seen_ns,
                                             final["last_seen_ns"])
                elif entry is None and (m.delta_packets or m.delta_bytes):
                    # The flow was untracked at first-copy time (migration
                    # raced the flow's very first packet, or target SRAM
                    # was exhausted then) and the target has not tracked it
                    # since: the delta IS the whole state — adopt it now so
                    # no packet the source served goes uncounted.
                    late = dict(final)
                    late["packets"] = m.delta_packets
                    late["bytes"] = m.delta_bytes
                    if dst_ct.adopt(late, self.sim.now) is None:
                        m.notes.append(
                            "target SRAM exhausted at delta copy; "
                            "flow untracked")
        elif src.machine.fastpath is not None:
            # No conntrack to do it for us: drop the source's verdicts.
            src.machine.fastpath.evict_flow(m.flow)
        m.finalized_ns = self.sim.now
        m.status = MIGRATION_DONE
        self.metrics.counter("finalized").inc()

    # -- observability -----------------------------------------------------

    def completed(self) -> List[FlowMigration]:
        return [m for m in self.migrations if m.status == MIGRATION_DONE]

    def stats(self) -> Dict[str, object]:
        return {
            "started": self.metrics.counter("started").value,
            "committed": self.metrics.counter("committed").value,
            "finalized": self.metrics.counter("finalized").value,
            "moved_packets": sum(m.moved_packets for m in self.migrations),
            "moved_bytes": sum(m.moved_bytes for m in self.migrations),
            "verdicts_replayed": sum(m.verdicts_replayed
                                     for m in self.migrations),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MigrationCoordinator backends={len(self._backends)} "
                f"migrations={len(self.migrations)}>")
