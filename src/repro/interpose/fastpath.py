"""Megaflow-style flow fast path over the interposition plane.

The paper argues interposition should run at the cheapest place on the
datapath; the classic software realization is a flow cache: the *first*
packet of a flow walks every interposition point (netfilter chains, qdisc
classifier, vswitch match-action, NIC steering, overlay filters,
conntrack), and the composed outcome is cached under the five-tuple so
later packets pay one exact-match lookup — OVS megaflows, the Linux
netfilter flowtable offload, and the "policy compiled to fast path"
structure of the NIC-as-OS line of work.

Correctness leans on PR 3's versioned commits: every policy mutation on
the machine lands in the :class:`~repro.interpose.PolicyEngine` and bumps
its ``epoch``. A cached entry is stamped with the epoch it was built
under; a lookup that finds a stale stamp discards the entry and falls
back to the slow path (lazy invalidation — nothing walks the cache on
commit, exactly like megaflow revalidation). Conntrack expiry evicts the
flow's entries eagerly, and a bounded LRU models flowtable/SRAM pressure:
more concurrent flows than :attr:`~repro.config.CostModel.flow_fastpath_entries`
and the cache thrashes back to slow-path cost — the same >1024-connection
collapse §5 reports for DDIO.

The cache is per-:class:`~repro.host.machine.Machine` and strictly
opt-in: ``Machine.fastpath`` is ``None`` unless
:attr:`~repro.config.CostModel.flow_fastpath` is set, and every dataplane
guards its wiring on that, so default-config runs are byte-identical to
the seed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Set, Tuple

from ..config import CostModel
from ..net.flow import FiveTuple
from ..sim import MetricSet
from ..sim.fastforward import REASON_CONNTRACK, REASON_FASTPATH

#: Cache scopes (the ``chain`` key component) used by the dataplanes.
CHAIN_STEER = "steer"
CHAIN_VSWITCH = "vswitch"
CHAIN_KOPI_RX = "kopi_rx"
CHAIN_KOPI_TX = "kopi_tx"

Key = Tuple[str, FiveTuple, Optional[int]]


class FlowVerdict:
    """One cached slow-path outcome.

    ``verdict`` is whatever the slow path produced (an ACCEPT/DROP string,
    an overlay verdict, or None for "no filter loaded"); ``qdisc_class``
    holds the plane's class representation (a tc class string on the
    kernel/sidecar paths, an integer scheduler class on KOPI);
    ``queue_id``/``conn_id`` cache steering decisions; ``ct_entry`` is a
    live reference to the flow's conntrack entry so hits keep per-flow
    accounting exact without re-walking the table.
    """

    __slots__ = (
        "chain", "flow", "scope", "verdict", "qdisc_class", "queue_id",
        "conn_id", "ct_entry", "points", "epoch", "versions", "hits",
        "tenant",
    )

    def __init__(
        self,
        chain: str,
        flow: FiveTuple,
        scope: Optional[int],
        verdict,
        qdisc_class,
        queue_id: Optional[int],
        conn_id: Optional[int],
        ct_entry,
        points: Tuple[str, ...],
        epoch: int,
        versions: Tuple[Tuple[str, int], ...],
        tenant=None,
    ):
        self.chain = chain
        self.flow = flow
        self.scope = scope
        self.verdict = verdict
        self.qdisc_class = qdisc_class
        self.queue_id = queue_id
        self.conn_id = conn_id
        self.ct_entry = ct_entry
        self.points = points
        self.epoch = epoch
        self.versions = versions
        self.hits = 0
        #: Owning :class:`~repro.host.tenants.Tenant`, or None when the
        #: machine runs without tenant attribution (the seed default).
        self.tenant = tenant

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowVerdict {self.chain}:{self.flow} -> {self.verdict!r} "
            f"epoch={self.epoch} hits={self.hits}>"
        )


class FlowFastPath:
    """Per-machine LRU verdict cache keyed by (chain, five-tuple, scope).

    ``chain`` names the interposition site (netfilter INPUT/OUTPUT, the
    hypervisor vswitch, NIC steering, the KOPI RX/TX pipelines); ``scope``
    carries whatever slow-path input beyond the headers the cached walk
    consumed — the owning pid on the kernel/sidecar paths, where owner
    rules and cgroup classification make the verdict a function of
    (flow, process), ``None`` on header-only planes.
    """

    def __init__(self, engine, costs: CostModel, tenants=None):
        self.engine = engine
        self.hit_ns = costs.flowtable_hit_ns
        self.capacity = costs.flow_fastpath_entries
        #: :class:`~repro.host.tenants.TenantRegistry` when the machine
        #: attributes by tenant, else None. Quotas only bite when the
        #: registry reports isolation on.
        self.tenants = tenants
        self._quotas_on = tenants is not None and tenants.isolation
        self._tenant_entries: Dict[int, int] = {}
        self._tenant_ctrs: Dict[int, tuple] = {}
        self._entries: "OrderedDict[Key, FlowVerdict]" = OrderedDict()
        self._by_flow: Dict[FiveTuple, Set[Key]] = {}
        self.metrics = MetricSet("fastpath")
        # The hot-path counters, resolved once: a cache whose bookkeeping
        # costs more than the rule walk it elides would defeat the point.
        self._c_hits = self.metrics.counter("hits")
        self._c_misses = self.metrics.counter("misses")
        self._c_invalidated = self.metrics.counter("invalidated")
        self._c_evicted = self.metrics.counter("evicted")
        self._c_expired = self.metrics.counter("expired")
        self._c_installs = self.metrics.counter("installs")
        self._chain_hit = {}  # chain -> (hit counter, miss counter)
        self._skip_counters: Dict[str, object] = {}
        #: Hybrid-fidelity demotion hook, ``hook(flow, reason)``. Wired by
        #: Machine when ``fast_forward`` is on; fired at every event that
        #: means "this flow's cached verdict is no longer a safe basis for
        #: fluid approximation": a lookup miss, a stale-entry invalidation,
        #: an LRU eviction, and conntrack expiry.
        self.demotion_hook: Optional[Callable[[FiveTuple, str], None]] = None

    # --- datapath side -----------------------------------------------------

    def lookup(self, chain: str, flow: FiveTuple, scope: Optional[int] = None,
               tenant=None):
        """Return the live cached entry for this walk, or None (miss).

        A stale entry (any policy commit landed since it was built) is
        discarded here — lazy invalidation, charged to the packet that
        discovers it. ``tenant`` (when the caller resolved one) attributes
        the miss; hits are attributed to the entry's installing tenant."""
        key = (chain, flow, scope)
        entry = self._entries.get(key)
        if entry is None:
            self._c_misses.inc()
            self._chain_counters(chain)[1].inc()
            if tenant is not None:
                self._tenant_counters(tenant.tid)[1].inc()
            if self.demotion_hook is not None:
                self.demotion_hook(flow, REASON_FASTPATH)
            return None
        if entry.epoch != self.engine.epoch:
            self._remove(key, entry)
            self._c_invalidated.inc()
            self._c_misses.inc()
            self._chain_counters(chain)[1].inc()
            if tenant is not None:
                self._tenant_counters(tenant.tid)[1].inc()
            if self.demotion_hook is not None:
                self.demotion_hook(flow, REASON_FASTPATH)
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self._c_hits.inc()
        self._chain_counters(chain)[0].inc()
        if entry.tenant is not None:
            self._tenant_counters(entry.tenant.tid)[0].inc()
        for point in entry.points:
            self._skip_counter(point).inc()
        return entry

    def peek(self, chain: str, flow: FiveTuple, scope: Optional[int] = None):
        """Non-counting lookup for fidelity predicates: return the cached
        entry iff it exists and is live under the current policy epoch.
        Moves no counters, touches no LRU order, discards nothing — a pure
        observation, so exact-mode behaviour cannot depend on it."""
        entry = self._entries.get((chain, flow, scope))
        if entry is None or entry.epoch != self.engine.epoch:
            return None
        return entry

    def entries_for(self, flow: FiveTuple):
        """Every live entry keyed on exactly this flow (not its reverse),
        in no particular order — the serialization surface a migration
        coordinator reads before replaying verdicts on another machine.
        Pure observation: stale entries are skipped, not discarded, and no
        counters or LRU order move."""
        keys = self._by_flow.get(flow, ())
        epoch = self.engine.epoch
        out = []
        for key in keys:
            entry = self._entries.get(key)
            if entry is not None and entry.epoch == epoch:
                out.append(entry)
        return out

    def bulk_hit(self, chain: str, flow: FiveTuple,
                 scope: Optional[int] = None, n: int = 1,
                 points: Optional[Tuple[str, ...]] = None) -> None:
        """Account ``n`` cache hits at once — a fluid epoch replaying the
        cached verdict N times. Moves exactly the counters ``n`` exact
        :meth:`lookup` hits would move (global + per-chain hit counters,
        per-point skip counters, the entry's own hit count and LRU slot).
        The packets being accounted ran *before* whatever boundary is now
        flushing them, so a missing/stale entry still counts as hits —
        ``points`` lets the caller supply the skip set the live entry
        carried at promotion time."""
        key = (chain, flow, scope)
        entry = self._entries.get(key)
        tenant = None
        if entry is not None and entry.epoch == self.engine.epoch:
            self._entries.move_to_end(key)
            entry.hits += n
            tenant = entry.tenant
            if points is None:
                points = entry.points
        self._c_hits.inc(n)
        self._chain_counters(chain)[0].inc(n)
        if tenant is not None:
            self._tenant_counters(tenant.tid)[0].inc(n)
        for point in points or ():
            self._skip_counter(point).inc(n)

    def install(
        self,
        chain: str,
        flow: FiveTuple,
        scope: Optional[int] = None,
        verdict=None,
        qdisc_class=None,
        queue_id: Optional[int] = None,
        conn_id: Optional[int] = None,
        ct_entry=None,
        points: Tuple[str, ...] = (),
        tenant=None,
    ) -> FlowVerdict:
        """Cache a freshly-walked outcome, stamped with the current epoch
        and version vector; evicts LRU entries past capacity.

        With isolation on, a tenant over its ``flow_quota`` evicts its own
        LRU entry first, and global capacity pressure victimizes the
        installing tenant before reaching across tenants (evict-within
        before evict-across) — a hog churning flows cannot flush the
        victims' entries."""
        key = (chain, flow, scope)
        old = self._entries.pop(key, None)
        if old is not None and old.tenant is not None:
            self._tenant_entries[old.tenant.tid] -= 1
        entry = FlowVerdict(
            chain, flow, scope, verdict, qdisc_class, queue_id, conn_id,
            ct_entry, points, self.engine.epoch, self.engine.version_vector(),
            tenant=tenant,
        )
        self._entries[key] = entry
        if old is None:
            self._by_flow.setdefault(flow, set()).add(key)
        self._c_installs.inc()
        if tenant is not None:
            tid = tenant.tid
            self._tenant_entries[tid] = self._tenant_entries.get(tid, 0) + 1
            if self._quotas_on and tenant.flow_quota is not None:
                while self._tenant_entries[tid] > tenant.flow_quota:
                    if not self._evict_one(prefer_tid=tid, strict=True):
                        break
        while len(self._entries) > self.capacity:
            prefer = tenant.tid if (self._quotas_on and tenant is not None) \
                else None
            self._evict_one(prefer_tid=prefer, exclude_key=key)
        return entry

    def _evict_one(self, prefer_tid: Optional[int] = None,
                   strict: bool = False, exclude_key: Optional[Key] = None)\
            -> bool:
        """Evict one entry: the LRU entry of ``prefer_tid`` when that
        tenant still holds any besides ``exclude_key`` (evict-within-tenant
        first), else — unless ``strict`` — the global LRU entry. Returns
        True if one died."""
        victim_key = None
        if prefer_tid is not None and self._tenant_entries.get(prefer_tid, 0):
            for key, entry in self._entries.items():  # LRU -> MRU order
                if key == exclude_key:
                    continue
                if entry.tenant is not None and entry.tenant.tid == prefer_tid:
                    victim_key = key
                    break
        if victim_key is None:
            if strict:
                return False
            if not self._entries:
                return False
            victim_key = next(iter(self._entries))
        evicted = self._entries.pop(victim_key)
        self._unindex(victim_key)
        self._unaccount(evicted)
        self._c_evicted.inc()
        if evicted.tenant is not None:
            self._tenant_counters(evicted.tenant.tid)[2].inc()
        if self.demotion_hook is not None:
            self.demotion_hook(evicted.flow, REASON_FASTPATH)
        return True

    def _unaccount(self, entry: FlowVerdict) -> None:
        if entry.tenant is not None:
            self._tenant_entries[entry.tenant.tid] -= 1

    # --- invalidation / eviction ------------------------------------------

    def evict_flow(self, flow: FiveTuple) -> int:
        """Drop every entry keyed on this flow or its reverse (conntrack
        expiry, connection teardown). Returns how many were dropped.

        The demotion hook fires *before* the entries die: a demoting fluid
        flow flushes its pending epoch from inside the hook (possibly
        through a cross-machine peer), and that flush's :meth:`bulk_hit`
        must still see the live entries — the packets it accounts ran while
        the entries were valid. Demote-before-boundary, applied to the
        cache itself."""
        reversed_flow = flow.reversed()
        if not (self._by_flow.get(flow) or self._by_flow.get(reversed_flow)):
            return 0
        if self.demotion_hook is not None:
            self.demotion_hook(flow, REASON_CONNTRACK)
            self.demotion_hook(reversed_flow, REASON_CONNTRACK)
        dropped = 0
        for ft in (flow, reversed_flow):
            keys = self._by_flow.pop(ft, None)
            if not keys:
                continue
            for key in keys:
                dead = self._entries.pop(key, None)
                if dead is not None:
                    self._unaccount(dead)
                    dropped += 1
        if dropped:
            self._c_expired.inc(dropped)
        return dropped

    def purge(self) -> int:
        """Drop everything (table reset); returns how many entries died."""
        n = len(self._entries)
        self._entries.clear()
        self._by_flow.clear()
        self._tenant_entries.clear()
        return n

    def _remove(self, key: Key, entry: FlowVerdict) -> None:
        del self._entries[key]
        self._unindex(key)
        self._unaccount(entry)

    def _unindex(self, key: Key) -> None:
        keys = self._by_flow.get(key[1])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_flow[key[1]]

    # --- counters ----------------------------------------------------------

    def _chain_counters(self, chain: str):
        pair = self._chain_hit.get(chain)
        if pair is None:
            pair = (
                self.metrics.counter(f"hit.{chain}"),
                self.metrics.counter(f"miss.{chain}"),
            )
            self._chain_hit[chain] = pair
        return pair

    def _skip_counter(self, point: str):
        c = self._skip_counters.get(point)
        if c is None:
            c = self.metrics.counter(f"skipped.{point}")
            self._skip_counters[point] = c
        return c

    def _tenant_counters(self, tid: int):
        """(hits, misses, evicted) counters for one tenant, created on
        first attributed touch — a machine without tenants never grows
        these names, keeping default metric snapshots seed-identical."""
        trio = self._tenant_ctrs.get(tid)
        if trio is None:
            trio = (
                self.metrics.counter(f"tenant.{tid}.hits"),
                self.metrics.counter(f"tenant.{tid}.misses"),
                self.metrics.counter(f"tenant.{tid}.evicted"),
            )
            self._tenant_ctrs[tid] = trio
        return trio

    def note_skipped(self, point: str, n: int = 1) -> None:
        """Count a point whose evaluation a hit elided outside lookup()
        (e.g. the conntrack update folded into a cached entry); ``n`` lets
        a fluid epoch account N elisions at once."""
        self._skip_counter(point).inc(n)

    # --- introspection -----------------------------------------------------

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    @property
    def invalidated(self) -> int:
        return self._c_invalidated.value

    @property
    def evicted(self) -> int:
        return self._c_evicted.value

    @property
    def expired(self) -> int:
        return self._c_expired.value

    @property
    def lookups(self) -> int:
        return self._c_hits.value + self._c_misses.value

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self._c_hits.value / total if total else 0.0

    def tenant_entries(self, tid: int) -> int:
        """Live flowtable entries currently held by one tenant."""
        return self._tenant_entries.get(tid, 0)

    def at_quota(self, tenant) -> bool:
        """True when this tenant's flowtable occupancy has reached its
        quota."""
        if tenant is None or tenant.flow_quota is None:
            return False
        return self._tenant_entries.get(tenant.tid, 0) >= tenant.flow_quota

    def per_tenant(self) -> "Dict[int, Dict[str, float]]":
        """Per-tenant pressure snapshot: entries/quota occupancy plus the
        hit/miss/evicted counters — the `repro report` section's source."""
        out: Dict[int, Dict[str, float]] = {}
        tids = set(self._tenant_ctrs) | set(self._tenant_entries)
        for tid in sorted(tids):
            hits, misses, evicted = self._tenant_counters(tid)
            row = {
                "entries": float(self._tenant_entries.get(tid, 0)),
                "hits": float(hits.value),
                "misses": float(misses.value),
                "evicted": float(evicted.value),
            }
            if self.tenants is not None:
                tenant = self.tenants.get(tid)
                if tenant is not None and tenant.flow_quota is not None:
                    row["quota"] = float(tenant.flow_quota)
            out[tid] = row
        return out

    def stats(self) -> Dict[str, float]:
        out = self.metrics.snapshot()
        out["fastpath.entries"] = float(len(self._entries))
        out["fastpath.hit_rate"] = self.hit_rate
        out["fastpath.epoch"] = float(self.engine.epoch)
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowFastPath entries={len(self._entries)}/{self.capacity} "
            f"hit_rate={self.hit_rate:.3f} epoch={self.engine.epoch}>"
        )
