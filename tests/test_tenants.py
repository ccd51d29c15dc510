"""Tenant-aware dataplane: identity, quotas, scheduling, attribution.

Covers the :class:`~repro.host.tenants.TenantRegistry` (registration,
deterministic resolution, scheduler weight view), the CostModel knobs'
validation, per-tenant flowtable quotas on :class:`FlowFastPath`
(evict-within-tenant before evict-across), per-tenant SRAM quotas on
:class:`SramAllocator`, the CgroupTree classid-retirement regression, the
:class:`WeightedFairClock` arbiter, the per-tenant egress scheduler the
KOPI control plane installs, tenant-correct fast-forward grouping, kernel
netstack attribution counters, and the seed-identity of the default
(knobs-off) path.
"""

from types import SimpleNamespace

import pytest

from repro.config import DEFAULT_COSTS
from repro.core import NormanOS
from repro.dataplanes import KernelPathDataplane, Testbed
from repro.errors import ConfigError, KernelError, NicResourceExhausted
from repro.host.cpu import CpuSet
from repro.experiments.common import drain_until_dry
from repro.experiments.e17_multi_tenant import PacedVictim
from repro.host.tenants import (
    TENANT_SYSTEM_TID,
    TenantRegistry,
    tenant_class,
)
from repro.interpose import FlowFastPath, InterpositionPoint, PolicyEngine
from repro.kernel.cgroups import CgroupTree
from repro.kernel.netfilter import CHAIN_OUTPUT, RuleTable
from repro.kernel.qdisc import DEFAULT_CLASS, DrrQdisc
from repro.net.headers import PROTO_UDP
from repro.net.packet import make_udp
from repro.nic.smartnic.sram import SramAllocator
from repro.nic.tenant_sched import WeightedFairClock
from repro.dataplanes.testbed import HOST_IP, HOST_MAC, PEER_IP, PEER_MAC
from repro.sim import Simulator
from repro.sim.fastforward import FastForwardController, FlowProfile
from repro.trace import Tracer

TENANT_COSTS = DEFAULT_COSTS.replace(tenants=True)
ISO_COSTS = DEFAULT_COSTS.replace(tenants=True, tenant_isolation=True)


def _registry(costs=ISO_COSTS) -> TenantRegistry:
    return TenantRegistry(costs)


def _proc(uid=1_000, cgroup_path="/"):
    return SimpleNamespace(uid=uid, cgroup_path=cgroup_path)


def _flow(sport: int, dport: int = 9_000):
    return make_udp(
        HOST_MAC, PEER_MAC, HOST_IP, PEER_IP, sport, dport, 100
    ).five_tuple


def _engine():
    engine = PolicyEngine(Simulator())
    table = RuleTable()
    table.bind_point(
        engine.register(
            InterpositionPoint(
                name="netfilter", plane="kernel", mechanism="netfilter",
                target=table,
            )
        )
    )
    return engine


class TestTenantRegistry:
    def test_register_and_resolve_by_uid(self):
        reg = _registry()
        t = reg.register("alice", uid=1_000)
        assert t.tid == 1 and reg.resolve(_proc(uid=1_000)) is t

    def test_cgroup_scope_wins_over_uid(self):
        # The §2 scenario: the process tree is the truth. A process whose
        # cgroup is claimed by one tenant classifies there even if its uid
        # belongs to another.
        reg = _registry()
        by_uid = reg.register("by_uid", uid=1_000)
        by_cg = reg.register("by_cgroup", cgroup_path="/games")
        proc = _proc(uid=1_000, cgroup_path="/games")
        assert reg.resolve(proc) is by_cg
        proc.cgroup_path = "/"
        assert reg.resolve(proc) is by_uid

    def test_unregistered_process_resolves_to_system(self):
        reg = _registry()
        t = reg.resolve(_proc(uid=9_999))
        assert t is reg.system and t.tid == TENANT_SYSTEM_TID

    def test_resolve_uid_for_nic_side_sites(self):
        reg = _registry()
        t = reg.register("alice", uid=1_000)
        assert reg.resolve_uid(1_000) is t
        assert reg.resolve_uid(None) is reg.system
        assert reg.resolve_uid(4_242) is reg.system

    def test_needs_at_least_one_scope(self):
        with pytest.raises(ConfigError):
            _registry().register("floating")

    def test_duplicate_uid_and_cgroup_rejected(self):
        reg = _registry()
        reg.register("alice", uid=1_000, cgroup_path="/a")
        with pytest.raises(ConfigError):
            reg.register("bob", uid=1_000)
        with pytest.raises(ConfigError):
            reg.register("bob", cgroup_path="/a")

    def test_weight_must_be_positive(self):
        reg = _registry()
        with pytest.raises(ConfigError):
            reg.register("alice", uid=1, weight=0)
        t = reg.register("alice", uid=1)
        with pytest.raises(ConfigError):
            reg.set_weight(t.tid, 0)

    def test_on_change_fires_for_register_and_weight(self):
        reg = _registry()
        fired = []
        reg.on_change.append(lambda: fired.append(1))
        t = reg.register("alice", uid=1)
        reg.set_weight(t.tid, 3)
        assert len(fired) == 2
        # Quota resizes do not reshuffle the scheduler.
        reg.set_flow_quota(t.tid, 4)
        reg.set_sram_quota(t.tid, 1 << 16)
        assert len(fired) == 2

    def test_sched_weights_one_class_per_tenant_plus_default(self):
        reg = _registry()
        a = reg.register("a", uid=1, weight=4)
        b = reg.register("b", uid=2)
        weights = reg.sched_weights()
        assert weights[DEFAULT_CLASS] == reg.system.weight
        assert weights[a.sched_class] == 4
        assert weights[b.sched_class] == 1
        assert a.sched_class == tenant_class(a.tid)
        assert len(weights) == 3


class TestTenantKnobValidation:
    def test_isolation_requires_tenants(self):
        with pytest.raises(ConfigError):
            DEFAULT_COSTS.replace(tenant_isolation=True)

    def test_quantum_and_default_weight_bounds(self):
        with pytest.raises(ConfigError):
            DEFAULT_COSTS.replace(tenant_quantum_bytes=0)
        with pytest.raises(ConfigError):
            DEFAULT_COSTS.replace(tenant_default_weight=0)


class TestFlowFastPathQuotas:
    def _fp(self, capacity=64):
        reg = _registry()
        costs = ISO_COSTS.replace(
            flow_fastpath=True, flow_fastpath_entries=capacity
        )
        return FlowFastPath(_engine(), costs, tenants=reg), reg

    def test_flow_quota_evicts_own_lru_first(self):
        fp, reg = self._fp()
        hog = reg.register("hog", uid=1, flow_quota=2)
        for sport in (5_000, 5_001, 5_002):
            fp.install(CHAIN_OUTPUT, _flow(sport), 7, tenant=hog)
        assert fp.tenant_entries(hog.tid) == 2
        assert fp.at_quota(hog)
        # The quota victim was the hog's own LRU entry, not the newest.
        assert fp.lookup(CHAIN_OUTPUT, _flow(5_000), 7) is None
        assert fp.lookup(CHAIN_OUTPUT, _flow(5_002), 7) is not None
        assert fp.metrics.counter(f"tenant.{hog.tid}.evicted").value == 1

    def test_capacity_pressure_victimizes_installer_before_neighbors(self):
        fp, reg = self._fp(capacity=4)
        victim = reg.register("victim", uid=1)
        hog = reg.register("hog", uid=2)
        fp.install(CHAIN_OUTPUT, _flow(1_000), 1, tenant=victim)
        fp.install(CHAIN_OUTPUT, _flow(1_001), 1, tenant=victim)
        fp.install(CHAIN_OUTPUT, _flow(2_000), 2, tenant=hog)
        fp.install(CHAIN_OUTPUT, _flow(2_001), 2, tenant=hog)
        # Table full; a third hog install must evict the hog's own LRU
        # (2_000), never a victim entry and never the entry being added.
        fp.install(CHAIN_OUTPUT, _flow(2_002), 2, tenant=hog)
        assert fp.tenant_entries(victim.tid) == 2
        assert fp.tenant_entries(hog.tid) == 2
        assert fp.peek(CHAIN_OUTPUT, _flow(2_000), 2) is None
        assert fp.peek(CHAIN_OUTPUT, _flow(2_002), 2) is not None
        for sport in (1_000, 1_001):
            assert fp.peek(CHAIN_OUTPUT, _flow(sport), 1) is not None

    def test_untenanted_pressure_falls_back_to_global_lru(self):
        fp, _reg = self._fp(capacity=2)
        fp.install(CHAIN_OUTPUT, _flow(1), 1)
        fp.install(CHAIN_OUTPUT, _flow(2), 1)
        fp.install(CHAIN_OUTPUT, _flow(3), 1)
        assert len(fp) == 2
        assert fp.peek(CHAIN_OUTPUT, _flow(1), 1) is None

    def test_per_tenant_counters_and_snapshot(self):
        fp, reg = self._fp()
        alice = reg.register("alice", uid=1, flow_quota=8)
        ft = _flow(5_000)
        fp.lookup(CHAIN_OUTPUT, ft, 7, tenant=alice)  # miss
        fp.install(CHAIN_OUTPUT, ft, 7, tenant=alice)
        fp.lookup(CHAIN_OUTPUT, ft, 7)  # hit, attributed to the installer
        row = fp.per_tenant()[alice.tid]
        assert row["hits"] == 1 and row["misses"] == 1
        assert row["entries"] == 1 and row["quota"] == 8

    def test_quotas_inert_without_isolation(self):
        # Attribution-only mode: quotas exist on the tenant but do not bite.
        reg = TenantRegistry(TENANT_COSTS)
        costs = TENANT_COSTS.replace(flow_fastpath=True)
        fp = FlowFastPath(_engine(), costs, tenants=reg)
        t = reg.register("t", uid=1, flow_quota=1)
        fp.install(CHAIN_OUTPUT, _flow(1), 1, tenant=t)
        fp.install(CHAIN_OUTPUT, _flow(2), 1, tenant=t)
        assert fp.tenant_entries(t.tid) == 2


class TestSramQuotas:
    def test_quota_blocks_only_the_owner(self):
        reg = _registry()
        hog = reg.register("hog", uid=1, sram_quota_bytes=100)
        other = reg.register("other", uid=2)
        sram = SramAllocator(1_000)
        sram.alloc(80, "conn_state", tenant=hog)
        with pytest.raises(NicResourceExhausted):
            sram.alloc(40, "conn_state", tenant=hog)
        assert sram.metrics.counter(f"tenant.{hog.tid}.exhaustions").value == 1
        # The neighbor still allocates from the global pool.
        sram.alloc(400, "conn_state", tenant=other)
        assert sram.tenant_used(hog.tid) == 80
        assert sram.used_by_tenant() == {hog.tid: 80, other.tid: 400}

    def test_shrink_below_used_keeps_blocks_blocks_new(self):
        reg = _registry()
        t = reg.register("t", uid=1, sram_quota_bytes=1_000)
        sram = SramAllocator(10_000)
        blocks = [sram.alloc(300, "x", tenant=t) for _ in range(3)]
        reg.set_sram_quota(t.tid, 500)
        assert sram.tenant_used(t.tid) == 900  # live blocks survive
        with pytest.raises(NicResourceExhausted):
            sram.alloc(1, "x", tenant=t)
        sram.free(blocks[0])
        sram.free(blocks[1])
        sram.alloc(100, "x", tenant=t)  # back under: allocs work again
        assert sram.tenant_used(t.tid) == 400

    def test_headroom_predicate(self):
        reg = _registry()
        t = reg.register("t", uid=1, sram_quota_bytes=100)
        sram = SramAllocator(1_000)
        assert sram.tenant_headroom(t, 100)
        sram.alloc(100, "x", tenant=t)
        assert not sram.tenant_headroom(t, 1)
        assert sram.tenant_headroom(None, 900)
        assert not sram.tenant_headroom(None, 901)


class TestCgroupClassidRetirement:
    """Regression: deleting a cgroup must retire its classid forever and
    deterministically re-home its members (tree index *and* the process's
    own ``cgroup_path``) — a stale classid or path must never classify
    into whoever registered next."""

    def test_classid_never_recycled(self):
        tree = CgroupTree()
        dead = tree.create("/dead")
        dead_id = dead.classid
        tree.delete("/dead")
        for i in range(16):
            assert tree.create(f"/g{i}").classid != dead_id
        assert dead_id in tree.retired()

    def test_by_classid_of_deleted_group_is_none(self):
        tree = CgroupTree()
        g = tree.create("/g")
        assert tree.by_classid(g.classid) is g
        tree.delete("/g")
        assert tree.by_classid(g.classid) is None

    def test_delete_rehomes_members_and_their_cgroup_path(self):
        tree = CgroupTree()
        tree.create("/games")
        proc = SimpleNamespace(pid=41, cgroup_path="/")
        tree.assign(proc, "/games")
        assert proc.cgroup_path == "/games"
        tree.delete("/games")
        assert proc.cgroup_path == CgroupTree.ROOT
        assert tree.group_of(41).path == CgroupTree.ROOT
        assert tree.classid_of(41) == 0

    def test_rehomed_process_reresolves_to_uid_tenant(self):
        # End of the chain: after the cgroup dies, tenant resolution falls
        # back to the uid scope instead of a stale cgroup claim.
        reg = _registry()
        by_uid = reg.register("by_uid", uid=7)
        by_cg = reg.register("games", cgroup_path="/games")
        tree = CgroupTree()
        tree.create("/games")
        proc = SimpleNamespace(pid=1, uid=7, cgroup_path="/")
        tree.assign(proc, "/games")
        assert reg.resolve(proc) is by_cg
        tree.delete("/games")
        assert reg.resolve(proc) is by_uid

    def test_recreate_same_path_gets_fresh_classid(self):
        tree = CgroupTree()
        first = tree.create("/g").classid
        tree.delete("/g")
        second = tree.create("/g").classid
        assert second != first
        assert tree.by_classid(first) is None
        assert tree.by_classid(second).path == "/g"

    def test_cannot_delete_root(self):
        with pytest.raises(KernelError):
            CgroupTree().delete("/")


class TestWeightedFairClock:
    def test_alone_is_fifo_identical(self):
        reg = _registry()
        t = reg.register("t", uid=1)
        clock = WeightedFairClock(reg)
        assert clock.finish(t, 1_000, now_ns=0) == 1_000
        assert clock.delay(t, 1_000, now_ns=1_000) == 0
        assert clock.contended_grants == 0

    def test_equal_weights_split_the_resource(self):
        reg = _registry()
        a = reg.register("a", uid=1)
        b = reg.register("b", uid=2)
        clock = WeightedFairClock(reg)
        clock.finish(a, 10_000, now_ns=0)
        # b's grant lands while a's work is in flight: stretched 2x.
        assert clock.finish(b, 1_000, now_ns=0) == 2_000
        assert clock.contended_grants == 1

    def test_weights_shape_the_stretch(self):
        reg = _registry()
        victim = reg.register("victim", uid=1, weight=4)
        hog = reg.register("hog", uid=2, weight=1)
        clock = WeightedFairClock(reg)
        clock.finish(hog, 100_000, now_ns=0)
        # (w + others) / w = (4 + 1) / 4 for the victim...
        assert clock.delay(victim, 1_000, now_ns=0) == 250
        # ...but (1 + 4) / 1 for more hog work behind both.
        fin = clock.finish(hog, 1_000, now_ns=0)
        assert fin == 100_000 + 5_000

    def test_idle_tenants_are_pruned(self):
        reg = _registry()
        a = reg.register("a", uid=1)
        b = reg.register("b", uid=2)
        clock = WeightedFairClock(reg)
        clock.finish(a, 1_000, now_ns=0)
        # a's grant finished long ago: b runs at full rate.
        assert clock.delay(b, 1_000, now_ns=50_000) == 0
        assert clock.backlog_ns(a.tid, 50_000) == 0


class TestTenantSchedulerInstall:
    def test_isolation_installs_per_tenant_drr(self):
        tb = Testbed(NormanOS, costs=ISO_COSTS)
        nic = tb.dataplane.nic
        assert isinstance(nic.scheduler.qdisc, DrrQdisc)
        assert nic.tenant_classes
        a = tb.machine.tenants.register("a", uid=1, weight=3)
        # Registration rebuilt the scheduler with the new class set.
        assert a.sched_class in nic.scheduler.qdisc.weights
        assert nic.scheduler.qdisc.weights[a.sched_class] == 3
        assert DEFAULT_CLASS in nic.scheduler.qdisc.weights
        assert (nic.scheduler.qdisc.quantum_bytes
                == ISO_COSTS.tenant_quantum_bytes)

    def test_no_tenant_scheduler_without_isolation(self):
        tb = Testbed(NormanOS, costs=TENANT_COSTS)
        nic = tb.dataplane.nic
        assert not isinstance(nic.scheduler.qdisc, DrrQdisc)
        assert not nic.tenant_classes


class TestFastForwardTenantCorrectness:
    def _promote(self, ctrl, plane, key, tid):
        profile = FlowProfile(
            spans=(("app", 100, True, "x"),), core_id=0, wire_len=1_000,
            tenant_tid=tid,
        )
        plane.ff_profile = lambda _k, _p, prof=profile: prof
        for _ in range(ctrl.costs.ff_promote_after):
            ctrl.note_exact(plane, key, None)
        assert ctrl.promoted(key)

    def test_groups_never_span_tenants(self):
        costs = DEFAULT_COSTS.replace(
            flow_fastpath=True, fast_forward=True, tenants=True
        )
        sim = Simulator()
        ctrl = FastForwardController(sim, costs, Tracer(sim),
                                     CpuSet(sim, 1, costs))
        plane = SimpleNamespace(ff_profile=None)
        # Identical span shape, wire length and core — only the tenant
        # differs. The flows must land in two distinct fluid groups.
        self._promote(ctrl, plane, "flow_a", tid=1)
        self._promote(ctrl, plane, "flow_b", tid=2)
        self._promote(ctrl, plane, "flow_c", tid=1)
        assert ctrl.groups == 2

    def test_promoted_profiles_carry_the_resolved_tenant(self):
        # End to end: with tenants on, a flow promoted to fluid carries
        # the sender's tenant in its profile — the group key component
        # that keeps hybrid-fidelity runs tenant-correct.
        costs = TENANT_COSTS.replace(flow_fastpath=True, fast_forward=True)
        tb = Testbed(NormanOS, costs=costs)
        alice = tb.machine.tenants.register("alice",
                                            uid=tb.user("alice").uid)
        app = PacedVictim(tb, user="alice", dport=10_000, count=40,
                          period_ns=20_000)
        app.start()
        tb.run_all()
        ctrl = tb.machine.ff
        promoted = [s for s in ctrl._flows.values() if s.profile is not None]
        assert ctrl.promotions > 0 and promoted
        assert all(s.profile.tenant_tid == alice.tid for s in promoted)

    @staticmethod
    def _isolation_probe(fast_forward):
        """Under isolation: two tenants (weights 1 and 4) each receive 200
        back-to-back MTU packets, and one tenant sends 64 spaced single
        packets. Returns the pipeline arbiter's traced work and grants and
        the egress qdisc's per-tenant accounting."""
        costs = ISO_COSTS.replace(flow_fastpath=True, trace=True,
                                  fast_forward=fast_forward)
        rx = Testbed(NormanOS, costs=costs)
        eps = []
        for i, (name, weight) in enumerate((("light", 1), ("heavy", 4))):
            rx.machine.tenants.register(name, uid=rx.user(name).uid,
                                        weight=weight)
            proc = rx.spawn(f"srv{i}", name, core_id=1 + i)
            eps.append(rx.dataplane.open_endpoint(proc, PROTO_UDP, 9_000 + i))
        rx.run_all()
        for _ in range(200):
            for i in range(2):
                rx.peer.send_udp(700 + i, 9_000 + i, 1_458)
        rx.run_all()
        assert drain_until_dry(rx.run_all, eps, 64) == 400
        tx = Testbed(NormanOS, costs=costs)
        alice = tx.machine.tenants.register("alice", uid=tx.user("alice").uid)
        PacedVictim(tx, user="alice", dport=10_000, count=64,
                    period_ns=20_000).start()
        tx.run_all()
        sched = tx.dataplane.nic.scheduler
        return {
            "nic_pipeline_ns": rx.machine.tracer.work_by_stage(
                include_wait=False)["nic_pipeline"],
            "pipeline_grants": rx.dataplane.nic.pipeline_clock.grants,
            "qdisc_hits": sched.point.hits,
            "tenant_sent_bytes": sched.qdisc.sent_bytes[alice.sched_class],
        }

    def test_isolation_runs_hybrid_exactly(self):
        # The per-tenant arbiters and egress classes are per-packet state
        # that depends on load, which no fluid epoch replays: under
        # isolation no flow may go fluid, so hybrid must match exact.
        assert self._isolation_probe(True) == self._isolation_probe(False)


class TestKernelAttribution:
    def test_netstack_counts_per_tenant_pkts_and_bytes(self):
        # The software kernel path: syscall sends cross KernelNetStack,
        # which stamps and counts per tenant.
        tb = Testbed(KernelPathDataplane, costs=TENANT_COSTS)
        reg = tb.machine.tenants
        alice = reg.register("alice", uid=tb.user("alice").uid)
        app = PacedVictim(tb, user="alice", dport=10_000, count=3,
                          period_ns=20_000)
        app.start()
        tb.run_all()
        snap = tb.kernel.netstack.metrics.snapshot()
        pkts = [v for k, v in snap.items()
                if k.endswith(f"tenant.{alice.tid}.pkts")]
        byts = [v for k, v in snap.items()
                if k.endswith(f"tenant.{alice.tid}.bytes")]
        assert pkts and pkts[0] >= 3
        assert byts and byts[0] > 0

    def test_packets_carry_the_tenant_stamp(self):
        tb = Testbed(NormanOS, costs=TENANT_COSTS)
        alice = tb.machine.tenants.register("alice",
                                            uid=tb.user("alice").uid)
        app = PacedVictim(tb, user="alice", dport=10_000, count=2,
                          period_ns=20_000)
        app.start()
        tb.run_all()
        stamped = [p for p in tb.peer.received
                   if p.meta.tenant_tid is not None]
        assert stamped and all(
            p.meta.tenant_tid == alice.tid for p in stamped
        )


class TestSeedIdentityWithKnobsOff:
    def test_default_run_grows_no_tenant_state(self):
        tb = Testbed(NormanOS)  # DEFAULT_COSTS: tenants off
        app = PacedVictim(tb, user="alice", dport=10_000, count=3,
                          period_ns=20_000)
        app.start()
        tb.run_all()
        assert tb.dataplane.nic.tenants is None
        assert not tb.dataplane.nic.tenant_classes
        assert tb.kernel.netstack.tenants is None
        for snap in (tb.kernel.snapshot(),
                     tb.dataplane.nic.metrics.snapshot()):
            assert not [k for k in snap if "tenant" in k]
        for pkt in tb.peer.received:
            assert pkt.meta.tenant_tid is None
