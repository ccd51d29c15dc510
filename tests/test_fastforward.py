"""Hybrid-fidelity engine tests.

The tentpole safety contract: a promoted (fluid) flow must drop back to
exact packet-level simulation at *every* interposition boundary, and the
packets after the boundary must be simulated exactly. Each boundary gets
its own test against the real KOPI plane; the controller's promotion /
absorption / flush mechanics are unit-tested against a stub plane.
"""

import pytest

from repro.config import DEFAULT_COSTS
from repro.errors import ConfigError, SimulationError
from repro.core.norman import NormanOS
from repro.dataplanes.testbed import HOST_IP, PEER_IP, Testbed
from repro.host.cpu import CpuSet
from repro.kernel.netfilter import CHAIN_INPUT, DROP, NetfilterRule
from repro.net.flow import FiveTuple
from repro.net.headers import PROTO_UDP
from repro.sim import Simulator
from repro.sim.fastforward import (
    REASON_CONNTRACK,
    REASON_FASTPATH,
    REASON_MIGRATE,
    REASON_POLICY,
    REASON_PRESSURE,
    REASON_QDISC,
    REASON_SHAPE,
    REASON_SWITCH,
    FastForwardController,
    FlowProfile,
)
from repro.trace import Tracer

PORT = 9_000
SPORT = 700


# ---------------------------------------------------------------------------
# Controller unit tests (stub plane)
# ---------------------------------------------------------------------------


class StubPlane:
    """Records every (key, n) the controller charges, through the deliver
    closure of the profile it hands out (``profile`` is the template;
    ``None``, or ``eligible = False``, refuses promotion)."""

    name = "stub"

    def __init__(self, profile):
        self.profile = profile
        self.eligible = True
        self.charges = []

    def ff_profile(self, key, pkt):
        t = self.profile
        if t is None or not self.eligible:
            return None
        return FlowProfile(
            t.spans, core_id=t.core_id, wire_len=t.wire_len,
            conn_id=t.conn_id,
            deliver=lambda n: self.charges.append((key, n)))


def _new_controller(costs):
    sim = Simulator()
    return sim, FastForwardController(sim, costs, Tracer(sim),
                                      CpuSet(sim, 2, costs))


def _controller(**over):
    return _new_controller(DEFAULT_COSTS.replace(
        flow_fastpath=True, fast_forward=True, ff_promote_after=3,
        ff_epoch_packets=8, ff_horizon_ns=500, **over,
    ))


def _profile(conn_id=7, wire_len=1_000):
    spans = (("nic_pipeline", 100, False, "rx"), ("ring", 50, True, "desc"))
    return FlowProfile(spans, core_id=0, wire_len=wire_len, conn_id=conn_id)


class TestControllerUnit:
    def test_promotion_needs_full_streak(self):
        _sim, ff = _controller()
        plane = StubPlane(_profile())
        for _ in range(2):
            ff.note_exact(plane, "k", None)
        assert not ff.promoted("k")
        ff.note_exact(plane, "k", None)
        assert ff.promoted("k")
        assert ff.promotions == 1

    def test_ineligible_flow_resets_streak(self):
        _sim, ff = _controller()
        plane = StubPlane(_profile())
        plane.eligible = False
        for _ in range(3):
            ff.note_exact(plane, "k", None)
        assert not ff.promoted("k")
        # Eligibility returning is not enough: the streak starts over.
        plane.eligible = True
        ff.note_exact(plane, "k", None)
        ff.note_exact(plane, "k", None)
        assert not ff.promoted("k")
        ff.note_exact(plane, "k", None)
        assert ff.promoted("k")

    def test_profile_refusal_resets_streak(self):
        _sim, ff = _controller()
        plane = StubPlane(None)
        for _ in range(3):
            ff.note_exact(plane, "k", None)
        assert not ff.promoted("k")
        plane.profile = _profile()
        for _ in range(3):
            ff.note_exact(plane, "k", None)
        assert ff.promoted("k")

    def test_absorb_refuses_unpromoted(self):
        _sim, ff = _controller()
        assert ff.absorb_packet("nobody", 1_000) is False
        assert ff.absorb("nobody", 16) is False
        with pytest.raises(SimulationError):
            ff.absorb("nobody", 0)

    def _promoted(self, **over):
        sim, ff = _controller(**over)
        plane = StubPlane(_profile())
        for _ in range(3):
            ff.note_exact(plane, "k", None)
        assert ff.promoted("k")
        return sim, ff, plane

    def test_epoch_flushes_at_epoch_packets(self):
        _sim, ff, plane = self._promoted()
        for _ in range(7):
            assert ff.absorb_packet("k", 1_000)
        assert plane.charges == []  # pending, not yet charged
        assert ff.absorb_packet("k", 1_000)
        assert plane.charges == [("k", 8)]
        assert ff.epochs == 1 and ff.fluid_packets == 8

    def test_horizon_flushes_partial_epoch(self):
        sim, ff, plane = self._promoted()
        assert ff.absorb("k", 3)
        assert plane.charges == []
        sim.run()
        assert plane.charges == [("k", 3)]
        # The flush horizon (not the epoch boundary), plus the 3 x 50 ns of
        # CPU the epoch then charged to the profile's core.
        assert sim.now == 500 + 3 * 50
        # A lone flow is a group of one: its horizon flush is a group epoch.
        assert ff.epochs == ff.group_epochs == 1

    def test_shape_mismatch_is_a_boundary(self):
        _sim, ff, plane = self._promoted()
        assert ff.absorb_packet("k", 1_000)
        assert ff.absorb_packet("k", 999) is False  # caller simulates it
        assert ff.demotions[REASON_SHAPE] == 1
        assert not ff.promoted("k")
        # The packet absorbed before the boundary was flushed first.
        assert plane.charges == [("k", 1)]
        assert ff.absorb_packet("k", 1_000) is False

    def test_demote_flushes_pending_under_old_profile(self):
        _sim, ff, plane = self._promoted()
        ff.absorb("k", 5)
        group_epochs = ff.group_epochs
        assert ff.demote("k", REASON_POLICY) is True
        # The residue is charged once, as a per-flow epoch, not a group one.
        assert plane.charges == [("k", 5)]
        assert ff.epochs == 1 and ff.group_epochs == group_epochs
        assert ff.demotions[REASON_POLICY] == 1
        assert ff.demote("k", REASON_POLICY) is False  # already exact

    def test_demote_unknown_reason_raises(self):
        _sim, ff, _plane = self._promoted()
        with pytest.raises(SimulationError):
            ff.demote("k", "gremlins")

    def test_demote_conn_and_flush_conn_use_profile_conn_id(self):
        _sim, ff, plane = self._promoted()
        ff.absorb("k", 2)
        ff.flush_conn(7)
        assert plane.charges == [("k", 2)]
        assert ff.promoted("k")  # flush does not change fidelity
        assert ff.demote_conn(7, REASON_SHAPE) == 1
        assert not ff.promoted("k")
        assert ff.demote_conn(7, REASON_SHAPE) == 0

    def test_working_set_quartile_crossing_demotes_all(self):
        _sim, ff, _plane = self._promoted()
        cap = 1_000
        ff.note_working_set(100, cap)  # establishes bucket 0
        assert ff.promoted("k")
        ff.note_working_set(200, cap)  # same quartile: no boundary
        assert ff.promoted("k")
        ff.note_working_set(300, cap)  # bucket 0 -> 1
        assert not ff.promoted("k")
        assert ff.demotions[REASON_PRESSURE] == 1

    def test_stats_shape(self):
        _sim, ff, _plane = self._promoted()
        ff.absorb("k", 8)
        stats = ff.stats()
        assert stats["promotions"] == 1
        assert stats["fluid_packets"] == 8
        assert set(stats["demotions"]) == {
            REASON_POLICY, REASON_FASTPATH, REASON_CONNTRACK,
            REASON_QDISC, REASON_PRESSURE, REASON_SHAPE, REASON_SWITCH,
            REASON_MIGRATE,
        }


class TestPromotionGate:
    """Promotion is one step: the plane's profile, then the gate's answer
    for it (the rack coordinator's hook), which is the profile the flow
    promotes under, or None to veto."""

    @staticmethod
    def _gated(ff, answer):
        """Install a gate that records each call and returns
        ``answer(profile)``."""
        calls = []

        def gate(plane, key, profile):
            calls.append(key)
            return answer(profile)

        ff.promotion_gate = gate
        return calls

    def test_plane_refusal_never_reaches_the_gate(self):
        _sim, ff = _controller()
        calls = self._gated(ff, lambda profile: profile)
        plane = StubPlane(None)
        for _ in range(3):
            ff.note_exact(plane, "k", None)
        assert not ff.promoted("k")
        assert calls == []
        # The refusal started the streak over.
        plane.profile = _profile()
        ff.note_exact(plane, "k", None)
        ff.note_exact(plane, "k", None)
        assert calls == [] and not ff.promoted("k")
        ff.note_exact(plane, "k", None)
        assert calls == ["k"] and ff.promoted("k")

    def test_gate_veto_resets_streak_and_leaves_no_group(self):
        _sim, ff = _controller()
        calls = self._gated(ff, lambda profile: None)
        plane = StubPlane(_profile())
        for _ in range(3):
            ff.note_exact(plane, "k", None)
        assert calls == ["k"]
        assert not ff.promoted("k")
        assert ff.groups == 0 and ff.promotions == 0
        # The veto started the streak over: the gate is next asked after
        # a full streak, not on the next packet.
        ff.note_exact(plane, "k", None)
        ff.note_exact(plane, "k", None)
        assert calls == ["k"]
        ff.note_exact(plane, "k", None)
        assert calls == ["k", "k"]

    def test_gate_pass_promotes_under_the_returned_profile(self):
        costs = DEFAULT_COSTS.replace(
            flow_fastpath=True, fast_forward=True, ff_promote_after=3)
        sim = Simulator()
        tracer = Tracer(sim, enabled=True)
        ff = FastForwardController(sim, costs, tracer, CpuSet(sim, 2, costs))
        wire = ("wire", 400, False, "peer.down")
        self._gated(ff, lambda profile: FlowProfile(
            profile.spans + (wire,), profile.core_id, profile.wire_len,
            deliver=profile.deliver, conn_id=profile.conn_id))
        plane = StubPlane(_profile())
        for _ in range(3):
            ff.note_exact(plane, "k", None)
        assert ff.promoted("k")
        assert ff.groups == 1
        assert ff.absorb("k", 4)
        ff.flush_all()
        assert tracer.epochs() == [("stub", 4, _profile().spans + (wire,))]
        assert plane.charges == [("k", 4)]


# ---------------------------------------------------------------------------
# Boundary tests against the real KOPI plane
# ---------------------------------------------------------------------------


def _testbed(**over):
    costs = DEFAULT_COSTS.replace(
        flow_fastpath=True, fast_forward=True, ff_promote_after=2, **over,
    )
    tb = Testbed(NormanOS, costs=costs, n_cores=2)
    proc = tb.spawn("srv", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, PORT)
    tb.run_all()
    return tb, ep


def _flow(port=PORT, sport=SPORT):
    return FiveTuple(PROTO_UDP, PEER_IP, sport, HOST_IP, port)


def _promote(tb, port=PORT, sport=SPORT, payload=256):
    # Packet 1 misses and installs the verdict-cache entry; two hits then
    # complete the ff_promote_after=2 streak.
    for _ in range(3):
        tb.peer.send_udp(sport, port, payload)
        tb.run_all()
    assert tb.machine.ff.promoted(_flow(port, sport))


def _rx_pkts(tb):
    return tb.dataplane.nic.metrics.counter("rx_pkts").value


def _assert_fluid_then_exact(tb, boundary, payload=256):
    """Promote, observe absorption, run ``boundary``, then prove the next
    packet is simulated exactly. ``rx_pkts`` moves either way (the fluid
    flush replays it — that is the conservation contract), so the
    discriminator is ``fluid_packets``: it counts absorbed packets only."""
    ff = tb.machine.ff
    _promote(tb, payload=payload)
    fluid0 = ff.fluid_packets
    tb.peer.send_udp(SPORT, PORT, payload)
    tb.run_all()  # includes the horizon flush of the absorbed packet
    assert ff.fluid_packets == fluid0 + 1  # absorbed, not simulated
    boundary()
    tb.run_all()
    assert not ff.promoted(_flow())
    fluid1 = ff.fluid_packets
    before = _rx_pkts(tb)
    tb.peer.send_udp(SPORT, PORT, payload)
    tb.run_all()
    assert ff.fluid_packets == fluid1     # nothing absorbed any more
    assert _rx_pkts(tb) == before + 1     # packet-exact from the boundary on


class TestBoundaries:
    def test_policy_commit_demotes(self):
        tb, _ep = _testbed()

        def commit():
            tb.dataplane.install_filter_rule(NetfilterRule(
                verdict=DROP, chain=CHAIN_INPUT, proto=PROTO_UDP,
                dport=PORT + 1,
            ))

        _assert_fluid_then_exact(tb, commit)
        assert tb.machine.ff.demotions[REASON_POLICY] >= 1

    def test_fastpath_lru_eviction_demotes(self):
        tb, ep = _testbed(flow_fastpath_entries=4)

        def churn():
            # Fresh flows to the same endpoint install fresh verdict-cache
            # entries; with 4 slots the promoted flow's (idle, since its
            # packets are absorbed before lookup) entry goes first.
            for i in range(8):
                tb.peer.send_udp(SPORT + 1 + i, PORT, 256)
                tb.run_all()

        _assert_fluid_then_exact(tb, churn)
        assert tb.machine.ff.demotions[REASON_FASTPATH] >= 1

    def test_conntrack_expiry_demotes(self):
        tb, _ep = _testbed()

        def expire():
            dropped = tb.machine.fastpath.evict_flow(_flow())
            assert dropped >= 1

        _assert_fluid_then_exact(tb, expire)
        assert tb.machine.ff.demotions[REASON_CONNTRACK] == 1

    def test_qdisc_backlog_threshold_demotes(self):
        # Slow link so a TX burst outruns the paced drain and the egress
        # qdisc backlog crosses the (tiny) demote threshold.
        tb, ep = _testbed(ff_qdisc_backlog=4, nic_line_rate_bps=10**9)

        def burst():
            ep.send_burst([256] * 32, dst=(PEER_IP, SPORT))

        _assert_fluid_then_exact(tb, burst)
        assert tb.dataplane.nic.scheduler.metrics.counter(
            "pressure_events").value >= 1
        assert tb.machine.ff.demotions[REASON_QDISC] >= 1

    def test_sram_exhaustion_demotes(self):
        # Opening a connection is itself a policy-resync boundary, so fill
        # the NIC SRAM first, re-promote, and only then overflow it: the
        # exhaustion fires before that open's own resync, while the flow
        # is still fluid — the demotion must be the pressure cliff.
        tb, _ep = _testbed(smartnic_sram_bytes=32_768)
        ff = tb.machine.ff
        proc = tb.spawn("hog", "bob", core_id=1)
        sram = tb.dataplane.nic.sram
        conn_state = tb.machine.costs.conn_state_bytes
        i = 0
        while sram.free_bytes >= conn_state and i < 400:
            tb.dataplane.open_endpoint(proc, PROTO_UDP, PORT + 1 + i)
            i += 1
        assert sram.free_bytes < conn_state, "SRAM never filled"
        tb.run_all()
        _promote(tb)
        tb.dataplane.open_endpoint(proc, PROTO_UDP, PORT + 1 + i)
        tb.run_all()
        assert tb.dataplane.control.metrics.counter(
            "fallback_conns").value >= 1
        assert ff.demotions[REASON_PRESSURE] >= 1
        assert not ff.promoted(_flow())

    def test_shape_change_demotes_and_delivers_exactly(self):
        tb, _ep = _testbed()
        ff = tb.machine.ff
        _promote(tb, payload=256)
        before = _rx_pkts(tb)
        tb.peer.send_udp(SPORT, PORT, 512)  # different wire length
        tb.run_all()
        assert ff.demotions[REASON_SHAPE] == 1
        assert not ff.promoted(_flow())
        assert _rx_pkts(tb) == before + 1  # the mismatched packet ran exact

    def test_connection_close_demotes(self):
        tb, ep = _testbed()
        ff = tb.machine.ff
        _promote(tb)
        ep.close()
        tb.run_all()
        assert not ff.promoted(_flow())
        assert ff.demotions[REASON_SHAPE] >= 1

    def test_exact_mode_builds_no_controller(self):
        costs = DEFAULT_COSTS.replace(flow_fastpath=True)
        tb = Testbed(NormanOS, costs=costs, n_cores=2)
        assert tb.machine.ff is None


# ---------------------------------------------------------------------------
# Parity smoke: hybrid == exact at tiny scale
# ---------------------------------------------------------------------------


class TestParitySmoke:
    def test_tiny_parity_run_matches_exactly(self):
        from repro.experiments.e21_fidelity_crossover import run_parity

        out = run_parity(n_conns=16, packets_total=256)
        assert out["ok"], out["rows"]
        assert out["fluid_fraction"] > 0  # the hybrid leg actually went fluid
        for row in out["rows"]:
            assert row["ok"], row


# ---------------------------------------------------------------------------
# Satellite regressions: run_until_idle budget, weighted histograms, gating
# ---------------------------------------------------------------------------


class TestRunUntilIdleBudget:
    def test_fires_exactly_max_events_before_raising(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.after(1, tick)

        sim.after(0, tick)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=5)
        assert len(fired) == 5  # the budget is exact, not off by one

    def test_exact_budget_for_finite_work_is_enough(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.after(i, lambda i=i: fired.append(i))
        sim.run_until_idle(max_events=5)
        assert fired == [0, 1, 2, 3, 4]


class TestWeightedHistogram:
    def test_observe_n_counts_all(self):
        from repro.sim import MetricSet

        h = MetricSet("t").histogram("lat")
        h.observe(10.0, n=4)
        h.observe(30.0)
        assert h.count == 5
        assert h.total == 70.0
        assert h.minimum == 10.0 and h.maximum == 30.0

    def test_observe_rejects_nonpositive_n(self):
        from repro.sim import MetricSet

        h = MetricSet("t").histogram("lat")
        with pytest.raises(ValueError):
            h.observe(1.0, n=0)


class TestConfigGating:
    def test_fast_forward_requires_flow_fastpath(self):
        with pytest.raises(ConfigError):
            DEFAULT_COSTS.replace(fast_forward=True, flow_fastpath=False)

    def test_ff_knobs_validated(self):
        with pytest.raises(ConfigError):
            DEFAULT_COSTS.replace(
                flow_fastpath=True, fast_forward=True, ff_promote_after=0)

    def test_default_costs_are_exact_mode(self):
        assert DEFAULT_COSTS.fast_forward is False


# ---------------------------------------------------------------------------
# Property: group-epoch charging = packet-exact
# ---------------------------------------------------------------------------


from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st


class LedgerPlane:
    """Records exactly which (key, n) the controller charges, through each
    profile's deliver closure, so the charge ledger can be compared with
    the packets the schedule actually absorbed."""

    name = "ledger"

    def __init__(self, spans, cores):
        self.spans = spans
        self.cores = cores
        self.charged = Counter()
        self.delivers = 0

    def ff_profile(self, key, pkt):
        return FlowProfile(self.spans, core_id=self.cores[key],
                           wire_len=1_000,
                           deliver=lambda n: self._deliver(key, n))

    def _deliver(self, key, n):
        assert n > 0
        self.charged[key] += n
        self.delivers += 1


def _drive_schedule(ops):
    """Replay one random promote/absorb/demote/commit/flush interleaving
    through a controller. Returns the controller, the charge ledger, and
    offered/exact/fluid packet counts per flow."""
    sim, ctl = _new_controller(DEFAULT_COSTS.replace(
        flow_fastpath=True, fast_forward=True, ff_promote_after=2,
        ff_epoch_packets=8, ff_horizon_ns=500,
    ))
    keys = ["a", "b", "c", "d"]
    spans = (("nic_pipeline", 100, False, "rx"), ("ring", 50, True, "desc"))
    # Two shape classes: flows a/b group together, c/d group together.
    plane = LedgerPlane(spans, {k: (0 if k in "ab" else 1) for k in keys})
    offered, exact, fluid = Counter(), Counter(), Counter()
    for action, ki, cnt in ops:
        key = keys[ki]
        if action == "pkt":
            offered[key] += cnt
            if ctl.promoted(key):
                assert ctl.absorb(key, cnt)
                fluid[key] += cnt
            else:
                # Pre-promotion packets arrive one by one; a packet that
                # completes the streak promotes, and the *next* one is
                # the first absorbed.
                for _ in range(cnt):
                    if ctl.promoted(key):
                        assert ctl.absorb(key, 1)
                        fluid[key] += 1
                    else:
                        ctl.note_exact(plane, key, None)
                        exact[key] += 1
        elif action == "demote":
            ctl.demote(key, REASON_POLICY)
        elif action == "commit":
            ctl.demote_all(REASON_POLICY)
        elif action == "flush":
            ctl.flush_all()
        else:  # "tick": let horizon timers fire
            sim.run()
    ctl.flush_all()
    ctl.demote_all(REASON_POLICY)
    sim.run()
    return ctl, plane, offered, exact, fluid


class TestChargingModeEquivalence:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["pkt", "pkt", "pkt", "demote", "commit", "flush", "tick"]
                ),
                st.integers(0, 3),
                st.integers(1, 12),
            ),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_group_equals_exact(self, ops):
        ctl, plane, offered, exact, fluid = _drive_schedule(ops)
        # Every offered packet ran exactly once: simulated exact, or
        # absorbed and then charged exactly once to its own flow — group
        # flushes and demotion residue alike.
        assert set(plane.charged) <= set(fluid)
        for key in offered:
            assert plane.charged[key] == fluid[key]
            assert plane.charged[key] + exact[key] == offered[key]
        assert ctl.fluid_packets == sum(fluid.values())
        # Each epoch charges at least one member; group epochs are a
        # subset of all epochs (the rest are per-flow residue flushes).
        assert ctl.group_epochs <= ctl.epochs <= plane.delivers
