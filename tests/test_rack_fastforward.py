"""Rack-scale fast-forward: end-to-end fluid epochs across the switch hop.

The cross-machine safety contract mirrors the single-host one: a flow
bound end-to-end (sender TX profile + switch hop + receiver RX profile in
one epoch) must demote *as a whole* at either machine's demotion boundary
and at every switch-state change, with the pending bulk flushed through
the still-promoted chain before the boundary's effect is simulated. Each
boundary gets its own test against two real Norman stacks; a hypothesis
property pins cross-machine charging (group, per-flow, exact) to the same
counted observables; and a seed-identity guard proves the knob is inert
until both enabled and exercised.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_COSTS
from repro.core.norman import NormanOS
from repro.dataplanes import KernelPathDataplane
from repro.dataplanes.multihost import (
    HOST_A_IP,
    HOST_A_MAC,
    HOST_B_IP,
    HOST_B_MAC,
    TwoHostTestbed,
)
from repro.kernel.netfilter import CHAIN_INPUT, DROP, NetfilterRule
from repro.net import MacAddress, MatchAction, NetworkInterposer, make_udp
from repro.net.flow import FiveTuple
from repro.net.headers import PROTO_UDP
from repro.sim.fastforward import (
    REASON_CONNTRACK,
    REASON_POLICY,
    REASON_SWITCH,
)

A_PORT = 20_000
B_PORT = 10_000
PAYLOAD = 600


def _costs(**over):
    base = dict(
        flow_fastpath=True, fast_forward=True, ff_tx=True,
        ff_cross_machine=True, ff_promote_after=1,
    )
    base.update(over)
    return DEFAULT_COSTS.replace(**base)


def _rack_pair(costs=None, n_conns=1, plane_b=NormanOS):
    tb = TwoHostTestbed(NormanOS, plane_b, costs=costs or _costs(),
                        n_cores=2)
    pa = tb.host_a.spawn("cli", "bob", core_id=1)
    pb = tb.host_b.spawn("srv", "carol", core_id=1)
    eps_a = [tb.host_a.dataplane.open_endpoint(pa, PROTO_UDP, A_PORT + i)
             for i in range(n_conns)]
    eps_b = [tb.host_b.dataplane.open_endpoint(pb, PROTO_UDP, B_PORT + i)
             for i in range(n_conns)]
    tb.run_all()
    # B speaks once so the switch learns its port (the ARP-reply
    # analogue); A→B-only traffic would flood every frame and the
    # promotion gate would veto forever.
    eps_b[0].send(64, (HOST_A_IP, A_PORT))
    tb.run_all()
    return tb, eps_a, eps_b


def _send(tb, eps_a, rounds=1, payload=PAYLOAD):
    """Spaced single sends on every A endpoint; each TX chain completes
    before the next send (the steady state the profile captures)."""
    for _ in range(rounds):
        for i, ep in enumerate(eps_a):
            tb.sim.at(tb.sim.now + 1_000, ep.send, payload,
                      (HOST_B_IP, B_PORT + i))
            tb.run_all()


def _drain(tb, eps_b):
    got = [0]

    def _count(sig):
        if sig.ok:
            got[0] += len(sig.value)

    while True:
        before = got[0]
        for ep in eps_b:
            ep.recv_burst(64, blocking=False).add_callback(_count)
        tb.run_all()
        if got[0] == before:
            return got[0]


def _flow(i=0):
    return FiveTuple(PROTO_UDP, HOST_A_IP, A_PORT + i, HOST_B_IP, B_PORT + i)


def _bind(tb, eps_a, n_conns=1):
    # send 1: TX cache install; send 2: first TX hit, gate vetoed (the
    # receiver promotes one wire latency later); send 3: bound.
    _send(tb, eps_a, rounds=3)
    assert tb.rack.bound == n_conns, tb.rack.stats()


def _uplink_sent(tb):
    return tb.host_a.uplink.metrics.counter("sent").value


class TestEndToEndBinding:
    def test_binds_and_absorbs_at_send(self):
        tb, eps_a, eps_b = _rack_pair()
        _bind(tb, eps_a)
        a_ff, b_ff = tb.host_a.machine.ff, tb.host_b.machine.ff
        assert a_ff.promoted(_flow()) and b_ff.promoted(_flow())
        wire = _uplink_sent(tb)
        fluid0 = a_ff.fluid_packets
        _send(tb, eps_a, rounds=3)
        # Absorbed at the send() call — the wire counter still moves,
        # because the horizon flush replays each epoch exactly (that is
        # the conservation contract); fluid_packets counts only the
        # absorbed ones and is the discriminator.
        assert a_ff.fluid_packets == fluid0 + 3
        tb.rack.flush_all()
        tb.run_all()
        # Epoch replay moved both machines and the hop exactly.
        assert _uplink_sent(tb) == wire + 3
        assert _drain(tb, eps_b) == 6

    def test_gate_refuses_unsteady_switch_path(self):
        # No B→A teach: every A→B frame floods, the path is never frozen.
        tb = TwoHostTestbed(NormanOS, NormanOS, costs=_costs(), n_cores=2)
        pa = tb.host_a.spawn("cli", "bob", core_id=1)
        pb = tb.host_b.spawn("srv", "carol", core_id=1)
        ep_a = tb.host_a.dataplane.open_endpoint(pa, PROTO_UDP, A_PORT)
        tb.host_b.dataplane.open_endpoint(pb, PROTO_UDP, B_PORT)
        tb.run_all()
        _send(tb, [ep_a], rounds=5)
        assert tb.rack.bound == 0
        assert tb.rack.stats()["gate_vetoes"] >= 1


class TestMixedRack:
    def test_kopi_sender_to_kernel_host_stays_exact(self):
        """Only KOPI promotes: a kernel receiver never goes fluid, so the
        gate vetoes every TX promotion toward it and nothing binds."""
        tb, eps_a, eps_b = _rack_pair(plane_b=KernelPathDataplane)
        _send(tb, eps_a, rounds=64, payload=100)
        assert _drain(tb, eps_b) == 64
        assert tb.host_a.machine.ff.promotions == 0
        assert tb.host_b.machine.ff.promotions == 0
        stats = tb.rack.stats()
        assert stats["bindings"] == 0
        assert stats["gate_vetoes"] > 0
        assert not tb.host_b.downlink.has_fluid_rx


def _assert_demoted_end_to_end(tb, eps_a, eps_b, boundary, sends=4):
    """Bind, absorb one send, trigger ``boundary``, then prove the whole
    end-to-end flow is exact again: the next send crosses the real wire."""
    _bind(tb, eps_a)
    _send(tb, eps_a)  # absorbed
    a_ff, b_ff = tb.host_a.machine.ff, tb.host_b.machine.ff
    boundary()
    tb.run_all()
    assert tb.rack.bound == 0
    assert not a_ff.promoted(_flow())
    assert not b_ff.promoted(_flow())
    wire = _uplink_sent(tb)
    fluid = a_ff.fluid_packets
    _send(tb, eps_a)
    assert a_ff.fluid_packets == fluid      # nothing absorbed any more
    assert _uplink_sent(tb) == wire + 1     # packet-exact across the hop
    # Flush-through conservation: every send before the boundary, plus
    # the exact probe after it, reached B's application exactly once.
    assert _drain(tb, eps_b) == sends + 1


class TestCrossMachineBoundaries:
    def test_sender_policy_commit_demotes_both_ends(self):
        tb, eps_a, eps_b = _rack_pair()

        def commit():
            tb.host_a.dataplane.install_filter_rule(NetfilterRule(
                verdict=DROP, chain=CHAIN_INPUT, proto=PROTO_UDP,
                dport=A_PORT + 7,
            ))

        _assert_demoted_end_to_end(tb, eps_a, eps_b, commit)
        assert tb.host_a.machine.ff.demotions[REASON_POLICY] >= 1

    def test_receiver_policy_commit_demotes_both_ends(self):
        tb, eps_a, eps_b = _rack_pair()

        def commit():
            tb.host_b.dataplane.install_filter_rule(NetfilterRule(
                verdict=DROP, chain=CHAIN_INPUT, proto=PROTO_UDP,
                dport=B_PORT + 7,
            ))

        _assert_demoted_end_to_end(tb, eps_a, eps_b, commit)
        assert tb.host_b.machine.ff.demotions[REASON_POLICY] >= 1

    def test_receiver_conntrack_expiry_demotes_both_ends(self):
        tb, eps_a, eps_b = _rack_pair()

        def expire():
            assert tb.host_b.machine.fastpath.evict_flow(_flow()) >= 1

        _assert_demoted_end_to_end(tb, eps_a, eps_b, expire)
        assert tb.host_b.machine.ff.demotions[REASON_CONNTRACK] >= 1

    def test_sender_fastpath_evict_demotes_both_ends(self):
        tb, eps_a, eps_b = _rack_pair()

        def evict():
            assert tb.host_a.machine.fastpath.evict_flow(_flow()) >= 1

        _assert_demoted_end_to_end(tb, eps_a, eps_b, evict)
        assert tb.host_a.machine.ff.demotions[REASON_CONNTRACK] >= 1

    def test_switch_rule_install_demotes_both_ends(self):
        tb, eps_a, eps_b = _rack_pair()
        p4 = NetworkInterposer(tb.sim)

        def install():
            tb.switch.attach_interposer(p4)
            p4.add_rule(MatchAction(action="allow"))

        _assert_demoted_end_to_end(tb, eps_a, eps_b, install)
        assert tb.host_a.machine.ff.demotions[REASON_SWITCH] >= 1
        assert tb.host_b.machine.ff.demotions[REASON_SWITCH] >= 1
        # With any rule installed the path is no longer frozen: the flow
        # may not re-bind no matter how steady the traffic.
        _send(tb, eps_a, rounds=4)
        assert tb.rack.bound == 0

    def test_switch_flood_demotes_both_ends(self):
        tb, eps_a, eps_b = _rack_pair()

        def flood():
            # A frame to a never-learned MAC floods — a switch-state event
            # the frozen path cannot absorb.
            stray = make_udp(HOST_A_MAC, MacAddress.from_index(9),
                             HOST_A_IP, HOST_B_IP, 1, 2, 64)
            tb.host_a.uplink.send(stray)

        _assert_demoted_end_to_end(tb, eps_a, eps_b, flood)
        assert tb.host_a.machine.ff.demotions[REASON_SWITCH] >= 1

    def test_mac_move_demotes_both_ends(self):
        tb, eps_a, eps_b = _rack_pair()
        _bind(tb, eps_a)
        _send(tb, eps_a)  # absorbed
        # B's MAC shows up on A's port: a table *move*, the classic
        # mobility/misconfiguration event. Everything bound demotes and
        # the pending bulk flushes against the pre-move table.
        imposter = make_udp(HOST_B_MAC, MacAddress.from_index(9),
                            HOST_B_IP, HOST_A_IP, 3, 4, 64)
        tb.host_a.uplink.send(imposter)
        tb.run_all()
        assert tb.rack.bound == 0
        assert not tb.host_a.machine.ff.promoted(_flow())
        assert not tb.host_b.machine.ff.promoted(_flow())
        assert tb.host_a.machine.ff.demotions[REASON_SWITCH] >= 1
        # The flush happened before the move took effect: all four sends
        # made it to B.
        assert _drain(tb, eps_b) == 4


class TestChargingEquivalence:
    """Cross-machine group charging ≡ exact, on every counted observable —
    the rack analogue of the single-host property."""

    def _observe(self, costs, n_conns, rounds):
        tb, eps_a, eps_b = _rack_pair(costs=costs, n_conns=n_conns)
        _send(tb, eps_a, rounds=rounds)
        if tb.rack is not None:
            tb.rack.flush_all()
            tb.run_all()
        delivered = _drain(tb, eps_b)
        nic_a = tb.host_a.dataplane.nic
        nic_b = tb.host_b.dataplane.nic
        return {
            "delivered": delivered,
            "a_tx": int(nic_a.metrics.counter("tx_pkts").value),
            "b_rx": int(nic_b.metrics.counter("rx_pkts").value),
            "frames": int(tb.switch.metrics.counter("frames").value),
            "flooded": int(tb.switch.metrics.counter("flooded").value),
            "up_sent": int(_uplink_sent(tb)),
            "up_bytes": int(tb.host_a.uplink.metrics.meter("bytes").total_bytes),
            "down_sent": int(tb.host_b.downlink.metrics.counter("sent").value),
            "a_mmio": int(tb.host_a.machine.dma.metrics.counter("mmio_writes").value),
        }

    @given(
        n_conns=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=4, max_value=7),
    )
    @settings(max_examples=6, deadline=None)
    def test_group_equals_exact(self, n_conns, rounds):
        exact = self._observe(
            DEFAULT_COSTS.replace(flow_fastpath=True), n_conns, rounds)
        group = self._observe(_costs(), n_conns, rounds)
        assert exact == group


class TestSeedIdentity:
    """The knob must be inert: default costs build no rack coordinator,
    and with the knob on but no flow ever promoted the multihost event
    trace is identical to the knob-off tree."""

    def test_default_costs_build_no_rack(self):
        tb = TwoHostTestbed(NormanOS, NormanOS)
        assert tb.rack is None
        assert tb.host_a.machine.ff is None
        assert not tb.host_a.uplink.has_fluid_rx
        assert not tb.host_b.downlink.has_fluid_rx

    @staticmethod
    def _fingerprint(costs):
        tb, eps_a, eps_b = _rack_pair(costs=costs)
        _send(tb, eps_a, rounds=4)
        delivered = _drain(tb, eps_b)
        return {
            "end_time": tb.sim.now,
            "events": tb.sim.events_fired,
            "delivered": delivered,
            "a_tx": tb.host_a.dataplane.nic.metrics.counter("tx_pkts").value,
            "b_rx": tb.host_b.dataplane.nic.metrics.counter("rx_pkts").value,
            "frames": tb.switch.metrics.counter("frames").value,
            "up_sent": _uplink_sent(tb),
            "busy_a": tuple(c.busy_ns for c in tb.host_a.machine.cpus.cores),
            "busy_b": tuple(c.busy_ns for c in tb.host_b.machine.cpus.cores),
        }

    def test_knob_on_without_promotion_is_trace_identical(self):
        # promote_after above the traffic volume: fast-forward machinery
        # live on both trees, but nothing ever promotes — the rack hooks,
        # switch hooks, and fluid link attachments must all be free.
        off = self._fingerprint(_costs(ff_cross_machine=False,
                                       ff_promote_after=50))
        on = self._fingerprint(_costs(ff_promote_after=50))
        assert on == off
        assert on["delivered"] == 4

    def test_knob_requires_fast_forward(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DEFAULT_COSTS.replace(flow_fastpath=True, ff_cross_machine=True)
