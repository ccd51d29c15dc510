"""Cluster scale-out: the in-switch L4 balancer and live flow migration.

The two contracts under test mirror E18's two legs. *Atomicity*: a
re-steering commit is a single boundary in time — every packet forwarded
before it steers by the complete old table, every packet after by the
complete new one, and no interleaving of commits and traffic can expose a
half-installed rule (hypothesis property over commit/arrival schedules).
*Conservation*: migrating a live flow at any point in its life preserves
every cluster-summed observable — delivered messages per flow, conntrack
packets/bytes — exactly (hypothesis property over migration points). Plus
the cross-machine epoch contract (adopting a flow's state bumps the
target's policy epoch, invalidating whatever the target had cached) and
the seed-identity guard (knobs off ⇒ no balancer object, trace-identical
to the pre-cluster rack).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HashRing, vip_mac
from repro.cluster.balancer import L4LoadBalancer
from repro.config import DEFAULT_COSTS
from repro.core.norman import NormanOS
from repro.dataplanes.multihost import HostSpec, Rack, TwoHostTestbed
from repro.errors import ConfigError, PolicyError
from repro.interpose.fastpath import CHAIN_KOPI_RX
from repro.net import MacAddress, make_udp
from repro.net.addresses import BROADCAST_MAC
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.headers import PROTO_UDP
from repro.net.link import Link
from repro.net.switch import L2Switch
from repro.sim import Simulator

VIP = IPv4Address.parse("10.0.9.9")
SERVICE_PORT = 2_000
CLIENT_PORT = 22_000
TEACH_PORT = 21_000
PAYLOAD = 600


def _costs(**over):
    base = dict(
        flow_fastpath=True, fast_forward=True, ff_tx=True,
        ff_promote_after=2, cluster_lb=True,
    )
    base.update(over)
    return DEFAULT_COSTS.replace(**base)


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(16), HashRing(16)
        for name in ("x", "y", "z"):
            a.add(name)
            b.add(name)
        keys = [f"flow-{i}" for i in range(200)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_every_backend_reachable(self):
        ring = HashRing(32)
        for name in ("x", "y", "z"):
            ring.add(name)
        seen = {ring.lookup(f"flow-{i}") for i in range(500)}
        assert seen == {"x", "y", "z"}

    def test_remove_only_remaps_removed_backends_keys(self):
        ring = HashRing(32)
        for name in ("x", "y", "z"):
            ring.add(name)
        keys = [f"flow-{i}" for i in range(300)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove("z")
        for k in keys:
            if before[k] != "z":
                # Consistent hashing: survivors keep their assignment.
                assert ring.lookup(k) == before[k]

    def test_errors(self):
        ring = HashRing(4)
        with pytest.raises(PolicyError):
            ring.lookup("anything")  # empty ring
        ring.add("x")
        with pytest.raises(PolicyError):
            ring.add("x")
        with pytest.raises(PolicyError):
            ring.remove("y")
        with pytest.raises(PolicyError):
            HashRing(0)


def _cluster(n_flows=2, costs=None):
    """Client + two backends behind one VIP, listeners everywhere, switch
    taught; returns (rack, client eps, {backend: eps})."""
    costs = costs or _costs()
    specs = [HostSpec.indexed(0, "client", NormanOS),
             HostSpec.indexed(1, "srv0", NormanOS),
             HostSpec.indexed(2, "srv1", NormanOS)]
    rack = Rack(specs, costs=costs, n_cores=2)
    client = rack.host("client")
    rack.add_vip(VIP, ["srv0", "srv1"])
    for name in ("srv0", "srv1"):
        rack.host(name).dataplane.control.enable_conntrack()
    cli_proc = client.spawn("cli", "bob", core_id=1)
    cli_eps = [client.dataplane.open_endpoint(cli_proc, PROTO_UDP,
                                              CLIENT_PORT + i)
               for i in range(n_flows)]
    client.dataplane.open_endpoint(cli_proc, PROTO_UDP, TEACH_PORT)
    srv_eps = {}
    for name in ("srv0", "srv1"):
        host = rack.host(name)
        proc = host.spawn("srv", "carol", core_id=1)
        srv_eps[name] = [host.dataplane.open_endpoint(proc, PROTO_UDP,
                                                      SERVICE_PORT + i)
                         for i in range(n_flows)]
    rack.run_all()
    for name in ("srv0", "srv1"):
        srv_eps[name][0].send(64, (client.ip, TEACH_PORT))
    rack.run_all()
    return rack, cli_eps, srv_eps


def _flow(rack, i=0):
    return FiveTuple(PROTO_UDP, rack.host("client").ip, CLIENT_PORT + i,
                     VIP, SERVICE_PORT + i)


def _send(rack, cli_eps, rounds, gap_ns=2_000):
    base = rack.sim.now + 1_000
    k = 0
    for _ in range(rounds):
        for i, ep in enumerate(cli_eps):
            rack.sim.at(base + k * gap_ns, ep.send, PAYLOAD,
                        (VIP, SERVICE_PORT + i))
            k += 1
    rack.run_all()
    return k


def _drain(rack, srv_eps):
    per_flow = {}
    got = [0]

    def _cb(i):
        def cb(sig):
            if sig.ok:
                got[0] += len(sig.value)
                per_flow[i] = per_flow.get(i, 0) + len(sig.value)
        return cb

    while True:
        before = got[0]
        for eps in srv_eps.values():
            for i, ep in enumerate(eps):
                ep.recv_burst(64, blocking=False).add_callback(_cb(i))
        rack.run_all()
        if got[0] == before:
            return got[0], per_flow


def _ct(rack, name):
    return rack.host(name).dataplane.nic.conntrack


class TestBalancer:
    def test_steer_rewrites_mac_and_delivers(self):
        rack, cli_eps, srv_eps = _cluster()
        sent = _send(rack, cli_eps, rounds=3)
        delivered, per_flow = _drain(rack, srv_eps)
        assert delivered == sent == 6
        assert rack.balancer.metrics.counter("steered").value == sent
        # Every flow landed wholly on its ring-chosen backend.
        for i in (0, 1):
            home = rack.balancer.backend_for(_flow(rack, i))
            entry = _ct(rack, home).lookup(_flow(rack, i))
            assert entry is not None and entry.packets == 3

    def test_vip_validation(self):
        rack, _, _ = _cluster()
        with pytest.raises(PolicyError):
            rack.add_vip(VIP, ["srv0"])  # already installed
        with pytest.raises(PolicyError):
            rack.add_vip(IPv4Address.parse("10.0.9.10"), ["nope"])

    def test_add_vip_requires_knob(self):
        tb = TwoHostTestbed(NormanOS, NormanOS)
        assert tb.balancer is None
        with pytest.raises(PolicyError):
            tb.add_vip(VIP, ["hostB"])

    def test_override_invisible_until_commit_fires(self):
        rack, _, _ = _cluster()
        flow = _flow(rack)
        home = rack.balancer.backend_for(flow)
        other = "srv1" if home == "srv0" else "srv0"
        done = rack.balancer.begin_resteer(flow, other)
        # Staged but not committed: the decision surface still shows the
        # ring's choice.
        assert rack.balancer.backend_for(flow) == home
        rack.sim.after(500, done.succeed, True)
        rack.run_all()
        assert done.ok
        assert rack.balancer.backend_for(flow) == other
        stats = rack.balancer.commit_stats()
        assert stats["resteers"] == 1 and stats["commits"] >= 1

    def test_backend_kernels_know_their_vip(self):
        rack, _, _ = _cluster()
        assert rack.host("srv0").kernel.netstack.serves_vip(VIP)
        assert not rack.host("client").kernel.netstack.serves_vip(VIP)


class TestResteerAtomicity:
    """No packet is ever evaluated against a half-installed steering rule:
    over arbitrary interleavings of frame arrivals and a re-steer commit,
    the delivery split is a single boundary exactly at the commit fire."""

    CLIENT_MAC = MacAddress.from_index(10)
    B1_MAC = MacAddress.from_index(11)
    B2_MAC = MacAddress.from_index(12)
    CLIENT_IP = IPv4Address.parse("10.1.0.1")

    def _switch(self):
        sim = Simulator()
        switch = L2Switch(sim)
        arrivals = {"b1": [], "b2": [], "client": []}
        ports = {}
        for name in ("client", "b1", "b2"):
            link = Link(sim, 100_000_000_000, 5, name=name)
            port = switch.add_port(link)
            link.attach(
                lambda pkt, name=name: arrivals[name].append(pkt))
            ports[name] = port
        # Teach the switch where everything lives (src-learn on real
        # frames, as the rack does with its teach packets), then flush the
        # teach floods out of the collectors.
        for name, mac in (("client", self.CLIENT_MAC), ("b1", self.B1_MAC),
                          ("b2", self.B2_MAC)):
            teach = make_udp(mac, BROADCAST_MAC, self.CLIENT_IP,
                             self.CLIENT_IP, 1, 1, 1)
            switch.ingress(ports[name])(teach)
        sim.run_until_idle()
        for lst in arrivals.values():
            lst.clear()
        balancer = L4LoadBalancer(sim, switch, _costs())
        balancer.register_backend("b1", self.B1_MAC)
        balancer.register_backend("b2", self.B2_MAC)
        balancer.add_vip(VIP, vip_mac(0), ["b1"])
        return sim, switch, balancer, ports, arrivals

    @given(
        frame_offsets=st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=1, max_size=24),
        commit_at=st.integers(min_value=0, max_value=200),
        commit_delay=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_monotonic_boundary(self, frame_offsets, commit_at,
                                       commit_delay):
        sim, switch, balancer, ports, arrivals = self._switch()
        ingress = switch.ingress(ports["client"])
        flow = FiveTuple(PROTO_UDP, self.CLIENT_IP, CLIENT_PORT,
                         VIP, SERVICE_PORT)
        # Frames on even offsets, the commit firing on an odd one: the
        # steering decision happens synchronously at ingress, so there are
        # never same-instant ties to adjudicate.
        base = sim.now + (sim.now % 2)  # first even instant >= now
        boundary = base + 1 + 2 * (commit_at + commit_delay)
        forwarded = {}
        sizes = {}

        def _frame(seq):
            # Every frame is the SAME five-tuple (the one being
            # re-steered); a unique payload length identifies it on
            # arrival.
            pkt = make_udp(self.CLIENT_MAC, vip_mac(0), self.CLIENT_IP,
                           VIP, CLIENT_PORT, SERVICE_PORT, PAYLOAD + seq)
            sizes[pkt.ipv4.payload_len] = seq
            forwarded[seq] = sim.now
            ingress(pkt)

        for seq, off in enumerate(frame_offsets):
            sim.at(base + 2 * off, _frame, seq)
        done = balancer.begin_resteer(flow, "b2")
        sim.at(base + 1 + 2 * commit_at, lambda: sim.after(
            2 * commit_delay, done.succeed, True))
        sim.run_until_idle()

        assert done.ok
        b1_seqs = [sizes[p.ipv4.payload_len] for p in arrivals["b1"]]
        b2_seqs = [sizes[p.ipv4.payload_len] for p in arrivals["b2"]]
        # Exactly-once delivery: no frame lost, duplicated, or flooded.
        assert sorted(b1_seqs + b2_seqs) == sorted(range(len(frame_offsets)))
        assert not arrivals["client"]
        # Single monotonic boundary exactly at the commit fire: every
        # frame forwarded before it steered by the complete old table
        # (b1), every frame after by the complete new one (b2). No frame
        # ever sees a half-installed rule.
        assert all(forwarded[s] < boundary for s in b1_seqs)
        assert all(forwarded[s] > boundary for s in b2_seqs)
        # And afterwards the decision surface agrees with the last frame.
        assert balancer.backend_for(flow) == "b2"


class TestMigration:
    def test_conservation_and_state_handoff(self):
        rack, cli_eps, srv_eps = _cluster()
        flow = _flow(rack)
        _send(rack, cli_eps, rounds=4)
        _drain(rack, srv_eps)
        source = rack.balancer.backend_for(flow)
        target = "srv1" if source == "srv0" else "srv0"
        src_ct, dst_ct = _ct(rack, source), _ct(rack, target)
        before = src_ct.lookup(flow)
        assert before is not None and before.packets == 4
        sram_before = rack.host(source).dataplane.nic.sram.used_bytes

        m = rack.migrate(flow, target)
        rack.run_all()
        assert m.status == "done"
        assert m.snap_packets == 4 and m.delta_packets == 0
        assert m.verdicts_replayed >= 1
        # Source entry released (conntrack gone, SRAM freed)...
        assert src_ct.lookup(flow) is None
        assert rack.host(source).dataplane.nic.sram.used_bytes < sram_before
        # ...and the target owns the full count.
        entry = dst_ct.lookup(flow)
        assert entry is not None
        assert entry.packets == 4 and entry.bytes == before.bytes

        # The flow keeps running on the target, counters continuous.
        _send(rack, cli_eps, rounds=2)
        delivered, _ = _drain(rack, srv_eps)
        assert delivered == 4  # 2 rounds x 2 flows
        assert dst_ct.lookup(flow).packets == 6

    def test_migrate_demotes_source_fast_forward(self):
        rack, cli_eps, srv_eps = _cluster()
        flow = _flow(rack)
        _send(rack, cli_eps, rounds=6)
        _drain(rack, srv_eps)
        source = rack.balancer.backend_for(flow)
        target = "srv1" if source == "srv0" else "srv0"
        ff = rack.host(source).machine.ff
        assert ff is not None and ff.promoted(flow)
        m = rack.migrate(flow, target)
        rack.run_all()
        assert m.ff_demoted >= 1
        assert not ff.promoted(flow)
        assert ff.stats()["demotions"]["flow_migration"] >= 1

    def test_adopt_bumps_target_epoch_invalidating_stale_verdicts(self):
        """The PR3/PR4 epoch-stamped invalidation contract across
        machines: whatever the target had cached about the flow is stale
        the instant the adoption commit lands, and the replayed verdicts
        carry the fresh epoch."""
        rack, cli_eps, srv_eps = _cluster()
        flow = _flow(rack)
        _send(rack, cli_eps, rounds=3)
        _drain(rack, srv_eps)
        source = rack.balancer.backend_for(flow)
        target = "srv1" if source == "srv0" else "srv0"
        tgt_fp = rack.host(target).machine.fastpath
        stale = tgt_fp.install(CHAIN_KOPI_RX, flow, verdict="accept")
        epoch_before = tgt_fp.engine.epoch
        assert [e for e in tgt_fp.entries_for(flow)] == [stale]
        rack.migrate(flow, target)
        rack.run_all()
        assert tgt_fp.engine.epoch > epoch_before
        live = tgt_fp.entries_for(flow)
        assert stale not in live  # pre-adoption cache is dead
        assert live, "replayed verdicts must carry the fresh epoch"

    def test_migrate_errors(self):
        rack, cli_eps, srv_eps = _cluster()
        flow = _flow(rack)
        _send(rack, cli_eps, rounds=1)
        _drain(rack, srv_eps)
        home = rack.balancer.backend_for(flow)
        with pytest.raises(PolicyError):
            rack.migrate(flow, home)  # already there
        with pytest.raises(PolicyError):
            rack.migrate(flow, "nonexistent")
        not_vip = FiveTuple(PROTO_UDP, rack.host("client").ip, CLIENT_PORT,
                            rack.host("srv0").ip, SERVICE_PORT)
        with pytest.raises(PolicyError):
            rack.migrate(not_vip, "srv1")

    def test_migrate_requires_knob(self):
        specs = [HostSpec.indexed(0, "client", NormanOS),
                 HostSpec.indexed(1, "srv0", NormanOS),
                 HostSpec.indexed(2, "srv1", NormanOS)]
        rack = Rack(specs, costs=_costs(cluster_lb=False), n_cores=2)
        assert rack.coordinator is None
        with pytest.raises(PolicyError):
            rack.migrate(_flow(rack), "srv1")


class TestMigrationConservation:
    """Hypothesis leg: migrating at a *random point* in the schedule —
    including mid-round, with packets in flight around the commit — never
    changes any cluster-summed observable."""

    BASELINE = {}

    @classmethod
    def _run(cls, migrate_after_round, rounds=4):
        rack, cli_eps, srv_eps = _cluster()
        flow = _flow(rack)
        source = rack.balancer.backend_for(flow)
        target = "srv1" if source == "srv0" else "srv0"
        delivered = 0
        per_flow = {}
        for rnd in range(rounds):
            if migrate_after_round is not None and rnd == migrate_after_round:
                # Mid-window: the commit lands with sends still scheduled.
                rack.sim.at(rack.sim.now + 3_000, rack.migrate, flow, target)
            _send(rack, cli_eps, rounds=1)
            got, pf = _drain(rack, srv_eps)
            delivered += got
            for k, v in pf.items():
                per_flow[k] = per_flow.get(k, 0) + v
        ct_pkts = ct_bytes = f_pkts = 0
        for name in ("srv0", "srv1"):
            for entry in _ct(rack, name).entries():
                ct_pkts += entry.packets
                ct_bytes += entry.bytes
            entry = _ct(rack, name).lookup(flow)
            if entry is not None:
                f_pkts += entry.packets
        return {
            "delivered": delivered,
            "per_flow": per_flow,
            "ct_pkts": ct_pkts,
            "ct_bytes": ct_bytes,
            "flow0_pkts": f_pkts,
            "client_tx": int(rack.host("client").dataplane.nic.metrics
                             .counter("tx_pkts").value),
            "frames": int(rack.switch.metrics.counter("frames").value),
        }

    @given(migrate_after_round=st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_migration_point_never_changes_the_sums(self,
                                                    migrate_after_round):
        if not self.BASELINE:
            self.BASELINE.update(self._run(None))
        assert self._run(migrate_after_round) == self.BASELINE


class TestSeedIdentity:
    """With the knobs off nothing cluster-shaped exists, and a knob-on
    rack that never installs a VIP is event-trace-identical to knob-off
    (the balancer probe in the forwarding loop must be free)."""

    def test_default_costs_build_no_cluster(self):
        tb = TwoHostTestbed(NormanOS, NormanOS)
        assert tb.balancer is None
        assert tb.coordinator is None
        assert tb.switch._balancer is None

    def test_lb_vnodes_validated(self):
        with pytest.raises(ConfigError):
            DEFAULT_COSTS.replace(cluster_lb=True, lb_vnodes=0)

    @staticmethod
    def _fingerprint(costs):
        specs = [HostSpec.indexed(0, "client", NormanOS),
                 HostSpec.indexed(1, "srv0", NormanOS)]
        rack = Rack(specs, costs=costs, n_cores=2)
        client, srv = rack.host("client"), rack.host("srv0")
        cli = client.spawn("cli", "bob", core_id=1)
        srvp = srv.spawn("srv", "carol", core_id=1)
        ep_c = client.dataplane.open_endpoint(cli, PROTO_UDP, CLIENT_PORT)
        ep_s = srv.dataplane.open_endpoint(srvp, PROTO_UDP, SERVICE_PORT)
        rack.run_all()
        ep_s.send(64, (client.ip, CLIENT_PORT))
        rack.run_all()
        for k in range(8):
            rack.sim.at(rack.sim.now + 1_000, ep_c.send, PAYLOAD,
                        (srv.ip, SERVICE_PORT))
            rack.run_all()
        got = [0]
        ep_s.recv_burst(16, blocking=False).add_callback(
            lambda s: got.__setitem__(0, len(s.value)) if s.ok else None)
        rack.run_all()
        return {
            "end_time": rack.sim.now,
            "events": rack.sim.events_fired,
            "delivered": got[0],
            "frames": rack.switch.metrics.counter("frames").value,
            "busy": tuple(c.busy_ns
                          for h in rack.hosts for c in h.machine.cpus.cores),
        }

    def test_knob_on_without_vip_is_trace_identical(self):
        base = dict(flow_fastpath=True)
        off = self._fingerprint(DEFAULT_COSTS.replace(**base))
        on = self._fingerprint(DEFAULT_COSTS.replace(
            cluster_lb=True, **base))
        assert on == off
        assert on["delivered"] == 8
