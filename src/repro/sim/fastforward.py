"""Hybrid-fidelity fast-forward: fluid epochs for steady-state flows.

The simulator's default mode is packet-exact: every packet is its own chain
of queue events. That fidelity is the whole point at interposition
boundaries — a policy commit, a verdict-cache miss, a queue filling up —
but in steady state a flow whose packets all hit the verdict cache pays the
same per-stage costs packet after packet, and simulating each one buys
nothing except wall-clock time.

:class:`FastForwardController` lets a dataplane *promote* such a flow to
fluid approximation: the plane captures a :class:`FlowProfile` (the exact
per-packet span list the steady-state path would charge) and subsequent
packets are *absorbed* — counted, not simulated. One ``FlowEpoch`` flush
event then charges ``N ×`` the per-packet cost per stage, so the trace
taxonomy, the copy ledger, CPU busy time, and fastpath counters all move
exactly as N packet-level events would have moved them.

Every promoted flow is a member of a :class:`FlowGroup` — the flows that
share a plane, chain-version-vector, and profile shape, a lone flow being
a group of one. A group is charged by a *single* epoch event per epoch,
replaying N_flows × N_pkts of counters, ledger entries, CPU busy time,
and trace stages, with one shared horizon timer instead of one per flow.
Per-flow residue is flushed on demotion, so any single flow can drop back
to packet-exact without disturbing its group. Group flushes and residue
flushes charge through the same routine.

The safety contract is the *demotion* half: at every fidelity boundary the
flow drops back to exact packet-level simulation **before** the boundary's
effect is simulated. Boundaries, and who wires them (see
``docs/hybrid_fidelity.md``):

* ``policy_commit`` — PolicyEngine epoch bump (``PolicyEngine.on_commit``)
* ``fastpath`` — verdict-cache miss / stale invalidation / LRU eviction
  (``FlowFastPath.demotion_hook``)
* ``conntrack_expiry`` — conntrack GC evicting the flow's cache entries
* ``qdisc_pressure`` — qdisc backlog crossing the configured threshold
* ``cache_pressure`` — DDIO/SRAM working set crossing a capacity quartile
* ``shape_change`` — the flow's packets stop matching the captured profile
* ``switch_change`` — the switch hop under a cross-machine flow stops being
  a frozen path: a MAC-table learn/move, a flood, or a match-action rule
  install (:class:`RackFastForward`)
* ``flow_migration`` — a live migration draining the flow off this machine
  before its state is replayed on another backend
  (:class:`~repro.cluster.MigrationCoordinator`)

With ``CostModel.ff_cross_machine`` a :class:`RackFastForward` coordinator
binds a sender's TX profile, the switch hop, and the receiver's RX profile
into one end-to-end :class:`CrossMachineFlow`: absorbed sends flow through
the fluid switch path into the receiver's own pending epoch, and either
side's boundary demotes the whole end-to-end flow before the boundary's
effect is simulated.

Everything here is default-off: with ``CostModel.fast_forward`` unset no
controller is constructed and the event trace is byte-identical to seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError

# Demotion reasons — the full set of fidelity boundaries.
REASON_POLICY = "policy_commit"
REASON_FASTPATH = "fastpath"
REASON_CONNTRACK = "conntrack_expiry"
REASON_QDISC = "qdisc_pressure"
REASON_PRESSURE = "cache_pressure"
REASON_SHAPE = "shape_change"
REASON_SWITCH = "switch_change"
REASON_MIGRATE = "flow_migration"

REASONS = (
    REASON_POLICY,
    REASON_FASTPATH,
    REASON_CONNTRACK,
    REASON_QDISC,
    REASON_PRESSURE,
    REASON_SHAPE,
    REASON_SWITCH,
    REASON_MIGRATE,
)


class FlowProfile:
    """The frozen per-packet cost shape of a promoted flow.

    ``spans`` is the exact per-stage span list one steady-state packet
    charges: ``(stage, ns, cpu, label)`` tuples (plain tuples, not trace
    Spans — this module must not import the trace package). Latency is the
    span sum *by construction*, so conservation (span sums == end-to-end
    latency) holds for fluid epochs exactly as it does for packet contexts.

    ``deliver`` is a plane-supplied closure ``deliver(n)`` that replicates
    every side effect N exact packets would have had beyond time itself:
    NIC counters, verdict-cache hit counters, conntrack byte counts, copy
    ledger charges, receive-queue credit. ``wire_len`` pins the profile's
    shape: a packet of any other size is a ``shape_change`` boundary.
    ``versions`` is the chain-version-vector the verdict-cache entry was
    installed under; together with the plane and the span shape it decides
    which :class:`FlowGroup` the flow coalesces into.
    """

    __slots__ = ("spans", "core_id", "wire_len", "payload_len", "deliver",
                 "conn_id", "versions", "tenant_tid", "latency_ns", "cpu_ns")

    def __init__(self, spans: Tuple[Tuple[str, int, bool, str], ...],
                 core_id: int, wire_len: int, payload_len: int = 0,
                 deliver: Optional[Callable[[int], None]] = None,
                 conn_id: Optional[int] = None,
                 versions: Tuple[Tuple[str, int], ...] = (),
                 tenant_tid: Optional[int] = None):
        self.spans = tuple(spans)
        self.core_id = core_id
        self.wire_len = wire_len
        self.payload_len = payload_len
        self.deliver = deliver
        self.conn_id = conn_id
        self.versions = tuple(versions)
        # tenant: part of the group key — fluid epochs never span tenants,
        # so per-tenant attribution stays exact under fast-forward.
        self.tenant_tid = tenant_tid
        self.latency_ns = sum(ns for _stage, ns, _cpu, _label in self.spans)
        self.cpu_ns = sum(ns for _stage, ns, cpu, _label in self.spans if cpu)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowProfile {len(self.spans)} spans "
                f"{self.latency_ns}ns core={self.core_id}>")


class FlowState:
    """Per-flow fast-forward bookkeeping."""

    __slots__ = ("key", "plane", "streak", "promoted", "profile",
                 "pending", "group")

    def __init__(self, key, plane):
        self.key = key
        self.plane = plane
        self.streak = 0          # consecutive steady-state exact packets
        self.promoted = False
        self.profile: Optional[FlowProfile] = None
        self.pending = 0         # absorbed packets awaiting an epoch flush
        self.group: Optional[FlowGroup] = None  # set iff promoted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "fluid" if self.promoted else f"exact(streak={self.streak})"
        return f"<FlowState {self.key} {mode} pending={self.pending}>"


class FlowGroup:
    """Promoted flows sharing (plane, chain-version-vector, profile shape).

    The group holds ONE pending-packet total and ONE horizon timer for all
    its members, and flushes with a single charge — so at 100k+ steady
    flows the epoch machinery costs O(groups) queue events,
    not O(flows). Per-flow pendings are still tracked (the residue), so a
    member can flush or demote alone without disturbing the group.
    """

    __slots__ = ("key", "plane", "members", "pending_total", "flush_handle",
                 "dirty")

    def __init__(self, key, plane):
        self.key = key
        self.plane = plane
        self.members: Dict[object, FlowState] = {}
        self.pending_total = 0
        self.flush_handle = None
        #: Members with unflushed pending packets — a group flush scans
        #: only these, not the whole membership, so epoch-threshold
        #: flushes stay O(active flows) at 100k+ members.
        self.dirty: List[FlowState] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowGroup {len(self.members)} flows "
                f"pending={self.pending_total}>")


class FastForwardController:
    """Tracks flow fidelity and turns absorbed packets into epoch charges.

    Each dataplane stays the authority on what one of its packets costs —
    the :class:`FlowProfile` it captures at promotion — and the controller
    charges epochs from that profile through one routine, :meth:`_charge`,
    on the machine's ``tracer`` and ``cpus``. The controller owns *when* —
    promotion streaks, epoch sizing, the flush horizon, and the
    demote-on-boundary contract (flush first, so packets absorbed before a
    boundary are charged under the profile that was valid when they ran).
    A plane's fast-forward contract is ``name`` + ``ff_profile``, which
    returns None for a flow that must stay exact.
    """

    def __init__(self, sim, costs, tracer, cpus):
        self.sim = sim
        self.costs = costs
        self.tracer = tracer
        self.cpus = cpus
        self._flows: Dict[object, FlowState] = {}
        self._by_conn: Dict[int, List[FlowState]] = {}
        self._groups: Dict[object, FlowGroup] = {}
        self._ws_bucket: Optional[int] = None
        # Cross-machine coordination hooks (wired by RackFastForward; all
        # None on a standalone host, which keeps per-host behaviour
        # byte-identical to the single-controller engine):
        #: ``gate(plane, key, profile)`` consulted for a profile the plane
        #: accepted: it returns the profile to promote under, or None to
        #: veto, which resets the promotion streak.
        self.promotion_gate: Optional[Callable[
            [object, object, FlowProfile], Optional[FlowProfile]]] = None
        #: ``hook(key, reason)`` fired at the *top* of a promoted flow's
        #: demotion, before its residue is flushed — the window in which a
        #: coordinator can flush a bound peer *through* this still-promoted
        #: flow (demote-before-boundary, end-to-end).
        self.on_demote: Optional[Callable[[object, str], None]] = None
        # Metrics.
        self.promotions = 0
        self.epochs = 0
        self.group_epochs = 0
        self.fluid_packets = 0
        self.demotions: Dict[str, int] = {reason: 0 for reason in REASONS}

    # -- promotion ---------------------------------------------------------

    def note_exact(self, plane, key, pkt) -> None:
        """Record one steady-state exact packet (a verdict-cache hit on a
        plane that supports fast-forward). After ``ff_promote_after``
        consecutive such packets the plane is asked for a profile, and the
        gate (if any) for the profile to promote under; the flow goes fluid
        under it. A refusal by either starts the streak over."""
        state = self._flows.get(key)
        if state is None:
            state = self._flows[key] = FlowState(key, plane)
        if state.promoted:
            return
        state.streak += 1
        if state.streak < self.costs.ff_promote_after:
            return
        profile = plane.ff_profile(key, pkt)
        if profile is not None and self.promotion_gate is not None:
            profile = self.promotion_gate(plane, key, profile)
        if profile is None:
            state.streak = 0
            return
        state.profile = profile
        state.promoted = True
        self.promotions += 1
        if profile.conn_id is not None:
            self._by_conn.setdefault(profile.conn_id, []).append(state)
        gkey = (id(plane), profile.versions, profile.spans,
                profile.core_id, profile.wire_len, profile.tenant_tid)
        group = self._groups.get(gkey)
        if group is None:
            group = self._groups[gkey] = FlowGroup(gkey, plane)
        group.members[key] = state
        state.group = group

    def _group_remove(self, state: FlowState) -> None:
        group = state.group
        del group.members[state.key]
        state.group = None
        if not group.members:
            if group.flush_handle is not None:
                group.flush_handle.cancel()
                group.flush_handle = None
            del self._groups[group.key]

    def promoted(self, key) -> bool:
        state = self._flows.get(key)
        return state is not None and state.promoted

    # -- absorption --------------------------------------------------------

    def absorb_packet(self, key, wire_len: int) -> bool:
        """Absorb one packet of a promoted flow into the pending epoch.
        Returns False (caller must simulate exactly) when the flow is not
        fluid; a wire-length mismatch is a shape boundary and demotes."""
        state = self._flows.get(key)
        if state is None or not state.promoted:
            return False
        assert state.profile is not None
        if wire_len != state.profile.wire_len:
            self.demote(key, REASON_SHAPE)
            return False
        self._absorb(state, 1)
        return True

    def absorb(self, key, n: int) -> bool:
        """Bulk form for drivers that know N same-shape packets are coming
        (an E21 round). Same contract as :meth:`absorb_packet`."""
        if n < 1:
            raise SimulationError(f"absorb needs n >= 1, got {n}")
        state = self._flows.get(key)
        if state is None or not state.promoted:
            return False
        self._absorb(state, n)
        return True

    def absorb_send(self, key, payload_lens: Sequence[int]) -> int:
        """TX-side absorption: a promoted sender's steady single-packet
        send (the app-timer → syscall → doorbell chain) is absorbed into
        the flow's pending epoch instead of entering the ring. Returns how
        many packets were absorbed (0 means the caller must simulate the
        send exactly). A payload not matching the frozen profile is a
        shape boundary and demotes; a multi-packet burst simply stays
        exact — its amortized doorbell cost is not the profile's shape."""
        state = self._flows.get(key)
        if state is None or not state.promoted:
            return 0
        if len(payload_lens) != 1:
            return 0
        assert state.profile is not None
        if payload_lens[0] != state.profile.payload_len:
            self.demote(key, REASON_SHAPE)
            return 0
        self._absorb(state, 1)
        return 1

    def _absorb(self, state: FlowState, n: int) -> None:
        state.pending += n
        group = state.group
        if state.pending == n:
            group.dirty.append(state)
        group.pending_total += n
        if group.pending_total >= self.costs.ff_epoch_packets:
            self._flush_group(group)
        elif group.flush_handle is None:
            group.flush_handle = self.sim.after(
                self.costs.ff_horizon_ns, self._group_horizon_flush,
                group.key)

    # -- flushing ----------------------------------------------------------

    def _charge(self, plane, members, total_n: int,
                profile: FlowProfile) -> None:
        """Charge one ``FlowEpoch``: ``total_n`` packets spread over
        ``members`` (``(key, n, profile)`` triples sharing ``plane``,
        chain-version-vector, and span shape) as ONE event. The trace
        spine gets a single count-weighted epoch (so the E16 taxonomy
        still sums exactly) and the shared core one bulk execute — CPU
        busy time is additive, so coalescing is exact — while each
        member's ``deliver`` closure replays its own connection-scoped
        side effects (counters, credit, conntrack, copy ledger)."""
        self.tracer.epoch(total_n, profile.spans, plane=plane.name)
        if profile.cpu_ns:
            self.cpus[profile.core_id].execute(
                total_n * profile.cpu_ns, "ff_epoch")
        for _key, n, prof in members:
            if prof.deliver is not None:
                prof.deliver(n)

    def _group_horizon_flush(self, gkey) -> None:
        group = self._groups.get(gkey)
        if group is not None:
            group.flush_handle = None
            self._flush_group(group)

    def _flush_group(self, group: FlowGroup) -> None:
        """One epoch event for the whole group: a single charge replays
        every member's pending packets."""
        if group.flush_handle is not None:
            group.flush_handle.cancel()
            group.flush_handle = None
        total = group.pending_total
        if total == 0:
            group.dirty = []
            return
        # A residue flush may leave a zero-pending entry behind, and a
        # re-absorbing flow re-appends itself — zeroing as we collect makes
        # any duplicate harmless (its second occurrence reads 0).
        members = []
        for s in group.dirty:
            if s.pending:
                members.append((s.key, s.pending, s.profile))
                s.pending = 0
        group.dirty = []
        group.pending_total = 0
        self.epochs += 1
        self.group_epochs += 1
        self.fluid_packets += total
        self._charge(group.plane, members, total, members[0][2])

    def _flush_state(self, state: FlowState) -> None:
        """The *residue* flush: charge just this member's pending packets
        (a one-member charge) and leave the rest of its group fluid."""
        n = state.pending
        if n == 0:
            return
        state.pending = 0
        group = state.group
        group.pending_total -= n
        if group.pending_total == 0 and group.flush_handle is not None:
            group.flush_handle.cancel()
            group.flush_handle = None
        self.epochs += 1
        self.fluid_packets += n
        profile = state.profile
        self._charge(state.plane, ((state.key, n, profile),), n, profile)

    def flush(self, key) -> None:
        """Charge the flow's pending epoch now (no fidelity change)."""
        state = self._flows.get(key)
        if state is not None:
            self._flush_state(state)

    def flush_conn(self, conn_id: int) -> None:
        """Flush every promoted flow delivering to ``conn_id`` — the
        receive path calls this before consuming fluid credit so charges
        land before the data they cover is read."""
        for state in self._by_conn.get(conn_id, ()):
            self._flush_state(state)

    def flush_all(self) -> None:
        for group in list(self._groups.values()):
            self._flush_group(group)

    # -- demotion (the fidelity boundaries) --------------------------------

    def demote(self, key, reason: str) -> bool:
        """Drop ``key`` back to exact packet-level simulation. Pending
        absorbed packets are flushed first — they ran while the old profile
        was valid, so they are charged under it; everything after this call
        is simulated packet-exact. The flow flushes only its own residue
        and leaves the rest of its group fluid. Returns True if the flow
        was fluid."""
        if reason not in self.demotions:
            raise SimulationError(f"unknown demotion reason {reason!r}")
        if self.on_demote is not None:
            peek = self._flows.get(key)
            if peek is not None and peek.promoted:
                # Fired before the flow is popped: the rack coordinator may
                # flush a bound peer *through* this still-promoted flow, and
                # anything that lands in ``pending`` here is flushed below.
                self.on_demote(key, reason)
        state = self._flows.pop(key, None)
        if state is None:
            return False
        was_fluid = state.promoted
        if was_fluid:
            self._flush_state(state)
            self.demotions[reason] += 1
            self._group_remove(state)
            profile = state.profile
            if profile is not None and profile.conn_id is not None:
                peers = self._by_conn.get(profile.conn_id)
                if peers is not None:
                    peers.remove(state)
                    if not peers:
                        del self._by_conn[profile.conn_id]
        return was_fluid

    def demote_conn(self, conn_id: int, reason: str) -> int:
        """Demote every fluid flow delivering to ``conn_id`` (connection
        teardown). Returns how many were fluid."""
        demoted = 0
        for state in list(self._by_conn.get(conn_id, ())):
            if self.demote(state.key, reason):
                demoted += 1
        return demoted

    def demote_all(self, reason: str) -> int:
        """A global boundary (policy commit, pressure cliff): every flow
        back to exact. Groups flush wholesale first — one epoch charge per
        group — so the per-flow demotions that follow carry no residue.
        Returns how many were fluid."""
        for group in list(self._groups.values()):
            self._flush_group(group)
        demoted = 0
        for key in list(self._flows):
            if self.demote(key, reason):
                demoted += 1
        return demoted

    # -- boundary hooks (wired by Machine and the planes) ------------------

    def on_policy_commit(self) -> None:
        """PolicyEngine commit: any verdict anywhere may have changed."""
        self.demote_all(REASON_POLICY)

    def on_fastpath_event(self, flow, reason: str) -> None:
        """Verdict-cache miss/invalidation/eviction for ``flow`` (reason
        ``fastpath``), or conntrack expiry (reason ``conntrack_expiry``)."""
        self.demote(flow, reason)

    def on_qdisc_pressure(self) -> None:
        """Qdisc backlog crossed its threshold: queueing delay is about to
        become load-dependent, which no frozen profile can model."""
        self.demote_all(REASON_QDISC)

    def note_working_set(self, hot_bytes: int, capacity_bytes: int) -> None:
        """DDIO/SRAM pressure tracking: the analytic cache model's read
        costs depend on the hot working set, so any capacity-quartile
        crossing invalidates captured profiles."""
        if capacity_bytes <= 0:
            return
        bucket = min(4, (hot_bytes * 4) // capacity_bytes)
        if self._ws_bucket is not None and bucket != self._ws_bucket:
            self.demote_all(REASON_PRESSURE)
        self._ws_bucket = bucket

    # -- observability -----------------------------------------------------

    @property
    def tracked(self) -> int:
        return len(self._flows)

    @property
    def promoted_count(self) -> int:
        return sum(1 for s in self._flows.values() if s.promoted)

    @property
    def groups(self) -> int:
        return len(self._groups)

    def stats(self) -> Dict[str, object]:
        return {
            "tracked": self.tracked,
            "promoted": self.promoted_count,
            "groups": self.groups,
            "promotions": self.promotions,
            "epochs": self.epochs,
            "group_epochs": self.group_epochs,
            "fluid_packets": self.fluid_packets,
            "demotions": dict(self.demotions),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FastForwardController flows={self.tracked} "
                f"fluid_pkts={self.fluid_packets} epochs={self.epochs}>")


def peer_path_ready(switch, peer: Optional["RackHost"], key) -> bool:
    """Topology-agnostic far-end readiness check for a cross-machine
    promotion: True when ``peer`` (the rack host owning the flow's
    destination IP) can absorb fluid bulk for ``key`` end to end —

    * its controller has already promoted the RX side of the flow,
    * its downlink has a fluid receive entry to land epochs in, and
    * the switch path to it is frozen (learned port, no match-action
      rules).

    Works for any number of hosts behind any one switch: the caller
    resolves ``peer`` however its topology indexes machines (the rack
    keeps an IP map), and this helper only interrogates that one
    host + the switch between them. ``peer is None`` (destination not
    on this switch) is never ready.
    """
    if peer is None:
        return False
    ctrl = peer.ctrl
    if ctrl is None or not ctrl.promoted(key):
        return False
    if not peer.downlink.has_fluid_rx:
        # Only KOPI hosts land fluid RX; epochs must not be aimed at a
        # wire with nowhere to land.
        return False
    return switch.ff_path_steady(peer.mac, peer.port)


class RackHost:
    """One machine's registration with the rack coordinator: the plane
    its TX promotions come from, where it sits on the switch, and the
    links that carry its traffic."""

    __slots__ = ("name", "machine", "ctrl", "tx_plane",
                 "ip", "mac", "port", "uplink", "downlink")

    def __init__(self, name, machine, tx_plane,
                 ip, mac, port, uplink, downlink):
        self.name = name
        self.machine = machine
        self.ctrl = machine.ff
        self.tx_plane = tx_plane
        self.ip = ip
        self.mac = mac
        self.port = port
        self.uplink = uplink
        self.downlink = downlink

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RackHost {self.name} ip={self.ip} port={self.port}>"


class CrossMachineFlow:
    """An end-to-end binding: the sender's extended TX profile (its own
    chain plus the switch-hop wire span), the fluid switch path, and the
    receiver's RX profile, demoted as one unit."""

    __slots__ = ("flow", "sender", "receiver")

    def __init__(self, flow, sender: RackHost, receiver: RackHost):
        self.flow = flow
        self.sender = sender
        self.receiver = receiver

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CrossMachineFlow {self.flow} "
                f"{self.sender.name}->{self.receiver.name}>")


class RackFastForward:
    """End-to-end fluid epochs across the switch hop (``ff_cross_machine``).

    The coordinator sits above the per-machine controllers and never charges
    costs itself. It drives two hooks:

    * ``promotion_gate`` — a sender's TX flow may only go fluid when the
      receiving rack host's RX flow is *already* promoted and the switch
      path is frozen (learned port correct, no match-action rules). Until
      then the TX side keeps simulating exactly; a veto resets the streak.
      A TX promotion the gate lets through is recorded as a
      :class:`CrossMachineFlow` and promotes under an *extended* profile,
      the sender's plus the receiver-side downlink wire span. From then on
      an absorbed send is the whole A → switch → B packet: the TX epoch's
      deliver closure pushes the bulk through ``Link.send_fluid`` →
      ``L2Switch.forward_fluid`` → ``Link.send_fluid`` into the receiver's
      own pending epoch, moving link meters and switch counters exactly as
      N exact packets would.
    * ``on_demote`` — either side's boundary demotes the *whole* end-to-end
      flow before the boundary's effect is simulated: the sender's residue
      is flushed first (through the still-promoted chain, so in-flight
      fluid credit lands under the old profiles), then the other side is
      demoted too.

    Any switch-state change (MAC learn/move, flood, rule install) fires
    :meth:`_on_switch_change`, which demotes every bound flow with
    ``switch_change`` before the switch applies the change.
    """

    def __init__(self, switch):
        self.switch = switch
        self._hosts: List[RackHost] = []
        self._host_by_ip: Dict[str, RackHost] = {}
        self._bound: Dict[object, CrossMachineFlow] = {}
        self.bindings = 0       # cross-machine promotions, cumulative
        self.gate_vetoes = 0    # TX promotions held back by the gate
        switch.on_table_change = self._on_switch_change
        switch.on_flood = self._on_switch_change
        switch.on_rule_change = self._on_switch_change

    # -- registration ------------------------------------------------------

    def add_host(self, name, machine, tx_plane,
                 ip, mac, port, uplink, downlink) -> RackHost:
        if machine.ff is None:
            raise SimulationError(
                f"rack host {name!r} has no FastForwardController "
                "(CostModel.fast_forward is off)")
        host = RackHost(name, machine, tx_plane,
                        ip, mac, port, uplink, downlink)
        self._hosts.append(host)
        self._host_by_ip[ip] = host
        ctrl = host.ctrl
        ctrl.promotion_gate = \
            lambda plane, key, profile, _h=host: \
            self._gate(_h, plane, key, profile)
        ctrl.on_demote = \
            lambda key, reason, _h=host: self._on_demote(_h, key, reason)
        return host

    # -- the promotion protocol --------------------------------------------

    def _gate(self, host: RackHost, plane, key,
              profile: FlowProfile) -> Optional[FlowProfile]:
        """TX promotions are held until the far end is ready: the receiver's
        RX flow must already be fluid and the switch path frozen
        (:func:`peer_path_ready`). A held promotion is a veto (None). A
        ready one binds a :class:`CrossMachineFlow` and returns the sender's
        profile extended by the receiver's downlink wire span. RX
        promotions are never gated — they are per-machine as before. A
        destination this rack does not host (a hairpin to self, or a VIP
        the balancer still owns) never binds."""
        if plane is not host.tx_plane:
            return profile
        peer = self._host_by_ip.get(key.dst_ip)
        if peer is host or not peer_path_ready(self.switch, peer, key):
            self.gate_vetoes += 1
            return None
        from .. import units
        from ..trace import STAGE_WIRE
        down = peer.downlink
        wire_ns = (units.transmit_time_ns(profile.wire_len, down.rate_bps)
                   + down.propagation_ns)
        self._bound[key] = CrossMachineFlow(key, host, peer)
        self.bindings += 1
        return FlowProfile(
            profile.spans + ((STAGE_WIRE, wire_ns, False, down.name),),
            profile.core_id, profile.wire_len,
            payload_len=profile.payload_len, deliver=profile.deliver,
            conn_id=profile.conn_id, versions=profile.versions,
            tenant_tid=profile.tenant_tid)

    def _on_demote(self, host: RackHost, key, reason: str) -> None:
        cmf = self._bound.pop(key, None)
        if cmf is None:
            return
        # Flush the sender's residue while both ends are still promoted:
        # the bulk flows through the fluid switch path into the receiver's
        # pending epoch, and the receiver's own flush (below, or at the
        # bottom of its in-progress demote) charges it under the old
        # profile — demote-before-boundary, end to end.
        cmf.sender.ctrl.flush(key)
        if host is not cmf.sender:
            cmf.sender.ctrl.demote(key, reason)
        if host is not cmf.receiver:
            cmf.receiver.ctrl.demote(key, reason)

    def _on_switch_change(self, *_args) -> None:
        """The switch hop is about to stop being a frozen path; every bound
        flow drops to packet-exact first. Called by the switch *before* the
        MAC-table write / flood / rule install takes effect, so flushed
        epochs replay against the pre-change switch state."""
        if not self._bound:
            return
        bound, self._bound = self._bound, {}
        for key, cmf in bound.items():
            cmf.sender.ctrl.demote(key, REASON_SWITCH)
            cmf.receiver.ctrl.demote(key, REASON_SWITCH)

    # -- epoch control -----------------------------------------------------

    def flush_all(self) -> None:
        """Flush every host's pending epochs. Two passes: the first pushes
        sender-side TX epochs through the fluid switch path into receiver
        pendings, the second charges those. RX flushes generate no new
        fluid credit, so two passes always drain the rack."""
        for _ in range(2):
            for host in self._hosts:
                host.ctrl.flush_all()

    # -- observability -----------------------------------------------------

    @property
    def bound(self) -> int:
        return len(self._bound)

    def host(self, ip: str) -> Optional[RackHost]:
        return self._host_by_ip.get(ip)

    def stats(self) -> Dict[str, object]:
        return {
            "hosts": len(self._hosts),
            "bound": self.bound,
            "bindings": self.bindings,
            "gate_vetoes": self.gate_vetoes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RackFastForward hosts={len(self._hosts)} "
                f"bound={self.bound}>")
