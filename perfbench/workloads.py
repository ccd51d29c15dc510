"""The benchmark's four workloads, driven through repro's public API.

Every workload has three phases:

* ``setup()`` builds the testbeds or racks, spawns processes, opens
  endpoints, installs rules, runs the simulator until their commits land,
  and generates the measured phase's inputs from the seed;
* ``run()`` is the measured phase: it feeds the generated inputs to the
  simulator (in simulated time, so the generator can never run late) and
  runs it until idle;
* ``outcome()`` reads public counters into an :class:`Outcome`, as the
  difference between the end of the measured phase and its start.

Load is generated from one process and one thread. The seed drives every
choice the generator makes (ports, per-round order, churn-timing jitter);
the simulator sees only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro import (
    DEFAULT_COSTS,
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    NormanOS,
    PROTO_UDP,
    SidecarDataplane,
    Testbed,
    units,
)
from repro.apps import BulkSender
from repro.dataplanes import TwoHostTestbed
from repro.dataplanes.multihost import HOST_A_IP, HOST_B_IP
from repro.errors import UnsupportedOperation
from repro.kernel.netfilter import CHAIN_OUTPUT, NetfilterRule
from repro.net.flow import FiveTuple
from repro.tools import Iptables

MTU_PAYLOAD = 1_458
SMALL_PAYLOAD = 64


@dataclass
class Outcome:
    """What one measured phase did, read from public counters only."""

    offered: int
    delivered: int
    drops: int
    sim_ns: int
    events: int
    #: Simulated outputs hashed into the run digest (no wall time).
    observables: Dict[str, object] = field(default_factory=dict)
    #: Exactly repeating counts reported beside the traced layers.
    counts: Dict[str, float] = field(default_factory=dict)


def line_gap_ns(payload_len: int, rate_bps: int) -> int:
    """Back-to-back spacing of ``payload_len`` frames on a link (E8's)."""
    return units.transmit_time_ns(payload_len + 50, rate_bps) + 10


def _drops_in(snapshot: Dict[str, float]) -> int:
    return int(sum(v for k, v in snapshot.items() if "drop" in k))


def machine_state(machine) -> Dict[str, object]:
    """CPU busy time and every public stats surface of one machine."""
    state: Dict[str, object] = {
        "busy_ns": [machine.cpus[i].busy_ns for i in range(len(machine.cpus))],
        "interpose": machine.interpose.snapshot(),
        "commits": len(machine.interpose.history),
    }
    if machine.fastpath is not None:
        state["fastpath"] = machine.fastpath.stats()
    if machine.ff is not None:
        state["ff"] = machine.ff.stats()
    if machine.llc is not None:
        state["llc"] = dict(machine.llc.stats, resident=machine.llc.resident_lines())
    return state


def testbed_state(tb: Testbed) -> Dict[str, object]:
    """The simulated state of one testbed: clock, events, its machine, NIC,
    links and peer."""
    state = machine_state(tb.machine)
    state.update({
        "now": tb.sim.now,
        "events": tb.sim.events_fired,
        "peer": tb.peer.metrics.snapshot(),
        "egress": tb.egress.metrics.snapshot(),
        "ingress": tb.ingress.metrics.snapshot(),
    })
    nic = getattr(tb.dataplane, "nic", None)
    if nic is not None:
        state["nic"] = nic.stats()
    return state


def testbed_drops(tb: Testbed) -> int:
    """Modelled drops anywhere on a testbed's path."""
    total = _drops_in(tb.egress.metrics.snapshot())
    total += _drops_in(tb.ingress.metrics.snapshot())
    nic = getattr(tb.dataplane, "nic", None)
    if nic is not None:
        total += _drops_in(nic.stats())
    return total


def _machine_totals(machines) -> Dict[str, int]:
    """Additive public counters summed over machines."""
    t = dict.fromkeys(
        ("promotions", "demotions", "epochs", "fluid", "commits", "stale",
         "fp_hits", "fp_lookups", "fp_invalidated", "llc_hits", "llc_misses"), 0)
    for m in machines:
        if m.ff is not None:
            s = m.ff.stats()
            t["promotions"] += s["promotions"]
            t["demotions"] += sum(s["demotions"].values())
            t["epochs"] += s["epochs"]
            t["fluid"] += s["fluid_packets"]
        for commit in m.interpose.history:
            if commit.mode != "failed":
                t["commits"] += 1
                t["stale"] += commit.stale_evals
        if m.fastpath is not None:
            t["fp_hits"] += m.fastpath.hits
            t["fp_lookups"] += m.fastpath.lookups
            t["fp_invalidated"] += m.fastpath.invalidated
        if m.llc is not None:
            t["llc_hits"] += m.llc.stats["cpu_hits"]
            t["llc_misses"] += m.llc.stats["cpu_misses"]
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Workload:
    """Shared measured-phase bookkeeping. Subclasses implement ``build``
    (set-up proper, filling ``sims`` and ``machines``), ``run``, ``sink``
    (packets delivered so far, absolute), ``drops`` (modelled drops so
    far, absolute) and ``state`` (observables for the digest)."""

    name = "abstract"
    #: Machines a packet crosses; an end-to-end rack packet has a TX and
    #: an RX leg. Denominator of ``ff.fluid_fraction``.
    LEGS = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sims: list = []
        self.machines: list = []
        self.offered = 0

    def setup(self) -> None:
        self.build()
        self._mark = self._totals()

    def _totals(self) -> Dict[str, int]:
        totals = _machine_totals(self.machines)
        totals["now"] = sum(s.now for s in self.sims)
        totals["events"] = sum(s.events_fired for s in self.sims)
        totals["sink"] = self.sink()
        totals["drops"] = self.drops()
        return totals

    def outcome(self) -> Outcome:
        end = self._totals()
        d = {k: end[k] - self._mark[k] for k in end}
        counts = {
            "sim.events": d["events"],
            "ff.promotions": d["promotions"],
            "ff.demotions": d["demotions"],
            "ff.epochs": d["epochs"],
            "ff.fluid_fraction": _ratio(d["fluid"], self.LEGS * self.offered),
            "host.cache.cpu_miss_rate": _ratio(
                d["llc_misses"], d["llc_hits"] + d["llc_misses"]),
            "interpose.fastpath.hit_rate": _ratio(d["fp_hits"], d["fp_lookups"]),
            "interpose.fastpath.invalidated": d["fp_invalidated"],
            "interpose.commit.count": d["commits"],
            "interpose.commit.stale_evals": d["stale"],
        }
        return Outcome(offered=self.offered, delivered=d["sink"],
                       drops=d["drops"], sim_ns=d["now"], events=d["events"],
                       observables=self.state(), counts=counts)

    # -- subclass surface ----------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def sink(self) -> int:
        raise NotImplementedError

    def drops(self) -> int:
        raise NotImplementedError

    def state(self) -> Dict[str, object]:
        raise NotImplementedError


def _install_distractors(tb: Testbed, dports: List[int]) -> None:
    """A non-matching OUTPUT DROP chain (high dports the stream never uses).
    Planes without a filtering point (bypass) install none."""
    for dport in dports:
        try:
            tb.dataplane.install_filter_rule(NetfilterRule(
                verdict="DROP", chain=CHAIN_OUTPUT, proto=PROTO_UDP,
                dport=dport, comment="perfbench distractor"))
        except UnsupportedOperation:
            return


def _distractor_ports(rng: random.Random, n: int) -> List[int]:
    return rng.sample(range(60_000, 65_000), n)


class _Received:
    """Counts messages handed to applications by recv/recv_burst."""

    def __init__(self) -> None:
        self.n = 0

    def one(self, sig) -> None:
        if sig.ok:
            self.n += 1

    def burst(self, sig) -> None:
        if sig.ok:
            self.n += len(sig.value)


# --- ddio_rx_exact -----------------------------------------------------------


class DdioRxExact(Workload):
    """KOPI receive in E8's shape, exact mode, structural LLC with
    ``cpu_fills_allocate = False``: one connection count below the DDIO
    cliff and one past it. Each round the peer sends ``BURST`` packets per
    connection at line-rate gaps (open loop in simulated time); then the
    applications drain their rings non-blockingly."""

    name = "ddio_rx_exact"
    #: (connections, rounds): 512 sits below the ~1024-connection cliff,
    #: 2048 past it.
    POINTS = ((512, 2), (2_048, 1))
    BURST = 4
    N_CORES = 8

    def build(self) -> None:
        rng = self.rng
        self.points = []
        for n_conns, rounds in self.POINTS:
            tb = Testbed(NormanOS, n_cores=self.N_CORES, structural_cache=True)
            # Loaded-server regime (E8): ring data is cache-resident only
            # through the DDIO slice.
            tb.machine.llc.cpu_fills_allocate = False
            procs = [tb.spawn(f"srv{c}", "bob", core_id=c)
                     for c in range(1, self.N_CORES)]
            port0 = rng.randrange(10_000, 40_000)
            eps = [tb.dataplane.open_endpoint(procs[i % len(procs)],
                                              PROTO_UDP, port0 + i)
                   for i in range(n_conns)]
            tb.run_all()
            tb.machine.llc.reset_stats()
            sport = rng.randrange(1_024, 9_000)
            orders = []
            for _ in range(rounds):
                order = [ep.port for ep in eps]
                rng.shuffle(order)
                orders.append(order)
            self.points.append((tb, eps, sport, orders))
            self.sims.append(tb.sim)
            self.machines.append(tb.machine)
        self.received = _Received()

    def run(self) -> None:
        got = self.received
        for tb, eps, sport, orders in self.points:
            gap = line_gap_ns(MTU_PAYLOAD, tb.ingress.rate_bps)
            send = tb.peer.send_udp
            at = tb.sim.at
            for order in orders:
                t = tb.sim.now + 1_000
                for _ in range(self.BURST):
                    for port in order:
                        at(t, send, sport, port, MTU_PAYLOAD)
                        t += gap
                self.offered += self.BURST * len(order)
                tb.run_all()
                for ep in eps:
                    for _ in range(self.BURST):
                        ep.recv(blocking=False).add_callback(got.one)
                tb.run_all()

    def sink(self) -> int:
        return self.received.n

    def drops(self) -> int:
        return sum(testbed_drops(tb) for tb, *_ in self.points)

    def state(self) -> Dict[str, object]:
        return {f"conns_{len(eps)}": testbed_state(tb)
                for tb, eps, _sport, _orders in self.points}


# --- bulk_tx_exact -----------------------------------------------------------


class BulkTxExact(Workload):
    """Closed-loop :class:`BulkSender` TX on all five planes at 64 B and
    MTU payloads, every knob at its default. Each plane that supports
    filtering carries a short non-matching distractor chain (bypass cannot
    install one)."""

    name = "bulk_tx_exact"
    PLANES = (KernelPathDataplane, BypassDataplane, SidecarDataplane,
              HypervisorDataplane, NormanOS)
    PAYLOADS = (SMALL_PAYLOAD, MTU_PAYLOAD)
    COUNT = 2_500
    DISTRACTORS = 4

    def build(self) -> None:
        rng = self.rng
        self.cells = []
        for plane in self.PLANES:
            for payload in self.PAYLOADS:
                tb = Testbed(plane)
                _install_distractors(tb, _distractor_ports(rng, self.DISTRACTORS))
                tb.run_all()  # KOPI overlay loads commit before traffic
                app = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                                 payload_len=payload, count=self.COUNT,
                                 port=rng.randrange(20_000, 30_000))
                self.cells.append((tb, app))
        rng.shuffle(self.cells)
        self.sims = [tb.sim for tb, _ in self.cells]
        self.machines = [tb.machine for tb, _ in self.cells]

    def run(self) -> None:
        for tb, app in self.cells:
            self.offered += self.COUNT
            app.start()
            tb.run_all()

    def sink(self) -> int:
        return sum(int(tb.peer.metrics.counter("rx_pkts").value)
                   for tb, _ in self.cells)

    def drops(self) -> int:
        return sum(testbed_drops(tb) for tb, _ in self.cells)

    def state(self) -> Dict[str, object]:
        return {f"{tb.dataplane.name}_{app.payload_len}":
                dict(testbed_state(tb), sent=app.sent)
                for tb, app in self.cells}


# --- rack_fluid --------------------------------------------------------------


class RackFluid(Workload):
    """E23's hybrid leg: two KOPI hosts behind the L2 switch with
    ``fast_forward``, ``ff_tx`` and ``ff_cross_machine`` on, carrying
    ``CONNS`` A->B connections. Exact warm-up rounds bind every flow end to
    end; then bulk ``absorb`` + ``RackFastForward.flush_all`` rounds, each
    closed by ``run_all`` and a non-blocking drain of B's applications."""

    name = "rack_fluid"
    LEGS = 2
    CONNS = 1_200
    BULK = 64
    FLUID_ROUNDS = 32
    #: Receiver promotes after its miss plus a one-hit streak; the gated
    #: sender needs one more round to see a promoted receiver.
    WARMUP_ROUNDS = 4
    #: Wide enough that each send's TX chain drains before the next (E23).
    SEND_GAP_NS = 2_000

    def build(self) -> None:
        rng = self.rng
        n = self.CONNS
        costs = DEFAULT_COSTS.replace(
            flow_fastpath=True,
            flow_fastpath_entries=max(DEFAULT_COSTS.flow_fastpath_entries, 4 * n),
            smartnic_sram_bytes=max(DEFAULT_COSTS.smartnic_sram_bytes,
                                    2 * n * DEFAULT_COSTS.conn_state_bytes),
            rx_ring_entries=2_048, tx_ring_entries=2_048,
            fast_forward=True, ff_tx=True, ff_cross_machine=True,
            ff_promote_after=1,
        )
        rack = TwoHostTestbed(NormanOS, NormanOS, costs=costs, n_cores=4)
        a_port0 = rng.randrange(20_000, 40_000)
        b_port0 = rng.randrange(2_000, 18_000)
        cores = (1, 2, 3)
        a_procs = [rack.host_a.spawn(f"cli{c}", "bob", core_id=c) for c in cores]
        b_procs = [rack.host_b.spawn(f"srv{c}", "carol", core_id=c) for c in cores]
        self.a_eps = [rack.host_a.dataplane.open_endpoint(
            a_procs[i % len(cores)], PROTO_UDP, a_port0 + i) for i in range(n)]
        self.b_eps = [rack.host_b.dataplane.open_endpoint(
            b_procs[i % len(cores)], PROTO_UDP, b_port0 + i) for i in range(n)]
        rack.run_all()
        # Teach the switch where B lives (the ARP-reply analogue); without
        # it every A->B frame floods and no switch path ever freezes.
        self.b_eps[0].send(SMALL_PAYLOAD, (HOST_A_IP, a_port0))
        rack.run_all()
        self.rack = rack
        self.sims = [rack.sim]
        self.machines = [h.machine for h in rack.hosts]
        self.flows = [FiveTuple(PROTO_UDP, HOST_A_IP, a_port0 + i,
                                HOST_B_IP, b_port0 + i) for i in range(n)]
        idx = list(range(n))
        self.orders = []
        for _ in range(self.WARMUP_ROUNDS + self.FLUID_ROUNDS):
            rng.shuffle(idx)
            self.orders.append(list(idx))
        self.received = _Received()
        self.refused = 0

    def _drain_b(self) -> None:
        for ep in self.b_eps:
            ep.recv_burst(1 << 16, blocking=False).add_callback(self.received.burst)
        self.rack.run_all()

    def run(self) -> None:
        rack = self.rack
        sim = rack.sim
        a_eps, b_eps = self.a_eps, self.b_eps
        warm, fluid = (self.orders[:self.WARMUP_ROUNDS],
                       self.orders[self.WARMUP_ROUNDS:])
        for order in warm:
            t = sim.now + 1_000
            for i in order:
                sim.at(t, a_eps[i].send, MTU_PAYLOAD, (HOST_B_IP, b_eps[i].port))
                t += self.SEND_GAP_NS
            self.offered += len(order)
            rack.run_all()
        self._drain_b()
        absorb = rack.host_a.machine.ff.absorb
        flows, bulk = self.flows, self.BULK
        for order in fluid:
            for i in order:
                if not absorb(flows[i], bulk):
                    self.refused += bulk
            self.offered += bulk * len(order)
            rack.rack.flush_all()
            rack.run_all()
            self._drain_b()

    def sink(self) -> int:
        return self.received.n

    def drops(self) -> int:
        total = 0
        for host in self.rack.hosts:
            total += _drops_in(host.dataplane.nic.stats())
            total += _drops_in(host.uplink.metrics.snapshot())
            total += _drops_in(host.downlink.metrics.snapshot())
        return total

    def state(self) -> Dict[str, object]:
        rack = self.rack
        state: Dict[str, object] = {
            "now": rack.sim.now, "events": rack.sim.events_fired,
            "refused": self.refused,
            "switch": rack.switch.metrics.snapshot(),
            "rack": rack.rack.stats(),
        }
        for host in rack.hosts:
            state[host.name] = dict(
                machine_state(host.machine),
                nic=host.dataplane.nic.stats(),
                uplink=host.uplink.metrics.snapshot(),
                downlink=host.downlink.metrics.snapshot(),
            )
        return state


# --- policy_churn ------------------------------------------------------------


class PolicyChurn(Workload):
    """Policy writes beside reads. On the KOPI plane (a commit is an
    asynchronous overlay load with a stale window) and the kernel plane (a
    commit is synchronous), with ``flow_fastpath`` and ``fast_forward`` on
    and a distractor chain installed: a closed-loop 64 B TX stream plus a
    reply stream in line-rate bursts, while an unrelated OUTPUT rule is
    toggled at a seed-jittered simulated interval for as long as either
    stream lasts."""

    name = "policy_churn"
    PLANES = (NormanOS, KernelPathDataplane)
    COUNT = 20_000
    DISTRACTORS = 4
    #: Toggle spacing, jittered per commit by up to +-JITTER_NS.
    TOGGLE_NS = 20_000
    JITTER_NS = 4_000
    #: Replies arrive in bursts of REPLY_BURST at line-rate gaps every
    #: REPLY_PERIOD_NS; the application drains each burst non-blockingly
    #: once it has landed.
    REPLY_BURST = 16
    REPLY_PERIOD_NS = 40_000
    REPLIES = 2_000

    def build(self) -> None:
        rng = self.rng
        costs = DEFAULT_COSTS.replace(flow_fastpath=True, fast_forward=True)
        self.cells = []
        for plane in self.PLANES:
            tb = Testbed(plane, costs=costs)
            _install_distractors(tb, _distractor_ports(rng, self.DISTRACTORS))
            tb.run_all()
            app = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                             payload_len=SMALL_PAYLOAD, count=self.COUNT,
                             port=rng.randrange(20_000, 30_000))
            jitter = [rng.randrange(-self.JITTER_NS, self.JITTER_NS + 1)
                      for _ in range(4_096)]
            self.cells.append(_ChurnCell(tb, app, jitter, self.DISTRACTORS))
        self.sims = [c.tb.sim for c in self.cells]
        self.machines = [c.tb.machine for c in self.cells]

    def run(self) -> None:
        for cell in self.cells:
            tb, app = cell.tb, cell.app
            sim = tb.sim
            gap = line_gap_ns(SMALL_PAYLOAD, tb.ingress.rate_bps)
            t = sim.now + 1_000
            for b in range(self.REPLIES // self.REPLY_BURST):
                start = t + b * self.REPLY_PERIOD_NS
                for i in range(self.REPLY_BURST):
                    sim.at(start + i * gap, tb.peer.send_udp, 9_000,
                           app.ep.port, SMALL_PAYLOAD)
                cell.reply_end = start + self.REPLY_BURST * gap + 5_000
                sim.at(cell.reply_end, cell.drain)
            self.offered += self.COUNT + self.REPLY_BURST * (
                self.REPLIES // self.REPLY_BURST)
            app.start()
            sim.after(self.TOGGLE_NS + cell.jitter[0], cell.toggle)
            tb.run_all()
            cell.drain()
            tb.run_all()

    def sink(self) -> int:
        return sum(int(c.tb.peer.metrics.counter("rx_pkts").value) + c.received.n
                   for c in self.cells)

    def drops(self) -> int:
        return sum(testbed_drops(c.tb) for c in self.cells)

    def state(self) -> Dict[str, object]:
        return {c.tb.dataplane.name: dict(
                    testbed_state(c.tb), sent=c.app.sent, toggles=c.toggles,
                    received=c.received.n)
                for c in self.cells}


class _ChurnCell:
    """One plane of :class:`PolicyChurn`: its testbed, sender, the toggle
    schedule and the reply drain."""

    def __init__(self, tb: Testbed, app: BulkSender, jitter: List[int],
                 chain_len: int):
        self.tb = tb
        self.app = app
        self.jitter = jitter
        self.ipt = Iptables(tb.dataplane, tb.kernel)
        self.toggle_rule = chain_len + 1
        self.toggles = 0
        self.reply_end = 0
        self.received = _Received()

    def toggle(self) -> None:
        # Add or delete one unrelated rule (never a flush, so the
        # distractor chain stays put). Both directions are commits.
        if self.toggles % 2:
            self.ipt(f"-D OUTPUT {self.toggle_rule}")
        else:
            self.ipt("-A OUTPUT -p udp --dport 9999 -j DROP")
        self.toggles += 1
        # Churn lasts as long as either stream does.
        if self.app.sent < self.app.count or self.tb.sim.now < self.reply_end:
            delay = PolicyChurn.TOGGLE_NS + self.jitter[self.toggles % len(self.jitter)]
            self.tb.sim.after(delay, self.toggle)

    def drain(self) -> None:
        self.app.ep.recv_burst(64, blocking=False).add_callback(self.received.burst)


WORKLOADS = {w.name: w for w in (DdioRxExact, BulkTxExact, RackFluid, PolicyChurn)}
