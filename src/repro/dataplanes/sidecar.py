"""IX/Snap-style sidecar dataplane: interposition on a dedicated core.

The paper's "physical movement" case: instead of crossing the user/kernel
boundary, every packet crosses a *core* boundary. The sidecar is
OS-integrated (it knows which process owns each queue, can block/wake
threads, runs filters and qdiscs), so it supports everything the kernel
path does — but each packet pays cross-core coherence traffic plus the
sidecar core's time, and the sidecar core itself is burned for the
deployment's lifetime. E2 measures both.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..config import CostModel
from ..errors import EndpointClosed, InvalidSyscall, UnsupportedOperation, WouldBlock
from ..host.machine import Machine
from ..interpose import InterpositionPoint
from ..kernel.kernel import Kernel
from ..kernel.netfilter import CHAIN_INPUT, CHAIN_OUTPUT, DROP, NetfilterRule
from ..kernel.process import owner_info
from ..kernel.qdisc import DEFAULT_CLASS, DrrQdisc, PfifoQdisc
from ..kernel.qdisc_runner import PacedQdiscRunner
from ..net.addresses import IPv4Address, MacAddress
from ..net.link import Link
from ..net.packet import Packet
from ..nic.base import BasicNic
from ..sim import Signal, SucceedWith
from ..trace import (
    STAGE_COHERENCE,
    STAGE_FASTPATH,
    STAGE_NETFILTER,
    STAGE_RING,
    STAGE_SCHED_WAKE,
    charge,
)
from .base import (
    CaptureSession,
    Dataplane,
    Endpoint,
    PacketFilter,
    QosConfig,
    _as_bool,
    build_packet_by_ip,
    describe_qos,
)

Message = Tuple[int, IPv4Address, int]


class SidecarEndpoint(Endpoint):
    """App-side queue pair into the sidecar."""

    def __init__(self, dataplane: "SidecarDataplane", proc, proto: int, port: int):
        super().__init__(dataplane, proc, proto, port)
        self._dp = dataplane
        self.rx_queue: Deque[Message] = deque()
        self.peer: Optional[Tuple[IPv4Address, int]] = None

    @property
    def _core(self):
        return self._dp.machine.cpus[self.proc.core_id]

    def connect(self, dst_ip: IPv4Address, dport: int) -> Signal:
        self.peer = (dst_ip, dport)
        done = Signal("sidecar.connect")
        self._dp.machine.sim.after(0, done.succeed, True)
        return done

    def send_raw(self, pkt: Packet) -> Signal:
        return _as_bool(self._dp.app_tx_burst(self, (pkt,)), "sidecar.send")

    def send_burst(
        self, payload_lens: Sequence[int], dst: Optional[Tuple[IPv4Address, int]] = None
    ) -> Signal:
        """One cross-core handoff per burst. The coherence traffic itself
        stays proportional to bytes — physical movement does not amortize,
        which is exactly the §1 distinction E2/E12 measure."""
        dst = dst or self.peer
        if dst is None:
            raise UnsupportedOperation("send without destination on unconnected endpoint")
        pkts = [
            self._dp.build_packet(self, dst[0], dst[1], length) for length in payload_lens
        ]
        return self._dp.app_tx_burst(self, pkts)

    def recv_burst(self, max_msgs: int, blocking: bool = True) -> Signal:
        if max_msgs < 1:
            raise InvalidSyscall(f"recv_burst of {max_msgs} messages")
        result = Signal("sidecar.recv_burst")
        if self.closed:
            self._dp.machine.sim.after(0, Signal.fail, result, EndpointClosed("closed"))
            return result
        if self.rx_queue:
            msgs = [self.rx_queue.popleft() for _ in range(min(max_msgs, len(self.rx_queue)))]
            self._drain(msgs, result)
            return result
        if not blocking:
            self._dp.machine.sim.after(0, Signal.fail, result, WouldBlock("queue empty"))
            return result
        woken = self._dp.kernel.scheduler.block(self.proc, f"sidecar:{self.port}")
        self._dp.register_waiter(self, woken)
        woken.add_callback(_WokenRead(self, max_msgs, result))
        return result

    def _drain(self, msgs: List[Message], result: Signal) -> None:
        """Read ``msgs``' descriptors on the app core, then hand them over."""
        drain = self._dp.machine.tracer.loose(
            STAGE_RING,
            len(msgs) * self._dp.costs.bypass_rx_pkt_ns,
            label="rx_drain",
        )
        self._core.execute(drain, "rx").add_callback(SucceedWith(result, msgs))


class _WokenRead:
    """The rest of a ``recv_burst`` that blocked: woken with the first
    message, take what else the sidecar queued."""

    __slots__ = ("ep", "max_msgs", "result")

    def __init__(self, ep: SidecarEndpoint, max_msgs: int, result: Signal):
        self.ep = ep
        self.max_msgs = max_msgs
        self.result = result

    def __call__(self, woken: Signal) -> None:
        ep = self.ep
        msgs = [woken.value]
        while ep.rx_queue and len(msgs) < self.max_msgs:
            msgs.append(ep.rx_queue.popleft())
        if ep._dp.costs.trace:
            # Bugfix (gated on ``costs.trace`` to keep the seed event
            # trace byte-identical): the wake path used to hand the
            # drained messages to the app for free, while the queued
            # path charges the per-message descriptor read on the app
            # core. See docs/tracing.md.
            ep._drain(msgs, self.result)
            return
        self.result.succeed(msgs)


class SidecarDataplane(Dataplane):
    """Interposition proxy pinned to a dedicated core."""

    name = "sidecar"
    supports_blocking_io = True

    def __init__(
        self,
        machine: Machine,
        host_ip: IPv4Address,
        host_mac: MacAddress,
        egress: Link,
        sidecar_core: Optional[int] = None,
        n_queues: int = 8,
    ):
        self.machine = machine
        self.costs: CostModel = machine.costs
        self.host_ip = host_ip
        self.host_mac = host_mac
        self.sidecar_core_id = (
            sidecar_core if sidecar_core is not None else len(machine.cpus) - 1
        )
        machine.tracer.plane = self.name
        self.nic = BasicNic(
            machine.sim, machine.costs, machine.dma, egress, n_queues=n_queues,
            fastpath=machine.fastpath, tracer=machine.tracer,
        )
        self.kernel = Kernel(machine, host_ip, host_mac, nic_send=self.nic.tx)
        for queue in self.nic.queues:
            queue.set_handler(self._sidecar_rx_burst)
        self.egress_runner = PacedQdiscRunner(
            machine.sim, PfifoQdisc(), egress.rate_bps, self.nic.tx, name="sidecar_egress"
        )
        self._qos_weights: Dict[str, int] = {}
        self._endpoints: Dict[Tuple[int, int], SidecarEndpoint] = {}
        self._waiters: Dict[Tuple[int, int], Signal] = {}
        self._captures: List[Tuple[Optional[PacketFilter], CaptureSession]] = []
        # The sidecar's interposition mechanisms, registered with the engine
        # ("netfilter" is registered by Kernel itself).
        engine = machine.interpose
        self._qdisc_point = engine.register(InterpositionPoint(
            name="qdisc", plane="sidecar", mechanism="qdisc",
            install_latency_ns=self.costs.kernel_update_ns,
            target=self.egress_runner,
        ))
        self._qdisc_point.describe = lambda: describe_qos(self._qdisc_point.policy)
        self.egress_runner.point = self._qdisc_point
        self._sniffer_point = engine.register(InterpositionPoint(
            name="sniffer", plane="sidecar", mechanism="tap",
            install_latency_ns=self.costs.kernel_update_ns,
            target=self._captures,
        ))
        self.nic.steering.point = engine.register(InterpositionPoint(
            name="steering", plane="nic", mechanism="steering",
            install_latency_ns=self.costs.table_update_ns,
            target=self.nic.steering,
        ))

    @property
    def _score(self):
        return self.machine.cpus[self.sidecar_core_id]

    # --- app-facing -------------------------------------------------------------

    def open_endpoint(self, proc, proto: int, port: Optional[int] = None) -> SidecarEndpoint:
        # The sidecar is OS-integrated: ports go through the kernel socket
        # table, so conflicts and privileged ports are enforced (and
        # netstat keeps working).
        if port is None:
            sock = self.kernel.sockets.bind_ephemeral(proc, proto)
        else:
            sock = self.kernel.sockets.bind(proc, proto, port)
        ep = SidecarEndpoint(self, proc, proto, sock.port)
        self._endpoints[(proto, sock.port)] = ep
        return ep

    def register_waiter(self, ep: SidecarEndpoint, woken: Signal) -> None:
        self._waiters[(ep.proto, ep.port)] = woken

    build_packet = build_packet_by_ip

    # --- TX: app core -> coherence -> sidecar core -> qdisc -> NIC ----------------

    def app_tx_burst(self, ep: SidecarEndpoint, pkts: Sequence[Packet]) -> Signal:
        """Hand a burst across the core boundary: one app-core event, one
        sidecar-core event, per-packet filter/qdisc work and per-byte
        coherence cost in between. Resolves with the number admitted."""
        result = Signal("sidecar.send_burst")
        tracer = self.machine.tracer
        now = self.machine.sim.now
        owner = owner_info(ep.proc)
        app_cost = 0
        lead_ctx = None
        for pkt in pkts:
            pkt.meta.created_ns = now
            pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm = owner
            ctx = tracer.begin(pkt)
            if lead_ctx is None:
                lead_ctx = ctx
            app_cost += charge(STAGE_RING, self.costs.bypass_tx_pkt_ns, ctx,
                               label="app_tx")
        app_core = self.machine.cpus[ep.proc.core_id]
        # Per-packet coherence cost, kept separate so each packet's trace
        # carries its own physical-movement nanoseconds.
        moves = [
            self.machine.coherence.transfer_cost_ns(
                pkt.wire_len + 64, ep.proc.core_id, self.sidecar_core_id
            )
            for pkt in pkts
        ]
        move_ns = sum(moves)

        def _on_sidecar(_sig: Signal) -> None:
            fp = self.machine.fastpath
            work = move_ns
            staged = []
            for pkt, mv in zip(pkts, moves):
                ctx = pkt.meta.trace
                charge(STAGE_COHERENCE, mv, ctx, label="x_core")
                fp_entry = None
                ft = pkt.five_tuple if fp is not None else None
                if ft is not None:
                    fp_entry = fp.lookup(CHAIN_OUTPUT, ft, ep.proc.pid)
                if fp_entry is not None:
                    verdict = fp_entry.verdict
                    work += (
                        charge(STAGE_RING, self.costs.bypass_tx_pkt_ns, ctx,
                               label="sidecar_tx")
                        + charge(STAGE_FASTPATH, fp.hit_ns, ctx,
                                 label="output_chain")
                    )
                else:
                    verdict, examined = self.kernel.filters.evaluate(
                        CHAIN_OUTPUT, pkt, owner
                    )
                    work += (
                        charge(STAGE_RING, self.costs.bypass_tx_pkt_ns, ctx,
                               label="sidecar_tx")
                        + charge(STAGE_NETFILTER,
                                 examined * self.costs.netfilter_rule_ns, ctx,
                                 label="output_chain")
                    )
                staged.append((pkt, verdict, fp_entry, ft))

            def _done(_s: Signal) -> None:
                admitted = 0
                for pkt, verdict, fp_entry, ft in staged:
                    self._run_captures(pkt)
                    if pkt.meta.trace is not None:
                        # Absorb the wall time both cores spent on the rest
                        # of the burst (zero at burst=1, where the packet's
                        # own spans cover the whole hand-off window).
                        pkt.meta.trace.fill_gap(
                            STAGE_SCHED_WAKE, self.machine.sim.now,
                            label="batch_wait",
                        )
                    if verdict == DROP:
                        if ft is not None and fp_entry is None:
                            fp.install(
                                CHAIN_OUTPUT, ft, ep.proc.pid,
                                verdict=verdict, points=("netfilter",),
                            )
                        if pkt.meta.trace is not None:
                            pkt.meta.trace.close(self.machine.sim.now)
                        continue
                    if fp_entry is not None and fp_entry.qdisc_class is not None:
                        cls = fp_entry.qdisc_class
                    else:
                        cls = self._classify(ep.proc.pid)
                        if ft is not None and fp_entry is None:
                            fp.install(
                                CHAIN_OUTPUT, ft, ep.proc.pid,
                                verdict=verdict, qdisc_class=cls, points=("netfilter",),
                            )
                    if self.egress_runner.submit(pkt, cls):
                        admitted += 1
                    elif pkt.meta.trace is not None:
                        pkt.meta.trace.close(self.machine.sim.now)
                result.succeed(admitted)

            self._score.execute(work, "sidecar_tx", ctx=lead_ctx).add_callback(_done)

        app_core.execute(app_cost, "app_tx", ctx=lead_ctx).add_callback(_on_sidecar)
        return result

    # --- RX: NIC -> sidecar core -> coherence -> app ---------------------------------

    def wire_rx(self, pkt: Packet) -> None:
        self.nic.rx_from_wire(pkt)

    def _sidecar_rx_burst(self, pkts: List[Packet]) -> None:
        """Burst softirq on the sidecar core: one execute event covers the
        whole burst's protocol work (coherence cost still per packet)."""
        staged_pkts = []
        total_work = 0
        for pkt in pkts:
            staged = self._rx_stage(pkt)
            if staged is None:
                continue
            ep, verdict, work = staged
            total_work += work
            staged_pkts.append((pkt, ep, verdict))
        if not staged_pkts:
            return

        def _done(_sig: Signal) -> None:
            for pkt, ep, verdict in staged_pkts:
                self._rx_effect(pkt, ep, verdict)

        # trace: stage spans charged in _rx_stage; waits absorbed at _rx_effect.
        self._score.execute(total_work, "sidecar_rx_burst").add_callback(_done)

    def _rx_stage(self, pkt: Packet):
        if pkt.is_arp:
            self.kernel.observe_arp(pkt)
            self._run_captures(pkt)
            return None
        ip = pkt.ipv4
        l4 = pkt.l4
        has_l4 = ip is not None and l4 is not None
        ep = self._endpoints.get((ip.proto, l4.dport)) if has_l4 else None
        owner = owner_info(ep.proc) if ep else None
        if owner is not None:
            pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm = owner
        ctx = pkt.meta.trace
        fp = self.machine.fastpath
        if fp is not None and has_l4:
            scope = owner[0] if owner is not None else None
            ft = pkt.five_tuple
            entry = fp.lookup(CHAIN_INPUT, ft, scope)
            if entry is not None:
                verdict = entry.verdict
                work = (
                    charge(STAGE_RING, self.costs.bypass_rx_pkt_ns, ctx,
                           label="sidecar_rx")
                    + charge(STAGE_FASTPATH, fp.hit_ns, ctx, label="input_chain")
                )
            else:
                verdict, examined = self.kernel.filters.evaluate(CHAIN_INPUT, pkt, owner)
                fp.install(CHAIN_INPUT, ft, scope, verdict=verdict, points=("netfilter",))
                work = (
                    charge(STAGE_RING, self.costs.bypass_rx_pkt_ns, ctx,
                           label="sidecar_rx")
                    + charge(STAGE_NETFILTER,
                             examined * self.costs.netfilter_rule_ns, ctx,
                             label="input_chain")
                )
        else:
            verdict, examined = self.kernel.filters.evaluate(CHAIN_INPUT, pkt, owner)
            work = (
                charge(STAGE_RING, self.costs.bypass_rx_pkt_ns, ctx,
                       label="sidecar_rx")
                + charge(STAGE_NETFILTER,
                         examined * self.costs.netfilter_rule_ns, ctx,
                         label="input_chain")
            )
        if ep is not None:
            work += charge(
                STAGE_COHERENCE,
                self.machine.coherence.transfer_cost_ns(
                    pkt.wire_len + 64, self.sidecar_core_id, ep.proc.core_id
                ),
                ctx,
                label="x_core",
            )
        return ep, verdict, work

    def _rx_effect(self, pkt: Packet, ep: Optional[SidecarEndpoint], verdict: str) -> None:
        if pkt.meta.trace is not None:
            # Whatever elapsed beyond the charged spans (steering, burst
            # siblings' share of the softirq, sidecar-core queueing) is wait.
            pkt.meta.trace.fill_gap(
                STAGE_SCHED_WAKE, self.machine.sim.now, label="sidecar_wait"
            )
            pkt.meta.trace.close(self.machine.sim.now)
        self._run_captures(pkt)
        if verdict == DROP or ep is None or ep.closed:
            return
        msg: Message = (pkt.payload_len, pkt.ipv4.src, pkt.l4.sport)
        waiter = self._waiters.pop((ep.proto, ep.port), None)
        if waiter is not None:
            self.kernel.scheduler.wake(ep.proc, value=msg)
        else:
            ep.rx_queue.append(msg)

    # --- administrative surface ----------------------------------------------------

    def install_filter_rule(self, rule: NetfilterRule) -> None:
        self.kernel.filters.append(rule)

    def configure_qos(self, config: QosConfig) -> None:
        weights = dict(config.weights_by_cgroup)
        weights.setdefault(DEFAULT_CLASS, 1)
        self._qos_weights = weights
        self._qdisc_point.policy = config
        self.egress_runner.replace_qdisc(
            DrrQdisc(weights=weights, quantum_bytes=config.quantum_bytes)
        )

    def _classify(self, pid: int) -> str:
        if not self._qos_weights:
            return DEFAULT_CLASS
        path = self.kernel.cgroups.group_of(pid).path
        return path if path in self._qos_weights else DEFAULT_CLASS

    def start_capture(
        self, match: Optional[PacketFilter] = None, name: str = "capture"
    ) -> CaptureSession:
        session = CaptureSession(name=name, attributed=True)
        self._captures.append((match, session))
        self._sniffer_point.record_update()

        def _detach() -> None:
            self._captures.remove((match, session))
            self._sniffer_point.record_update()

        session._detach = _detach
        return session

    def _run_captures(self, pkt: Packet) -> None:
        if not self._captures:
            return
        hit = False
        for match, session in self._captures:
            if match is None or match(pkt):
                session.packets.append(pkt)
                hit = True
        self._sniffer_point.record_eval(hit=hit)

    def attribution_of(self, pkt: Packet) -> Optional[Tuple[int, int, str]]:
        if pkt.meta.owner_pid is None:
            return None
        return (pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm)

    def arp_entries(self) -> List[object]:
        return self.kernel.arp_cache.entries()

    def data_movements(self) -> Dict[str, int]:
        return {
            "virtual": 0,
            "virtual_copied_bytes": 0,
            "physical": self.machine.coherence.lines_moved,
        }

    def sidecar_core_busy_ns(self) -> int:
        return self._score.busy_ns
