"""The classic in-kernel network stack — the baseline dataplane.

Every packet crosses the user/kernel boundary (syscall + copy: the "virtual
data movement" of §1), runs protocol processing, netfilter, and the egress
qdisc in software on the application's core. In exchange the kernel gets
what §2 wants: owner attribution on every packet, a global ARP view, a
capture tap for tcpdump, and the ability to block/wake readers. The
sidecar runs this stack's netfilter, flow-cache and classifier stages
(:meth:`KernelNetStack.rx_verdict`, :meth:`~KernelNetStack.tx_filter`,
:meth:`~KernelNetStack.tx_class`) on its own core.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..config import CostModel
from ..errors import EndpointClosed, InvalidSyscall, KernelError, WouldBlock
from ..net.addresses import IPv4Address, MacAddress
from ..net.capture import Sniffer
from ..net.headers import PROTO_TCP, PROTO_UDP
from ..net.packet import Packet, UdpTemplate, make_tcp, make_udp
from ..sim import MetricSet, Signal, Simulator, SucceedWith
from ..trace import (
    STAGE_FASTPATH,
    STAGE_NETFILTER,
    STAGE_PROTO,
    STAGE_QDISC,
    STAGE_SCHED_WAKE,
    STAGE_SYSCALL,
    charge,
)
from .netfilter import CHAIN_INPUT, CHAIN_OUTPUT, DROP, RuleTable
from .process import Process, owner_info
from .qdisc import DEFAULT_CLASS, PfifoQdisc
from .qdisc_runner import PacedQdiscRunner
from .scheduler import KernelScheduler
from .sockets import KernelSocket, SocketTable
from .syscall import SyscallLayer

ClassifyFn = Callable[[Packet, Optional[int]], str]


def _default_classify(_pkt: Packet, _pid: Optional[int]) -> str:
    return DEFAULT_CLASS


class KernelNetStack:
    """Software TX/RX paths over the kernel substrate."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        cpus,
        scheduler: KernelScheduler,
        syscalls: SyscallLayer,
        sockets: SocketTable,
        filters: RuleTable,
        host_ip: IPv4Address,
        host_mac: MacAddress,
        tx_rate_bps: int,
        nic_send: Callable[[Packet], None],
        mac_for: Callable[[IPv4Address], MacAddress],
        fastpath=None,
        tracer=None,
        tenants=None,
    ):
        self.sim = sim
        self.costs = costs
        # Optional FlowFastPath (None unless CostModel.flow_fastpath): a hit
        # replaces the per-rule netfilter walk with one flowtable lookup.
        self.fastpath = fastpath
        # Tracing spine (repro.trace); disabled tracers never open contexts.
        self.tracer = tracer
        # Optional TenantRegistry: the kernel's syscall/socket paths resolve
        # the calling process to its tenant and stamp/count per tenant.
        # None (or a disabled registry) keeps the seed path untouched.
        self.tenants = tenants if (tenants is not None
                                   and tenants.enabled) else None
        self.cpus = cpus
        self.scheduler = scheduler
        self.syscalls = syscalls
        self.sockets = sockets
        self.filters = filters
        self.host_ip = host_ip
        self.host_mac = host_mac
        #: Virtual IPs this host answers for (DSR-style cluster service
        #: addresses). Demux is by (proto, dport) and is unaffected; the set
        #: exists so introspection tools and experiments can ask which hosts
        #: serve a VIP — the kernel keeps its global view even when the
        #: steering decision lives in the switch.
        self.vips: "set[IPv4Address]" = set()
        self.mac_for = mac_for
        self.metrics = MetricSet("netstack")
        self.egress = PacedQdiscRunner(
            sim, PfifoQdisc(), tx_rate_bps, nic_send, name="kernel_egress"
        )
        self.classify: ClassifyFn = _default_classify
        #: The tcpdump tap: every packet the stack sends or receives.
        self.sniffer = Sniffer(sim)
        # Blocked readers by (proto, port), the socket table's key.
        self._rx_waiters: "dict[tuple[int, int], Process]" = {}

    # --- payload movement (copy or zero-copy) --------------------------------

    def _tx_payload(self, proc: Process, sock: KernelSocket, payload_len: int,
                    ctx=None) -> int:
        """Charge moving TX payload across the boundary; track per-socket
        copied vs elided bytes (`ss`-style observability for E13)."""
        cost = self.syscalls.tx_payload_cost(proc, payload_len, ctx=ctx)
        if self.costs.tx_zerocopy:
            sock.tx_elided_bytes += payload_len
        else:
            sock.tx_copied_bytes += payload_len
        return cost

    def _rx_payload(self, proc: Process, sock: KernelSocket, payload_len: int,
                    ctx=None) -> int:
        """RX counterpart of :meth:`_tx_payload`."""
        cost = self.syscalls.rx_payload_cost(proc, payload_len, ctx=ctx)
        if self.costs.rx_zerocopy:
            sock.rx_elided_bytes += payload_len
        else:
            sock.rx_copied_bytes += payload_len
        return cost

    def _tenant_stamp(self, pkt: Packet, proc: Optional[Process]) -> None:
        """Resolve the calling process to its tenant, stamp the packet, and
        move that tenant's direction counter (lazy: counters exist only for
        tenants that actually touched the stack)."""
        if self.tenants is None or proc is None:
            return
        tenant = self.tenants.resolve(proc)
        pkt.meta.tenant_tid = tenant.tid
        prefix = f"tenant.{tenant.tid}"
        self.metrics.counter(f"{prefix}.pkts").inc()
        self.metrics.counter(f"{prefix}.bytes").inc(pkt.wire_len)

    def _loose(self, stage: str, ns: int, label: str = "") -> int:
        """Loose (message-level) attribution for work with no packet context."""
        if self.tracer is not None:
            self.tracer.loose(stage, ns, label=label)
        return ns

    # --- netfilter and classifier stages, behind the flow cache ---------------
    #
    # Each returns what to charge and leaves the charging to the caller, so
    # the kernel path and the sidecar each book these stages in their own
    # spans and order.

    def rx_verdict(self, pkt: Packet, owner):
        """INPUT-chain stage: a flow-cache hit returns the cached verdict at
        flowtable cost; a miss walks the rules and caches the verdict,
        scoped on the owning pid so owner rules stay a function of the key.
        Returns (verdict, modeled filter ns, cache entry or None)."""
        fp = self.fastpath
        ft = pkt.five_tuple if fp is not None else None
        if ft is not None:
            scope = owner[0] if owner is not None else None
            entry = fp.lookup(CHAIN_INPUT, ft, scope)
            if entry is not None:
                return entry.verdict, fp.hit_ns, entry
        verdict, examined = self.filters.evaluate(CHAIN_INPUT, pkt, owner)
        if ft is not None:
            fp.install(CHAIN_INPUT, ft, scope, verdict=verdict, points=("netfilter",))
        return verdict, examined * self.costs.netfilter_rule_ns, None

    def tx_filter(self, pkt: Packet, proc: Process, owner):
        """OUTPUT-chain stage: a flow-cache hit returns the cached verdict
        at flowtable cost; otherwise the full per-rule walk runs. Returns
        (verdict, modeled filter ns, cache entry or None)."""
        fp = self.fastpath
        if fp is not None:
            ft = pkt.five_tuple
            if ft is not None:
                entry = fp.lookup(CHAIN_OUTPUT, ft, proc.pid)
                if entry is not None:
                    return entry.verdict, fp.hit_ns, entry
        verdict, examined = self.filters.evaluate(CHAIN_OUTPUT, pkt, owner)
        return verdict, examined * self.costs.netfilter_rule_ns, None

    def tx_class(self, pkt: Packet, proc: Process, verdict: str, fp_entry) -> str:
        """Qdisc classification, served from the cache on a hit; a miss
        classifies and installs the composed (verdict, class) entry."""
        if fp_entry is not None and fp_entry.qdisc_class is not None:
            return fp_entry.qdisc_class
        cls = self.classify(pkt, proc.pid)
        self.tx_install(pkt, proc, verdict, cls, fp_entry)
        return cls

    def tx_install(self, pkt: Packet, proc: Process, verdict: str, cls, fp_entry) -> None:
        """Cache a verdict :meth:`tx_filter` walked for (with its class,
        once classified); a no-op on a hit or without a flow cache."""
        fp = self.fastpath
        if fp is None or fp_entry is not None:
            return
        ft = pkt.five_tuple
        if ft is not None:
            fp.install(
                CHAIN_OUTPUT, ft, proc.pid,
                verdict=verdict, qdisc_class=cls, points=("netfilter",),
            )

    # --- TX -------------------------------------------------------------------

    def sendmmsg(
        self,
        proc: Process,
        sock: KernelSocket,
        dst_ip: IPv4Address,
        dport: int,
        payload_lens: Sequence[int],
    ) -> Signal:
        """Batched send — the ``sendmmsg(2)`` model: ONE user->kernel
        crossing for the whole burst, per-message protocol work unchanged.

        The returned signal fires when the batched syscall returns; its
        value is the number of messages admitted to the egress qdisc. A
        burst of one is the classic ``sendto(2)``: one crossing, counted
        as ``sendto``.
        """
        n = len(payload_lens)
        if n == 0:
            result = Signal("sendmmsg")
            self.sim.after(0, result.succeed, 0)
            return result
        owner = owner_info(proc)
        work = 0
        lead_ctx = None  # burst-shared costs land on the first packet's trace
        staged: "list[tuple[Packet, str, object]]" = []
        for payload_len in payload_lens:
            pkt = self._build(sock, dst_ip, dport, payload_len)
            pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm = owner
            pkt.meta.created_ns = self.sim.now
            self._tenant_stamp(pkt, proc)
            ctx = self.tracer.begin(pkt) if self.tracer is not None else None
            if lead_ctx is None:
                lead_ctx = ctx
            verdict, filter_ns, fp_entry = self.tx_filter(pkt, proc, owner)
            work += (
                self._tx_payload(proc, sock, payload_len, ctx=ctx)
                + charge(STAGE_PROTO, self.costs.kernel_tx_pkt_ns, ctx,
                         label="tx_proto")
                + charge(STAGE_FASTPATH if fp_entry is not None else STAGE_NETFILTER,
                         filter_ns, ctx, label="output_chain")
                + charge(STAGE_QDISC, self.costs.qdisc_enqueue_ns, ctx,
                         label="enqueue")
            )
            staged.append((pkt, verdict, fp_entry))
        # The crossing itself amortizes; invoke() charges syscall_ns, so only
        # the batched dispatch surplus is added to the in-kernel work.
        work += charge(STAGE_SYSCALL,
                       self.costs.syscall_burst_ns(n) - self.costs.syscall_ns,
                       lead_ctx, label="batch_surplus")
        result = Signal("sendmmsg")
        if n > 1:
            self.syscalls.record_batched(n)
        syscall_done = self.syscalls.invoke(
            proc, "sendto" if n == 1 else "sendmmsg", work, ctx=lead_ctx
        )

        def _after_syscall(_sig: Signal) -> None:
            admitted_count = 0
            for pkt, verdict, fp_entry in staged:
                self.sniffer.mirror(pkt)
                if pkt.meta.trace is not None:
                    # Absorb the wall time the core spent on the rest of the
                    # burst (zero at n=1, where a packet's own spans cover
                    # the whole syscall window).
                    pkt.meta.trace.fill_gap(STAGE_SCHED_WAKE, self.sim.now,
                                            label="batch_wait")
                if verdict == DROP:
                    self.tx_install(pkt, proc, verdict, None, fp_entry)
                    self.metrics.counter("tx_filtered").inc()
                    if pkt.meta.trace is not None:
                        pkt.meta.trace.close(self.sim.now)
                    continue
                cls = self.tx_class(pkt, proc, verdict, fp_entry)
                admitted = self.egress.submit(pkt, cls)
                if admitted:
                    sock.tx_bytes += pkt.payload_len
                    self.metrics.counter("tx_pkts").inc()
                    admitted_count += 1
                else:
                    self.metrics.counter("tx_qdisc_drops").inc()
                    if pkt.meta.trace is not None:
                        pkt.meta.trace.close(self.sim.now)
            result.succeed(admitted_count)

        syscall_done.add_callback(_after_syscall)
        return result

    def _build(
        self, sock: KernelSocket, dst_ip: IPv4Address, dport: int, payload_len: int
    ) -> Packet:
        dst_mac = self.mac_for(dst_ip)
        if sock.proto == PROTO_UDP:
            # The MAC is resolved on every send and is part of the shape,
            # so a new neighbour entry shows in the next frame.
            key = (dst_ip, dst_mac, dport, payload_len)
            template = sock.udp_template
            if template is not None and template.key == key:
                return Packet(template.eth, template.ipv4, template.udp, None, payload_len)
            pkt = make_udp(
                self.host_mac, dst_mac, self.host_ip, dst_ip, sock.port, dport, payload_len
            )
            sock.udp_template = UdpTemplate(key, pkt)
            return pkt
        if sock.proto == PROTO_TCP:
            return make_tcp(
                self.host_mac, dst_mac, self.host_ip, dst_ip, sock.port, dport, payload_len
            )
        raise KernelError(f"unsupported protocol: {sock.proto}")

    # --- RX -------------------------------------------------------------------

    def recvmmsg(
        self, proc: Process, sock: KernelSocket, max_msgs: int, blocking: bool = True
    ) -> Signal:
        """Batched receive — the ``recvmmsg(2)`` model: drain up to
        ``max_msgs`` queued messages under one crossing (or, when blocking
        on an empty queue, wake once and drain whatever the burst brought,
        like ``MSG_WAITFORONE``). The value is the list of messages; a
        burst of one is the classic ``recvfrom(2)``. A non-blocking call
        on an empty queue fails with :class:`WouldBlock`, any call on a
        closed socket with :class:`EndpointClosed`; ``max_msgs`` below
        one raises :class:`InvalidSyscall` (EINVAL) before any work.
        """
        if max_msgs < 1:
            raise InvalidSyscall(f"recvmmsg of {max_msgs} messages")
        result = Signal("recvmmsg")
        if sock.closed:
            self.sim.after(0, Signal.fail, result,
                           EndpointClosed(f"socket :{sock.port} closed"))
            return result
        if sock.rx_queue:
            msgs = [sock.rx_queue.popleft() for _ in range(min(max_msgs, len(sock.rx_queue)))]
            n = len(msgs)
            work = sum(self._rx_payload(proc, sock, m[0]) for m in msgs)
            work += self._loose(
                STAGE_SYSCALL,
                self.costs.syscall_burst_ns(n) - self.costs.syscall_ns,
                label="batch_surplus",
            )
            if n > 1:
                self.syscalls.record_batched(n)
            done = self.syscalls.invoke(proc, "recvfrom" if n == 1 else "recvmmsg", work)
            done.add_callback(SucceedWith(result, msgs))
            return result
        if not blocking:
            self.metrics.counter("rx_wouldblock").inc()
            self.sim.after(0, Signal.fail, result,
                           WouldBlock(f"no data on port {sock.port}"))
            return result
        key = (sock.proto, sock.port)
        if key in self._rx_waiters:
            raise KernelError(f"port {sock.port} already has a blocked reader")
        woken = self.scheduler.block(proc, reason=f"recv:{sock.port}")
        self._rx_waiters[key] = proc
        woken.add_callback(_WokenRecv(self, proc, sock, max_msgs, result))
        return result

    def deliver_burst(self, pkts: Sequence[Packet]) -> None:
        """RX entry from the NIC, NAPI style: one softirq processes a whole
        burst — protocol processing, INPUT filtering, socket demux, and
        waking any blocked reader. A burst holds up to ``batch_size``
        packets; KOPI's software fallback hands over one packet at a time.

        Protocol/filter/demux work is still charged per packet, but it is
        serialized under a single core-execute event per core — the burst
        amortizes scheduling, not protocol work.
        """
        per_core: "dict[int, list[tuple[Packet, Optional[KernelSocket], str]]]" = {}
        core_work: "dict[int, int]" = {}
        for pkt in pkts:
            staged = self._rx_stage(pkt)
            if staged is None:
                continue
            sock, verdict, work = staged
            core_id = sock.owner.core_id if sock else 0
            per_core.setdefault(core_id, []).append((pkt, sock, verdict))
            core_work[core_id] = core_work.get(core_id, 0) + work
        for core_id, staged_pkts in per_core.items():
            if self.costs.batch_size > 1:
                self.metrics.counter("rx_bursts").inc()

            def _after_rx(_sig: Signal, staged_pkts=staged_pkts) -> None:
                for pkt, sock, verdict in staged_pkts:
                    self._rx_effect(pkt, sock, verdict)

            # trace: stage spans charged in _rx_stage; waits absorbed at _rx_effect.
            self.cpus[core_id].execute(core_work[core_id], "rx_burst").add_callback(_after_rx)

    def _rx_stage(self, pkt: Packet):
        """Shared demux/filter stage; returns (sock, verdict, work_ns) or
        None for non-IP traffic (handled inline)."""
        ip = pkt.ipv4
        l4 = pkt.l4
        if ip is None or l4 is None:
            self.sniffer.mirror(pkt)
            self.metrics.counter("rx_non_ip").inc()
            return None
        sock = self.sockets.lookup(ip.proto, l4.dport)
        owner = owner_info(sock.owner) if sock else None
        if owner is not None:
            # The kernel attributes inbound packets at socket demux time.
            pkt.meta.owner_pid, pkt.meta.owner_uid, pkt.meta.owner_comm = owner
            self._tenant_stamp(pkt, sock.owner)
        # Demux and attribution ran above: the flow cache elides the rule
        # walk, never the kernel's process view.
        verdict, filter_ns, entry = self.rx_verdict(pkt, owner)
        ctx = pkt.meta.trace
        work = (
            charge(STAGE_PROTO, self.costs.kernel_rx_pkt_ns, ctx, label="rx_proto")
            + charge(STAGE_FASTPATH if entry is not None else STAGE_NETFILTER,
                     filter_ns, ctx, label="input_chain")
            + charge(STAGE_PROTO, self.costs.socket_demux_ns, ctx, label="demux")
        )
        return sock, verdict, work

    def _rx_effect(self, pkt: Packet, sock: Optional[KernelSocket], verdict: str) -> None:
        if pkt.meta.trace is not None:
            # Whatever elapsed beyond the charged NIC/softirq spans is time
            # spent queued behind the core or burst siblings.
            pkt.meta.trace.fill_gap(STAGE_SCHED_WAKE, self.sim.now, label="softirq_wait")
            pkt.meta.trace.close(self.sim.now)
        self.sniffer.mirror(pkt)
        if verdict == DROP:
            self.metrics.counter("rx_filtered").inc()
            return
        if sock is None:
            self.metrics.counter("rx_no_socket").inc()
            return
        payload = pkt.payload_len
        msg = (payload, pkt.ipv4.src, pkt.l4.sport)
        sock.rx_bytes += payload
        self.metrics.counter("rx_pkts").inc()
        proc = self._rx_waiters.pop((sock.proto, sock.port), None)
        if proc is not None:
            self.scheduler.wake(proc, value=msg)
        else:
            sock.rx_queue.append(msg)

    def close(self, sock: KernelSocket) -> None:
        """Release ``sock``. A reader blocked on it is woken (no interrupt:
        the closing thread's own syscall does it) and fails with
        :class:`EndpointClosed`."""
        self.sockets.close(sock)
        proc = self._rx_waiters.pop((sock.proto, sock.port), None)
        if proc is not None:
            self.scheduler.wake(proc, via_interrupt=False)

    # --- introspection ----------------------------------------------------------

    def connect(self, proc: Process, sock: KernelSocket, ip: IPv4Address, port: int) -> Signal:
        """Record the peer (connection setup syscall)."""
        sock.connect(ip, port)
        return self.syscalls.invoke(proc, "connect")

    def add_vip(self, ip: IPv4Address) -> None:
        """Mark this host as a backend for a cluster virtual IP."""
        self.vips.add(ip)

    def serves_vip(self, ip: IPv4Address) -> bool:
        return ip in self.vips


class _WokenRecv:
    """The rest of a ``recvmmsg`` that blocked: woken with the first
    message, take what else the burst queued (``MSG_WAITFORONE``) and copy
    it out on the reader's core; woken by a close, fail."""

    __slots__ = ("stack", "proc", "sock", "max_msgs", "result")

    def __init__(self, stack: KernelNetStack, proc: Process, sock: KernelSocket,
                 max_msgs: int, result: Signal):
        self.stack = stack
        self.proc = proc
        self.sock = sock
        self.max_msgs = max_msgs
        self.result = result

    def __call__(self, woken: Signal) -> None:
        stack = self.stack
        proc = self.proc
        sock = self.sock
        if sock.closed:
            self.result.fail(EndpointClosed(f"socket :{sock.port} closed"))
            return
        msgs = [woken.value]
        while sock.rx_queue and len(msgs) < self.max_msgs:
            msgs.append(sock.rx_queue.popleft())
        work = sum(stack._rx_payload(proc, sock, m[0]) for m in msgs)
        if len(msgs) > 1:
            work += stack._loose(
                STAGE_SYSCALL,
                stack.costs.syscall_burst_ns(len(msgs)) - stack.costs.syscall_ns,
                label="batch_surplus",
            )
        stack.cpus[proc.core_id].execute(work, "rx_copy").add_callback(
            SucceedWith(self.result, msgs)
        )
