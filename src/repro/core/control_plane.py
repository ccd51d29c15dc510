"""Norman's in-kernel control plane.

Responsibilities, straight from §4.2–§4.4:

* **connection setup** — applications call in through the kernel
  (``connect``/``accept``-like); the control plane allocates and pins the
  per-connection ring pair, claims on-NIC SRAM for connection state,
  programs steering, and records the owner — falling back to the software
  path when NIC resources are exhausted (§5);
* **policy compilation** — netfilter rules and tc configs are lowered to
  overlay programs (owner rules resolved to connection ids) and loaded into
  the SmartNIC's overlay slots, in microseconds;
* **notification monitoring** — it subscribes to every process's
  notification queue and wakes threads blocked in ``recv``/``send``,
  enabling blocking I/O over a kernel-bypass datapath (§4.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CostModel
from ..errors import KernelError, NicResourceExhausted
from ..host.machine import Machine
from ..interpose import InterpositionPoint
from ..kernel.kernel import Kernel
from ..kernel.netfilter import CHAIN_INPUT, CHAIN_OUTPUT, NetfilterRule
from ..kernel.process import Process
from ..kernel.qdisc import DEFAULT_CLASS, DrrQdisc
from ..net.addresses import IPv4Address
from ..net.flow import FiveTuple
from ..nic.notification import (
    KIND_RX_READY,
    KIND_TX_DRAINED,
    Notification,
    NotificationQueue,
)
from ..nic.rings import DescriptorRing, RingPair
from ..overlay.compiler import compile_classifier, compile_filter_rules, compile_policer
from ..sim import MetricSet, Signal
from ..trace import STAGE_SCHED_WAKE, STAGE_SYSCALL
from ..dataplanes.base import QosConfig
from .connection import CONN_MODE_PER_CONN, CONN_MODE_SHARED, NormanConnection
from .conntrack import ConntrackTable, NatTable
from .nic_dataplane import (
    SLOT_CLASSIFIER,
    SLOT_FILTER_RX,
    SLOT_FILTER_TX,
    SLOT_POLICER,
    KopiNic,
)


class ControlPlane:
    """The kernel side of KOPI."""

    def __init__(
        self,
        kernel: Kernel,
        nic: KopiNic,
        machine: Machine,
        shared_rings: bool = False,
    ):
        self.kernel = kernel
        self.nic = nic
        self.machine = machine
        self.costs: CostModel = machine.costs
        self.shared_rings = shared_rings
        self.metrics = MetricSet("control_plane")

        self._conns: Dict[int, NormanConnection] = {}
        self._next_conn_id = 1
        self._notifq: Dict[int, NotificationQueue] = {}  # pid -> queue
        self._rx_waiters: Dict[int, Process] = {}  # conn_id -> blocked proc
        self._tx_waiters: Dict[int, Process] = {}
        self._shared_pairs: Dict[int, RingPair] = {}  # pid -> shared ring pair
        # Incremental hot-set accounting: active_hot_bytes() is consulted on
        # every memory read (E8's DDIO pressure), so it must not rescan the
        # connection table. _hot_pairs maps id(pair) -> [pair, fast-conn
        # refcount]; holding the pair reference keeps the id stable.
        self._hot_fast_conns = 0
        self._hot_pairs: Dict[int, "list"] = {}
        self._qos: Optional[QosConfig] = None
        self._police: Dict[str, "tuple[int, int]"] = {}  # cgroup -> (rate, burst)
        self._monitor_mode: Dict[int, "tuple[str, int]"] = {}  # pid -> (mode, interval)
        self.monitor_core_id = 0
        """Core the kernel's notification monitor runs on (polled mode)."""

        nic.conn_resolver = self._conns.get
        nic.notify = self._post_notification
        nic.on_arp = self._observe_arp
        nic.fallback_rx = kernel.netstack.deliver_burst

        # Every overlay slot (filters, classifier, policer, custom programs)
        # commits through one point: a load is submitted now and live after
        # the ~50 us overlay window — E14's asynchronous-install case.
        engine = machine.interpose
        self.overlay_point = engine.register(InterpositionPoint(
            name="overlay_filters", plane="nic", mechanism="overlay",
            install_latency_ns=self.costs.overlay_load_ns, target=nic.fpga,
        ))
        nic.filter_point = self.overlay_point
        # The kernel rule table stays authoritative for iptables; wire the
        # control plane's recompile/counter-pull hooks onto its point so the
        # tool can trigger them through the registry.
        nf_point = kernel.filters.point
        if nf_point is not None:
            nf_point.resync = self.sync_filters
            nf_point.sync_counters = self.sync_rule_counters

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------

    def open_connection(
        self,
        proc: Process,
        proto: int,
        port: Optional[int] = None,
        remote: Optional[Tuple[IPv4Address, int]] = None,
    ) -> NormanConnection:
        """Set up one connection (§4.3). Raises kernel errors for port
        conflicts/privilege; NIC exhaustion degrades to the software
        fallback path instead of failing."""
        if port is None:
            sock = self.kernel.sockets.bind_ephemeral(proc, proto)
        else:
            sock = self.kernel.sockets.bind(proc, proto, port)
        if remote is not None:
            sock.connect(remote[0], remote[1])

        conn_id = self._next_conn_id
        self._next_conn_id += 1
        rings, mode = self._allocate_rings(proc, conn_id)
        conn = NormanConnection(
            conn_id=conn_id, proc=proc, sock=sock, rings=rings, mode=mode
        )
        # tenant: connection state is the control plane's SRAM charging
        # site — attributed so a hog's connection churn burns its own quota.
        tenant = (self.machine.tenants.resolve(proc)
                  if self.costs.tenants else None)
        try:
            conn.sram = self.nic.sram.alloc(
                self.costs.conn_state_bytes, "conn_state", tenant=tenant)
        except NicResourceExhausted:
            conn.fallback = True
            self.metrics.counter("fallback_conns").inc()
            if self.machine.ff is not None:
                # SRAM exhaustion is a pressure cliff: the NIC's resource
                # state just changed regime, so no frozen profile survives.
                from ..sim.fastforward import REASON_PRESSURE

                self.machine.ff.demote_all(REASON_PRESSURE)
        self._conns[conn_id] = conn
        if not conn.fallback:
            self._hot_track(conn)

        if not conn.fallback:
            self._install_steering(conn)
        self._ensure_notifq(proc)
        self._charge_setup(proc)
        self.metrics.counter("connections").inc()
        self._resync_policies()
        self._note_working_set()
        return conn

    def connect_peer(self, conn: NormanConnection, dst_ip: IPv4Address, dport: int) -> Signal:
        """connect(2): record the peer and install exact steering for the
        return flow."""
        conn.sock.connect(dst_ip, dport)
        if not conn.fallback:
            inbound = FiveTuple(conn.proto, dst_ip, dport, self.kernel.host_ip, conn.port)
            self.nic.steering.install(inbound, conn.conn_id)
        work = self.machine.tracer.loose(
            STAGE_SYSCALL, self.costs.table_update_ns, label="connect_setup"
        )
        return self.kernel.syscalls.invoke(conn.proc, "connect", work)

    def close_connection(self, conn: NormanConnection) -> None:
        if conn.closed:
            raise KernelError(f"connection {conn.conn_id} already closed")
        if self.machine.ff is not None:
            # Teardown is a shape boundary: flush pending epochs (charged
            # under the profile that was valid while they ran) and return
            # the connection's flows to exact simulation.
            from ..sim.fastforward import REASON_SHAPE

            self.machine.ff.demote_conn(conn.conn_id, REASON_SHAPE)
        conn.closed = True
        if conn.sram is not None:
            self.nic.sram.free(conn.sram)
            conn.sram = None
        self.nic.steering.remove_dport(conn.proto, conn.port)
        if conn.sock.peer is not None:
            peer_ip, peer_port = conn.sock.peer
            self.nic.steering.remove(
                FiveTuple(conn.proto, peer_ip, peer_port, self.kernel.host_ip, conn.port)
            )
        self.kernel.netstack.close(conn.sock)
        del self._conns[conn.conn_id]
        # A reader or writer blocked on the connection wakes without an
        # interrupt (the closing thread's own syscall) and finds it closed.
        for waiters in (self._rx_waiters, self._tx_waiters):
            proc = waiters.pop(conn.conn_id, None)
            if proc is not None:
                self.kernel.scheduler.wake(proc, via_interrupt=False)
                if not self._has_waiters(proc.pid):
                    self._notifq[proc.pid].enable_interrupts(False)
        if not conn.fallback:
            self._hot_untrack(conn)
        self._resync_policies()
        self._note_working_set()

    def _note_working_set(self) -> None:
        """Feed the DDIO pressure boundary: captured profiles bake in a
        memory-read cost that is a function of the hot working set, so the
        fast-forward controller demotes everything whenever the set crosses
        a capacity quartile (the E8 cliff must always be simulated exactly)."""
        if self.machine.ff is not None:
            self.machine.ff.note_working_set(
                self.active_hot_bytes(), self.costs.ddio_capacity_bytes
            )

    def _allocate_rings(self, proc: Process, conn_id: int) -> "tuple[RingPair, str]":
        """Per-connection rings by default; one shared pair per process in
        shared mode (the §5 mitigation, E11)."""
        if self.shared_rings:
            pair = self._shared_pairs.get(proc.pid)
            if pair is None:
                # One big pair per process: deeper descriptor rings (they
                # absorb every connection's traffic) over the same modest
                # hot footprint — that is the entire point of the §5
                # mitigation.
                pair = self._build_rings(
                    proc, owner_tag=f"pid{proc.pid}.shared", conn_id=0, entries_scale=32
                )
                self._shared_pairs[proc.pid] = pair
            return pair, CONN_MODE_SHARED
        return (
            self._build_rings(proc, owner_tag=f"pid{proc.pid}.conn{conn_id}", conn_id=conn_id),
            CONN_MODE_PER_CONN,
        )

    def _build_rings(
        self, proc: Process, owner_tag: str, conn_id: int, entries_scale: int = 1
    ) -> RingPair:
        line = self.costs.cache_line_bytes
        rx_lines = (self.costs.conn_hot_lines * 2) // 3
        tx_lines = self.costs.conn_hot_lines - rx_lines
        rx_region = self.machine.memory.alloc_pinned(
            rx_lines * line, owner=owner_tag, name="rx"
        )
        tx_region = self.machine.memory.alloc_pinned(
            tx_lines * line, owner=owner_tag, name="tx"
        )
        return RingPair(
            conn_id,
            rx=DescriptorRing(
                self.costs.rx_ring_entries * entries_scale, rx_region, f"{owner_tag}.rx",
                line_bytes=line,
            ),
            tx=DescriptorRing(
                self.costs.tx_ring_entries * entries_scale, tx_region, f"{owner_tag}.tx",
                line_bytes=line,
            ),
        )

    def _install_steering(self, conn: NormanConnection) -> None:
        if conn.sock.peer is not None:
            peer_ip, peer_port = conn.sock.peer
            self.nic.steering.install(
                FiveTuple(conn.proto, peer_ip, peer_port, self.kernel.host_ip, conn.port),
                conn.conn_id,
            )
        else:
            self.nic.steering.install_dport(conn.proto, conn.port, conn.conn_id)

    def _charge_setup(self, proc: Process) -> None:
        """Connection setup is a kernel operation: syscall + pinning + NIC
        MMIO programming, on the caller's core."""
        work = self.machine.tracer.loose(
            STAGE_SYSCALL,
            self.costs.table_update_ns + self.costs.mmio_write_ns,
            label="conn_setup",
        )
        self.kernel.syscalls.invoke(proc, "norman_connect", work)

    # ------------------------------------------------------------------
    # registry / introspection
    # ------------------------------------------------------------------

    def connections(self) -> List[NormanConnection]:
        return sorted(self._conns.values(), key=lambda c: c.conn_id)

    def conn_count(self) -> int:
        return len(self._conns)

    def _hot_track(self, conn: NormanConnection) -> None:
        self._hot_fast_conns += 1
        ref = self._hot_pairs.get(id(conn.rings))
        if ref is None:
            self._hot_pairs[id(conn.rings)] = [conn.rings, 1]
        else:
            ref[1] += 1

    def _hot_untrack(self, conn: NormanConnection) -> None:
        self._hot_fast_conns -= 1
        key = id(conn.rings)
        ref = self._hot_pairs[key]
        ref[1] -= 1
        if ref[1] == 0:
            del self._hot_pairs[key]

    def active_hot_bytes(self) -> int:
        """Aggregate hot ring footprint of NIC-resident connections — the
        working set competing for DDIO (E8). Maintained incrementally at
        open/close (``_hot_track``/``_hot_untrack``): this is consulted per
        memory read, so it must stay O(distinct ring pairs), not O(conns)."""
        if self.shared_rings:
            return sum(pair.pinned_bytes for pair, _refs in self._hot_pairs.values())
        return self._hot_fast_conns * self.costs.conn_footprint_bytes

    def resolve_owner_rule(self, rule: NetfilterRule) -> Sequence[int]:
        """Owner rule -> connection ids, the §4.4 lowering step."""
        out = []
        for conn in self._conns.values():
            pid, uid, comm = conn.owner
            if rule.pid_owner is not None and pid != rule.pid_owner:
                continue
            if rule.uid_owner is not None and uid != rule.uid_owner:
                continue
            if rule.cmd_owner is not None and comm != rule.cmd_owner:
                continue
            out.append(conn.conn_id)
        return out

    # ------------------------------------------------------------------
    # policy compilation (§4.4)
    # ------------------------------------------------------------------

    def install_filter_rule(self, rule: NetfilterRule) -> Signal:
        self.kernel.filters.append(rule)
        return self.sync_filters()

    def sync_filters(self) -> Signal:
        """Recompile both chains and load them into the overlay slots."""
        rx_prog = compile_filter_rules(
            self.kernel.filters.rules(CHAIN_INPUT),
            resolve_conns=self.resolve_owner_rule,
            name="kopi.filter_rx",
        )
        tx_prog = compile_filter_rules(
            self.kernel.filters.rules(CHAIN_OUTPUT),
            resolve_conns=self.resolve_owner_rule,
            name="kopi.filter_tx",
        )
        a = self.nic.fpga.load_overlay(SLOT_FILTER_RX, rx_prog)
        b = self.nic.fpga.load_overlay(SLOT_FILTER_TX, tx_prog)
        from ..sim import AllOf

        return self.overlay_point.begin_commit(AllOf([a, b], name="sync_filters"))

    def sync_rule_counters(self) -> None:
        """Copy overlay hit counters back onto the kernel rule objects so
        ``iptables -L -v`` shows NIC-enforced hits."""
        for chain, slot in ((CHAIN_INPUT, SLOT_FILTER_RX), (CHAIN_OUTPUT, SLOT_FILTER_TX)):
            machine = self.nic.fpga.machine(slot)
            if machine is None:
                continue
            rules = self.kernel.filters.rules(chain)
            for i, rule in enumerate(rules):
                if i < len(machine.counters):
                    rule.packets = machine.counters[i]

    def configure_qos(self, config: QosConfig) -> Signal:
        """tc lowering: cgroup weights -> DRR on the NIC scheduler plus a
        classifier overlay mapping connections to classids."""
        self._qos = config
        return self._load_qos()

    def _load_qos(self) -> Signal:
        assert self._qos is not None
        weights: Dict[str, int] = {DEFAULT_CLASS: 1}
        classid_of_conn: Dict[int, int] = {}
        for path, weight in self._qos.weights_by_cgroup.items():
            classid = self.kernel.cgroups.get(path).classid
            weights[str(classid)] = weight
        for conn in self._conns.values():
            classid = self.kernel.cgroups.classid_of(conn.proc.pid)
            if str(classid) in weights:
                classid_of_conn[conn.conn_id] = classid
        qdisc = DrrQdisc(weights=weights, quantum_bytes=self._qos.quantum_bytes)
        self.nic.set_scheduler(qdisc, set(weights))
        if self.nic.scheduler.point is not None:
            self.nic.scheduler.point.policy = self._qos
        prog = compile_classifier(classid_of_conn, default_classid=0, name="kopi.classifier")
        return self.overlay_point.begin_commit(
            self.nic.fpga.load_overlay(SLOT_CLASSIFIER, prog)
        )

    def configure_police(self, cgroup_path: str, rate_bps: int, burst_bytes: int) -> Signal:
        """tc police: cap a cgroup's egress with an overlay token bucket.

        Non-conformant packets are dropped on the NIC; the policy follows
        connections as they come and go, like the other compiled policies.
        """
        if rate_bps <= 0 or burst_bytes <= 0:
            raise KernelError("police rate and burst must be positive")
        self.kernel.cgroups.get(cgroup_path)  # must exist
        self._police[cgroup_path] = (rate_bps, burst_bytes)
        return self._load_police()

    def _load_police(self) -> Signal:
        paths = sorted(self._police)
        meter_idx = {path: i for i, path in enumerate(paths)}
        meter_of_conn: Dict[int, int] = {}
        for conn in self._conns.values():
            path = self.kernel.cgroups.group_of(conn.proc.pid).path
            if path in meter_idx:
                meter_of_conn[conn.conn_id] = meter_idx[path]
        prog = compile_policer(meter_of_conn, n_meters=len(paths), name="kopi.policer")
        loaded = self.nic.fpga.load_overlay(SLOT_POLICER, prog)

        def _configure(_sig: Signal) -> None:
            machine = self.nic.fpga.machine(SLOT_POLICER)
            assert machine is not None
            for path, idx in meter_idx.items():
                rate, burst = self._police[path]
                machine.configure_meter(idx, rate, burst)

        loaded.add_callback(_configure)
        return self.overlay_point.begin_commit(loaded)

    # ------------------------------------------------------------------
    # offloaded kernel functionality: conntrack and NAT
    # ------------------------------------------------------------------

    def enable_conntrack(self) -> ConntrackTable:
        """Track per-flow state in NIC SRAM (visible to `ss`/conntrack
        tooling; subject to SRAM exhaustion like everything on the NIC)."""
        if self.nic.conntrack is None:
            self.nic.conntrack = ConntrackTable(self.nic.sram)
            self.nic.conntrack.fastpath = self.machine.fastpath
            self.nic.conntrack.point = self.machine.interpose.register(
                InterpositionPoint(
                    name="conntrack", plane="nic", mechanism="conntrack",
                    install_latency_ns=self.costs.table_update_ns,
                    target=self.nic.conntrack,
                )
            )
        return self.nic.conntrack

    def enable_masquerade(self, public_ip) -> NatTable:
        """Source-NAT all outbound traffic to ``public_ip`` on the NIC."""
        if self.nic.nat is None:
            self.nic.nat = NatTable(self.nic.sram, public_ip)
        return self.nic.nat

    def enable_congestion_control(self, **kwargs):
        """NIC-local congestion management (§4.2): pace connections whose
        traffic backs up the egress scheduler, AIMD recovery."""
        from .congestion import LocalCongestionManager

        if self.nic.congestion is None:
            kwargs.setdefault("wire_rate_bps", self.nic.scheduler.drain_rate_bps)
            manager = LocalCongestionManager(self.machine.sim, self.costs, **kwargs)
            manager.bind_resolver(self._conns.get)
            self.nic.congestion = manager
        return self.nic.congestion

    def _resync_policies(self) -> None:
        """Connections changed: recompile owner-dependent programs."""
        if self.kernel.filters.total_rules() > 0:
            self.sync_filters()
        if self._qos is not None:
            self._load_qos()
        if self._police:
            self._load_police()

    # ------------------------------------------------------------------
    # feature upgrades (§4.4: "equivalent to upgrading the kernel itself")
    # ------------------------------------------------------------------

    def upgrade_bitstream(self, bitstream) -> Signal:
        """Replace the FPGA image and then *restore every installed policy*.

        A raw ``fpga.load_bitstream`` wipes all overlay slots — without this
        wrapper, a feature upgrade would silently drop the host's firewall
        and shaping rules. The returned signal fires once the fabric is
        back AND the policies are reloaded.
        """
        done = Signal("upgrade_bitstream")
        flashed = self.nic.fpga.load_bitstream(bitstream)

        def _restore(_sig: Signal) -> None:
            self._resync_policies()
            # Policies load asynchronously; completion = all slots live.
            self.machine.sim.after(self.costs.overlay_load_ns + 1, done.succeed, True)

        flashed.add_callback(_restore)
        # The whole upgrade is one (long) commit: the stale window spans the
        # bitstream flash plus the policy reload.
        return self.overlay_point.begin_commit(done)

    def load_custom_rx_program(self, asm_text: str, n_counters: int = 0,
                               n_meters: int = 0) -> Signal:
        """Operator-supplied overlay program for the RX filter slot — the
        §4.4 programmability story beyond precompiled iptables/tc policies.

        The program replaces the compiled filter chain (the two are the
        same slot, as on real hardware). The fabric verifies it against the
        slot before anything loads, so a rejected program raises here and
        leaves the previous one running untouched.
        """
        from ..overlay.assembler import assemble

        prog = assemble(asm_text, n_counters=n_counters, n_meters=n_meters,
                        name="custom_rx")
        return self.overlay_point.begin_commit(
            self.nic.fpga.load_overlay(SLOT_FILTER_RX, prog)
        )

    # ------------------------------------------------------------------
    # notifications and blocking (§4.3)
    # ------------------------------------------------------------------

    def _ensure_notifq(self, proc: Process) -> NotificationQueue:
        queue = self._notifq.get(proc.pid)
        if queue is None:
            queue = NotificationQueue(owner_pid=proc.pid)
            queue.subscribe(self._on_notification)
            self._notifq[proc.pid] = queue
        return queue

    def notification_queue(self, pid: int) -> Optional[NotificationQueue]:
        return self._notifq.get(pid)

    def _post_notification(self, conn: NormanConnection, kind: str, count: int = 1) -> None:
        queue = self._notifq.get(conn.proc.pid)
        if queue is None:
            return
        queue.post(
            Notification(
                conn_id=conn.conn_id, kind=kind, time_ns=self.machine.sim.now, count=count
            )
        )

    def set_monitor_mode(
        self, pid: int, mode: str, poll_interval_ns: int = 50_000
    ) -> None:
        """Choose how the kernel monitor learns about this process's
        notifications (§4.3):

        * ``"interrupt"`` (default) — the NIC interrupts; lowest latency,
          pays ``interrupt_ns`` per wake;
        * ``"poll"`` — the monitor scans the queue every
          ``poll_interval_ns`` on its own core; no interrupt cost, adds up
          to one interval of wake latency. Right for busy queues.
        """
        if mode not in ("interrupt", "poll"):
            raise KernelError(f"unknown monitor mode: {mode!r}")
        if mode == "poll" and poll_interval_ns < 1:
            raise KernelError(f"poll interval must be >= 1 ns: {poll_interval_ns}")
        self._monitor_mode[pid] = (mode, poll_interval_ns)

    def _on_notification(self, notif: Notification) -> None:
        """The monitor: wake whoever blocks on this connection."""
        if notif.kind == KIND_RX_READY:
            proc = self._rx_waiters.pop(notif.conn_id, None)
        elif notif.kind == KIND_TX_DRAINED:
            proc = self._tx_waiters.pop(notif.conn_id, None)
        else:  # pragma: no cover - closed kind set
            proc = None
        if proc is None:
            return
        queue = self._notifq[proc.pid]
        mode, interval = self._monitor_mode.get(proc.pid, ("interrupt", 0))
        if mode == "poll":
            # The monitor only sees the notification at its next scan tick;
            # the scan itself costs monitor-core time, not an interrupt.
            now = self.machine.sim.now
            next_tick = ((now // interval) + 1) * interval
            monitor_core = self.machine.cpus[self.monitor_core_id]

            def _scan() -> None:
                scan = monitor_core.execute(
                    self.machine.tracer.loose(
                        STAGE_SCHED_WAKE, self.costs.poll_iteration_ns,
                        label="notif_scan",
                    ),
                    "notif_scan",
                )
                scan.add_callback(
                    lambda _s: self.kernel.scheduler.wake(
                        proc, value=notif, via_interrupt=False
                    )
                )

            self.machine.sim.at(next_tick, _scan)
            return
        self.kernel.scheduler.wake(
            proc, value=notif, via_interrupt=queue.interrupts_enabled
        )
        if not self._has_waiters(proc.pid):
            queue.enable_interrupts(False)

    def _has_waiters(self, pid: int) -> bool:
        waiting = list(self._rx_waiters.values()) + list(self._tx_waiters.values())
        return any(p.pid == pid for p in waiting)

    def block_on_rx(self, conn: NormanConnection, proc: Process) -> Signal:
        """Block ``proc`` until the NIC signals data on ``conn``. Interrupts
        are enabled on the queue while anyone is blocked (§4.3: interrupts
        for low-activity queues)."""
        if conn.conn_id in self._rx_waiters:
            raise KernelError(f"connection {conn.conn_id} already has a blocked reader")
        woken = self.kernel.scheduler.block(proc, f"norman_rx:{conn.conn_id}")
        self._rx_waiters[conn.conn_id] = proc
        self._ensure_notifq(proc).enable_interrupts(True)
        return woken

    def block_on_tx(self, conn: NormanConnection, proc: Process) -> Signal:
        if conn.conn_id in self._tx_waiters:
            raise KernelError(f"connection {conn.conn_id} already has a blocked writer")
        woken = self.kernel.scheduler.block(proc, f"norman_tx:{conn.conn_id}")
        self._tx_waiters[conn.conn_id] = proc
        self._ensure_notifq(proc).enable_interrupts(True)
        return woken

    def _observe_arp(self, pkt) -> None:
        self.kernel.arp_cache.observe(pkt, self.machine.sim.now)
