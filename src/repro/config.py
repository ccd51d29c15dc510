"""Calibrated cost model for the simulated host.

Every latency/size/rate constant used anywhere in the simulator lives here,
in one frozen dataclass, so that experiments can state exactly which knobs
they sweep and ablations can build modified copies via
:meth:`CostModel.replace`.

The defaults are calibrated to the literature the paper cites rather than to
any particular machine: syscall and copy costs from FlexSC/TAS-era
measurements, kernel per-packet costs consistent with ~1–2 Mpps/core Linux
forwarding, bypass per-packet costs consistent with DPDK-class 10s of
Mpps/core, DDIO sizing from Intel's documented 2-of-11-way LLC allocation,
and FPGA reconfiguration times from the paper's own "seconds or longer" for
full bitstreams versus microseconds for overlay program loads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

from . import units
from .errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """All tunable constants of the simulated host, NIC, and network.

    Times are integer nanoseconds, sizes bytes, rates bits/second, unless the
    field name says otherwise. ``*_ns_per_byte`` fields are floats; derived
    costs are rounded to whole nanoseconds at the point of use.
    """

    # --- CPU / OS ----------------------------------------------------------
    syscall_ns: int = 500
    """One user->kernel->user crossing (entry + exit, no work)."""

    context_switch_ns: int = 2_000
    """Direct cost of switching a core between two threads."""

    interrupt_ns: int = 3_000
    """Interrupt delivery + handler entry, used for blocking wakeups."""

    wakeup_schedule_ns: int = 1_500
    """Scheduler cost to move a woken thread onto a core."""

    copy_ns_per_byte: float = 0.06
    """Software memcpy, ~16 GB/s per core (user<->kernel copies)."""

    poll_iteration_ns: int = 80
    """One spin of a userspace poll loop that finds nothing."""

    # --- kernel network stack ----------------------------------------------
    kernel_rx_pkt_ns: int = 1_600
    """Per-packet kernel RX protocol processing (skb, IP/TCP demux)."""

    kernel_tx_pkt_ns: int = 1_400
    """Per-packet kernel TX protocol processing (skb alloc, headers, route)."""

    netfilter_rule_ns: int = 25
    """Cost of evaluating one netfilter rule in software."""

    qdisc_enqueue_ns: int = 120
    """Software qdisc enqueue+dequeue bookkeeping per packet."""

    socket_demux_ns: int = 150
    """Kernel socket table lookup per packet."""

    # --- userspace dataplane (bypass / Norman library) ----------------------
    bypass_rx_pkt_ns: int = 60
    """Per-packet userspace RX cost on a bypass ring (descriptor + header)."""

    bypass_tx_pkt_ns: int = 55
    """Per-packet userspace TX cost on a bypass ring."""

    # --- batching (burst-mode dataplane) ------------------------------------
    batch_size: int = 1
    """Packets moved per burst on every layer that supports bursts: ring
    doorbells, NIC TX drains, NAPI-style RX delivery, sendmmsg/recvmmsg.
    It sizes bursts, not code paths: 1 runs the same burst code with
    bursts of one, which is strict per-packet processing (the seed
    behaviour)."""

    dma_setup_ns: int = 40
    """Marginal cost per extra descriptor inside one batched DMA transaction
    (TLP framing, descriptor walk). Far below the full round-trip
    :attr:`pcie_dma_latency_ns` a lone descriptor pays — that gap is
    precisely what a burst fetch amortizes. Charged only on the burst
    (n > 1) paths; n == 1 stays the classic per-transaction latency."""

    interrupt_coalesce_ns: int = 8_000
    """NIC interrupt-coalescing window: in burst mode (batch_size > 1) RX
    notifications/interrupts are edge-triggered per burst rather than
    level-triggered per packet, bounding wakeups to one per window."""

    sendmmsg_per_msg_ns: int = 40
    """Marginal in-kernel bookkeeping per extra message of a batched
    sendmmsg/recvmmsg call (iovec walk, cmsg checks) — the part of syscall
    dispatch that does *not* amortize."""

    # --- zero-copy datapath (copy elision, experiment E13) -------------------
    tx_zerocopy: bool = False
    """MSG_ZEROCOPY-style kernel TX: pin the user pages and let the NIC DMA
    from them instead of copying the payload into kernel buffers. Each send
    pays :attr:`zc_tx_pin_ns` + :attr:`zc_tx_completion_ns` instead of the
    per-byte copy, so it only wins above the break-even message size.
    Off (the default) reproduces the seed byte-identically."""

    rx_zerocopy: bool = False
    """Registered-buffer (io_uring-style) kernel RX: payloads land in
    pre-registered user buffers the stack can address directly, so recv
    pays :attr:`zc_rx_fixed_ns` instead of the kernel->user per-byte copy.
    Off (the default) reproduces the seed byte-identically."""

    zc_tx_pin_ns: int = 450
    """Per-send cost of pinning user pages and building the scatter-gather
    descriptor for a zero-copy transmit (get_user_pages + skb frag setup)."""

    zc_tx_completion_ns: int = 400
    """Delivering the MSG_ZEROCOPY completion notification that tells the
    sender its buffer may be reused (error-queue entry + wakeup share)."""

    zc_rx_fixed_ns: int = 350
    """Per-recv fixed cost of the registered-buffer RX path: buffer-table
    lookup and handing the application a reference instead of bytes."""

    # --- flow fast path (megaflow-style verdict cache, experiment E15) -------
    flow_fastpath: bool = False
    """Cache the composed verdict of a full slow-path walk (netfilter,
    qdisc class, steering, overlay filter, conntrack) per five-tuple, as
    OVS megaflows and the Linux flowtable offload do: the first packet of
    a flow walks every interposition point, later packets hit one lookup.
    Any :class:`~repro.interpose.PolicyEngine` commit invalidates, so hits
    are always policy-correct. Off (the default) reproduces the seed
    byte-identically."""

    flowtable_hit_ns: int = 90
    """Modeled cost of one flow-table hit: a single hash lookup replacing
    the per-rule walk (~ exact-match EMC/flowtable lookup, a few cache
    references)."""

    flow_fastpath_entries: int = 1_024
    """Flow-table capacity (LRU). Models SRAM/flowtable pressure: beyond
    this many concurrent flows the cache thrashes and traffic falls back
    to the slow path — the same >1024-connection collapse §5 reports for
    DDIO working sets."""

    # --- hybrid fidelity (flow-level fast-forward, experiment E21) ----------
    fast_forward: bool = False
    """Fluid-approximate steady-state flows: once a flow has hit the verdict
    cache :attr:`ff_promote_after` packets in a row, later packets are
    absorbed into bulk ``FlowEpoch`` charges (N × the cached per-packet cost,
    per stage) instead of N per-packet events. The flow demotes back to
    packet-exact simulation at every fidelity boundary — policy commit,
    fastpath miss/invalidation/eviction, conntrack expiry, qdisc backlog
    threshold, DDIO/SRAM pressure crossing, packet-shape change (see
    ``docs/hybrid_fidelity.md``). Requires :attr:`flow_fastpath`. Off (the
    default) reproduces the seed byte-identically."""

    ff_promote_after: int = 8
    """Consecutive verdict-cache hits before a flow may go fluid."""

    ff_epoch_packets: int = 4_096
    """Absorbed packets that force an epoch flush (bulk charge)."""

    ff_horizon_ns: int = 1_000_000
    """Maximum simulated time an absorbed packet may wait unflushed: a
    pending epoch is charged at this horizon even if it never fills."""

    ff_qdisc_backlog: int = 256
    """Qdisc backlog (packets) at which queueing becomes load-dependent and
    every fluid flow is demoted (the ``qdisc_pressure`` boundary)."""

    ff_tx: bool = True
    """Fast-forward TX-side schedules too: a steady single-packet sender
    whose packets hit the TX verdict cache absorbs its app-timer → syscall
    → doorbell chain into fluid epochs instead of firing per-packet events,
    demoting at the same boundaries. Only meaningful with
    :attr:`fast_forward`."""

    ff_cross_machine: bool = False
    """Fast-forward across the switch hop (experiment E23): a steady flow
    from host A through the L2 switch to host B is absorbed end-to-end in
    one group-keyed fluid epoch — the sender's TX chain, the switch-hop
    forward, and the receiver's RX chain — instead of demoting at the
    wire. Promotion requires *both* stacks' verdict caches steady plus a
    learned, rule-free switch path; either side's demotion boundary (and
    any switch MAC-table change, flood, or rule install) demotes the whole
    end-to-end flow before the boundary's effect is simulated (see
    ``docs/hybrid_fidelity.md``). Requires :attr:`fast_forward`. Off (the
    default) keeps cross-host flows demoting at the wire, byte-identical
    to the per-host engine."""

    # --- cluster scale-out (rack + in-switch L4 balancer, experiment E18) ---
    cluster_lb: bool = False
    """Grow the L2 switch an in-network L4 load-balancer stage (experiment
    E18): frames addressed to a VIP's virtual MAC are steered to one of N
    backend machines by a consistent-hash ring over the five-tuple, with
    per-flow exact-match overrides. Steering state is owned by a
    :class:`~repro.interpose.PolicyEngine` on the switch's control plane
    and every change — VIP install, ring rebuild, per-flow re-steer — is a
    versioned atomic policy commit, so half-installed rules are never
    evaluated. A :class:`~repro.dataplanes.multihost.Rack` with the knob
    on also builds the live-migration coordinator (``Rack.migrate``),
    which schedules nothing until a migration is asked for. Off (the
    default) builds neither and keeps the switch byte-identical to the
    seed forwarding path."""

    lb_vnodes: int = 32
    """Virtual nodes per backend on the balancer's consistent-hash ring
    (more vnodes → smoother VIP load spread and smaller re-steered key
    ranges when backends join/leave)."""

    lb_migration_drain_ns: int = 4_000
    """Drain window a migration waits after demoting the source flow, so
    packets already in flight toward the source (wire + switch hop) are
    served there before the state snapshot is taken. Must exceed one
    link round trip; the default covers the default
    :attr:`link_propagation_ns` several times over."""

    # --- multi-tenancy (tenant-aware dataplane, experiment E17) -------------
    tenants: bool = False
    """Resolve every resource touch to a first-class :class:`Tenant`
    (uid/cgroup-scoped, registered per machine): kernel syscall/socket/
    qdisc paths, fastpath installs, conntrack entries, SRAM blocks and
    NIC pipeline/DMA charges all carry the owning tenant, and per-tenant
    hit/miss/evicted/bytes counters move. Pure attribution — no schedule
    or quota changes. Off (the default) reproduces the seed
    byte-identically."""

    tenant_isolation: bool = False
    """Enforce tenant isolation on top of attribution: per-tenant
    flowtable and SRAM quotas (evict-within-tenant before evict-across),
    a per-tenant DRR egress scheduler replacing the KOPI FIFO drain, and
    weighted fair arbitration of SmartNIC pipeline passes and DMA bytes.
    No flow goes fluid under isolation: the arbiters and the per-tenant
    egress classes are per-packet state that depends on load, which no
    frozen profile can replay. Requires :attr:`tenants`."""

    tenant_quantum_bytes: int = 1_514
    """DRR byte quantum per round for weight-1 tenants (one MTU frame):
    bounds how long a victim waits behind any hog to ~1 frame per active
    tenant per round."""

    tenant_default_weight: int = 1
    """Scheduler weight for the built-in ``system`` tenant and for
    tenants registered without an explicit weight."""

    # --- latency anatomy (attributed tracing spine, experiment E16) ---------
    trace: bool = False
    """Record an attributed span per charged nanosecond (see repro.trace):
    every charging site routes through the ``charge()`` chokepoint, and with
    this flag on each packet carries a :class:`~repro.trace.TraceContext`
    whose spans tile its end-to-end latency exactly ("no lost nanoseconds").
    Tracing observes the schedule, it never perturbs it — with one audited
    exception, the sidecar wake-path drain fix described in
    ``docs/tracing.md``. Off (the default) reproduces the seed
    byte-identically."""

    # --- memory hierarchy ---------------------------------------------------
    llc_size_bytes: int = 33 * units.MB
    llc_ways: int = 11
    cache_line_bytes: int = 64
    ddio_ways: int = 2
    """Ways of the LLC that inbound DMA may allocate into (Intel DDIO)."""

    llc_hit_ns: int = 16
    dram_ns: int = 90
    coherence_line_ns: int = 60
    """Transferring one modified line between cores (physical movement)."""

    # --- PCIe / NIC ---------------------------------------------------------
    pcie_dma_latency_ns: int = 800
    """One DMA transaction NIC<->host memory, latency component."""

    pcie_bandwidth_bps: int = 120 * units.GBPS
    """Usable PCIe bandwidth (x16 Gen4-ish after overheads)."""

    mmio_write_ns: int = 100
    """CPU-visible cost of a posted MMIO write (doorbell)."""

    mmio_read_ns: int = 800
    """Non-posted MMIO read round trip."""

    nic_pipeline_ns: int = 350
    """Fixed latency of the conventional NIC's internal pipeline."""

    nic_line_rate_bps: int = 100 * units.GBPS

    rx_ring_entries: int = 256
    tx_ring_entries: int = 256
    ring_desc_bytes: int = 16

    conn_hot_lines: int = 96
    """Cache lines of ring+buffer state a busy connection keeps hot (~6 KiB).

    Chosen so that, with the default 2-of-11-way DDIO allocation of a 33 MiB
    LLC (= 6 MiB), the active working set outgrows DDIO near 1024 concurrent
    connections — the cliff §5 of the paper reports.
    """

    # --- SmartNIC ------------------------------------------------------------
    smartnic_sram_bytes: int = 16 * units.MB
    """On-NIC memory for rules, connection state, and queues."""

    smartnic_stage_ns: int = 45
    """Latency of one SmartNIC pipeline stage (filter, conntrack, ...)."""

    overlay_instr_ns: int = 2
    """Per-instruction latency of the overlay processor (pipelined FPGA)."""

    conn_state_bytes: int = 320
    """On-NIC per-connection state (steering entry, seq/ack, counters)."""

    # --- reconfiguration (experiment E10) ------------------------------------
    bitstream_load_ns: int = 2 * units.SEC
    """Full FPGA reprogram — 'seconds or longer' per the paper."""

    overlay_load_ns: int = 50 * units.US
    """Loading a new program into an existing overlay."""

    table_update_ns: int = 2 * units.US
    """MMIO-driven table entry insert/remove on the NIC."""

    kernel_update_ns: int = 10 * units.US
    """Updating a software policy inside the kernel (e.g. iptables insert)."""

    # --- links ----------------------------------------------------------------
    link_propagation_ns: int = 500
    """One-way propagation on the host's access link."""

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if isinstance(value, (int, float)) and value < 0:
                raise ConfigError(f"CostModel.{name} must be >= 0, got {value}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.flow_fastpath_entries < 1:
            raise ConfigError(
                f"flow_fastpath_entries must be >= 1, got {self.flow_fastpath_entries}"
            )
        if self.fast_forward and not self.flow_fastpath:
            raise ConfigError(
                "fast_forward requires flow_fastpath: fluid epochs replay "
                "cached verdicts, so there must be a verdict cache"
            )
        if self.ff_cross_machine and not self.fast_forward:
            raise ConfigError(
                "ff_cross_machine requires fast_forward: the end-to-end "
                "epoch binds two per-machine controllers, so both must exist"
            )
        if self.lb_vnodes < 1:
            raise ConfigError(f"lb_vnodes must be >= 1, got {self.lb_vnodes}")
        for knob in ("ff_promote_after", "ff_epoch_packets", "ff_horizon_ns",
                     "ff_qdisc_backlog"):
            if getattr(self, knob) < 1:
                raise ConfigError(
                    f"{knob} must be >= 1, got {getattr(self, knob)}"
                )
        if self.tenant_isolation and not self.tenants:
            raise ConfigError(
                "tenant_isolation requires tenants: quotas and the "
                "per-tenant scheduler need resolved tenant identity"
            )
        if self.tenant_quantum_bytes < 1:
            raise ConfigError(
                f"tenant_quantum_bytes must be >= 1, got {self.tenant_quantum_bytes}"
            )
        if self.tenant_default_weight < 1:
            raise ConfigError(
                f"tenant_default_weight must be >= 1, got {self.tenant_default_weight}"
            )
        if self.ddio_ways > self.llc_ways:
            raise ConfigError(
                f"ddio_ways ({self.ddio_ways}) cannot exceed llc_ways ({self.llc_ways})"
            )
        if self.llc_size_bytes % (self.llc_ways * self.cache_line_bytes) != 0:
            raise ConfigError("LLC size must be divisible by ways * line size")

    # --- derived quantities ---------------------------------------------------

    @property
    def llc_sets(self) -> int:
        """Number of sets in the modeled LLC."""
        return self.llc_size_bytes // (self.llc_ways * self.cache_line_bytes)

    @property
    def ddio_capacity_bytes(self) -> int:
        """Bytes of LLC that inbound DMA can occupy."""
        return self.llc_sets * self.ddio_ways * self.cache_line_bytes

    @property
    def conn_footprint_bytes(self) -> int:
        """Hot bytes per busy connection."""
        return self.conn_hot_lines * self.cache_line_bytes

    def copy_ns(self, nbytes: int) -> int:
        """Software copy cost for ``nbytes``, in whole ns."""
        if nbytes <= 0:
            return 0
        return max(1, round(nbytes * self.copy_ns_per_byte))

    # --- zero-copy cost components -------------------------------------------

    def zc_tx_ns(self, nbytes: int) -> int:
        """Fixed cost of one zero-copy transmit (pin + completion), charged
        in place of ``copy_ns(nbytes)`` when :attr:`tx_zerocopy` is on.
        Zero-length sends pin nothing and cost nothing extra."""
        if nbytes <= 0:
            return 0
        return self.zc_tx_pin_ns + self.zc_tx_completion_ns

    def zc_rx_ns(self, nbytes: int) -> int:
        """Fixed cost of one registered-buffer receive, charged in place of
        ``copy_ns(nbytes)`` when :attr:`rx_zerocopy` is on."""
        if nbytes <= 0:
            return 0
        return self.zc_rx_fixed_ns

    @property
    def zc_tx_break_even_bytes(self) -> int:
        """Smallest payload for which a zero-copy TX is no slower than the
        copy it elides: ``copy_ns(n) >= zc_tx_pin_ns + zc_tx_completion_ns``.
        With the defaults (0.06 ns/B vs 850 ns fixed) this is ~14.2 KB —
        why MSG_ZEROCOPY only pays off for large messages."""
        if self.copy_ns_per_byte <= 0:
            return 0
        fixed = self.zc_tx_pin_ns + self.zc_tx_completion_ns
        n = int(fixed / self.copy_ns_per_byte)
        while self.copy_ns(n) < fixed:
            n += 1
        return n

    # --- batch-aware cost components -----------------------------------------

    def dma_burst_ns(self, n: int) -> int:
        """Latency of one DMA transaction carrying ``n`` descriptors.

        A burst pays the transaction latency once plus a small per-extra-
        descriptor setup share; ``n == 1`` is exactly the classic per-packet
        :attr:`pcie_dma_latency_ns`, so batch_size=1 runs are unchanged.
        """
        if n <= 1:
            return self.pcie_dma_latency_ns
        return self.pcie_dma_latency_ns + (n - 1) * self.dma_setup_ns

    def syscall_burst_ns(self, n: int) -> int:
        """Entry/exit cost of one batched syscall moving ``n`` messages
        (``sendmmsg``/``recvmmsg``): one crossing plus per-extra-message
        dispatch bookkeeping. ``n == 1`` equals :attr:`syscall_ns`."""
        if n <= 1:
            return self.syscall_ns
        return self.syscall_ns + (n - 1) * self.sendmmsg_per_msg_ns

    def replace(self, **changes: object) -> "CostModel":
        """Return a copy with the given fields changed (ablation helper)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        """Flat dict of every constant plus key derived values."""
        out: Dict[str, object] = dataclasses.asdict(self)
        out["derived.llc_sets"] = self.llc_sets
        out["derived.ddio_capacity_bytes"] = self.ddio_capacity_bytes
        out["derived.conn_footprint_bytes"] = self.conn_footprint_bytes
        return out


DEFAULT_COSTS = CostModel()
"""Shared default cost model; treat as immutable."""
