"""Isolated host cost of each hot primitive, through its public call.

Each function returns nanoseconds per operation: the median of a few
timed repeats of a fixed loop. These are per-layer numbers, never gated:
they let a change to one layer show that its primitive moved.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from repro import DEFAULT_COSTS, PROTO_UDP
from repro.host.cache import WayPartitionedCache
from repro.interpose import PolicyEngine
from repro.interpose.fastpath import FlowFastPath
from repro.kernel.netfilter import ACCEPT, CHAIN_OUTPUT, DROP, NetfilterRule, RuleTable
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.flow import FiveTuple
from repro.net.link import Link
from repro.net.packet import make_udp
from repro.net.switch import L2Switch
from repro.sim import Simulator

REPEATS = 5

MAC_A, MAC_B = MacAddress.from_index(1), MacAddress.from_index(2)
IP_A, IP_B = IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2")


def _ns_per_op(loop: Callable[[], int]) -> float:
    """Median over ``REPEATS`` runs of ``loop``; ``loop`` returns how many
    operations it did."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        ops = loop()
        samples.append((time.perf_counter_ns() - t0) / ops)
    return statistics.median(samples)


def sim_push_pop(n: int = 20_000) -> float:
    """One calendar push and pop: ``Simulator.at`` then ``step``."""

    def noop() -> None:
        pass

    def loop() -> int:
        sim = Simulator()
        at = sim.at
        for i in range(n):
            at(i * 100, noop)
        step = sim.step
        while step():
            pass
        return n

    return _ns_per_op(loop)


def llc_line_op(n: int = 20_000) -> float:
    """One LLC line op: a DDIO ``dma_write`` then a ``cpu_read`` of the
    same line, sweeping more lines than the DDIO slice holds."""
    cache = WayPartitionedCache.from_costs(DEFAULT_COSTS)
    cache.cpu_fills_allocate = False
    line = cache.line_bytes
    span = 4 * cache.sets * cache.ddio_ways

    def loop() -> int:
        write, read = cache.dma_write, cache.cpu_read
        for i in range(n):
            addr = (i * 7 % span) * line
            write(addr)
            read(addr)
        return n

    return _ns_per_op(loop)


def fastpath_hit(n: int = 30_000) -> float:
    """One verdict-cache lookup that hits."""
    fp = FlowFastPath(PolicyEngine(Simulator()), DEFAULT_COSTS)
    flow = FiveTuple(PROTO_UDP, IP_A, 5_000, IP_B, 9_000)
    fp.install(CHAIN_OUTPUT, flow, None, verdict=ACCEPT)

    def loop() -> int:
        lookup = fp.lookup
        for _ in range(n):
            lookup(CHAIN_OUTPUT, flow)
        return n

    return _ns_per_op(loop)


def rules_eval(n: int = 3_000, rules: int = 8) -> float:
    """``RuleTable.evaluate`` over an 8-rule chain nothing matches."""
    table = RuleTable()
    for i in range(rules):
        table.append(NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT,
                                   proto=PROTO_UDP, dport=60_000 + i))
    pkt = make_udp(MAC_A, MAC_B, IP_A, IP_B, 5_000, 9_000, 64)

    def loop() -> int:
        evaluate = table.evaluate
        for _ in range(n):
            evaluate(CHAIN_OUTPUT, pkt, None)
        return n

    return _ns_per_op(loop)


def _hop_rig(queue: int):
    """A learned two-port switch between two uplink/downlink pairs."""
    rate, prop = DEFAULT_COSTS.nic_line_rate_bps, DEFAULT_COSTS.link_propagation_ns
    sim = Simulator()
    switch = L2Switch(sim)
    for name in ("to_a", "to_b"):
        down = Link(sim, rate, prop, queue, name=name)
        down.attach(lambda _pkt: None)
        switch.add_port(down)
    up_a = Link(sim, rate, prop, queue, name="up_a")
    up_b = Link(sim, rate, prop, queue, name="up_b")
    up_a.attach(switch.ingress(0))
    up_b.attach(switch.ingress(1))
    # Teach the switch both MACs so the timed frames never flood.
    up_a.send(make_udp(MAC_A, MAC_B, IP_A, IP_B, 1, 1, 64))
    up_b.send(make_udp(MAC_B, MAC_A, IP_B, IP_A, 1, 1, 64))
    sim.run()
    return sim, up_a


def link_switch_hop(n: int = 5_000) -> float:
    """One frame over uplink -> L2 switch -> downlink, events included."""
    frame = make_udp(MAC_A, MAC_B, IP_A, IP_B, 5_000, 9_000, 64)
    samples = []
    for _ in range(REPEATS):
        sim, up_a = _hop_rig(n + 1)
        send = up_a.send
        t0 = time.perf_counter_ns()
        for _ in range(n):
            send(frame)
        sim.run()
        samples.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(samples)


def packet_build(n: int = 5_000) -> float:
    """``make_udp`` plus one ``five_tuple`` read."""

    def loop() -> int:
        for i in range(n):
            make_udp(MAC_A, MAC_B, IP_A, IP_B, 5_000, 9_000, 64).five_tuple
        return n

    return _ns_per_op(loop)


MICRO: Dict[str, Callable[[], float]] = {
    "micro.sim_push_pop_ns": sim_push_pop,
    "micro.llc_line_op_ns": llc_line_op,
    "micro.fastpath_hit_ns": fastpath_hit,
    "micro.rules_eval8_ns": rules_eval,
    "micro.link_switch_hop_ns": link_switch_hop,
    "micro.packet_build_ns": packet_build,
}


def run_all() -> Dict[str, float]:
    return {name: fn() for name, fn in MICRO.items()}
